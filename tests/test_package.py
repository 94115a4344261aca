import ast
import dataclasses
import json
import math
import pathlib
import re
import sys

import vortexscatter
from vortexscatter.cli import EXIT_OK, RunConfig, load_config, main, validate

PACKAGE_DIR = pathlib.Path(vortexscatter.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
RUNTIME_IMPORTS = set(sys.stdlib_module_names) | {"numpy", "vortexscatter"}


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from vortexscatter import *", namespace)
    assert sorted(set(vortexscatter.__all__) - set(namespace)) == []


def test_runtime_imports_only_stdlib_and_numpy():
    foreign = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in RUNTIME_IMPORTS]
    assert foreign == []


def _readme_library_names() -> set[str]:
    """The identifiers in the code of README's Library section: its example
    and its `code` spans."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.findall(r"```python\n(.*?)```", section, re.S)
    code += re.findall(r"(?<!`)`([^`\n]+)`(?!`)", section)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def test_every_definition_has_a_src_caller_or_a_library_entry():
    # a function, class or method that only tests call belongs in tests/,
    # unless it is public and README's Library section names it
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    library = _readme_library_names()
    defined, used = [], set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if isinstance(d, kinds) and not d.name.endswith("__"):
                    defined.append((path.name, d.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{file}: {name}"
        for file, name in defined
        if name not in used and (name.startswith("_") or name not in library)
    ]
    assert unused == []


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert abs(namespace["ratio"] / (2.0 * math.pi) ** 1.5 - 1.0) < 1e-9
    assert namespace["result"].weights.shape == (21, 21)


def test_readme_configs_are_valid(tmp_path):
    text = README.read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in text.split("```json\n")[1:]]
    assert len(blocks) == 2
    for command, block in zip(("eval", "map"), blocks):
        path = tmp_path / f"{command}.json"
        path.write_text(block, encoding="utf-8")
        cfg, problems = load_config(str(path))
        assert problems == [], (command, problems)
        assert validate(cfg, command) == [], command
    out = tmp_path / "amplitude.json"
    assert main(["eval", "--config", str(tmp_path / "eval.json"), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text(encoding="utf-8"))["in_support"] is True


def test_readme_config_table_names_exactly_the_config_fields():
    text = README.read_text(encoding="utf-8")
    table = text.split("### Config reference\n", 1)[1].lstrip("\n").split("\n\n", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split(" | ")[0])]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(RunConfig))
