import ast
import pathlib
import sys

import vortexscatter

PACKAGE_DIR = pathlib.Path(vortexscatter.__file__).parent
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
