"""Pinned outputs, all in pinned_outputs.json: md5s of CLI outputs, float.hex
values of smeared amplitudes, and the float.hex bits of oracle solves and
drop-path Newton solves; the environments every pin must hold in; and
run_python, the one way the suite starts a subprocess.

A deliberate change to an output shows up here as a pin change. A pin is read
only through assert_md5, assert_hex and assert_bits, and only by a test that
carries the registered `pin` marker: conftest.py records the marker as each
test starts, and a read from an unmarked test fails, naming the pin. The
`pin_runs` fixture of conftest.py runs `pytest -m pin` once in each of
ENVIRONMENTS besides the suite's own run, so a marked test must not ask for
it. test_pins.py checks each whole run; a few tests in the other files check
their own file's pin cases in one run with assert_pins_held.

Most pins hold in every environment, and every bits pin does. Three kinds of
md5 and hex pins follow numpy's SIMD `tan`, `arccos` and `exp` or the map's
GEMM kernel, which round differently on another dispatch target or OpenBLAS
core: the README reference map's weights, the packet `field` runs whose
weights take their last bits from `np.exp`, and the smeared pool.
pinned_outputs.json keeps each of those as a map from environment key
(environment_key(): the highest SIMD target numpy runs and the core OpenBLAS
runs) to value. A pin read under a key that it has no value for fails with
the key, the value got and the recorded keys. To record a new key, run
`pytest -m pin` there and copy the values that the failures print.
"""

import ctypes
import functools
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_PINS = json.loads(pathlib.Path(__file__).with_name("pinned_outputs.json").read_text())

# Whether the running test carries the `pin` marker; conftest.py sets it as
# each test starts.
marked = False

# Seconds before run_python kills a subprocess and raises. A pin run and the
# longest CLI run each take about 7 s on a 2-core x86-64 machine, so a hung one
# fails its test long before the CI job's 20-minute timeout.
TIMEOUT_S = 300

# The config of each "criterion 8 <command>" pin.
CRITERION_8_CONFIGS = {
    "eval": dict(
        m=5, theta=0.2, kappa0=1.0, kappa01=0.9, kappa02=0.7,
        q=0.05, m1_min=6, m1_max=6, m2_min=1, m2_max=1,
    ),
    "oracle-check": dict(sample_count=3, seed=12345),
    "map": dict(
        m=5, m1_min=4, m1_max=6, m2_min=-1, m2_max=1,
        node_count=16, q_nodes=48,
    ),
    "field": dict(m=1, kappa0=1.0, grid_n=5, r_max=4.0),
}


def _openblas_core() -> str:
    """The CPU kernel OpenBLAS runs, as numpy's vendored scipy-openblas
    reports it; OPENBLAS_CORETYPE only when no such library answers, since
    OpenBLAS ignores a name it does not know; else "unknown"."""
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return os.environ.get("OPENBLAS_CORETYPE") or "unknown"


def _simd_target() -> str:
    """The highest SIMD target numpy dispatches to here, or its baseline's
    highest when it dispatches to none."""
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__,
        )
    except ImportError:
        return "unknown"
    enabled = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    return (enabled or __cpu_baseline__ or ["none"])[-1]


@functools.cache
def environment_key() -> str:
    """The key of the per-environment pins: the SIMD target and the OpenBLAS
    core, for example "AVX512_SPR/SkylakeX"."""
    return f"{_simd_target()}/{_openblas_core()}"


def _machine() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        flags = "unknown"
    else:
        flags = " ".join(sorted(name for name, on in __cpu_features__.items() if on))
    return f"numpy {np.__version__}, OpenBLAS core {_openblas_core()}, CPU features {flags}"


def _expect(kind: str, name, got):
    """got equals the pin `name` of `kind`: a key of its section, or for bits
    the tuple of keys from the section down to the pin."""
    if not marked:
        pytest.fail(f"the test that reads {kind} pin {name!r} must carry the pin marker")
    pinned = _PINS[kind]
    for part in name if isinstance(name, tuple) else [name]:
        pinned = pinned[part]
    key = environment_key()
    if isinstance(pinned, dict) and kind != "bits":  # kept per environment
        assert key in pinned, (
            f"{kind} pin {name!r} has no value for environment {key!r}: "
            f"got {json.dumps(got)}; recorded for {sorted(pinned)}"
        )
        pinned = pinned[key]
    assert got == pinned, (
        f"{kind} pin {name!r} changed in environment {key!r}: got {json.dumps(got)}, "
        f"pinned {json.dumps(pinned)}. Pinned on {_PINS['recorded_on']}; running on {_machine()}"
    )


def assert_md5(name: str, data: bytes) -> None:
    """The md5 of an output's bytes equals its pin."""
    _expect("md5", name, hashlib.md5(data).hexdigest())


def assert_hex(name: str, values) -> None:
    """Each complex value's real and imaginary float.hex equal their pins."""
    _expect("hex", name, [[complex(v).real.hex(), complex(v).imag.hex()] for v in values])


def assert_bits(name: tuple, got) -> None:
    """got, a JSON value of float.hex strings and counts, equals the bits pin
    at the keys `name`, as ("solve_system", "two_cycle")."""
    _expect("bits", name, got)


# numpy's AVX2 paths, as on a CPU without AVX-512; numpy refuses to import
# when asked to disable a target that it does not dispatch
WITHOUT_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"

# The environments that every pin runs in besides the suite's own, by id:
# numpy's AVX2 paths, the OpenBLAS kernels of an AVX2-only and of an
# AVX-only CPU, and both AVX2 settings together, as on an AVX2-only runner.
ENVIRONMENTS = {
    "avx2": {"NPY_DISABLE_CPU_FEATURES": WITHOUT_AVX512},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "avx2-haswell": {"NPY_DISABLE_CPU_FEATURES": WITHOUT_AVX512, "OPENBLAS_CORETYPE": "Haswell"},
}


def _dispatches(targets: str) -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:
        return False
    return set(targets.split()) <= set(__cpu_dispatch__)


def _dynamic_openblas() -> bool:
    """numpy's BLAS is an OpenBLAS that picks its kernel at run time, so
    OPENBLAS_CORETYPE selects it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


_NOT_DYNAMIC = "numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH"
needs_dynamic_openblas = pytest.mark.skipif(not _dynamic_openblas(), reason=_NOT_DYNAMIC)


def unusable(variables: dict[str, str]) -> str | None:
    """Why an environment cannot be made here, or None when it can."""
    features = variables.get("NPY_DISABLE_CPU_FEATURES")
    if features and not _dispatches(features):
        return f"numpy does not dispatch {features}"
    if "OPENBLAS_CORETYPE" in variables and not _dynamic_openblas():
        return _NOT_DYNAMIC
    return None


def run_python(args: list[str], env: dict[str, str] | None = None, **kwargs):
    """Run Python with `args` in a subprocess on this checkout's sources and
    tests, from the repository root, in `env` (this process's environment if
    None), and return its subprocess.CompletedProcess with text output; kwargs
    go to subprocess.run. subprocess.TimeoutExpired after TIMEOUT_S."""
    env = dict(os.environ if env is None else env)
    path = [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=ROOT, env=env,
        timeout=TIMEOUT_S, **kwargs,
    )


def run_pins(variables: dict[str, str]) -> subprocess.CompletedProcess:
    """Run every test marked `pin` with run_python, in this process's
    environment with every variable named in ENVIRONMENTS removed and then
    `variables` set; its own subprocesses inherit them. No pin test uses a
    third-party pytest plugin, and loading them makes pytest rewrite the
    asserts of hypothesis's modules on each start where bytecode is not
    written: about 0.8 of 2 s before the first test."""
    named = {name for env in ENVIRONMENTS.values() for name in env}
    env = {name: value for name, value in os.environ.items() if name not in named}
    env.update(variables, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    return run_python(["-m", "pytest", "-v", "-p", "no:cacheprovider", "-m", "pin"], env)


# a line of `pytest -v`: a node id and its outcome
_OUTCOME = re.compile(r"^(\S+?::.+?) (PASSED|FAILED|ERROR|SKIPPED|XFAIL|XPASS)\b", re.M)


def assert_pins_held(runs: dict, name: str, path: str) -> None:
    """Every pin case of the test file at `path` passed in the pin run of
    environment `name` (from the `pin_runs` fixture), and there is one."""
    reason = unusable(ENVIRONMENTS[name])
    if reason:
        pytest.skip(reason)
    done = runs[name].result()
    prefix = pathlib.Path(path).resolve().relative_to(ROOT).as_posix() + "::"
    outcomes = {
        node: outcome for node, outcome in _OUTCOME.findall(done.stdout) if node.startswith(prefix)
    }
    assert outcomes, done.stdout + done.stderr
    assert set(outcomes.values()) == {"PASSED"}, done.stdout + done.stderr
