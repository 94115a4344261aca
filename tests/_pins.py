"""Pinned outputs, all in pinned_outputs.json: md5s of CLI outputs, float.hex
values of smeared amplitudes, and the float.hex bits of oracle solves and
drop-path Newton solves; the environments every pin must hold in; and
run_python, the one way the suite starts a subprocess.

A deliberate change to an output shows up here as a pin change. A pin is read
only through assert_md5, assert_hex and assert_bits, and only by a test that
carries the registered `pin` marker: conftest.py records the marker as each
test starts, and a read from an unmarked test fails, naming the pin. So every
pin case runs under `pytest -m pin`. The `pin_runs` fixture of conftest.py runs
it once in each of ENVIRONMENTS besides the suite's own run, so a marked test
must not ask for it, and test_pins.py fails an environment whose run has a pin
case that failed, errored or was skipped.

Most pins hold in every environment, and every bits pin does; the packet
`field` runs do since their weights take math.exp (WavePacketProfile.value).
Two pins follow numpy's SIMD `tan`, `arccos`, `arctan2` and `exp` or the map's
GEMM kernel, which round differently on another dispatch target or OpenBLAS core:
the md5 of the README reference map's weights and the smeared pool's hex.
pinned_outputs.json keeps each of those as {"any of": [...]}, the distinct
values recorded so far, and a read passes when it gets exactly one of them.
A read that gets none fails with the value got, the number recorded and this
machine. To record a new machine, run `pytest -m pin` there and append the
values that the failures print. A change that moves such a pin on purpose
replaces its list with the values got in the suite's own run and in each of
ENVIRONMENTS.
"""

import hashlib
import json
import os
import pathlib
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

def _machine() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        flags = "unknown"
    else:
        flags = " ".join(sorted(name for name, on in __cpu_features__.items() if on))
    return f"numpy {np.__version__}, CPU features {flags}"


def _expect(kind: str, name, got):
    """got equals the pin `name` of `kind`: a key of its section, or for bits
    the tuple of keys from the section down to the pin. A pin kept as
    {"any of": [...]} holds when got is exactly one of the values listed."""
    if not marked:
        pytest.fail(f"the test that reads {kind} pin {name!r} must carry the pin marker")
    pinned = _PINS[kind]
    for part in name if isinstance(name, tuple) else [name]:
        pinned = pinned[part]
    if isinstance(pinned, dict) and "any of" in pinned:
        values = pinned["any of"]
        assert got in values, (
            f"{kind} pin {name!r} got {json.dumps(got)}, none of its {len(values)} recorded "
            f"values. Running on {_machine()}; to record this machine, append the value got"
        )
    else:
        assert got == pinned, (
            f"{kind} pin {name!r} changed: got {json.dumps(got)}, pinned {json.dumps(pinned)}. "
            f"Pinned on {_PINS['recorded_on']}; running on {_machine()}"
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
# numpy's AVX2 paths, where tan, arccos, arctan2 and exp round differently, but
# not in the 9 digits that the map CSVs print, while sin, cos and the elementwise
# arithmetic of the solver and oracle bits round alike; the OpenBLAS kernels of
# an AVX2-only and of an AVX-only CPU, on which no oracle, solver or smeared
# pin may depend (the smeared amplitude makes no BLAS call); both AVX2
# settings together, as on an AVX2-only runner; and one BLAS thread, the
# setting README gives for map jobs on a shared host.
ENVIRONMENTS = {
    "avx2": {"NPY_DISABLE_CPU_FEATURES": WITHOUT_AVX512},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "avx2-haswell": {"NPY_DISABLE_CPU_FEATURES": WITHOUT_AVX512, "OPENBLAS_CORETYPE": "Haswell"},
    "one-blas-thread": {"OPENBLAS_NUM_THREADS": "1"},
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


def unusable(variables: dict[str, str]) -> str | None:
    """Why an environment cannot be made here, or None when it can."""
    features = variables.get("NPY_DISABLE_CPU_FEATURES")
    if features and not _dispatches(features):
        return f"numpy does not dispatch {features}"
    if "OPENBLAS_CORETYPE" in variables and not _dynamic_openblas():
        return "numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH"
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
