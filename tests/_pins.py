"""Pinned outputs: md5s of CLI outputs and float.hex values of smeared
amplitudes, recorded from an earlier commit in pinned_outputs.json.

A deliberate change to an output shows up here as a pin change. numpy's SIMD
transcendentals and OpenBLAS's per-CPU kernels may round differently on
another numpy build or CPU, so a mismatch names both the machine the pins
were recorded on and this one.
"""

import ctypes
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

_PINS = json.loads(pathlib.Path(__file__).with_name("pinned_outputs.json").read_text())

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
    """The CPU kernel OpenBLAS runs: OPENBLAS_CORETYPE when it is set, else
    the core that numpy's vendored scipy-openblas reports, else "unknown"."""
    if os.environ.get("OPENBLAS_CORETYPE"):
        return os.environ["OPENBLAS_CORETYPE"]
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _machine() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        flags = "unknown"
    else:
        flags = " ".join(sorted(name for name, on in __cpu_features__.items() if on))
    return f"numpy {np.__version__}, OpenBLAS core {_openblas_core()}, CPU features {flags}"


def _expect(kind: str, name: str, got):
    pinned = _PINS[kind][name]
    assert got == pinned, (
        f"{kind} pin {name!r} changed: got {got}, pinned {pinned}. "
        f"Pinned on {_PINS['recorded_on']}; running on {_machine()}"
    )


def assert_md5(name: str, data: bytes) -> None:
    """The md5 of an output's bytes equals its pin."""
    _expect("md5", name, hashlib.md5(data).hexdigest())


def assert_hex(name: str, values) -> None:
    """Each complex value's real and imaginary float.hex equal their pins."""
    _expect("hex", name, [[complex(v).real.hex(), complex(v).imag.hex()] for v in values])


# numpy's AVX2 paths, as on a CPU without AVX-512; numpy refuses to import
# when asked to disable a target that it does not dispatch
WITHOUT_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"


def _dispatches(targets: str) -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:
        return False
    return set(targets.split()) <= set(__cpu_dispatch__)


needs_avx512_dispatch = pytest.mark.skipif(
    not _dispatches(WITHOUT_AVX512), reason="numpy does not dispatch these AVX-512 targets"
)


def _dynamic_openblas() -> bool:
    """numpy's BLAS is an OpenBLAS that picks its kernel at run time, so
    OPENBLAS_CORETYPE selects it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


needs_dynamic_openblas = pytest.mark.skipif(
    not _dynamic_openblas(), reason="numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH"
)


def run_pytest(tests: list[str], **env: str) -> subprocess.CompletedProcess:
    """Run the given pytest node ids in a subprocess on this checkout's
    sources, with the given environment variables set; its own subprocesses
    inherit them."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        capture_output=True, text=True, cwd=root, env=env,
    )
