import json
import math
import os
import tempfile
import typing
import warnings

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vortexscatter.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE_ORACLE,
    EXIT_DEGENERATE_SUPPORT,
    EXIT_OK,
    EXIT_QUADRATURE,
    EXIT_THRESHOLD,
    MAX_GRID_N,
    MAX_NODE_COUNT,
    RunConfig,
    _COMMANDS,
    main,
)
from vortexscatter.numerics import gauss_legendre_on
from vortexscatter.oracle import OracleResult
from vortexscatter.wavepackets import IntensityMap, WavePacketProfile

from _pins import CRITERION_8_CONFIGS, assert_md5, assert_pins_held, run_python


def _write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return path


def _eval_config(**overrides):
    base = dict(
        m=5, theta=0.2, kappa0=1.0, kappa01=0.9, kappa02=0.7,
        q=0.05, m1_min=6, m1_max=6, m2_min=1, m2_max=1,
    )
    base.update(overrides)
    return base


# |q| is one ulp below kappa0 sin(theta), but q / kappa0 rounds to sin(theta) or
# above: formerly a math domain error in angle_set and a division by a zero root
_EDGE_Q_ANGLES = _eval_config(theta=0.6424507411017956, kappa0=5.7994810873570755, q=3.4748134637392347)
_EDGE_Q_ROOT = _eval_config(
    theta=0.5768321621309331, kappa0=7.280409986954765, kappa01=6.552368988259288,
    kappa02=5.096286990868335, q=3.9705274847427057, m=1, m1_min=1, m1_max=1, m2_min=0, m2_max=0,
)


class TestEval:
    def test_generic_round_trip(self, tmp_path):
        cfg = _write_config(tmp_path, **_eval_config())
        out = tmp_path / "out.json"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        from vortexscatter.amplitudes import reduced_triple_amplitude
        from vortexscatter.kinematics import CollisionGeometry, TwistedState

        geom = CollisionGeometry(0.2, 0.05, TwistedState.massless(1.0, 5, 50.0), 0.9, 0.7)
        amp = reduced_triple_amplitude(geom, 5, 6, 1)
        assert payload["value_re"] == amp.value.real  # bit-exact round trip
        assert payload["value_im"] == amp.value.imag
        assert payload["phase_power"] == 2
        assert payload["in_support"] is True

    def test_out_of_stripe(self, tmp_path):
        cfg = _write_config(tmp_path, **_eval_config(kappa01=0.1, kappa02=3.0))
        out = tmp_path / "out.json"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["in_support"] is False
        assert payload["value_re"] == 0.0 and payload["value_im"] == 0.0
        assert payload["area"] is None

    def test_symmetric_zero(self, tmp_path):
        cfg = _write_config(tmp_path, **_eval_config(m=1, q=0.0, m1_min=0, m1_max=0, m2_min=0, m2_max=0))
        out = tmp_path / "out.json"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["in_support"] is True
        assert abs(payload["value_re"]) < 1e-12

    def test_q_region_validation_names_inequality(self, tmp_path, capsys):
        for config in (_eval_config(q=0.9), _EDGE_Q_ANGLES, _EDGE_Q_ROOT):
            cfg = _write_config(tmp_path, **config)
            out = tmp_path / "out.json"
            assert main(["eval", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "kappa0*sin(theta)" in err

    def test_pure_imaginary_value_has_positive_zero_real_part(self, tmp_path):
        # phase power 1: value_re is a signed zero, and `eval` has always written +0.0
        cfg = _write_config(tmp_path, **_eval_config(m2_min=0, m2_max=0))
        out = tmp_path / "out.json"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert '"value_re": 0.0,' in out.read_text()

    def test_all_violations_listed(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, **_eval_config(theta=-0.1, kappa0=-2.0, m1_min=1, m1_max=3)
        )
        assert main(["eval", "--config", str(cfg), "--out", "x"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "theta" in err and "kappa0" in err and "m1_min" in err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = _write_config(tmp_path, kappa_0=1.0)
        assert main(["eval", "--config", str(cfg), "--out", "x"]) == EXIT_CONFIG

    def test_degenerate_support_exit_code(self, tmp_path):
        # sliver triangle: inside the stripe with area below the degeneracy floor
        cfg = _write_config(
            tmp_path,
            **_eval_config(kappa0=1e8, kappa01=1e8, kappa02=0.1, q=0.0),
        )
        out = tmp_path / "out.json"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == EXIT_DEGENERATE_SUPPORT
        assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("map", dict(sigma_rel=math.nan, m1_min=5, m1_max=5, m2_min=0, m2_max=0, q_nodes=4)),
        ("map", dict(kappa02=math.inf, m1_min=5, m1_max=5, m2_min=0, m2_max=0, q_nodes=4)),
        ("field", dict(kappa0=math.nan)),
        ("eval", _eval_config(kappa01=math.nan)),
    ],
)
def test_non_finite_config_rejected(tmp_path, capsys, command, overrides):
    cfg = _write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides, messages",
    [
        ("eval", {"theta": "0.2"}, ["theta must be a number"]),
        ("eval", {"m": 5.5}, ["m must be an integer"]),
        ("map", {"q_nodes": 2.5}, ["q_nodes must be an integer"]),
        (
            "map",
            {"q_nodes": True, "plot_script": 1, "node_count": 24.0},
            [
                "q_nodes must be an integer",
                "plot_script must be true or false",
                "node_count must be an integer",
            ],
        ),
    ],
)
def test_mistyped_config_value_rejected(tmp_path, command, overrides, messages):
    cfg = _write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    proc = run_python(["-m", "vortexscatter", command, "--config", str(cfg), "--out", str(out)])
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    for message in messages:
        assert message in proc.stderr
    assert not out.exists()


_ONE_CELL = dict(m1_min=5, m1_max=5, m2_min=0, m2_max=0, q_nodes=4)
# squares below the smallest normal float: eval would divide by a zero
# triangle area and map would write nan from 0 / 0 stripe angles
_TINY_KAPPAS = dict(kappa0=1e-160, kappa01=1e-160, kappa02=1e-160)
_TINY_KAPPAS_EVAL = _eval_config(q=0.0, m1_min=1, m1_max=1, m2_min=0, m2_max=0, **_TINY_KAPPAS)
# the packet supports reach about 3.75e154, so (kt + k2)^2 in a q slice is inf
# and inf - inf wrote nan with exit 0; sigma_rel = 1e153 still fits
_WIDE_PACKETS = dict(sigma_rel=3e153, node_count=4, map_cell_rtol=1.0, **_ONE_CELL)
# JSON integers have no size limit: these ended in OverflowError or ValueError
_BIG = 10**400


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("oracle-check", dict(seed=-1, sample_count=1), "seed must be non-negative"),
        ("eval", _eval_config(theta=1e-300), "sin(theta)^2 underflows"),
        ("oracle-check", dict(theta=1e-300, sample_count=1), "sin(theta)^2 underflows"),
        ("map", dict(theta=1e-300, **_ONE_CELL), "sin(theta)^2 underflows"),
        ("field", dict(m=300, grid_n=2), "MAX_BESSEL_ORDER = 200"),
        ("field", dict(m=-201, grid_n=2), "MAX_BESSEL_ORDER = 200"),
        ("field", dict(kappa0=1e308, grid_n=2), "50 * kappa0 (the k_z of the beam modes) must be finite"),
        ("field", dict(r_max=1e300, grid_n=2), "r_max * kappa0 = 1e+300 exceeds MAX_BESSEL_ARGUMENT"),
        # the packet reaches kappa0 (1 + 5 sigma_rel) = 2: 2 * 6000 > 1e4
        (
            "field",
            dict(r_max=6000.0, field_packet=True, grid_n=2),
            "r_max * the packet's largest kappa = 12000 exceeds MAX_BESSEL_ARGUMENT",
        ),
        ("eval", _eval_config(kappa0=1e200), "omega^2 must be finite"),
        ("map", dict(kappa0=1e200, **_ONE_CELL), "omega^2 must be finite"),
        ("map", dict(kappa02=1e-150, sigma_rel=1e-200, **_ONE_CELL), "packet profile: support"),
        ("eval", _TINY_KAPPAS_EVAL, "kappa0 too small: kappa0^2 underflows"),
        ("map", dict(_TINY_KAPPAS, **_ONE_CELL), "kappa02 too small: kappa02^2 underflows"),
        ("map", _WIDE_PACKETS, "(sum of the three upper support ends)^2 overflows"),
        ("eval", _eval_config(m=_BIG), "m must lie in [-2**63, 2**63)"),
        ("eval", _eval_config(m1_min=_BIG, m1_max=_BIG), "m1_max must lie in [-2**63, 2**63)"),
        ("map", dict(_ONE_CELL, m=-_BIG), "m must lie in [-2**63, 2**63)"),
        ("map", dict(_ONE_CELL, q_nodes=_BIG), "q_nodes must lie in [-2**63, 2**63)"),
        ("field", dict(grid_n=_BIG), "grid_n must lie in [-2**63, 2**63)"),
        ("field", dict(grid_n=2**63), "grid_n must lie in [-2**63, 2**63)"),
        ("eval", _eval_config(theta=_BIG), "theta must be finite"),
        # numpy's linspace raised ValueError: array is too big
        ("field", dict(grid_n=2**62), "grid_n must not exceed MAX_GRID_N = 1024"),
        ("field", dict(grid_n=200000), "grid_n must not exceed MAX_GRID_N = 1024"),
        # drew samples for as long as it ran
        (
            "oracle-check",
            dict(sample_count=10**12),
            "sample_count must not exceed MAX_SAMPLE_COUNT = 1000000",
        ),
        # out of memory, or swap without an address-space limit
        (
            "map",
            dict(m1_min=-10**8, m1_max=10**8, q_nodes=4, node_count=4),
            "= 4200000021 must not exceed MAX_HELICITY_CELLS = 10000",
        ),
        ("map", dict(q_nodes=10**9), "q_nodes must not exceed MAX_Q_NODES = 1024"),
        ("map", dict(node_count=100000), "node_count must not exceed MAX_NODE_COUNT = 128"),
        ("map", dict(map_cell_rtol=0.0, **_ONE_CELL), "map_cell_rtol must be positive"),
        ("field", dict(r_max=0.0, grid_n=2), "r_max must be positive"),
    ],
)
def test_out_of_range_config_rejected(tmp_path, capsys, command, overrides, message):
    cfg = _write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_seed_beyond_64_bits_still_runs(tmp_path):
    # numpy.random.default_rng takes any non-negative integer seed
    cfg = _write_config(tmp_path, seed=_BIG, sample_count=2)
    out = tmp_path / "report.json"
    assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{", b'{"m": ' + b"1" * 5000 + b"}", b"[1, 2]", b"{"],
    ids=["not-utf8", "beyond-int-digit-limit", "not-an-object", "malformed"],
)
def test_unreadable_config_rejected(tmp_path, capsys, content):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(content)
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config invalid" in capsys.readouterr().err


@pytest.mark.pin
def test_tiny_theta_still_runs(tmp_path):
    # sin(1e-150)^2 = 1e-300 is still a normal float
    cfg = _write_config(tmp_path, theta=1e-150, **_ONE_CELL)
    out = tmp_path / "map.csv"
    assert main(["map", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    intensity = float(out.read_text().splitlines()[1].split(",")[2])
    assert math.isfinite(intensity)
    assert_md5("map tiny theta", out.read_bytes())
    cfg = _write_config(tmp_path, "check.json", theta=1e-150, sample_count=1)
    out = tmp_path / "check.json.out"
    assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == EXIT_DEGENERATE_ORACLE


def test_zero_width_stripe_is_empty_not_nan(tmp_path):
    # kappa02 is below the float spacing of kappa~, so the stripe span
    # (kappa~ + kappa2)^2 - (kappa~ - kappa2)^2 rounds to 0; such a stripe
    # holds no kappa1 and must add 0 to a cell, never 0 / 0 (which wrote nan)
    cfg = _write_config(
        tmp_path, theta=1e-20, kappa0=1.8e-3, kappa01=8.1e-3, kappa02=3.3e-94,
        sigma_rel=28.5, q_nodes=4,
    )
    out = tmp_path / "map.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["map", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_DEGENERATE_SUPPORT  # every stripe is empty
    assert not out.exists()


def test_map_without_support_exits_degenerate(tmp_path, capsys):
    # kappa02 - kappa01 > 2.8 exceeds kappa~ <= 1.05 for every packet mode:
    # no momentum triangle closes
    cfg = _write_config(tmp_path, kappa01=1e-3, kappa02=3.0, sigma_rel=0.01, **_ONE_CELL)
    out = tmp_path / "map.csv"
    assert main(["map", "--config", str(cfg), "--out", str(out)]) == EXIT_DEGENERATE_SUPPORT
    assert "no support" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config",
    [
        ("eval", _eval_config()),
        ("oracle-check", dict(sample_count=1)),
        ("map", dict(m1_min=5, m1_max=5, m2_min=0, m2_max=0, node_count=12, q_nodes=32)),
        ("field", dict(grid_n=2)),
    ],
    ids=["eval", "oracle-check", "map", "field"],
)
def test_unwritable_output_exits_config(tmp_path, capsys, command, config):
    # exit 1 would claim an oracle-check threshold failure
    cfg = _write_config(tmp_path, **config)
    for out in (tmp_path / "missing" / "out", tmp_path):  # no such directory; a directory
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "cannot write output" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["map", "oracle-check"])
def test_unwritable_output_fails_before_computing(tmp_path, capsys, monkeypatch, command):
    def must_not_run(*args, **kwargs):
        raise AssertionError("computed before the output was checked")

    monkeypatch.setattr("vortexscatter.cli.intensity_map", must_not_run)
    monkeypatch.setattr("vortexscatter.cli.oracle_amplitude", must_not_run)
    cfg = _write_config(tmp_path, sample_count=1, **_ONE_CELL)

    def exits_config(out):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "cannot write output" in capsys.readouterr().err

    exits_config(tmp_path / "missing" / "out")  # no such directory
    exits_config(tmp_path)  # a directory
    if command == "map":
        # the CSV path is writable, but not the partial results beside it
        out = tmp_path / "map.csv"
        (tmp_path / "map.csv.partial").mkdir()
        exits_config(out)
        assert not out.exists()  # the check leaves no file behind


def test_unwritable_plot_script_fails_before_computing(tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("computed before the output was checked")

    monkeypatch.setattr("vortexscatter.cli.intensity_map", must_not_run)
    cfg = _write_config(tmp_path, plot_script=True, **_ONE_CELL)
    out = tmp_path / "out.csv"
    (tmp_path / "out.csv.gp").mkdir()
    assert main(["map", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "cannot write output" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config",
    [
        ("eval", _eval_config()),
        ("oracle-check", dict(sample_count=1)),
        ("map", _ONE_CELL),
        ("field", dict(grid_n=2)),
    ],
    ids=["eval", "oracle-check", "map", "field"],
)
def test_memory_error_exits_config(tmp_path, capsys, monkeypatch, command, config):
    # exit 1 would claim an oracle-check threshold failure
    def out_of_memory(cfg, out_path):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setitem(_COMMANDS, command, out_of_memory)
    cfg = _write_config(tmp_path, **config)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config too large: out of memory (Unable to allocate 74.5 GiB)\n"
    assert not out.exists()


@pytest.mark.skipif(resource is None, reason="no address-space limit on this platform")
def test_oversized_map_exits_config_under_an_address_space_limit(tmp_path):
    # within every map cap, 10^4 helicity values at 128 nodes need a 2.4 GiB
    # phase array per kappa row; a 2 GB address space makes that a
    # MemoryError, not swap
    cfg = _write_config(
        tmp_path, m1_min=-5000, m1_max=4999, m2_min=0, m2_max=0, node_count=MAX_NODE_COUNT
    )
    out = tmp_path / "map.csv"

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    args = ["-m", "vortexscatter", "map", "--config", str(cfg), "--out", str(out)]
    proc = run_python(args, preexec_fn=limit_address_space)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config too large: out of memory (")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not out.exists() and not (tmp_path / "map.csv.partial").exists()


class TestOracleCheck:
    def test_single_sample_deterministic(self, tmp_path):
        cfg = _write_config(tmp_path, sample_count=1, seed=42)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_small_run_passes_default_threshold(self, tmp_path):
        cfg = _write_config(tmp_path, sample_count=8, seed=1)
        out = tmp_path / "report.json"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["dispersion"] < 1e-8
        assert len(report["per_sample_re"]) == 8

    @pytest.mark.pin
    def test_seed_7_report_is_pinned(self, tmp_path):
        cfg = _write_config(tmp_path, sample_count=300, seed=7)
        out = tmp_path / "report.json"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert_md5("oracle-check seed 7", out.read_bytes())

    def test_zero_threshold_fails(self, tmp_path):
        cfg = _write_config(tmp_path, sample_count=2, seed=1, threshold=0.0)
        out = tmp_path / "report.json"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == EXIT_THRESHOLD
        assert json.loads(out.read_text())["passed"] is False

    def test_zero_mean_ratio_writes_null_spread(self, tmp_path, monkeypatch):
        # an oracle that finds no root: every oracle amplitude and ratio is 0
        monkeypatch.setattr("vortexscatter.cli.oracle_amplitude", lambda *args: OracleResult((), 0j))
        cfg = _write_config(tmp_path, sample_count=2, seed=1)
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["oracle-check", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_THRESHOLD

        def reject(name):
            raise ValueError(f"not strict JSON: {name}")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert report["ratio_mean_re"] == 0.0 and report["ratio_mean_im"] == 0.0
        assert report["dispersion"] is None
        assert report["max_rel_deviation"] is None
        assert report["passed"] is False


class TestMap:
    @pytest.mark.pin
    def test_single_cell_self_normalizes(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            m=5, m1_min=5, m1_max=5, m2_min=0, m2_max=0,
            node_count=12, q_nodes=32,
        )
        out = tmp_path / "map.csv"
        assert main(["map", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert out.read_text() == "m1,m2,intensity\n5,0,1\n"
        assert_md5("map one cell", out.read_bytes())

    @pytest.mark.pin
    def test_csv_round_trip_and_plot_script(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            m=5, m1_min=4, m1_max=6, m2_min=-1, m2_max=1,
            node_count=16, q_nodes=48,
            plot_script=True,
        )
        out = tmp_path / "map.csv"
        assert main(["map", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "m1,m2,intensity"
        assert len(lines) == 1 + 3 * 3
        for line in lines[1:]:
            m1, m2, v = line.split(",")
            assert f"{float(v):.9g}" == v  # canonical 9-digit form round-trips
        assert (tmp_path / "map.csv.gp").exists()
        assert str(out) in (tmp_path / "map.csv.gp").read_text()
        assert_md5("map n16 q48", out.read_bytes())
        gp = (tmp_path / "map.csv.gp").read_bytes().replace(str(out).encode(), b"<out>")
        assert_md5("map n16 q48 .gp", gp)

    def test_plot_script_quotes_a_path_with_an_apostrophe(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            m=5, m1_min=5, m1_max=5, m2_min=0, m2_max=0,
            node_count=12, q_nodes=32,
            plot_script=True,
        )
        out = tmp_path / "it's map.csv"
        assert main(["map", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        gp = (tmp_path / "it's map.csv.gp").read_text()
        assert f"plot '{tmp_path}/it''s map.csv' skip 1" in gp

    # the former nested objects: the map's node count is now the top-level
    # node_count, and the oracle's Newton controls are not settable
    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("map", "quadrature", {"node_count": 24, "rel_tol": 1e-6}),
            ("oracle-check", "root_find", {"max_iterations": 1}),
        ],
        ids=["quadrature", "root_find"],
    )
    def test_quadrature_object_is_an_unknown_key(self, tmp_path, capsys, command, key, value):
        cfg = _write_config(tmp_path, **{key: value})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert f"unknown config key: {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.pin
    def test_underresolved_map_aborts_with_partial(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            m=5, m1_min=4, m1_max=6, m2_min=-1, m2_max=1,
            node_count=6, q_nodes=24,
            map_cell_rtol=1e-4,
        )
        out = tmp_path / "map.csv"
        assert main(["map", "--config", str(cfg), "--out", str(out)]) == EXIT_QUADRATURE
        assert not out.exists()
        assert (tmp_path / "map.csv.partial").exists()
        assert_md5("map under-resolved .partial", (tmp_path / "map.csv.partial").read_bytes())

    def test_map_pins_hold_without_avx512_dispatch(self, pin_runs):
        # tan, arccos and exp round differently on numpy's AVX2 paths, which
        # moves the map's weights in their last bits but not the 9 digits
        # that the CSVs print
        assert_pins_held(pin_runs, "avx2", __file__)

    def test_nan_cell_delta_fails_closed(self, tmp_path, monkeypatch, capsys):
        # a NaN delta, and a NaN weight, which makes its delta NaN too
        cfg = _write_config(tmp_path, **_ONE_CELL)
        for weight, message in [
            (1.0, "quadrature failure: 1 cell(s) above map_cell_rtol = 0.01"),
            (math.nan, "non-finite map: 1 weight(s) are NaN or inf"),
        ]:
            metadata = {"cell_rel_delta": np.array([[math.nan]]), "max_cell_rel_delta": math.nan}
            result = IntensityMap((5, 5), (0, 0), np.array([[weight]]), metadata)
            monkeypatch.setattr("vortexscatter.cli.intensity_map", lambda *args, **kwargs: result)
            out = tmp_path / f"map {weight}.csv"
            assert main(["map", "--config", str(cfg), "--out", str(out)]) == EXIT_QUADRATURE
            assert capsys.readouterr().err == f"{message}; partial results in {out}.partial\n"
            assert not out.exists()
            assert (tmp_path / f"map {weight}.csv.partial").exists()


# Packet field runs over the benchmark's ranges (kappa0 0.5-2, r_max 4-20,
# grid_n 8-16), m of both signs; r = 0 is always on the grid.
_PINNED_PACKET_RUNS = [
    (-8, 0.5, 20.0, 8),
    (-7, 2.0, 12.0, 9),
    (-5, 1.3, 4.0, 10),
    (-3, 0.8, 16.0, 11),
    (-2, 1.7, 7.5, 12),
    (-1, 1.0, 10.0, 13),
    (0, 0.6, 18.0, 14),
    (0, 2.0, 5.0, 16),
    (1, 1.1, 20.0, 15),
    (2, 0.5, 9.0, 16),
    (3, 1.9, 14.0, 8),
    (4, 0.9, 6.0, 9),
    (5, 1.5, 11.0, 10),
    (6, 0.7, 4.5, 12),
    (7, 1.2, 17.0, 14),
    (8, 2.0, 20.0, 16),
]


class TestField:
    def test_vortex_core_rows(self, tmp_path):
        cfg = _write_config(tmp_path, m=3, kappa0=1.0, grid_n=4, r_max=2.0)
        out = tmp_path / "field.csv"
        assert main(["field", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "r,phi,re,im"
        for line in lines[1:5]:  # the r = 0 rows
            r, phi, re, im = line.split(",")
            assert float(r) == 0.0
            assert float(re) == 0.0 and float(im) == 0.0

    def test_zero_order_core_value(self, tmp_path):
        cfg = _write_config(tmp_path, m=0, kappa0=2.0, grid_n=3, r_max=1.0)
        out = tmp_path / "field.csv"
        assert main(["field", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        first = out.read_text().splitlines()[1].split(",")
        assert float(first[2]) == pytest.approx(math.sqrt(2.0 / (2.0 * math.pi)), abs=1e-15)

    def test_series_oracle_value(self, tmp_path):
        # grid_n = 4, r_max = 3 puts r = 1 and phi = pi/2 on the grid
        cfg = _write_config(tmp_path, m=1, kappa0=1.0, grid_n=4, r_max=3.0)
        out = tmp_path / "field.csv"
        assert main(["field", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        from _oracles import bessel_series

        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        half_pi = 0.5 * math.pi
        row = next(
            r for r in rows
            if float(r[0]) == 1.0 and abs(float(r[1]) - half_pi) < 1e-8
        )
        expected = bessel_series(1, 1.0) * math.sqrt(1.0 / (2.0 * math.pi))
        assert float(row[3]) == pytest.approx(expected, abs=1e-9)  # imaginary part
        assert abs(float(row[2])) < 1e-12  # real part ~ 0 at phi = pi/2

    def test_grid_validation(self, tmp_path):
        cfg = _write_config(tmp_path, grid_n=1)
        assert main(["field", "--config", str(cfg), "--out", "x"]) == EXIT_CONFIG

    @pytest.mark.pin
    def test_packet_superposition_runs(self, tmp_path):
        cfg = _write_config(tmp_path, m=1, kappa0=1.0, grid_n=3, r_max=2.0, field_packet=True)
        out = tmp_path / "field.csv"
        assert main(["field", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 9
        for line in lines[1:]:
            r, phi, re, im = line.split(",")
            # plain round-trip floats, not np.float64(...)
            assert math.isfinite(float(re)) and math.isfinite(float(im))
        assert_md5("field packet", out.read_bytes())

    @pytest.mark.skipif(resource is None, reason="no getrusage on this platform")
    def test_largest_grid_peak_memory_below_twice_the_csv(self, tmp_path):
        # a packet field at MAX_GRID_N writes about 65 MB; holding each of its
        # million rows as a separate string grew the peak RSS by about 260 MB
        cfg = _write_config(tmp_path, m=3, r_max=10.0, grid_n=MAX_GRID_N, field_packet=True)
        out = tmp_path / "field.csv"
        script = (
            "import resource, sys\n"
            "from vortexscatter.cli import main\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "code = main(['field', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(code, after - before)\n"
        )
        proc = run_python(["-c", script, str(cfg), str(out)])
        assert proc.returncode == 0, proc.stderr
        code, growth_kib = (int(v) for v in proc.stdout.split())  # ru_maxrss is in KiB
        assert code == EXIT_OK
        size = out.stat().st_size
        out.unlink()  # 65 MB; pytest keeps the last runs' temporary directories
        assert 1024 * growth_kib < 2 * size

    @pytest.mark.parametrize("packet", [False, True])
    @pytest.mark.parametrize("m", [-3, -2, 0, 1, 4])
    def test_matches_per_point_formula_byte_for_byte(self, tmp_path, m, packet):
        # grid_n 5 puts r = 0 on the grid, where J_m vanishes for m != 0 and
        # the signed zeros of the complex products show in the CSV
        doc = dict(m=m, kappa0=1.3, sigma_rel=0.2, r_max=4.0, grid_n=5, field_packet=packet)
        cfg = _write_config(tmp_path, **doc)
        out = tmp_path / "field.csv"
        assert main(["field", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == _per_point_field_csv(**doc).encode()

    @pytest.mark.pin
    @pytest.mark.parametrize("m, kappa0, r_max, grid_n", _PINNED_PACKET_RUNS)
    def test_packet_runs_are_pinned(self, tmp_path, m, kappa0, r_max, grid_n):
        cfg = _write_config(
            tmp_path, m=m, kappa0=kappa0, r_max=r_max, grid_n=grid_n, field_packet=True
        )
        out = tmp_path / "field.csv"
        assert main(["field", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert_md5(_packet_pin_name(m, kappa0, r_max, grid_n), out.read_bytes())


def _packet_pin_name(m, kappa0, r_max, grid_n):
    return f"field packet m{m} kappa0 {kappa0:g} r_max {r_max:g} grid_n {grid_n}"


def _per_point_field_csv(m, kappa0, sigma_rel, r_max, grid_n, field_packet):
    """The field CSV from the per-point formula of _oracles, one point and
    mode at a time, and the packet sum in Python's order."""
    from _oracles import per_point_field

    radii = np.linspace(0.0, r_max, grid_n)
    azimuths = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    if field_packet:
        profile = WavePacketProfile(kappa0, sigma_rel * kappa0)
        kappas, weights = gauss_legendre_on(*profile.support, 64)
        weights = weights * profile.value(kappas)

        def sample(r, phi):
            return sum(wt * per_point_field(m, float(k), r, phi) for wt, k in zip(weights, kappas))

    else:

        def sample(r, phi):
            return per_point_field(m, kappa0, r, phi)

    lines = ["r,phi,re,im"]
    for r in radii:
        for phi in azimuths:
            value = complex(sample(float(r), float(phi)))
            lines.append(f"{float(r):.9g},{float(phi):.9g},{value.real!r},{value.imag!r}")
    return "\n".join(lines) + "\n"


class TestSubprocessDeterminism:
    @pytest.mark.pin
    def test_repeated_runs_byte_identical(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            m=5, m1_min=4, m1_max=5, m2_min=0, m2_max=1,
            node_count=10, q_nodes=24,
            map_cell_rtol=1.0,
        )
        outputs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            proc = run_python(["-m", "vortexscatter", "map", "--config", str(cfg), "--out", str(out)])
            assert proc.returncode == EXIT_OK, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert_md5("map subprocess", outputs[0])


@pytest.mark.pin
def test_reused_parser_keeps_every_output(tmp_path):
    # main builds its parser once per process; errors on it must not change
    # the next runs
    with pytest.raises(SystemExit) as exc:
        main(["field", "--config", str(tmp_path / "config.json")])  # no --out
    assert exc.value.code == 2
    bad = _write_config(tmp_path, "bad.json", grid_n=1)
    assert main(["field", "--config", str(bad), "--out", str(tmp_path / "bad.csv")]) == EXIT_CONFIG
    for command, config in CRITERION_8_CONFIGS.items():
        cfg = _write_config(tmp_path, f"{command}.json", **config)
        out = tmp_path / f"{command}.out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert_md5(f"criterion 8 {command}", out.read_bytes())
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


# Edge values for float fields: zero, negative, underflow, overflow and the
# non-finite values json.load accepts (Infinity, -Infinity, NaN).
_EDGE_FLOATS = [0.0, -0.5, 1e-300, 1e-150, 1e308, -1e308, math.inf, -math.inf, math.nan]
# JSON values that fit no field's type (5.5 fits a float field only).
_WRONG_TYPES = st.one_of(
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from(["0.2", 5.5, True]),
)
_SIZE_CAPS = {"sample_count": 3, "grid_n": 4, "q_nodes": 4, "node_count": 8}


def _typed(kind):
    if kind is bool:
        return st.booleans()
    if kind is int:
        return st.integers(-2, 6)
    return st.one_of(st.floats(1e-12, 3.0), st.sampled_from(_EDGE_FLOATS))


@st.composite
def _configs(draw):
    """Any subset of the RunConfig keys, at most one value of the wrong type.
    The size keys and helicity ranges are always set and capped, so that no
    example computes for long."""
    hints = typing.get_type_hints(RunConfig)
    config = {}
    for name, kind in hints.items():
        if name in _SIZE_CAPS:
            config[name] = draw(st.integers(-1, _SIZE_CAPS[name]))
        elif name.startswith(("m1_", "m2_")) or not draw(st.booleans()):
            continue
        else:
            config[name] = draw(_typed(kind))
    for prefix in ("m1", "m2"):
        low = draw(st.integers(-4, 4))
        config[f"{prefix}_min"] = low
        config[f"{prefix}_max"] = low + draw(st.integers(-1, 2))
    if draw(st.booleans()):
        config[draw(st.sampled_from(sorted(hints)))] = draw(_WRONG_TYPES)
    return config


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["eval", "oracle-check", "map", "field"]), config=_configs())
@example(command="oracle-check", config={"seed": -1, "sample_count": 1})
@example(command="eval", config={"theta": 1e-300})
@example(command="oracle-check", config={"theta": 1e-300, "sample_count": 1})
@example(command="map", config={"theta": 1e-300, **_ONE_CELL})
@example(command="map", config={"kappa0": 1e200, **_ONE_CELL})
@example(command="map", config={"kappa02": 1e-150, "sigma_rel": 1e-200, **_ONE_CELL})
@example(command="field", config={"m": 300, "grid_n": 2})
@example(command="field", config={"kappa0": 1e308, "grid_n": 2})
@example(command="field", config={"r_max": 1e300, "grid_n": 2})
@example(command="field", config={"r_max": 5e-324, "grid_n": 3})
@example(command="eval", config={"theta": "0.2"})
@example(command="eval", config={"m": 5.5})
@example(command="field", config={"kappa0": math.nan})
@example(command="eval", config={"theta": math.inf})
@example(command="map", config={"theta": math.inf, **_ONE_CELL})
@example(command="oracle-check", config={"theta": -math.inf, "sample_count": 1})
@example(command="eval", config=_TINY_KAPPAS_EVAL)
@example(command="eval", config=_EDGE_Q_ANGLES)
@example(command="eval", config=_EDGE_Q_ROOT)
@example(command="eval", config={"kappa0": 0.0})
@example(command="map", config=_WIDE_PACKETS)
@example(command="eval", config={"m": _BIG})
@example(command="eval", config=_eval_config(m1_min=_BIG, m1_max=_BIG))
@example(command="map", config={"m": _BIG, **_ONE_CELL})
@example(command="map", config={"m1_min": _BIG, "m1_max": _BIG, "q_nodes": 4})
@example(command="map", config={**_ONE_CELL, "q_nodes": _BIG})
@example(command="field", config={"grid_n": _BIG})
@example(command="eval", config={"q": -_BIG})
@example(command="oracle-check", config={"seed": _BIG, "sample_count": 1})
@example(command="eval", config=_eval_config(m=2**63 - 1))
@example(command="map", config={"m": -(2**63 - 1), **_ONE_CELL, "node_count": 4})
@example(command="map", config={"m": 2**62, **_ONE_CELL, "node_count": 4})
@example(command="field", config={"grid_n": 2**62})
@example(command="oracle-check", config={"sample_count": 10**12})
@example(command="map", config={"m1_min": -10**8, "m1_max": 10**8, "q_nodes": 4, "node_count": 4})
@example(command="map", config={"q_nodes": 10**9})
@example(command="map", config={"node_count": 100000})
def test_any_config_ends_in_an_exit_code(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code = main([command, "--config", path, "--out", os.path.join(tmp, "out")])
    assert code in range(6)
