import json
import math
import os
import sys
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

from vortexscatter import kinematics
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

from _pins import assert_md5, run_python


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

    @pytest.mark.parametrize(
        "overrides", [{}, dict(kappa01=0.1, kappa02=3.0)], ids=["in-support", "out-of-stripe"]
    )
    def test_one_angle_set_and_one_triangle_per_eval(self, tmp_path, monkeypatch, overrides):
        # the angles and the triangle written are the ones the amplitude read;
        # every vortexscatter module's binding is counted, cli's too
        calls = dict.fromkeys(("angle_set", "triangle_geometry"), 0)
        for name in calls:
            original = getattr(kinematics, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "vortexscatter" and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        cfg = _write_config(tmp_path, **_eval_config(**overrides))
        out = tmp_path / "out.json"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert calls == {"angle_set": 1, "triangle_geometry": 1}

    def test_symmetric_zero(self, tmp_path):
        cfg = _write_config(tmp_path, **_eval_config(m=1, q=0.0, m1_min=0, m1_max=0, m2_min=0, m2_max=0))
        out = tmp_path / "out.json"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["in_support"] is True
        assert abs(payload["value_re"]) < 1e-12

    def test_pure_imaginary_value_has_positive_zero_real_part(self, tmp_path):
        # phase power 1: value_re is a signed zero, and `eval` has always written +0.0
        cfg = _write_config(tmp_path, **_eval_config(m2_min=0, m2_max=0))
        out = tmp_path / "out.json"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert '"value_re": 0.0,' in out.read_text()

    def test_degenerate_support_exit_code(self, tmp_path):
        # sliver triangle: inside the stripe with area below the degeneracy floor
        cfg = _write_config(
            tmp_path,
            **_eval_config(kappa0=1e8, kappa01=1e8, kappa02=0.1, q=0.0),
        )
        out = tmp_path / "out.json"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == EXIT_DEGENERATE_SUPPORT
        assert not out.exists()

    @pytest.mark.parametrize("j", [-140, -130, -60, 60, 130, 140])
    def test_value_scales_as_the_momenta_to_the_minus_three_halves(self, tmp_path, j):
        # every momentum times 4^j is exact in binary, and so is the value's
        # 8^-j; heron_area's product of four side sums once overflowed at
        # j = 130 and underflowed to a zero area by j = -140
        def value(scale):
            momenta = dict(kappa0=1.0, kappa01=0.9, kappa02=0.7, q=0.05)
            cfg = _write_config(tmp_path, **_eval_config(**{k: v * scale for k, v in momenta.items()}))
            out = tmp_path / "out.json"
            assert main(["eval", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            payload = json.loads(out.read_text())
            return complex(payload["value_re"], payload["value_im"])

        assert value(4.0**j) * 8.0**j == value(1.0) != 0.0

    @pytest.mark.parametrize("kappa0, final", [(1e-10, 1e150), (1e-3, 1e153)])
    def test_finite_value_of_large_final_moduli(self, tmp_path, kappa0, final):
        # sqrt(kappa1 kappa2 / kappa) overflowed although the amplitude is
        # finite: eval wrote "value_re": NaN and "value_im": Infinity, not JSON
        def not_json(constant):
            raise ValueError(f"{constant} is not JSON")

        cfg = _write_config(
            tmp_path, kappa0=kappa0, kappa01=final, kappa02=final, m1_min=3, m1_max=3, m2_min=1, m2_max=1
        )
        out = tmp_path / "out.json"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text(), parse_constant=not_json)
        assert all(math.isfinite(payload[k]) for k in ("value_re", "value_im", "area"))
        assert payload["value_im"] != 0.0


_ONE_CELL = dict(m1_min=5, m1_max=5, m2_min=0, m2_max=0, q_nodes=4)
# JSON integers have no size limit: these ended in OverflowError or ValueError
_BIG = 10**400
# heron_area's product of the four side sums overflowed: eval wrote value 0
# and "area": Infinity, which is not JSON, and exited 0
_SCALED_EVAL = _eval_config(kappa0=1e100, kappa01=0.9e100, kappa02=0.7e100, q=0.05e100)
_INT64 = "must lie in [-2**63, 2**63)"
_Q_REGION = "|q| >= kappa0*sin(theta): outside the allowed q region"
# squares below the smallest normal float: eval would divide by a zero
# triangle area and map would write nan from 0 / 0 stripe angles
_TINY_KAPPAS = dict(kappa0=1e-160, kappa01=1e-160, kappa02=1e-160)


def _rejected(command, name, config, *messages):
    return pytest.param(command, config, messages, id=f"{command}-{name}")


def _case(number, command, config, *messages):
    """A row with the id <command>-overrides<number>-<first message>, the id
    that this case has carried since pytest numbered the cases by position."""
    return pytest.param(command, config, messages, id=f"{command}-overrides{number}-{messages[0]}")


def _assert_rejected(tmp_path, capsys, command, content, messages):
    """command on a config file of these bytes exits 2, with every message on
    stderr, no traceback, and no output file, partial or plot script."""
    cfg = tmp_path / "config.json"
    cfg.write_bytes(content)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for message in messages:
        assert message in err
    assert list(tmp_path.iterdir()) == [cfg]


# Every config that a command rejects, with the id <command>-<name>, except
# the file-level cases of test_unreadable_config_rejected and the values past
# a command's reach in _OUT_OF_RANGE: its config and the messages that stderr
# must contain.
_REJECTED = [
    # keys; the former nested objects: the map's node count is now the
    # top-level node_count, and the oracle's Newton controls are not settable
    _rejected("eval", "unknown-key", dict(kappa_0=1.0), "unknown config key: 'kappa_0'"),
    _rejected(
        "map", "quadrature", dict(quadrature={"node_count": 24, "rel_tol": 1e-6}),
        "unknown config key: 'quadrature'",
    ),
    _rejected(
        "oracle-check", "root_find", dict(root_find={"max_iterations": 1}), "unknown config key: 'root_find'"
    ),
    # types, and integers beyond 64 bits
    _rejected("eval", "theta-string", {"theta": "0.2"}, "theta must be a number"),
    _rejected("eval", "m-fraction", {"m": 5.5}, "m must be an integer"),
    _rejected("map", "q_nodes-fraction", {"q_nodes": 2.5}, "q_nodes must be an integer"),
    _rejected(
        "map", "bool-and-int-mixed", {"q_nodes": True, "plot_script": 1, "node_count": 24.0},
        "q_nodes must be an integer", "plot_script must be true or false", "node_count must be an integer",
    ),
    _rejected("eval", "bare-m-big", {"m": _BIG}, f"m {_INT64}"),
    _rejected("map", "m-big", dict(_ONE_CELL, m=_BIG), f"m {_INT64}"),
    _rejected(
        "map", "m1-big", dict(m1_min=_BIG, m1_max=_BIG, q_nodes=4), f"m1_min {_INT64}", f"m1_max {_INT64}"
    ),
    _rejected("eval", "q-minus-big", {"q": -_BIG}, "q must be finite"),
    # non-finite values, which json.load accepts as NaN, Infinity and -Infinity
    _rejected("map", "sigma_rel-nan", dict(_ONE_CELL, sigma_rel=math.nan), "sigma_rel must be finite"),
    _rejected("map", "kappa02-inf", dict(_ONE_CELL, kappa02=math.inf), "kappa02 must be finite"),
    _rejected("field", "kappa0-nan", dict(kappa0=math.nan), "kappa0 must be finite"),
    _rejected("eval", "kappa01-nan", _eval_config(kappa01=math.nan), "kappa01 must be finite"),
    _rejected("eval", "theta-inf", {"theta": math.inf}, "theta must be finite"),
    _rejected("map", "theta-inf", dict(_ONE_CELL, theta=math.inf), "theta must be finite"),
    _rejected(
        "oracle-check", "theta-minus-inf", {"theta": -math.inf, "sample_count": 1}, "theta must be finite"
    ),
    # ranges, every violation listed
    _rejected(
        "eval", "three-violations", _eval_config(theta=-0.1, kappa0=-2.0, m1_min=1, m1_max=3),
        "theta must satisfy 0 < theta < pi/2", "kappa0 must be positive", "eval requires m1_min == m1_max",
    ),
    _rejected("eval", "kappa0-zero", {"kappa0": 0.0}, "kappa0 must be positive"),
    _rejected("field", "grid_n-1", dict(grid_n=1), "grid_n must be >= 2"),
    _rejected("eval", "q-beyond-sin-theta", _eval_config(q=0.9), _Q_REGION),
    # |q| is one ulp below kappa0 sin(theta), but q / kappa0 rounds to sin(theta)
    # or above: formerly a math domain error in angle_set and a division by a
    # zero root
    _rejected(
        "eval", "q-edge-angles",
        _eval_config(theta=0.6424507411017956, kappa0=5.7994810873570755, q=3.4748134637392347), _Q_REGION,
    ),
    _rejected(
        "eval", "q-edge-root",
        _eval_config(
            theta=0.5768321621309331, kappa0=7.280409986954765, kappa01=6.552368988259288,
            kappa02=5.096286990868335, q=3.9705274847427057, m=1, m1_min=1, m1_max=1, m2_min=0, m2_max=0,
        ),
        _Q_REGION,
    ),
    _rejected(
        "eval", "bare-theta-1e-300", {"theta": 1e-300},
        "sin(theta)^2 underflows", "eval requires m1_min == m1_max",
    ),
]


@pytest.mark.parametrize("command, config, messages", _REJECTED)
def test_rejected_config_exits_config(tmp_path, capsys, command, config, messages):
    _assert_rejected(tmp_path, capsys, command, json.dumps(config).encode(), messages)


# The values past what a command can compute, each with the id of _case.
_OUT_OF_RANGE = [
    _case(0, "oracle-check", dict(seed=-1, sample_count=1), "seed must be non-negative"),
    # reach: the closed form divides by sqrt(sin^2 theta - sin^2 xi)
    _case(1, "eval", _eval_config(theta=1e-300), "sin(theta)^2 underflows"),
    _case(2, "oracle-check", dict(theta=1e-300, sample_count=1), "sin(theta)^2 underflows"),
    _case(3, "map", dict(_ONE_CELL, theta=1e-300), "sin(theta)^2 underflows"),
    # reach of the Bessel order and argument; the packet reaches kappa0 (1 + 5
    # sigma_rel) = 2, and 2 * 6000 > 1e4
    _case(4, "field", dict(m=300, grid_n=2), "MAX_BESSEL_ORDER = 200"),
    _case(5, "field", dict(m=-201, grid_n=2), "MAX_BESSEL_ORDER = 200"),
    _case(6, "field", dict(kappa0=1e308, grid_n=2), "r_max * kappa0 = inf exceeds MAX_BESSEL_ARGUMENT"),
    _case(7, "field", dict(r_max=1e300, grid_n=2), "r_max * kappa0 = 1e+300 exceeds MAX_BESSEL_ARGUMENT"),
    _case(
        8, "field", dict(r_max=6000.0, field_packet=True, grid_n=2),
        "r_max * the packet's largest kappa = 12000 exceeds MAX_BESSEL_ARGUMENT",
    ),
    # reach of the momenta
    _case(9, "eval", _eval_config(kappa0=1e200), "omega^2 must be finite"),
    _case(10, "map", dict(_ONE_CELL, kappa0=1e200), "omega^2 must be finite"),
    _case(11, "map", dict(_ONE_CELL, kappa02=1e-150, sigma_rel=1e-200), "packet profile: support"),
    _case(
        12, "eval", _eval_config(q=0.0, m1_min=1, m1_max=1, m2_min=0, m2_max=0, **_TINY_KAPPAS),
        "kappa0 too small: kappa0^2 underflows",
    ),
    _case(13, "map", dict(_ONE_CELL, **_TINY_KAPPAS), "kappa02 too small: kappa02^2 underflows"),
    # the packet supports reach about 3.75e154, so (kt + k2)^2 in a q slice is
    # inf and inf - inf wrote nan with exit 0; sigma_rel = 1e153 still fits
    _case(
        14, "map", dict(_ONE_CELL, sigma_rel=3e153, node_count=4, map_cell_rtol=1.0),
        "(sum of the three upper support ends)^2 overflows",
    ),
    # integers beyond 64 bits
    _case(15, "eval", _eval_config(m=_BIG), f"m {_INT64}"),
    _case(16, "eval", _eval_config(m1_min=_BIG, m1_max=_BIG), f"m1_max {_INT64}", f"m1_min {_INT64}"),
    _case(17, "map", dict(_ONE_CELL, m=-_BIG), f"m {_INT64}"),
    _case(18, "map", dict(_ONE_CELL, q_nodes=_BIG), f"q_nodes {_INT64}"),
    _case(19, "field", dict(grid_n=_BIG), f"grid_n {_INT64}"),
    _case(20, "field", dict(grid_n=2**63), f"grid_n {_INT64}"),
    _case(21, "eval", _eval_config(theta=_BIG), "theta must be finite"),
    # sizes; numpy's linspace raised ValueError at grid_n 2**62 (array is too
    # big), oracle-check drew samples for as long as it ran, and the map ran
    # out of memory, or swapped without an address-space limit
    _case(22, "field", dict(grid_n=2**62), "grid_n must not exceed MAX_GRID_N = 1024"),
    _case(23, "field", dict(grid_n=200000), "grid_n must not exceed MAX_GRID_N = 1024"),
    _case(
        24, "oracle-check", dict(sample_count=10**12),
        "sample_count must not exceed MAX_SAMPLE_COUNT = 1000000",
    ),
    _case(
        25, "map", dict(m1_min=-10**8, m1_max=10**8, q_nodes=4, node_count=4),
        "= 4200000021 must not exceed MAX_HELICITY_CELLS = 10000",
    ),
    _case(26, "map", dict(q_nodes=10**9), "q_nodes must not exceed MAX_Q_NODES = 1024"),
    _case(27, "map", dict(node_count=10**5), "node_count must not exceed MAX_NODE_COUNT = 128"),
    _case(28, "map", dict(_ONE_CELL, map_cell_rtol=0.0), "map_cell_rtol must be positive"),
    _case(29, "field", dict(r_max=0.0, grid_n=2), "r_max must be positive"),
    # eval's kt^2 + kappa01^2 - kappa02^2 was inf - inf: it wrote NaN and
    # exited 0; the geometry refuses it now, since kappa01^2 is inf
    _case(
        30, "eval", _eval_config(kappa01=1e160, kappa02=1e160),
        "squares of the final transverse moduli must be finite",
    ),
]


@pytest.mark.parametrize("command, config, messages", _OUT_OF_RANGE)
def test_out_of_range_config_rejected(tmp_path, capsys, command, config, messages):
    _assert_rejected(tmp_path, capsys, command, json.dumps(config).encode(), messages)


# the file: not UTF-8, an integer beyond Python's digit limit, no object, malformed
@pytest.mark.parametrize(
    "content, message",
    [
        pytest.param(b"\xff\xfe{", "cannot read config", id="not-utf8"),
        pytest.param(b'{"m": ' + b"1" * 5000 + b"}", "cannot read config", id="beyond-int-digit-limit"),
        pytest.param(b"[1, 2]", "config must be a JSON object", id="not-an-object"),
        pytest.param(b"{", "cannot read config", id="malformed"),
    ],
)
def test_unreadable_config_rejected(tmp_path, capsys, content, message):
    _assert_rejected(tmp_path, capsys, "eval", content, [message])


def test_seed_beyond_64_bits_still_runs(tmp_path):
    # numpy.random.default_rng takes any non-negative integer seed
    cfg = _write_config(tmp_path, seed=_BIG, sample_count=2)
    out = tmp_path / "report.json"
    assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == EXIT_OK


@pytest.mark.pin
def test_tiny_theta_still_runs(tmp_path):
    # sin(1e-150)^2 = 1e-300 is still a normal float
    cfg = _write_config(tmp_path, theta=1e-150, **_ONE_CELL)
    out = tmp_path / "map.csv"
    assert main(["map", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == b"m1,m2,intensity\n5,0,1\n"
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


@pytest.mark.parametrize(
    "command, config", [("eval", _eval_config()), ("field", dict(grid_n=2))], ids=["eval", "field"]
)
def test_single_write_runs_probe_no_output(tmp_path, monkeypatch, command, config):
    # eval and field compute briefly and write once: that write reports an
    # unwritable output, and a probe before it would create and remove a file
    def no_probe(path):
        raise AssertionError(f"probed {path}")

    monkeypatch.setattr("vortexscatter.cli._probe_writable", no_probe)
    cfg = _write_config(tmp_path, **config)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK


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
    # within every map cap, 10^4 distinct |m1| at 128 nodes need two 1.22 GiB
    # phase tables in the first kappa row; a 2 GiB address space makes that a
    # MemoryError before any later row, however the rows reuse their tables
    cfg = _write_config(
        tmp_path, m1_min=0, m1_max=9999, m2_min=0, m2_max=0, node_count=MAX_NODE_COUNT
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
        assert out.read_bytes() == b"m1,m2,intensity\n5,0,1\n"

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
        assert_md5("criterion 8 map", out.read_bytes())
        gp = (tmp_path / "map.csv.gp").read_bytes().replace(str(out).encode(), b"<out>")
        assert_md5("README reference map .gp", gp)

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

    @pytest.mark.parametrize("packet", [False, True])
    def test_runs_at_momenta_beyond_any_beam_mode(self, tmp_path, packet):
        # field builds no beam mode, whose omega^2 at k_z = 50 kappa0 would be
        # inf here: validate refused this config while it built one
        doc = dict(m=5, kappa0=1e200, sigma_rel=0.2, r_max=1e-197, grid_n=3, field_packet=packet)
        cfg = _write_config(tmp_path, **doc)
        out = tmp_path / "field.csv"
        assert main(["field", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 9 and all(math.isfinite(float(v)) for row in rows for v in row)
        assert out.read_bytes() == _per_point_field_csv(**doc).encode()

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

    @pytest.mark.parametrize("m, kappa0, r_max, grid_n", _PINNED_PACKET_RUNS)
    def test_packet_profile_takes_the_c_library_exp(self, m, kappa0, r_max, grid_n):
        # numpy's vector exp rounds differently on each SIMD target (9 of
        # these runs differ in bytes between its AVX-512 and AVX2 paths); the
        # C library's exp rounds the same on all of them, so with it the
        # packet weights, and the field pins above, hold on any target
        profile = WavePacketProfile(kappa0, 0.2 * kappa0)  # the runs' default sigma_rel
        nodes, _ = gauss_legendre_on(*profile.support, 64)
        expected = [
            profile._norm * math.exp(-0.5 * ((k - profile.kappa0) / profile.sigma) ** 2)
            for k in nodes.tolist()
        ]
        got = profile.value(nodes).tolist()
        assert [v.hex() for v in got] == [v.hex() for v in expected]


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


def _run(command, config):
    """main's exit code on config, and the bytes of every file it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code = main([command, "--config", path, "--out", os.path.join(tmp, "out")])
        written = {}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                written[name] = fh.read()
    del written["config.json"]
    return code, written


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["eval", "oracle-check", "map", "field"]), config=_configs())
@example(command="field", config={"r_max": 5e-324, "grid_n": 3})
@example(command="oracle-check", config={"seed": _BIG, "sample_count": 1})
@example(command="eval", config=_eval_config(m=2**63 - 1))
@example(command="map", config={"m": -(2**63 - 1), **_ONE_CELL, "node_count": 4})
@example(command="map", config={"m": 2**62, **_ONE_CELL, "node_count": 4})
@example(command="map", config={"theta": 1e-12, "kappa0": 1e-150, "q_nodes": 2, "node_count": 2,
                                "m1_min": 0, "m1_max": 0, "m2_min": 0, "m2_max": 0})
@example(command="eval", config=_SCALED_EVAL)
def test_any_config_ends_in_an_exit_code(command, config):
    code, written = _run(command, config)
    if code == EXIT_OK and command in ("eval", "oracle-check"):
        # strict JSON (RFC 8259): no NaN, Infinity or -Infinity
        json.loads(written["out"], parse_constant=_not_json)
    assert code in range(6)


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def _scaled(config, scale):
    """config with every momentum times scale."""
    return {k: v * scale if k in ("kappa0", "kappa01", "kappa02", "q") else v for k, v in config.items()}


def _eval_value(written):
    payload = json.loads(written["out"])
    return complex(payload["value_re"], payload["value_im"])


@st.composite
def _physics(draw):
    """A beam mode, geometry, packet width and helicities, every momentum a
    normal float; q runs a little past eval's q region, kappa0 sin theta."""
    theta = draw(st.floats(0.02, 1.5))
    config = dict(
        m=draw(st.integers(-6, 6)),
        theta=theta,
        kappa0=draw(st.floats(0.2, 3.0)),
        kappa01=draw(st.floats(0.05, 3.0)),
        kappa02=draw(st.floats(0.05, 3.0)),
        sigma_rel=draw(st.floats(0.01, 0.5)),
        m1_min=draw(st.integers(-8, 8)),
        m2_min=draw(st.integers(-8, 8)),
    )
    config["q"] = config["kappa0"] * math.sin(theta) * draw(st.integers(-80, 80)) / 64
    return config


# 60 examples run 240 commands in about 2 s
@settings(max_examples=60)
@given(base=_physics(), j=st.one_of(st.integers(-120, -30), st.integers(30, 120)))
# at about 1e100 and 1e-100 (4^166 = 2^332) heron_area's product of the
# four side sums once gave eval a zero value with an infinite area, and exit 3
@example(base=_eval_config(kappa01=1.0, kappa02=0.5, m1_min=3, m2_min=1), j=166)
@example(base=_eval_config(kappa01=1.0, kappa02=0.5, m1_min=3, m2_min=1), j=-166)
def test_every_momentum_times_four_to_the_j_keeps_each_output(base, j):
    """Every momentum times 4^j is exact in binary. eval's value times 8^j
    then equals its value at scale 1 bit for bit, and a 7x7 map, which is
    normalized, writes the same bytes; a config that one scale rejects or
    stops, the other ends with the same exit code."""
    m1, m2 = base["m1_min"], base["m2_min"]
    single = dict(base, m1_max=m1, m2_max=m2)
    code, out = _run("eval", single)
    code_j, out_j = _run("eval", _scaled(single, 4.0**j))
    assert code_j == code
    if code == EXIT_OK:
        assert _eval_value(out_j) * 8.0**j == _eval_value(out)
    grid = dict(base, m1_max=m1 + 6, m2_max=m2 + 6, node_count=12, q_nodes=8)
    assert _run("map", _scaled(grid, 4.0**j)) == _run("map", grid)
