import hashlib
import os
import re
import types

import pytest

import _pins
import conftest
from _pins import ENVIRONMENTS, assert_md5, needs_dynamic_openblas, run_python, unusable


@pytest.mark.parametrize("name", list(ENVIRONMENTS))
def test_every_pin_holds_in(name, pin_runs):
    reason = unusable(ENVIRONMENTS[name])
    if reason:
        pytest.skip(reason)
    done = pin_runs[name].result()
    assert done.returncode == 0, done.stdout + done.stderr
    # every pin case passed: none failed or was skipped
    summary = done.stdout.strip().splitlines()[-1].strip("= ")
    assert re.match(r"\d+ passed, \d+ deselected[ ,]", summary), done.stdout


@pytest.mark.pin
def test_pin_lookup_by_environment(monkeypatch):
    data = b"output"
    md5 = hashlib.md5(data).hexdigest()
    monkeypatch.setattr(_pins, "_PINS", {
        "recorded_on": "a machine",
        "md5": {"single": md5, "per environment": {"A/Core": md5, "B/Core": "0" * 32}},
    })
    for key in ("A/Core", "B/Core", "C/Core"):
        monkeypatch.setattr(_pins, "environment_key", lambda: key)
        assert_md5("single", data)
    monkeypatch.setattr(_pins, "environment_key", lambda: "A/Core")
    assert_md5("per environment", data)
    monkeypatch.setattr(_pins, "environment_key", lambda: "B/Core")
    with pytest.raises(AssertionError, match="changed in environment 'B/Core'"):
        assert_md5("per environment", data)
    monkeypatch.setattr(_pins, "environment_key", lambda: "C/Core")
    with pytest.raises(AssertionError) as failure:
        assert_md5("per environment", data)
    message = str(failure.value)
    assert "'C/Core'" in message and md5 in message and "['A/Core', 'B/Core']" in message


def test_report_names_the_key_and_each_per_environment_pins_state(monkeypatch):
    # what the CI workflow prints before the suite; bits pins hold everywhere
    monkeypatch.setattr(_pins, "_PINS", {
        "md5": {"one": "", "kept": {"A/Core": "", "B/Core": ""}},
        "hex": {"lost": {"B/Core": []}},
        "bits": {"solve_system": {"two_cycle": {}}},
    })
    monkeypatch.setattr(_pins, "environment_key", lambda: "A/Core")
    assert _pins.report().splitlines() == [
        _pins._machine(),
        "pin environment key A/Core",
        "md5 pin 'kept': recorded here; keys ['A/Core', 'B/Core']",
        "hex pin 'lost': NOT RECORDED here; keys ['B/Core']",
    ]


def test_only_a_marked_test_reads_a_pin(monkeypatch):
    monkeypatch.setattr(_pins, "marked", False)
    with pytest.raises(pytest.fail.Exception, match="md5 pin 'field packet' must carry the pin"):
        assert_md5("field packet", b"")


def test_a_marked_test_may_not_ask_for_the_pin_runs(monkeypatch):
    # each pin run would run it, and start the pin runs again; the hook sets
    # _pins.marked, which monkeypatch puts back
    monkeypatch.setattr(_pins, "marked", False)
    item = types.SimpleNamespace(
        nodeid="test_x", fixturenames=["pin_runs"], get_closest_marker={"pin": object()}.get
    )
    with pytest.raises(pytest.fail.Exception, match="test_x carries the pin marker"):
        conftest.pytest_runtest_setup(item)


@needs_dynamic_openblas
def test_openblas_core_is_the_one_openblas_runs():
    # OpenBLAS ignores a core name it does not know and picks its own
    script = "import _pins; print(_pins._openblas_core())"
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_CORETYPE"}
    cores = [
        run_python(["-c", script], {**env, **variables}).stdout.strip()
        for variables in ({}, {"OPENBLAS_CORETYPE": "Bogus"})
    ]
    assert cores[0] == cores[1] != "Bogus"
    assert cores[0] not in ("", "unknown")
