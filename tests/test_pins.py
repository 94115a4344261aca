import hashlib
import re
import types

import pytest

import _pins
import conftest
from _pins import ENVIRONMENTS, assert_md5, unusable


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
def test_a_pin_with_several_values_accepts_each_of_them(monkeypatch):
    outputs = [b"on one machine", b"on another"]
    md5s = [hashlib.md5(data).hexdigest() for data in outputs]
    monkeypatch.setattr(_pins, "_PINS", {"md5": {"per machine": {"any of": md5s}}})
    for data in outputs:
        assert_md5("per machine", data)
    with pytest.raises(AssertionError) as failure:
        assert_md5("per machine", b"on a third")
    message = str(failure.value)
    got = hashlib.md5(b"on a third").hexdigest()
    assert f"got \"{got}\", none of its 2 recorded values" in message
    assert _pins._machine() in message


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

