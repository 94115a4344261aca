import concurrent.futures

import pytest
from hypothesis import settings

import _pins
from _pins import ENVIRONMENTS, run_pins, unusable

settings.register_profile("numeric", deadline=None, max_examples=150)
settings.load_profile("numeric")


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    """Record whether the test carries the `pin` marker, which every pin read
    checks, and fail a marked test that asks for `pin_runs`: each pin run
    would run it again. A hook, not an autouse fixture, because pytest sets
    up the session-scoped pin_runs before any function-scoped fixture."""
    _pins.marked = item.get_closest_marker("pin") is not None
    if _pins.marked and "pin_runs" in item.fixturenames:
        pytest.fail(f"{item.nodeid} carries the pin marker and asks for pin_runs")


@pytest.fixture(scope="session")
def pin_runs():
    """The pin run of each environment of ENVIRONMENTS that can be made here,
    by name, as futures, for test_pins.py::test_every_pin_holds_in to judge
    once each. All start when its first case asks, two at a time, since each
    is a whole pytest process on one core."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        yield {
            name: pool.submit(run_pins, variables)
            for name, variables in ENVIRONMENTS.items()
            if unusable(variables) is None
        }
