import concurrent.futures

import pytest
from hypothesis import settings

from _pins import ENVIRONMENTS, run_pins, unusable

settings.register_profile("numeric", deadline=None, max_examples=150)
settings.load_profile("numeric")


@pytest.fixture(scope="session")
def pin_runs():
    """The pin run of each environment of ENVIRONMENTS that can be made here,
    by name, as futures. All start when the first test asks, two at a time,
    since each is a whole pytest process on one core."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        yield {
            name: pool.submit(run_pins, variables)
            for name, variables in ENVIRONMENTS.items()
            if unusable(variables) is None
        }
