import signal

import pytest
from hypothesis import settings

# Selected in CI with --hypothesis-profile=ci: examples derived from each
# test's name, and a failing one printed as a blob, so a failure in a CI log
# replays locally.  Local runs keep random seeds; neither changes how many
# examples a test draws.
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture
def alarm():
    """Fail a test that runs longer than 2 s."""
    def expire(signum, frame):
        raise TimeoutError("no answer within 2 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(2)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
