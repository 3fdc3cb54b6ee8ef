import signal

import pytest


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
