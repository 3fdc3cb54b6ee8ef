import signal
import threading

import pytest
from hypothesis import settings

from twistlab import contfrac

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


@pytest.fixture(autouse=True)
def empty_cycle_memo():
    """Every test starts with contfrac's cycle memo empty, so that no count
    of walks depends on which tests ran before it."""
    contfrac._clear_cycles()


class HeldRead:
    """Two first reads of lazy fields, one held inside its computation
    while the other runs beside it in a second thread."""

    def __init__(self):
        self.entered, self.released = threading.Event(), threading.Event()

    def wait(self):
        """Called from a patched function: blocks the calling thread until
        the read beside it has finished, or the test ends."""
        self.entered.set()
        self.released.wait(10)

    def beside(self, held, other):
        """Thread A calls held(), which a patched call stops at wait();
        thread B then calls other(), which must finish within 1 s.  A is
        released whatever B did, both threads are joined, and their two
        values are returned."""
        values = {}
        a = threading.Thread(target=lambda: values.update(a=held()))
        b = threading.Thread(target=lambda: values.update(b=other()))
        a.start()
        try:
            assert self.entered.wait(10), "the held read never reached wait()"
            b.start()
            b.join(1)
            waited = b.is_alive()
        finally:
            self.released.set()
            a.join(10)
        b.join(10)
        assert not waited, "the other read waited for the held one"
        assert not a.is_alive() and not b.is_alive()
        return values["a"], values["b"]


@pytest.fixture
def held_read():
    held = HeldRead()
    yield held
    held.released.set()
