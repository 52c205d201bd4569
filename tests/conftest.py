"""A time bound for every test: one that runs past ``TEST_TIMEOUT_S``
fails with its name instead of hanging the run.  Where the platform has
no ``SIGALRM`` the bound is not armed."""

import signal

import pytest

TEST_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def _time_bound(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past {TEST_TIMEOUT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
