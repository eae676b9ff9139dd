"""Shared test fixtures."""

import signal

import pytest

#: Wall-clock budget, in seconds, of a regression test for an input that
#: once did not finish.
REGRESSION_SECONDS = 2.0


@pytest.fixture
def time_limit():
    """Fail the test after ``REGRESSION_SECONDS`` of wall-clock time, so a
    hang that comes back fails quickly instead of stalling the suite."""
    def expire(signum, frame):
        pytest.fail(f"exceeded {REGRESSION_SECONDS} s of wall-clock time",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, REGRESSION_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
