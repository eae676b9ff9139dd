"""Shared test fixtures."""

import signal
import sys

import pytest

from abtqft import intlinalg

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


@pytest.fixture
def eliminations(monkeypatch):
    """The shape ``(rows, leading rows)`` of every call of
    :func:`abtqft.intlinalg.eliminate_symmetric`, the library's one
    Gaussian elimination, in call order: a signature eliminates all its
    rows, the Gram of a torsion module the leading ``rho`` of ``rho + t``.
    Every ``abtqft`` module that binds the function is patched."""
    shapes, real = [], intlinalg.eliminate_symmetric

    def counted(a, n):
        shapes.append((len(a), n))
        return real(a, n)
    for name, module in list(sys.modules.items()):
        if name.startswith("abtqft") \
                and getattr(module, "eliminate_symmetric", None) is real:
            monkeypatch.setattr(module, "eliminate_symmetric", counted)
    return shapes
