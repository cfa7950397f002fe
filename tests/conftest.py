"""A CPU-time bound on every test, so that a slip that makes a loop run
forever (a pivot rule that cycles, say) fails its test instead of hanging
the suite.

The bound counts this process's user CPU time (ITIMER_VIRTUAL, signal
SIGVTALRM), so it neither counts the time a test waits on a child process
nor touches the SIGALRM that tests set for their own wall-clock bounds.
The slowest test takes 4.6 s of wall time (pytest --durations=10, one
Tier-1 run); the budget is more than six times that.
"""

import signal

import pytest

CPU_BUDGET_S = 30


def _out_of_time(signum, frame):
    pytest.fail(f"test used more than {CPU_BUDGET_S} s of CPU time", pytrace=False)


@pytest.fixture(autouse=True)
def cpu_time_bound():
    previous = signal.signal(signal.SIGVTALRM, _out_of_time)
    signal.setitimer(signal.ITIMER_VIRTUAL, CPU_BUDGET_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)
