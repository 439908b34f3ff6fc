import signal

import pytest
from hypothesis import settings

# CI runs --hypothesis-profile=ci: the same examples on every run, and a failing
# one printed as a blob that @reproduce_failure replays locally
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture()
def deadline():
    """Fail the test after 10 s instead of hanging the suite: a NaN range once
    grew its list, and a 10^30-step estimate ran, until the process was killed."""
    def hang(signum, frame):
        raise TimeoutError("no result within 10 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
