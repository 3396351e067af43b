import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves alive a thread that was not there before it."""
    before = set(threading.enumerate())
    yield
    left = [th for th in threading.enumerate() if th not in before]
    assert not left, f"threads left alive by the test: {left}"
