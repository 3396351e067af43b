import os
import threading

import pytest


def child_pids(pid: int) -> set:
    """The processes whose parent is ``pid``, zombies included, read from
    /proc; empty where there is no /proc."""
    found = set()
    if not os.path.isdir("/proc"):
        return found
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:         # the process exited while the list was read
            continue
        # the command name is parenthesized and may hold spaces and parentheses
        if int(stat[stat.rindex(b")") + 2:].split()[1]) == pid:
            found.add(int(name))
    return found


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves alive a thread that was not there before it."""
    before = set(threading.enumerate())
    yield
    left = [th for th in threading.enumerate() if th not in before]
    assert not left, f"threads left alive by the test: {left}"


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Fail a test that leaves a child process, running or unreaped, that
    was not there before it."""
    before = child_pids(os.getpid())
    yield
    left = child_pids(os.getpid()) - before
    assert not left, f"child processes left by the test: {sorted(left)}"
