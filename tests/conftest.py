import os
import signal

import pytest

import exitlab.estimator as est


@pytest.fixture
def pool_sizes(monkeypatch):
    """The number of workers each batch fan-out in the test forked."""
    sizes, forked = [], []
    fork, fan_out = os.fork, est._map_batches

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def counted_fan_out(*args):
        forked.clear()
        try:
            return fan_out(*args)
        finally:
            if forked:
                sizes.append(len(forked))

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(est, "_map_batches", counted_fan_out)
    return sizes


@pytest.fixture
def worker_killed(monkeypatch):
    """A forked worker SIGKILLs itself when it builds path 0's generator; a
    fan-out that hangs on it raises TimeoutError after 10 s instead."""
    parent, real = os.getpid(), est.make_generator

    def dies(seed, path_id):
        if os.getpid() != parent and path_id == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(seed, path_id)

    def hung(signum, frame):
        raise TimeoutError("the fan-out hung on a killed worker")

    monkeypatch.setattr(est, "make_generator", dies)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
