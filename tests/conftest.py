import multiprocessing.pool

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """The process count of every multiprocessing pool started in the test."""
    sizes = []
    start = multiprocessing.pool.Pool.__init__

    def counted(self, processes=None, *args, **kwargs):
        sizes.append(processes)
        start(self, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counted)
    return sizes
