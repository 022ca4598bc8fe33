"""Checks applied to every test."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leftover_processes():
    """A test leaves no child process running, such as a pool worker that
    outlived the call that started it.  Leftovers are stopped, so that only
    the test that left them fails."""
    yield
    leftover = multiprocessing.active_children()
    for child in leftover:
        child.terminate()
        child.join()
    assert leftover == []


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the replica pool by one that maps in-process, on a host with
    four usable CPUs; returns the list of pool sizes requested."""
    from coopsim import lattice

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(lattice, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(lattice.os, "sched_getaffinity", lambda pid: set(range(4)))
    return sizes


@pytest.fixture(params=["python", "compiled"])
def engine(request, monkeypatch):
    """Run the test on the Python engine, then on the compiled one (skipped
    when the compiled module cannot be built)."""
    from coopsim import _engine

    if request.param == "python":
        monkeypatch.setattr(_engine, "load", lambda: None)
    elif _engine.load() is None:
        pytest.skip("compiled engine unavailable")
    return request.param
