"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.bsplines import BSplineBasis
from repro.core.grid import ChannelGrid


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def basis() -> BSplineBasis:
    """Moderate-size degree-7 basis with wall clustering."""
    return BSplineBasis(24, degree=7, stretch=2.0)


@pytest.fixture
def small_grid() -> ChannelGrid:
    """Small channel grid for integration-level tests."""
    return ChannelGrid(nx=16, ny=24, nz=16)


@pytest.fixture
def no_cyclic_gc():
    """The cyclic collector off for one test: an object that outlives its
    last reference is then held by a reference cycle, not by timing."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class DriverCensus:
    """Every :class:`~repro.pencil.distributed.DistributedChannelDNS` a
    supervised launch builds, numbered in the order their builds begin."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: build index -> world size of that driver
        self.sizes: list[int] = []
        #: build index -> earlier build indices whose driver was alive
        #: when this build began
        self.alive_at_build: list[list[int]] = []
        #: build index -> weak reference to the built driver
        self.refs: dict[int, weakref.ref] = {}

    def alive(self) -> list[int]:
        return [i for i, ref in self.refs.items() if ref() is not None]


@pytest.fixture
def driver_census(monkeypatch) -> DriverCensus:
    """Count the drivers :class:`~repro.pencil.distributed.RanksLaunch`
    builds, and which earlier ones were still alive at each build."""
    from repro.pencil import distributed

    census = DriverCensus()

    class Counted(distributed.DistributedChannelDNS):
        def __init__(self, comm, *args, **kwargs):
            with census.lock:
                index = len(census.sizes)
                census.sizes.append(comm.size)
                census.alive_at_build.append(census.alive())
            super().__init__(comm, *args, **kwargs)
            with census.lock:
                census.refs[index] = weakref.ref(self)

    monkeypatch.setattr(distributed, "DistributedChannelDNS", Counted)
    return census
