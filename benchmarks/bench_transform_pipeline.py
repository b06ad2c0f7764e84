"""Transform pipeline — naive vs planned vs threaded (paper §4.3/§4.4).

The nonlinear-term transform chain (3 velocity fields forward, 5
quadratic products backward, every RK substep) is the dominant serial
cost of a DNS step.  This bench times one full chain on the 64x65x64
grid through three paths:

* **naive** — the seed's per-call :func:`to_quadrature_grid` /
  :func:`from_quadrature_grid` (fresh pad/scratch arrays every stage);
* **planned** — :class:`~repro.fft.pipeline.TransformPipeline` with the
  numpy backend (persistent pad workspaces, fused scaling, cached
  last-axis plans);
* **threaded** — the same pipeline on the scipy pocketfft backend with a
  ``workers`` pool (the paper's OpenMP-threaded FFTs, Table 3).

It also re-runs the 10-step 32^3 DNS with the naive and the planned
backend and checks the trajectories coincide — the planned pipeline is
an optimisation, not a different discretization.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import ChannelConfig, ChannelDNS
from repro.core.grid import ChannelGrid
from repro.core.timestepper import IMEXStepper
from repro.core.transforms import (
    NaiveTransformBackend,
    from_quadrature_grid,
    to_quadrature_grid,
)
from repro.fft.pipeline import TransformPipeline
from repro.fft.plans import Planner, available_backends

from conftest import emit, fmt_row

GRID = (64, 65, 64)
SPEEDUP_FLOOR = 1.5


def _spectral_fields(grid, seed=0):
    """3 random spectral velocity fields."""
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal(grid.spectral_shape) + 1j * rng.standard_normal(grid.spectral_shape)
        for _ in range(3)
    ]


def _products(up, vp, wp):
    """The paper's five quadratic fields (step (g)); like the solver, each
    variant forms them from its *own* forward outputs, so the backward
    transforms see the memory layout that variant produces."""
    ww = wp * wp
    return [up * up - ww, vp * vp - ww, up * vp, up * wp, vp * wp]


def _time_interleaved(fns, rounds=9, batch_seconds=0.5):
    """Per-fn mean seconds, median over interleaved rounds.

    The variants alternate within every round, so slow drift in machine
    load (a shared-CPU reality) hits all of them alike instead of
    whichever happened to be measured last; the median keeps one noisy
    round from deciding the result in either direction.
    """
    for fn in fns:
        fn()
    samples = [[] for _ in fns]
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            n = 0
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < batch_seconds:
                fn()
                n += 1
            samples[i].append((time.perf_counter() - t0) / n)
    return [float(np.median(s)) for s in samples]


def test_transform_pipeline(benchmark):
    g = ChannelGrid(*GRID)
    specs = _spectral_fields(g)
    naive_products = _products(*(to_quadrature_grid(s, g) for s in specs))

    def naive_chain():
        for s in specs:
            to_quadrature_grid(s, g)
        for p in naive_products:
            from_quadrature_grid(p, g)

    def make_variant(pipe):
        prods = _products(*pipe.to_physical_many(specs))

        def chain():
            pipe.to_physical_many(specs)
            pipe.from_physical_many(prods)

        return chain

    variants = {}
    planned = TransformPipeline(g, backend="numpy", planner=Planner())
    planned_chain = make_variant(planned)
    variants["planned (numpy)"] = planned_chain

    if "scipy" in available_backends():
        workers = os.cpu_count() or 1
        threaded = TransformPipeline(g, backend="scipy", workers=workers, planner=Planner())
        variants[f"planned (scipy, workers={workers})"] = make_variant(threaded)

    names = list(variants)
    timed = _time_interleaved([naive_chain] + [variants[n] for n in names])
    t_naive = timed[0]
    rows = [("naive (seed)", t_naive, 1.0)]
    times = {}
    for name, t in zip(names, timed[1:]):
        times[name] = t
        rows.append((name, t, t_naive / t))

    lines = [
        "Transform pipeline — nonlinear-term chain, "
        f"3 forward + 5 backward fields on {GRID[0]}x{GRID[1]}x{GRID[2]}",
        "",
        fmt_row(("variant", "s/chain", "speedup"), (30, 10, 9)),
    ]
    for name, t, ratio in rows:
        lines.append(fmt_row((name, f"{t:.4f}", f"{ratio:.2f}x"), (30, 10, 9)))

    # -- trajectory identity: planned backend reproduces the naive run ----
    cfg = ChannelConfig(nx=32, ny=33, nz=32, dt=2e-4, seed=3)
    dns = ChannelDNS(cfg)  # planned pipeline backend (the default)
    dns.initialize()
    ref = ChannelDNS(cfg)
    ref.stepper = IMEXStepper(
        ref.grid, nu=cfg.nu, dt=cfg.dt, forcing=cfg.forcing, scheme=cfg.scheme,
        backend=NaiveTransformBackend(ref.grid),
    )
    ref.initialize()
    dns.run(10)
    ref.run(10)
    dv = float(np.abs(dns.state.v - ref.state.v).max())
    de = abs(dns.kinetic_energy() - ref.kinetic_energy())
    lines += [
        "",
        "10-step 32^3 DNS, planned vs naive backend (same seed, same dt):",
        f"  max |v - v_ref|   = {dv:.3e}",
        f"  |KE - KE_ref|     = {de:.3e}",
        f"  counters: {dns.transforms.counters.report()}",
    ]

    best = min(times.values())
    lines += ["", f"best planned speedup: {t_naive / best:.2f}x (floor {SPEEDUP_FLOOR}x)"]
    emit("transform_pipeline", "\n".join(lines))

    assert dv == 0.0, "planned pipeline diverged from the naive trajectory"
    assert t_naive / best >= SPEEDUP_FLOOR, (
        f"pipeline speedup {t_naive / best:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )
    benchmark(planned_chain)
