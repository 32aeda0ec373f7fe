"""Shared fixtures and scale knobs for the reproduction benches.

Every bench regenerates one table/figure of the paper.  Scale is
controlled by environment variables so the same benches serve quick CI
runs and fuller reproductions:

``REPRO_BENCH_ACCESSES``
    Memory accesses per core per run (default 1500; the paper simulates
    200M instructions -- larger values sharpen every trend).
``REPRO_BENCH_MIXES``
    Comma-separated mix subset for the sweep-heavy figures (default
    ``mix0,mix3,mix6`` -- one mix per intensity class).  Fig. 12 always
    runs all nine mixes.
``REPRO_BENCH_JOBS``
    Worker processes for the experiment grids (default 1 = serial,
    0 = all cores); see :mod:`repro.sim.parallel`.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the
reproduced tables.
"""

import os

import pytest

from repro.sim.parallel import default_workers
from repro.sim.specs import ExperimentSettings
from repro.workloads.mixes import MIX_NAMES


def bench_accesses() -> int:
    return int(os.environ.get("REPRO_BENCH_ACCESSES", "1500"))


def bench_mixes() -> tuple:
    raw = os.environ.get("REPRO_BENCH_MIXES", "mix0,mix3,mix6")
    mixes = tuple(m.strip() for m in raw.split(",") if m.strip())
    for m in mixes:
        if m not in MIX_NAMES:
            raise ValueError(f"unknown mix {m!r} in REPRO_BENCH_MIXES")
    return mixes


def bench_jobs() -> int:
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    return default_workers() if jobs <= 0 else jobs


@pytest.fixture(scope="session")
def sweep_settings():
    """Settings for the sweep figures (13/14/15/16): subset of mixes."""
    return ExperimentSettings(accesses_per_core=bench_accesses(),
                              mixes=bench_mixes())


@pytest.fixture(scope="session")
def full_settings():
    """Settings for Fig. 12: all nine mixes."""
    return ExperimentSettings(accesses_per_core=bench_accesses(),
                              mixes=MIX_NAMES)


def bench_figure(benchmark, name: str, settings: ExperimentSettings):
    """Regenerate one named figure once under pytest-benchmark; returns
    the reduced table."""
    from repro.sim.experiments import run_figure
    table, _ = benchmark.pedantic(
        run_figure, args=(name, settings),
        kwargs={"jobs": bench_jobs()}, rounds=1, iterations=1)
    return table


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
