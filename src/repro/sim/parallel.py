"""Parallel grid execution over independent simulation cells.

The experiment runners evaluate a *grid* of (configuration, workload)
cells whose runs are mutually independent: traces are regenerated
deterministically from (mix/benchmark, accesses, fragmentation, seed),
so a cell can execute in any process and return the exact same
:class:`~repro.sim.simulator.SimulationResult`.  :func:`run_grid` fans a
list of :class:`SimJob` cells out over a ``ProcessPoolExecutor`` and
returns results in submission order, which keeps every downstream
aggregation (GMEAN tables, sweeps) bit-identical to a serial run.

Result persistence lives in :mod:`repro.sim.store` (the
content-addressed store that subsumed the old alone-IPC table); the
cache constants and :class:`~repro.sim.store.AloneIpcDiskCache`
compatibility view are re-exported here for historical importers.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Sequence

from repro.cpu.core import CoreConfig
from repro.sim.config import SystemConfig
from repro.sim.simulator import SimulationResult, run_traces
from repro.sim.store import (  # noqa: F401  (re-exports)
    CACHE_DIR_ENV,
    CACHE_VERSION,
    DEFAULT_CACHE_DIR,
    AloneIpcDiskCache,
)

#: Environment variable overriding :data:`DEFAULT_GRID_MIN_COST`: set it
#: to ``0`` to force the pool path, or very high to force serial.
GRID_MIN_COST_ENV = "REPRO_GRID_MIN_COST"
#: Minimum estimated grid cost (accesses x cores, summed over jobs)
#: below which :func:`run_grid` stays serial: small grids lose more to
#: pool startup than they gain from overlap (the "parallel-overhead
#: cliff" -- a 3-job figure run used to fork a pool per call and come
#: out slower than serial).
DEFAULT_GRID_MIN_COST = 50_000


@dataclass(frozen=True)
class SimJob:
    """One grid cell: a configuration evaluated on one workload.

    Exactly one of ``mix`` / ``benchmark`` is set: a mix runs one core
    per member benchmark, a bare benchmark runs alone (the denominator
    of weighted speedup).  The job carries everything needed to
    regenerate the traces in a worker process, so only small frozen
    dataclasses cross the process boundary.
    """

    config: SystemConfig
    accesses: int
    fragmentation: float
    seed: int
    core_config: CoreConfig
    mix: Optional[str] = None
    benchmark: Optional[str] = None
    #: Attach cycle accounting to this cell (see
    #: :mod:`repro.sim.accounting`).  The report rides back with the
    #: result -- plain dataclasses, so it pickles across the pool.
    observe: bool = False


#: Per-process trace memo: a worker that draws several cells of the
#: same (mix, accesses, frag, seed) regenerates the traces only once.
#: Bounded by oldest-half eviction (insertion order approximates age)
#: so recent entries survive an overflow instead of a full wipe.
_trace_memo: Dict[tuple, object] = {}
TRACE_MEMO_CAPACITY = 64
_trace_memo_evictions = 0


def trace_memo_stats() -> Dict[str, int]:
    """Current size and eviction count of this process's trace memo.

    Surfaced by ``repro stats`` next to the route-cache counters; an
    eviction is one oldest-half sweep, not one dropped entry.
    """
    return {"size": len(_trace_memo),
            "evictions": _trace_memo_evictions}


def _job_traces(job: SimJob):
    global _trace_memo_evictions
    key = (job.mix, job.benchmark, job.accesses, job.fragmentation,
           job.seed)
    traces = _trace_memo.get(key)
    if traces is None:
        if job.benchmark is not None:
            from repro.workloads.generator import generate_traces
            from repro.workloads.profiles import profile
            traces = generate_traces(
                [profile(job.benchmark)], job.accesses,
                fragmentation=job.fragmentation, seed=job.seed)
        else:
            from repro.workloads.mixes import mix_traces
            traces = mix_traces(job.mix, job.accesses,
                                fragmentation=job.fragmentation,
                                seed=job.seed)
        if len(_trace_memo) >= TRACE_MEMO_CAPACITY:  # bound memory
            for old in list(islice(_trace_memo, len(_trace_memo) // 2)):
                del _trace_memo[old]
            _trace_memo_evictions += 1
        _trace_memo[key] = traces
    return traces


def _run_job(job: SimJob) -> SimulationResult:
    """Worker entry point: regenerate the traces and simulate."""
    return run_traces(job.config, _job_traces(job),
                      core_config=job.core_config,
                      observe=job.observe or None)


def default_workers() -> int:
    """Worker count when the caller asks for "all cores"."""
    return max(1, os.cpu_count() or 1)


def _job_cost(job: SimJob) -> int:
    """Rough work estimate for one cell: accesses x simulated cores."""
    if job.benchmark is not None:
        return job.accesses
    from repro.workloads.mixes import MIXES
    entry = MIXES.get(job.mix)
    return job.accesses * (len(entry[0]) if entry else 4)


def grid_min_cost() -> int:
    """Serial-fallback threshold, honouring ``REPRO_GRID_MIN_COST``."""
    raw = os.environ.get(GRID_MIN_COST_ENV)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            pass
    return DEFAULT_GRID_MIN_COST


#: Warm executor reused across run_grid calls, keyed by the module
#: state the fork snapshots: consecutive figure runners used to pay a
#: full pool fork each, which is where the parallel-overhead cliff came
#: from on small grids.
_warm_pool: Optional[ProcessPoolExecutor] = None
_warm_pool_key: Optional[tuple] = None


def _pool_fingerprint(workers: int) -> tuple:
    # fork snapshots module globals, so a pool is only reusable while
    # the defaults its workers inherited still match the parent's.
    from repro.controller.scheduler import INCREMENTAL_DEFAULT
    return (workers, INCREMENTAL_DEFAULT, os.environ.get(CACHE_DIR_ENV))


def _warm_executor(workers: int) -> ProcessPoolExecutor:
    global _warm_pool, _warm_pool_key
    key = _pool_fingerprint(workers)
    if _warm_pool is not None and _warm_pool_key != key:
        _warm_pool.shutdown(wait=False)
        _warm_pool = None
    if _warm_pool is None:
        # fork shares the loaded modules with the workers; spawn (the
        # only option on some platforms) re-imports them, which is
        # still correct because jobs are self-contained.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        _warm_pool = ProcessPoolExecutor(max_workers=workers,
                                         mp_context=ctx)
        _warm_pool_key = key
    return _warm_pool


@atexit.register
def _shutdown_warm_pool() -> None:
    global _warm_pool
    if _warm_pool is not None:
        _warm_pool.shutdown(wait=False)
        _warm_pool = None


def run_grid(jobs: Sequence[SimJob], workers: int = 1,
             on_result=None) -> List[SimulationResult]:
    """Run every job, across ``workers`` processes, in submission order.

    ``workers <= 1`` (or a single job) runs serially in-process -- same
    results, no pool overhead -- so callers can pass their ``--jobs``
    value straight through.  Grids whose estimated cost (accesses x
    cores, summed) falls below :func:`grid_min_cost` also run serially:
    pool startup costs more than the overlap recovers.  Callers that
    diff against the result store submit only their missing cells, so
    the gate prices exactly the work that will actually run.  Larger
    grids go to a warm :class:`ProcessPoolExecutor` that survives
    across calls.

    ``on_result(index, result)`` streams completions in submission
    order as they arrive (the spec runner uses it to persist each cell
    to the store and report progress the moment it lands, so a killed
    run keeps everything already finished).
    """
    jobs = list(jobs)
    results: List[SimulationResult] = []
    if (workers <= 1 or len(jobs) <= 1
            or sum(_job_cost(job) for job in jobs) < grid_min_cost()):
        for index, job in enumerate(jobs):
            result = _run_job(job)
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results
    # The warm pool is keyed by the requested worker count (not the
    # possibly smaller per-call pool size) so differently sized grids
    # share one executor.
    pool = _warm_executor(workers)
    # Mild chunking amortises IPC without hurting load balance.  Sized
    # from the workers a grid can actually occupy: a short job list on
    # a wide pool must not collapse to one chunk per worker short of
    # covering the list.
    chunk = max(1, len(jobs) // (min(workers, len(jobs)) * 4))
    for index, result in enumerate(
            pool.map(_run_job, jobs, chunksize=chunk)):
        if on_result is not None:
            on_result(index, result)
        results.append(result)
    return results
