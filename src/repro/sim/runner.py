"""Spec execution: diff cells against the store, run only the missing.

:func:`run_spec` is the "experiment grid as a service" entry point: it
expands an :class:`~repro.sim.specs.ExperimentSpec` into cells, serves
every cell already present in the content-addressed store
(:mod:`repro.sim.store`), and submits *only the missing ones* through
the warm-pool grid executor (:func:`repro.sim.parallel.run_grid`),
persisting each new result as it lands.  Killing a sweep and
resubmitting it therefore re-runs only what is absent -- the
:class:`RunReport` counters (``store_hits`` vs ``submitted``) prove it,
and they are what the resume tests and the CI resume-smoke step assert
on.

Because the store diff happens *before* jobs reach ``run_grid``, the
grid's serial-fallback cost gate sees the post-diff cell count: a
mostly-cached large grid sums only its missing cells' cost and falls
back to serial instead of paying pool warm-up.

:class:`ResultSet` wraps the executed cells for the pure figure
reducers in :mod:`repro.sim.experiments` -- lookups by (config, mix,
fragmentation, seed, core) from one index built with the set, plus the
weighted-speedup helper every speedup figure shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cpu.core import CoreConfig
from repro.sim.metrics import weighted_speedup
from repro.sim.parallel import SimJob, run_grid
from repro.sim.simulator import SimulationResult
from repro.sim.specs import CellKey, ExperimentSpec
from repro.sim.store import ResultStore
from repro.workloads.mixes import MIXES

#: Optional per-cell progress callback: ``progress(cell, status)`` with
#: status ``"memory"`` (already in the in-process cache), ``"store"``
#: (served from disk), or ``"run"`` (simulated just now).
ProgressFn = Callable[[CellKey, str], None]


@dataclass
class RunReport:
    """What one :func:`execute_cells` pass did, cell by cell."""

    cells: int = 0
    #: Served from the caller's in-process result dict.
    memory_hits: int = 0
    #: Served from the on-disk result store.
    store_hits: int = 0
    #: Simulated this pass (the only cells that cost wall time).
    submitted: int = 0

    def summary(self) -> str:
        """One stable line the CLI prints and CI greps."""
        return (f"cells={self.cells} memory_hits={self.memory_hits} "
                f"store_hits={self.store_hits} "
                f"submitted={self.submitted}")


def cell_job(cell: CellKey, observe: bool = False) -> SimJob:
    """The :class:`SimJob` that executes one cell."""
    return SimJob(
        config=cell.config, accesses=cell.accesses,
        fragmentation=cell.fragmentation, seed=cell.seed,
        core_config=cell.core_config,
        mix=cell.workload if cell.kind == "mix" else None,
        benchmark=cell.workload if cell.kind == "alone" else None,
        observe=observe and cell.kind == "mix")


def execute_cells(cells: Sequence[CellKey], *,
                  results: Dict[CellKey, SimulationResult],
                  store: Optional[ResultStore] = None,
                  jobs: int = 1, observe: bool = False,
                  progress: Optional[ProgressFn] = None) -> RunReport:
    """Fill ``results`` with every cell's result; run only the missing.

    The diff runs in three layers: the ``results`` dict itself (the
    caller's in-process cache -- entries surviving from earlier specs
    count as memory hits), then the store, then simulation via
    :func:`run_grid` (``jobs``-wide, serial when ``jobs <= 1`` or the
    *missing* cost falls below the grid's gate).  Newly simulated
    results are persisted to the store as they arrive.  With
    ``observe``, mix cells whose cached result lacks an accounting
    sidecar are treated as missing and re-run observed.  A store whose
    directory cannot be written raises
    :class:`~repro.sim.store.StoreUnwritable` before any cell runs.
    """
    report = RunReport(cells=len(cells))
    missing: List[CellKey] = []
    for cell in cells:
        needs_report = observe and cell.kind == "mix"
        cached = results.get(cell)
        if cached is not None and not (needs_report
                                       and cached.accounting is None):
            report.memory_hits += 1
            if progress:
                progress(cell, "memory")
            continue
        if store is not None:
            stored = store.get(cell.store_key(), cell.config.energy,
                               need_accounting=needs_report)
            if stored is not None:
                results[cell] = stored
                report.store_hits += 1
                if progress:
                    progress(cell, "store")
                continue
        missing.append(cell)
    if not missing:
        return report
    if store is not None:
        # Fail before simulating anything if no result could be kept.
        store.ensure_writable()
    # Group cells sharing a workload next to each other: chunked
    # dispatch then lands them on one worker, whose per-process trace
    # memo regenerates the traces once per group.
    order = sorted(range(len(missing)), key=lambda i: (
        missing[i].kind, missing[i].workload,
        missing[i].fragmentation, missing[i].seed, i))
    missing = [missing[i] for i in order]
    sim_jobs = [cell_job(cell, observe) for cell in missing]

    def on_result(index: int, result: SimulationResult) -> None:
        cell = missing[index]
        results[cell] = result
        if store is not None:
            store.put(cell.store_key(), result,
                      key_info=cell.describe())
        report.submitted += 1
        if progress:
            progress(cell, "run")

    run_grid(sim_jobs, jobs, on_result=on_result)
    return report


def run_spec(spec: ExperimentSpec, *, jobs: int = 1,
             store: Optional[ResultStore] = None,
             core_config: CoreConfig = CoreConfig(),
             progress: Optional[ProgressFn] = None
             ) -> Tuple["ResultSet", RunReport]:
    """Execute one spec against the store; return results + counters.

    ``store=None`` creates the default store (honouring
    ``REPRO_CACHE_DIR``); resubmitting the same spec -- or any spec
    sharing cells with it -- executes only what is absent.
    """
    if store is None:
        store = ResultStore()
    results: Dict[CellKey, SimulationResult] = {}
    report = execute_cells(
        spec.expand(core_config), results=results, store=store,
        jobs=jobs, observe=spec.observe, progress=progress)
    return ResultSet(spec, results, core_config), report


class ResultSet:
    """Executed cells of one spec, indexed for the figure reducers.

    Lookups default to the spec's first fragmentation/seed level, so
    single-level reducers (most figures) just say
    ``rs.mix(config, "mix0")``; sweep reducers pass the axis values
    explicitly.  ``results`` stays the public {cell: result} dict;
    lookups answer from one index over it, built at construction with
    plain tuple keys, so they build no :class:`CellKey`.  Each alone
    IPC is resolved once per (benchmark, axes).
    """

    def __init__(self, spec: ExperimentSpec,
                 results: Dict[CellKey, SimulationResult],
                 core_config: CoreConfig = CoreConfig()) -> None:
        self.spec = spec
        self.results = results
        self.core_config = core_config
        self._fragmentation = spec.fragmentations[0]
        self._seed = spec.seeds[0]
        self._alone_config = spec.alone.to_config()
        accesses = spec.accesses_per_core
        self._index = {
            (cell.kind, cell.config, cell.workload, cell.fragmentation,
             cell.seed, cell.core_config): result
            for cell, result in results.items()
            if cell.accesses == accesses}
        self._alone_ipcs: Dict[tuple, float] = {}

    def _cell(self, kind, config, workload, fragmentation, seed, core):
        return self._index[(
            kind, config, workload,
            self._fragmentation if fragmentation is None else fragmentation,
            self._seed if seed is None else seed,
            core or self.core_config)]

    def mix(self, config, mix: str, fragmentation: float = None,
            seed: int = None,
            core_config: CoreConfig = None) -> SimulationResult:
        """The mix cell's result (KeyError if not in the spec)."""
        return self._cell("mix", config, mix, fragmentation, seed,
                          core_config)

    def alone_ipc(self, benchmark: str, fragmentation: float = None,
                  seed: int = None,
                  core_config: CoreConfig = None) -> float:
        """The benchmark's alone IPC on the spec's alone baseline."""
        axes = (benchmark, fragmentation, seed, core_config)
        ipc = self._alone_ipcs.get(axes)
        if ipc is None:
            ipc = self._cell("alone", self._alone_config, benchmark,
                             fragmentation, seed, core_config).ipcs[0]
            self._alone_ipcs[axes] = ipc
        return ipc

    def ws(self, config, mix: str, fragmentation: float = None,
           seed: int = None, core_config: CoreConfig = None
           ) -> Tuple[float, SimulationResult]:
        """Snavely-Tullsen weighted speedup of one mix cell."""
        result = self.mix(config, mix, fragmentation, seed, core_config)
        names, _ = MIXES[mix]
        alone = [self.alone_ipc(n, fragmentation, seed, core_config)
                 for n in names]
        return weighted_speedup(result.ipcs, alone), result
