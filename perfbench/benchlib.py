"""Helpers shared by the figure-turnaround benchmark's driver and worker.

Standard library only: the driver (``run.py``) imports this module
without importing the simulator, and the worker (``worker.py``) imports
it before the simulator so its set-up clock covers the simulator's
imports.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import heapq
import importlib
import json
import math
import os
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: Scale shared by every workload.
ACCESSES = 400
FRAGMENTATION = 0.1


@dataclasses.dataclass(frozen=True)
class Workload:
    """One closed-loop workload: one caller regenerates one figure."""

    figure: str
    jobs: int
    observe: bool
    #: Set-up fills a fresh store with one cold pass; the timed section
    #: then repeats store-served regenerations.
    warm: bool
    why: str


WORKLOADS: Dict[str, Workload] = {
    # The paper's figure, almost all event-loop work: scheduler peek,
    # command commit, core admission.  Store reads are bypassed; every
    # cell is simulated and written once.
    "fig12_cold": Workload(
        figure="fig12", jobs=1, observe=False, warm=False,
        why="Fig. 12 on an empty store: all 82 cells simulated serially, "
            "so scheduler, commit and core changes show and store reads "
            "are bypassed"),
    # The "iterate on analysis" path: no simulation at all, only store
    # reads, key hashing, spec expansion and the reducer.
    "fig12_warm": Workload(
        figure="fig12", jobs=1, observe=False, warm=True,
        why="Fig. 12 served from a filled store: store read/decode, key "
            "hashing, spec expansion and the reducer are all the work; "
            "simulation is bypassed"),
    # Same loop layers used differently (REF/REFpb, blackout floors,
    # sub-bank overlap), plus the accounting observer on every command,
    # sidecar-carrying store writes and the only pool dispatch.
    "figref_obs_j2": Workload(
        figure="figref", jobs=2, observe=True, warm=False,
        why="refresh sweep (100 cells) observed on two workers: refresh "
            "commands, the accounting observer, sidecar writes and pool "
            "dispatch"),
}

#: Environment variables that would change what a run measures: loop
#: selection, the grid's serial-fallback gate, the cache location and
#: the pytest benches' scale knobs.
CLEARED_ENV = ("REPRO_SHARDS", "REPRO_SHARDS_CHECK", "REPRO_GRID_MIN_COST",
               "REPRO_CACHE_DIR")
CLEARED_ENV_PREFIX = "REPRO_BENCH_"


def clean_env(environ: Dict[str, str], src_dir: str) -> Dict[str, str]:
    """A copy of ``environ`` without the knobs above, importing ``src``."""
    env = {k: v for k, v in environ.items()
           if k not in CLEARED_ENV and not k.startswith(CLEARED_ENV_PREFIX)}
    env["PYTHONPATH"] = src_dir
    return env


# -- statistics ---------------------------------------------------------------


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct``-th percentile (0 < pct <= 100)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


# -- host speed calibration -------------------------------------------------------

#: Duration of one :func:`calibrate` call when nothing else shares the
#: core (the fastest calls seen on a 2.1 GHz two-vCPU host).
CALIBRATION_REFERENCE_S = 0.0065
_CALIBRATION_TEXT = json.dumps({
    "stats": {str(i): i * 7 for i in range(300)},
    "ipcs": [0.1 * i for i in range(64)],
    "nested": [{"a": i, "b": [i, i + 1]} for i in range(50)]})


def calibrate() -> float:
    """Seconds one fixed piece of work takes right now.

    The work mixes what a figure regeneration does -- small objects,
    heap and dict traffic, JSON decoding -- so its duration tracks how
    fast the shared host is running the benchmark at this moment.
    """
    start = time.perf_counter()
    acc = 0
    for rnd in range(2):
        heap: List[Tuple[int, int]] = []
        table: Dict[int, int] = {}
        for i in range(2000):
            key = ((i * 7919 + rnd) % 1009, i)
            heapq.heappush(heap, key)
            table[i % 257] = table.get(i % 257, 0) + (i & 7)
        while heap:
            acc += heapq.heappop(heap)[0]
        for _ in range(20):
            acc += len(json.loads(_CALIBRATION_TEXT)["stats"])
    return time.perf_counter() - start


# -- digests and pins ---------------------------------------------------------


def jsonable(value):
    """Reduced figure output as plain JSON data (dataclasses -> dicts)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    return value


def payload_digest(payload) -> str:
    """SHA-256 of the canonical JSON rendering (floats round-trip)."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def cells_digest(digests: Sequence[str]) -> str:
    """One digest over a grid's sorted per-cell result digests."""
    return hashlib.sha256(",".join(sorted(digests)).encode()).hexdigest()


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def expected_for(pins: dict, figure: str, seed: int) -> Optional[dict]:
    """The pinned outputs of ``figure`` at ``seed``, if pinned."""
    return pins.get(figure, {}).get(str(seed))


def failed_cells(expected: dict, digests: Sequence[str],
                 table_digest: str) -> int:
    """How many of a regeneration's cells miss their pinned outputs.

    ``expected`` holds the reduced-table digest and either the sorted
    per-cell digests (``cells``; each unmatched cell fails) or only
    their combined digest (``cells_digest``; any mismatch fails every
    cell).  A reduced-table mismatch fails every cell.
    """
    if expected["table"] != table_digest:
        return max(len(digests), 1)
    if "cells" in expected:
        matched = sum((Counter(digests) & Counter(expected["cells"]))
                      .values())
        return max(len(digests), len(expected["cells"])) - matched
    if cells_digest(digests) != expected["cells_digest"]:
        return max(len(digests), 1)
    return 0


def paper_error_pp(table: dict, reference: Dict[str, float],
                   baseline: str = "DDR4") -> float:
    """Mean |GMEAN - paper| in percentage points over the reference
    configs of a Fig. 12 table (weighted speedups normalised per mix to
    the baseline, then geometric-meaned over mixes)."""
    values = table["values"]
    base = values[baseline]
    gaps = []
    for config, paper in reference.items():
        ratios = [v / base[mix] for mix, v in values[config].items()]
        gm = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        gaps.append(abs(gm - paper) * 100.0)
    return sum(gaps) / len(gaps)


def reference_error_pp(points: List[dict],
                       reference: Dict[str, Dict[str, float]]) -> float:
    """Mean |normalised WS - reference| in percentage points over a
    refresh sweep's (policy, density) points."""
    gaps = [abs(p["normalized_ws"] - reference[p["policy"]][p["density"]])
            * 100.0 for p in points]
    return sum(gaps) / len(gaps)


# -- tracing -------------------------------------------------------------------


#: Layer -> the call sites its span wraps, as ``module:attribute.path``.
#: Sites missing from the program under test are skipped and reported;
#: their metrics then read zero.
HOOKS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("workloads.generate",
     ("repro.workloads.generator:TraceGenerator.generate",)),
    ("cpu.pop_request", ("repro.cpu.core:TraceCore.pop_request",)),
    ("cpu.complete_read", ("repro.cpu.core:TraceCore.complete_read",)),
    ("controller.best", ("repro.controller.scheduler:Scheduler.best",)),
    ("controller.enqueue",
     ("repro.controller.controller:ChannelController.enqueue",)),
    ("controller.commit",
     ("repro.controller.controller:ChannelController.commit",)),
    ("dram.issue", ("repro.dram.device:Channel.issue_act",
                    "repro.dram.device:Channel.issue_column",
                    "repro.dram.device:Channel.issue_precharge",
                    "repro.dram.device:Channel.issue_refresh")),
    ("accounting.observe",
     ("repro.sim.accounting:CommandObserver.floors_for",
      "repro.sim.accounting:CommandObserver.on_command")),
    ("sim.run_traces", ("repro.sim.parallel:run_traces",
                        "repro.sim.simulator:run_traces")),
    ("sim.collect_result", ("repro.sim.simulator:collect_result",)),
    ("store.key", ("repro.sim.specs:CellKey.store_key",)),
    ("store.get", ("repro.sim.store:ResultStore.get",)),
    ("store.restore", ("repro.sim.store:restore_result",)),
    ("store.put", ("repro.sim.store:ResultStore.put",)),
    ("store.serialize", ("repro.sim.store:serialize_result",)),
    ("specs.expand", ("repro.sim.specs:ExperimentSpec.expand",)),
    ("parallel.run_grid", ("repro.sim.runner:run_grid",)),
)
#: The layer whose span is one grid cell: spans nested in it are
#: aggregated under that cell.
CELL_LAYER = "sim.run_traces"
GRID_LAYERS = ("parallel.run_grid",)


class Tracer:
    """Aggregated spans: one record per (cell, layer) with a call count.

    A per-command layer thus costs memory per cell, not per command.
    ``self`` time is a span's duration minus the time its child spans
    cover.  Spans opened outside any cell aggregate under cell ``None``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: (cell, layer) -> [calls, total seconds, self seconds]
        self.spans: Dict[Tuple[Optional[int], str], List[float]] = {}
        self.cell: Optional[int] = None
        self.cells = 0
        self.missing: List[str] = []
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, layer: str, fn: Callable,
             opens_cell: bool = False) -> Callable:
        """``fn`` timed as one span of ``layer``."""
        stack, spans, clock, tracer = self._stack, self.spans, self.clock, self

        def span(*args, **kwargs):
            if opens_cell:
                outer = tracer.cell
                tracer.cell = tracer.cells
                tracer.cells += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                key = (tracer.cell, layer)
                record = spans.get(key)
                if record is None:
                    spans[key] = [1, elapsed, own]
                else:
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += own
                if opens_cell:
                    tracer.cell = outer

        return functools.update_wrapper(span, fn)

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` once as a span of ``layer`` (benchmark-side spans)."""
        return self.wrap(layer, fn)(*args, **kwargs)

    def install(self, layers: Optional[Sequence[str]] = None) -> None:
        """Wrap the call sites of ``layers`` (default: every layer)."""
        for layer, sites in HOOKS:
            if layers is not None and layer not in layers:
                continue
            for site in sites:
                module_name, _, path = site.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    *parents, name = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    original = (owner.__dict__[name]
                                if isinstance(owner, type)
                                else getattr(owner, name))
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(site)
                    continue
                self._patches.append((owner, name, original))
                setattr(owner, name, self.wrap(
                    layer, original, opens_cell=layer == CELL_LAYER))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reading the spans -------------------------------------------------

    def totals(self) -> Dict[str, List[float]]:
        """layer -> [calls, total seconds, self seconds] over all cells."""
        out: Dict[str, List[float]] = {}
        for (_, layer), (calls, total, own) in self.spans.items():
            acc = out.setdefault(layer, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        return out

    def cell_spans(self) -> Dict[int, float]:
        """cell -> duration of its cell span."""
        return {cell: total for (cell, layer), (_, total, _)
                in self.spans.items()
                if cell is not None and layer == CELL_LAYER}

    def cell_self_gap(self) -> float:
        """Largest relative gap, over cells, between the sum of the
        cell's layer self times and the cell's span."""
        sums: Dict[int, float] = {}
        for (cell, _), (_, _, own) in self.spans.items():
            if cell is not None:
                sums[cell] = sums.get(cell, 0.0) + own
        gap = 0.0
        for cell, span in self.cell_spans().items():
            gap = max(gap, abs(sums[cell] - span) / max(span, 1e-12))
        return gap

    def records(self) -> List[dict]:
        """Every aggregated span, for the trace file."""
        return [{"cell": cell, "layer": layer, "calls": calls,
                 "total_s": total, "self_s": own}
                for (cell, layer), (calls, total, own)
                in sorted(self.spans.items(),
                          key=lambda kv: (-1 if kv[0][0] is None
                                          else kv[0][0], kv[0][1]))]
