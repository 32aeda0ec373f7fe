"""Fig. 4 trace analysis: plane-conflict potential vs. plane count.

The paper motivates EWLR/RAP with a trace study: for each memory
transaction, look at the other transactions to the *same bank* within a
``tRC`` time window; if some overlapping transaction targets the *other*
sub-bank with a different row in the *same plane*, the pair would suffer a
plane conflict.  Fig. 4 sweeps the plane count from 2 to 32768 (every
plane a single EWLR) and plots the fraction of overlapping transactions
with and without plane conflicts, averaged over the mcf / lbm / gemsFDTD /
omnetpp traces.

The analysis is purely on timestamped traces -- no timing simulation --
so we assign each access a nominal issue time from the trace gaps at the
configured core clock (the same fixed-rate frontier the core model uses
between stalls).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.controller.mapping import AddressMapping, skylake_mapping
from repro.cpu.core import CoreConfig
from repro.cpu.trace import Trace
from repro.dram.timing import ddr4_timings
from repro.workloads.generator import generate_traces
from repro.workloads.profiles import PROFILES

#: Fig. 4's x-axis: 2 .. 32768 planes.
FIG4_PLANE_COUNTS = tuple(2 ** k for k in range(1, 16))
#: The benchmarks whose traces Fig. 4 analyses.
FIG4_BENCHMARKS = ("mcf", "lbm", "gemsFDTD", "omnetpp")


@dataclass(frozen=True)
class TimedAccess:
    """One transaction with its nominal issue time and decoded location."""

    time: int
    bank_key: tuple
    subbank: int
    row: int


def timestamp_trace(trace: Trace, mapping: AddressMapping,
                    core: CoreConfig = CoreConfig(),
                    effective_ipc: float = 2.0) -> List[TimedAccess]:
    """Assign nominal times from trace gaps.

    ``effective_ipc`` is the committed IPC assumed for the timestamping
    (memory-bound SPEC programs sustain ~1-3, far below the issue width);
    the paper's traces carry real captured times, which this stands in
    for.
    """
    out: List[TimedAccess] = []
    time = 0.0
    instruction_time = core.cycle_ps / effective_ipc
    for entry in trace:
        time += (entry.gap + 1) * instruction_time
        coords = mapping.decode(entry.address)
        out.append(TimedAccess(
            time=int(time),
            bank_key=coords.bank_key(
                mapping.config.banks_per_group),
            subbank=coords.subbank,
            row=coords.row,
        ))
    return out


def _plane_of(row: int, planes: int, row_bits: int) -> int:
    """Naive (MSB-region) plane of a row, as in Fig. 3."""
    bits = (planes - 1).bit_length()
    return row >> (row_bits - bits)


@dataclass
class ConflictCounts:
    """Fig. 4's per-plane-count outcome."""

    overlapping: int = 0
    plane_conflict: int = 0
    no_plane_conflict: int = 0

    def conflict_fraction(self, total_transactions: int) -> float:
        if not total_transactions:
            return 0.0
        return self.plane_conflict / total_transactions

    def no_conflict_fraction(self, total_transactions: int) -> float:
        if not total_transactions:
            return 0.0
        return self.no_plane_conflict / total_transactions


def analyze_plane_conflicts(
        traces: Sequence[Trace], mapping: AddressMapping,
        plane_counts: Iterable[int] = FIG4_PLANE_COUNTS,
        window_ps: int = None,
        core: CoreConfig = CoreConfig(),
        effective_ipc: float = 2.0) -> Dict[int, ConflictCounts]:
    """The Fig. 4 study over a set of traces.

    For every transaction, the transactions to the same bank within
    ``+/- window_ps`` (default tRC) are inspected; the transaction counts
    as *overlapping* if any of them targets the opposite sub-bank.  It
    counts as a *plane conflict* at plane count ``n`` if some overlapping
    opposite-sub-bank transaction has a different row in the same plane,
    and as *no plane conflict* otherwise.
    """
    if window_ps is None:
        window_ps = ddr4_timings().tRC
    plane_counts = sorted(set(plane_counts))
    row_bits = mapping.config.row_bits
    accesses: List[TimedAccess] = []
    for trace in traces:
        accesses.extend(
            timestamp_trace(trace, mapping, core, effective_ipc))

    by_bank: Dict[tuple, List[TimedAccess]] = defaultdict(list)
    for acc in accesses:
        by_bank[acc.bank_key].append(acc)
    for group in by_bank.values():
        group.sort(key=lambda a: a.time)

    total = len(accesses)
    results = {n: ConflictCounts() for n in plane_counts}
    for group in by_bank.values():
        times = [a.time for a in group]
        for i, acc in enumerate(group):
            lo = bisect_left(times, acc.time - window_ps)
            hi = bisect_right(times, acc.time + window_ps)
            others = [group[j] for j in range(lo, hi)
                      if j != i and group[j].subbank != acc.subbank]
            if not others:
                continue
            for n in plane_counts:
                plane = _plane_of(acc.row, n, row_bits)
                conflict = any(
                    other.row != acc.row
                    and _plane_of(other.row, n, row_bits) == plane
                    for other in others)
                counts = results[n]
                counts.overlapping += 1
                if conflict:
                    counts.plane_conflict += 1
                else:
                    counts.no_plane_conflict += 1
    for counts in results.values():
        counts.total_transactions = total  # type: ignore[attr-defined]
    return results


def fig4_plane_conflicts(accesses: int, fragmentation: float = 0.1,
                         seed: int = 0
                         ) -> Tuple[Dict[int, ConflictCounts], int]:
    """Fig. 4: the study over fresh :data:`FIG4_BENCHMARKS` traces on
    the sub-banked Skylake mapping; returns the per-plane-count
    outcome and the number of transactions analysed."""
    traces = generate_traces([PROFILES[n] for n in FIG4_BENCHMARKS],
                             accesses, fragmentation=fragmentation,
                             seed=seed)
    results = analyze_plane_conflicts(traces,
                                      skylake_mapping(subbanked=True))
    return results, sum(len(t) for t in traces)
