"""cProfile harness over one (config, mix) simulation cell.

Shared by ``repro profile`` (:mod:`repro.cli`) and the standalone
``tools/profile_sim.py`` so both entry points measure exactly the same
thing: trace generation happens *outside* the profiled region, the
event loop (:meth:`repro.sim.simulator.Simulator.run`) inside it.  The
report carries the raw :class:`pstats.Stats` for programmatic use and
can dump the standard binary pstats format for snakeviz / gprof2dot.
"""

from __future__ import annotations

import cProfile
import dataclasses
import io
import pstats
from dataclasses import dataclass
from typing import Optional

from repro.sim.config import SystemConfig

#: Sort orders ``format_table`` accepts (a subset of pstats' aliases
#: that always exists; pstats itself accepts more).
SORT_KEYS = ("cumulative", "tottime", "calls", "ncalls", "pcalls")


@dataclass
class ProfileReport:
    """One profiled simulation: perf counters + the pstats data."""

    config_name: str
    mix: str
    accesses: int
    #: DRAM commands issued during the profiled run.
    commands: int
    #: Memory transactions served.
    transactions: int
    #: Wall-clock seconds inside the profiled event loop (measured by
    #: the simulator itself, so it excludes profiler bookkeeping done
    #: outside the loop but still pays the per-call tracing tax).
    wall_time_s: float
    #: Scheduler effort: peeks, candidates built, candidates examined.
    peeks: int
    candidates_built: int
    candidates_examined: int
    #: Behaviour digest of the profiled run -- lets a profile double as
    #: an equivalence witness when comparing scheduler paths.
    digest: str
    stats: pstats.Stats

    @property
    def commands_per_second(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.commands / self.wall_time_s

    def format_table(self, limit: int = 25,
                     sort: str = "cumulative") -> str:
        """Human-readable summary + top-``limit`` pstats lines."""
        buf = io.StringIO()
        buf.write(
            f"config: {self.config_name}  mix: {self.mix}  "
            f"accesses/core: {self.accesses}\n"
            f"commands: {self.commands}  transactions: "
            f"{self.transactions}  wall: {self.wall_time_s:.3f}s  "
            f"({self.commands_per_second:,.0f} cmd/s under profiler)\n"
            f"peeks/command: {self.peeks / max(1, self.commands):.3f}  "
            f"candidates built/command: "
            f"{self.candidates_built / max(1, self.commands):.3f}  "
            f"examined/peek: "
            f"{self.candidates_examined / max(1, self.peeks):.3f}\n"
            f"digest: {self.digest}\n\n")
        self.stats.stream = buf
        self.stats.sort_stats(sort).print_stats(limit)
        return buf.getvalue()

    def dump(self, path: str) -> None:
        """Write the binary pstats file (snakeviz/pstats compatible)."""
        self.stats.dump_stats(path)


def profile_run(config: SystemConfig, mix: str,
                accesses: int = 1500, fragmentation: float = 0.1,
                seed: int = 0,
                incremental: Optional[bool] = None) -> ProfileReport:
    """Profile one (config, mix) cell and return the report.

    ``incremental`` overrides the scheduler path for this run only
    (None keeps the config's own setting): profiling reference vs.
    table-based selection on the same cell is the intended use, and
    the digests in the two reports must match.
    """
    from repro.sim.simulator import MemorySystem, Simulator
    from repro.cpu.core import CoreConfig, TraceCore
    from repro.workloads.mixes import mix_traces

    if incremental is not None:
        config = dataclasses.replace(config, incremental=incremental)
    traces = mix_traces(mix, accesses, fragmentation=fragmentation,
                        seed=seed)
    system = MemorySystem(config)
    cores = [TraceCore(trace, CoreConfig(), core_id=i)
             for i, trace in enumerate(traces)]
    simulator = Simulator(system, cores)

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = simulator.run()
    finally:
        profiler.disable()

    stats = pstats.Stats(profiler)
    s = result.stats
    return ProfileReport(
        config_name=config.name,
        mix=mix,
        accesses=accesses,
        commands=s.commands_issued,
        transactions=result.transactions,
        wall_time_s=result.wall_time_s,
        peeks=s.peeks,
        candidates_built=s.candidates_built,
        candidates_examined=s.candidates_examined,
        digest=result.digest(),
        stats=stats,
    )
