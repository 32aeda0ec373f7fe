"""ERUCA reproduction: sub-bank conflict avoidance and dual-data-bus
DRAM parallelism (Lym et al., HPCA 2018), with a from-scratch DDR4
timing simulator, trace-driven cores, and synthetic SPEC-like workloads.

Typical use::

    from repro import EruConfig, run_traces, vsb, ddr4_baseline
    from repro.workloads.mixes import mix_traces

    traces = mix_traces("mix0", accesses_per_core=2000)
    base = run_traces(ddr4_baseline(), traces)
    eruca = run_traces(vsb(EruConfig.full(planes=4)), traces)
    print(sum(eruca.ipcs) / sum(base.ipcs))

Every evaluated paper figure is a named grid spec
(:data:`repro.sim.specs.NAMED_SPECS`) plus a pure reducer
(:data:`repro.sim.experiments.FIGURE_REDUCERS`);
``run_figure("fig12", ExperimentSettings())`` in
:mod:`repro.sim.experiments` runs one through the result store and
returns its table.  The area model lives in :mod:`repro.core.area`;
the Fig. 4 trace study in :mod:`repro.analysis.plane_conflict`.

To see *where the cycles go*, pass ``observe=True`` (or an
:class:`ObserveOptions`) to :func:`run_traces`: the result then carries
an :class:`AccountingReport` attributing every channel cycle to one
:class:`StallBucket` (``docs/OBSERVABILITY.md`` documents the buckets,
the trace schema, and the ``repro stats`` / ``repro trace`` CLI).
"""

from repro.core.mechanisms import EruConfig
from repro.sim.accounting import (
    AccountingReport,
    ObserveOptions,
    StallBucket,
)
from repro.cpu.core import CoreConfig, TraceCore
from repro.cpu.trace import Trace, TraceEntry
from repro.sim.config import (
    SystemConfig,
    bg32,
    ddr4_baseline,
    half_dram,
    ideal32,
    masa,
    masa_eruca,
    paired_bank,
    vsb,
)
from repro.sim.simulator import (
    MemorySystem,
    SimulationResult,
    Simulator,
    run_traces,
)
from repro.sim.specs import ExperimentSettings

__version__ = "1.0.0"

__all__ = [
    "AccountingReport",
    "CoreConfig",
    "EruConfig",
    "ExperimentSettings",
    "MemorySystem",
    "ObserveOptions",
    "SimulationResult",
    "Simulator",
    "StallBucket",
    "SystemConfig",
    "Trace",
    "TraceCore",
    "TraceEntry",
    "bg32",
    "ddr4_baseline",
    "half_dram",
    "ideal32",
    "masa",
    "masa_eruca",
    "paired_bank",
    "run_traces",
    "vsb",
]
