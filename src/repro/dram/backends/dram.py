"""The DDR4 backend: the paper's evaluation machine, as a rule table.

This table resolves byte-identically to
:func:`repro.dram.timing.ddr4_timings` at every bus frequency (enforced
by ``tests/dram/test_backends.py``), so the ``dram`` backend *is* the
pre-refactor model: every preset keeps its behaviour digest.

The idioms it encodes (Tab. III, 18-18-18 DDR4 at 1.33 GHz):

* CAS latencies are constant in **nanoseconds** across Fig. 14's
  frequency sweep -- expressed as 18 clocks at the 1.333 GHz reference
  (``ref_clk`` terms, 750 ps each);
* bus-side quantities (``tCCD_S``, ``tRRD``) are constant in **clocks**;
* ``tCCD_L`` is one fixed 200 MHz DRAM **core clock** (5 ns);
* analog core latencies (``tRAS``, ``tWR``, ...) are constant in ns;
* ``tCWL`` is CAS minus four clocks, falling back to CAS when the
  subtraction goes non-positive.
"""

from __future__ import annotations

from repro.dram.backends.base import (
    MemoryTechBackend,
    register_backend,
    rule,
)
from repro.dram.power import EnergyParams
from repro.dram.timing import DDR4_TREFI_NS, REFRESH_DENSITY_GRADES_NS

#: 1.333 GHz reference bus period: 18 of these is the 13.5 ns CAS.
_DDR4_REF_CLK_PS = 750

DRAM_BACKEND = register_backend(MemoryTechBackend(
    name="dram",
    description="DDR4 (Tab. III): 18-18-18 at a 1.333 GHz channel, "
                "200 MHz core, opt-in JEDEC refresh",
    rules={
        "tRCD": rule((18, "ref_clk")),
        "tRP": rule((18, "ref_clk")),
        "tRAS": rule((32, "ns")),
        "tRC": rule((32, "ns"), (18, "ref_clk")),
        "tCL": rule((18, "ref_clk")),
        "tCWL": rule((18, "ref_clk"), subtract_clk=4),
        "tCCD_S": rule((4, "clk")),
        "tCCD_L": rule((1, "core_clk")),
        "tWTR_S": rule((2.5, "ns")),
        "tWTR_L": rule((7.5, "ns")),
        "tRRD": rule((4, "clk")),
        "tWR": rule((15, "ns")),
        "tRTP": rule((7.5, "ns")),
        "tFAW": rule((25, "ns")),
    },
    burst_length=8,
    reference_clock_ps=_DDR4_REF_CLK_PS,
    default_frequency_hz=1.333e9,
    refresh_grades_ns=dict(REFRESH_DENSITY_GRADES_NS),
    trefi_ns=DDR4_TREFI_NS,
    energy=EnergyParams(),
))
