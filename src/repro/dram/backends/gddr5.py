"""The GDDR5 backend: ``examples/gddr5_extension.py`` made first-class.

The example script approximated GDDR5 by running the DDR4 rule table at
2.5 GHz; this backend gives the graphics part its own table: tighter
core timings (graphics dies trade density for speed), a 2.5 GHz default
channel, bank-group CAS scoping like DDR4, a short-tRFC refresh
(smaller pages, faster refresh bursts, a 1.9 us tREFI), and its own
rank energies: a higher-clocked I/O path spends more on each burst and
on standby clocking than DDR4.
"""

from __future__ import annotations

from repro.dram.backends.base import (
    MemoryTechBackend,
    register_backend,
    rule,
)
from repro.dram.power import EnergyParams

GDDR5_BACKEND = register_backend(MemoryTechBackend(
    name="gddr5",
    description="GDDR5 graphics DRAM: 2.5 GHz channel, tighter core "
                "timings, short-tRFC refresh",
    rules={
        "tRCD": rule((14, "ns")),
        "tRP": rule((14, "ns")),
        "tRAS": rule((28, "ns")),
        "tRC": rule((42, "ns")),
        "tCL": rule((15, "ns")),
        "tCWL": rule((15, "ns"), subtract_clk=8),
        "tCCD_S": rule((4, "clk")),
        "tCCD_L": rule((3, "ns")),
        "tWTR_S": rule((2.5, "ns")),
        "tWTR_L": rule((7.5, "ns")),
        "tRRD": rule((5.5, "ns")),
        "tWR": rule((12, "ns")),
        "tRTP": rule((5, "ns")),
        "tFAW": rule((23, "ns")),
    },
    burst_length=8,
    reference_clock_ps=400,
    default_frequency_hz=2.5e9,
    refresh_grades_ns={"8Gb": (110.0, 60.0)},
    trefi_ns=1900.0,
    energy=EnergyParams(act_nj=9.0, pre_nj=4.5, rd_nj=9.0, wr_nj=9.5,
                        background_w=1.1),
))
