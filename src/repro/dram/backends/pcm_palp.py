"""The PCM-PALP backend: phase-change memory, partition-level parallelism.

PALP (Arjomand et al.) transplants the plane/partition-conflict idea to
phase-change memory, whose device physics invert DRAM's assumptions:

* **Asymmetric RAS-to-CAS**: a read must sense resistive cells through a
  long ``tRCD`` (48 ns here), but a *write* opens the row almost
  immediately (``tRCD_WR`` = 12 ns) because the slow part -- the
  programming pulse -- happens after the burst, not before it.
* **Write pulse** (``tWRP``): after the WR burst the partition spends
  ~150 ns programming cells.  No column command may address the slot
  until the pulse completes.
* **Write cancellation** (``tWCT``): a PRE may abort an in-flight pulse
  once ``tWCT`` has elapsed since the burst, so a pending read is not
  held hostage for the full pulse; the cancelled write replays after the
  next ACT (modelled as a ``tWRP`` column-readiness gate).
* **No refresh**: PCM cells are non-volatile, so the backend has no
  refresh grades and rejects refresh knobs.

Reads are non-destructive (no row restore), hence the short ``tRP`` and
the read-heavy energy asymmetry in :meth:`EnergyParams.pcm`.
"""

from __future__ import annotations

from repro.dram.backends.base import (
    MemoryTechBackend,
    register_backend,
    rule,
)
from repro.dram.power import EnergyParams

PCM_PALP_BACKEND = register_backend(MemoryTechBackend(
    name="pcm_palp",
    description="PCM with PALP partition-level parallelism: asymmetric "
                "tRCD, 150 ns write pulses with cancellation, no refresh",
    rules={
        "tRCD": rule((48, "ns")),
        "tRCD_WR": rule((12, "ns")),
        "tRP": rule((10, "ns")),
        "tRAS": rule((50, "ns")),
        "tRC": rule((60, "ns")),
        "tCL": rule((12, "ns")),
        "tCWL": rule((5, "ns")),
        "tCCD_S": rule((4, "clk")),
        "tCCD_L": rule((4, "clk")),
        "tWTR_S": rule((2.5, "ns")),
        "tWTR_L": rule((2.5, "ns")),
        "tRRD": rule((4, "clk")),
        "tWR": rule((6, "ns")),
        "tRTP": rule((5, "ns")),
        "tWRP": rule((150, "ns")),
        "tWCT": rule((7.5, "ns")),
    },
    burst_length=8,
    reference_clock_ps=750,
    default_frequency_hz=1.333e9,
    refresh_grades_ns={},
    trefi_ns=0.0,
    energy=EnergyParams.pcm(),
))
