"""DRAM timing parameters: the integer-picosecond time base.

All times are integer picoseconds.  Using an integer time base keeps command
legality checks exact: there is never a float rounding question about whether
two commands are ``tCCD_L`` apart.

Each technology's values live in its backend's rule table
(:mod:`repro.dram.backends`); the paper's Tab. III DDR4 at a 1.33 GHz bus
clock with 18-18-18 timings is ``get_backend("dram").timings()``.  This
module holds the fixed 200 MHz DRAM core clock, and the two new ERUCA
bus-window parameters ``tTCW`` and ``tTWTRW`` derived from it and the
write latency (:meth:`TimingParams.with_ddb_windows`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

PS_PER_NS = 1000

#: Fixed DRAM core (internal array) clock, per the paper: "Current DRAMs
#: operate with a core frequency of 200MHz" -- a 5 ns core cycle.
DRAM_CORE_CLOCK_HZ = 200_000_000
DRAM_CORE_PERIOD_PS = 5_000


def ns(value: float) -> int:
    """Convert nanoseconds to integer picoseconds (round to nearest)."""
    return int(round(value * PS_PER_NS))


def clock_period_ps(frequency_hz: float) -> int:
    """Period of a clock in integer picoseconds."""
    return int(round(1e12 / frequency_hz))


@dataclass(frozen=True)
class TimingParams:
    """A complete set of DRAM timing constraints (picoseconds).

    The short/long (``_S``/``_L``) pairs implement bank grouping: the long
    variant applies between accesses to the same bank group, the short one
    across groups.  Idealised organisations (no bank groups) simply use the
    short value everywhere; DDB relaxes the long value to the short one
    between *different banks* of the same group, guarded by ``tTCW`` /
    ``tTWTRW`` (see :mod:`repro.dram.resources`).
    """

    #: Bus (channel) clock period.  Commands occupy one bus clock; the data
    #: bus moves two beats per clock (DDR).
    tCK: int
    #: ACT to internal read/write (RAS-to-CAS delay), per (sub-)bank.
    tRCD: int
    #: PRE to ACT of the same (sub-)bank.
    tRP: int
    #: ACT to PRE of the same (sub-)bank (minimum row-open time).
    tRAS: int
    #: ACT to ACT of the same (sub-)bank (row cycle); tRC >= tRAS + tRP.
    tRC: int
    #: Read CAS latency (column command to first data beat).
    tCL: int
    #: Write CAS latency.
    tCWL: int
    #: CAS to CAS, different bank group (or no-bank-group organisations).
    tCCD_S: int
    #: CAS to CAS, same bank group (paper: one DRAM core clock, 5 ns).
    tCCD_L: int
    #: Write burst end to read command, different bank group.
    tWTR_S: int
    #: Write burst end to read command, same bank group.
    tWTR_L: int
    #: ACT to ACT, different banks, same rank.
    tRRD: int
    #: Write recovery: end of write burst to PRE of the same bank.
    tWR: int
    #: Read to PRE of the same bank.
    tRTP: int
    #: Burst length in beats (column transfer moves BL beats at DDR rate).
    burst_length: int = 8
    #: Four-activate window, rank-wide: at most four ACTs may issue within
    #: any ``tFAW`` span (a charge-pump/power-delivery limit).  Zero
    #: disables the window.  Like the other analog core-side latencies it
    #: is constant in nanoseconds across speed grades.
    tFAW: int = 0
    #: ERUCA two-column-command window (per bank group, DDB only): at most
    #: two column commands may issue within this window.  Zero disables it.
    tTCW: int = 0
    #: ERUCA two-write-to-read window (per bank group, DDB only): a read may
    #: not follow the first of two back-to-back writes sooner than this.
    #: Zero disables it.
    tTWTRW: int = 0
    #: All-bank refresh cycle time: a ``REF`` blacks out every bank of the
    #: rank for this long.  Zero (with ``tREFI`` zero) disables refresh
    #: modelling entirely -- the pre-refresh machine.
    tRFC: int = 0
    #: Average refresh interval: one all-bank refresh is owed per ``tREFI``
    #: elapsed.  JEDEC allows deferring up to eight owed refreshes, so the
    #: hard bound is nine ``tREFI`` between refreshes of any one bank.
    tREFI: int = 0
    #: Per-bank refresh cycle time (``REFpb``): shorter than ``tRFC``
    #: because only one bank's rows are refreshed.  Zero falls back to
    #: ``tRFC`` (per-bank refresh no cheaper than all-bank).
    tRFCpb: int = 0

    def __post_init__(self) -> None:
        if self.tCK <= 0:
            raise ValueError(f"tCK must be positive, got {self.tCK}")
        if self.tRC < self.tRAS + self.tRP:
            raise ValueError(
                f"tRC ({self.tRC}) must cover tRAS + tRP "
                f"({self.tRAS} + {self.tRP})"
            )
        if self.tCCD_L < self.tCCD_S:
            raise ValueError("tCCD_L must be >= tCCD_S")
        if self.tWTR_L < self.tWTR_S:
            raise ValueError("tWTR_L must be >= tWTR_S")
        if self.burst_length <= 0 or self.burst_length % 2:
            raise ValueError("burst_length must be a positive even beat count")
        if self.tFAW < 0:
            raise ValueError(f"tFAW must be >= 0, got {self.tFAW}")
        if self.tRFC < 0 or self.tREFI < 0 or self.tRFCpb < 0:
            raise ValueError("refresh timings must be >= 0")
        if (self.tRFC > 0) != (self.tREFI > 0):
            raise ValueError(
                "tRFC and tREFI enable refresh together: both zero "
                f"(disabled) or both positive, got tRFC={self.tRFC} "
                f"tREFI={self.tREFI}")
        if self.tRFCpb > 0 and self.tRFC == 0:
            raise ValueError("tRFCpb requires tRFC/tREFI (refresh enabled)")
        if 0 < self.tREFI <= self.tRFC:
            raise ValueError("tREFI must exceed tRFC or refresh starves "
                             "the rank")

    @property
    def burst_time(self) -> int:
        """Data-bus occupancy of one column command (BL beats at DDR rate)."""
        return (self.burst_length // 2) * self.tCK

    @property
    def refresh_enabled(self) -> bool:
        """Whether this parameter set models refresh at all."""
        return self.tRFC > 0

    @property
    def trfc_pb(self) -> int:
        """Effective per-bank refresh cycle time (falls back to tRFC)."""
        return self.tRFCpb if self.tRFCpb > 0 else self.tRFC

    @property
    def bus_frequency_hz(self) -> float:
        """Channel command-clock frequency implied by ``tCK`` (the
        Fig. 14 sweep's x-axis)."""
        return 1e12 / self.tCK

    def replace(self, **changes: int) -> "TimingParams":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def with_ddb_windows(self) -> "TimingParams":
        """Enable the DDB two-command windows.

        ``tTCW`` is one DRAM core clock (5 ns): the dual buses together
        carry at most two in-flight column transfers per core cycle.
        ``tTWTRW`` = WL + 4 CLKs + tWTR_L, per Fig. 10c.
        """
        return self.replace(
            tTCW=DRAM_CORE_PERIOD_PS,
            tTWTRW=self.tCWL + 4 * self.tCK + self.tWTR_L,
        )

    def ddb_windows_needed(self) -> bool:
        """Whether DDB needs its windows at this bus frequency.

        Per the paper, the two-command window applies only when the DRAM
        core clock cycle is longer than twice the external burst time --
        i.e. when the channel can outrun the pair of internal buses.
        """
        return DRAM_CORE_PERIOD_PS > 2 * self.burst_time


#: Tab. I of the paper: specifications of DRAM generations.
@dataclass(frozen=True)
class GenerationSpec:
    """One column of the paper's Tab. I."""

    name: str
    bank_count: str
    channel_clock_mhz: str
    core_clock_mhz: str
    internal_prefetch: str
    #: Representative four-activate window in ns ("-" before the limit was
    #: standardised; tFAW first appears in the DDR2 specification).
    tfaw_ns: str = "-"
    #: Representative refresh cycle / interval in ns as "tRFC / tREFI".
    #: tRFC grows with density across generations while tREFI holds at
    #: 7.8 us in the normal temperature range.
    refresh_ns: str = "-"


GENERATIONS = (
    GenerationSpec("DDR", "4", "133-200", "133-200", "2n", "-",
                   "70-120 / 7800"),
    GenerationSpec("DDR2", "4-8", "266-400", "133-200", "4n", "37.5-50",
                   "105-327.5 / 7800"),
    GenerationSpec("DDR3", "8", "533-800", "133-200", "8n", "30-45",
                   "90-350 / 7800"),
    GenerationSpec("DDR4", "16", "1066-1600", "133-200", "8n", "21-35",
                   "260-550 / 7800"),
)

#: Channel frequencies swept in Fig. 14 (Hz).
FIG14_BUS_FREQUENCIES_HZ = (1.333e9, 1.6e9, 2.0e9, 2.4e9)
