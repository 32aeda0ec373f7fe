"""Channel-level shared resources: command bus, data bus, CAS trackers.

Three bus policies cover every organisation in the paper's evaluation
(Tab. III, "DRAM timing parameters"):

``BANK_GROUPS``
    Standard DDR4: ``tCCD_L`` / ``tWTR_L`` between accesses to the same
    bank group, the short variants across groups.

``NO_GROUPS``
    The idealised organisation ("Ideal" column): the short variants apply
    everywhere -- enough internal bus bandwidth to never conflict.

``DDB``
    ERUCA's dual data bus: the long variants shrink to per-*bank* scope
    (each sub-bank has a dedicated data path, the pair of chip-global
    buses serves the group), but at most two column commands may occupy
    the dual buses per DRAM core clock -- the ``tTCW`` window -- and a
    read after two back-to-back writes must wait ``tTWTRW`` (Fig. 10).
    Both windows only bind when the core clock is slower than two channel
    bursts, i.e. at high channel frequencies (Fig. 14).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.dram.bank import NEVER
from repro.dram.timing import TimingParams


class BusPolicy(enum.Enum):
    """Which CAS-window scoping rules a channel uses (module docstring,
    Tab. III's Baseline / Ideal / DDB timing columns)."""

    BANK_GROUPS = "bank_groups"
    NO_GROUPS = "no_groups"
    DDB = "ddb"


#: Idle bubble inserted on the data bus when it changes direction.
TURNAROUND_CLOCKS = 2

#: Floor tags: the constraint that released last in a ``(tag, time)``
#: floor of :meth:`ChannelResources.act_floor` / ``column_floor`` and of
#: the :class:`~repro.dram.device.Channel` folds over them.
#: :mod:`repro.sim.accounting` maps them onto its
#: :class:`~repro.sim.accounting.StallBucket` vocabulary.
FLOOR_BUS = "bus"
FLOOR_CCD_WTR_LONG = "ccd_wtr_long"
FLOOR_DDB_WINDOW = "ddb_window"
FLOOR_TRRD = "trrd"
FLOOR_TFAW = "tfaw"
FLOOR_BANK = "bank_busy"
FLOOR_REFRESH = "refresh"


class ChannelResources:
    """Timing trackers shared by all banks of one channel."""

    def __init__(self, timing: TimingParams, policy: BusPolicy,
                 bank_groups: int, banks: int) -> None:
        self.timing = timing
        self.policy = policy
        self.bank_groups = bank_groups
        self.banks = banks
        self.cmd_bus_free = 0
        # CAS-to-CAS separation trackers.
        self._last_cas_any = NEVER
        self._last_cas_bg: List[int] = [NEVER] * bank_groups
        self._last_cas_bank: List[int] = [NEVER] * banks
        # Data-bus occupancy and direction.
        self._last_data_end = NEVER
        self._last_data_write: Optional[bool] = None
        # Write-to-read turnaround trackers (write data end times).
        self._wr_end_any = NEVER
        self._wr_end_bg: List[int] = [NEVER] * bank_groups
        self._wr_end_bank: List[int] = [NEVER] * banks
        # tTCW: the two most recent column commands per bank group.
        self._cas_window: List[List[int]] = [
            [NEVER, NEVER] for _ in range(bank_groups)]
        # tTWTRW: the two most recent write commands per bank group.
        self._wr_window: List[List[int]] = [
            [NEVER, NEVER] for _ in range(bank_groups)]
        # ACT-to-ACT (tRRD) tracker, rank-wide.
        self._last_act = NEVER
        # tFAW: the four most recent ACT times, rank-wide (oldest first).
        # A fifth ACT may not issue before the oldest of the last four
        # plus the window.
        self._act_window: List[int] = [NEVER, NEVER, NEVER, NEVER]
        self._tfaw_active = timing.tFAW > 0
        # Per-channel constants of the column path, fixed at build time
        # (comparing against Enum members or re-deriving the burst on
        # every column command cost more than the floors themselves).
        self._groups = policy is BusPolicy.BANK_GROUPS
        self._ddb = ddb = policy is BusPolicy.DDB
        self._windows_active = (ddb and timing.tTCW > 0
                                and timing.ddb_windows_needed())
        #: Command-to-data-end latency of a read / a write burst.
        self._rd_data_end = timing.tCL + timing.burst_time
        self._wr_data_end = timing.tCWL + timing.burst_time

    # -- queries ---------------------------------------------------------

    @property
    def windows_active(self) -> bool:
        """Whether the DDB two-command windows bind at this frequency."""
        return self._windows_active

    def act_floor(self) -> Tuple[str, int]:
        """Channel-side ACT floor as ``(tag, time)``: the command bus,
        rank-wide ``tRRD`` and the rolling four-activate ``tFAW``
        window.

        ``time`` is the earliest issue time these constraints allow;
        ``tag`` names the one that releases last, a tie going to the
        more specific (``tfaw`` over ``trrd`` over ``bus``).
        """
        t = self.timing
        tag, best = FLOOR_BUS, self.cmd_bus_free
        v = self._last_act + t.tRRD
        if v >= best:
            tag, best = FLOOR_TRRD, v
        if self._tfaw_active:
            v = self._act_window[0] + t.tFAW
            if v >= best:
                tag, best = FLOOR_TFAW, v
        return tag, best

    def earliest_precharge(self) -> int:
        """Channel-side PRE floor: the command bus only."""
        return self.cmd_bus_free

    def column_floor(self, is_write: bool, bank_group: int,
                     bank: int) -> Tuple[str, int]:
        """Channel-side floor of a column command to (bg, bank), as
        ``(tag, time)`` like :meth:`act_floor`.

        The command bus, the short spacings (``tCCD_S``/``tWTR_S``) and
        the data bus file under the ``bus`` tag; the long CAS windows
        (``tCCD_L``/``tWTR_L`` -- what DDB relaxes) under
        ``ccd_wtr_long``; the DDB guard windows (``tTCW``/``tTWTRW``)
        under ``ddb_window``.  The groups are folded in that order, so
        a tie goes to the more specific tag.  Hot path (one call per
        cached column table per peek): running comparisons, no lists.
        """
        t = self.timing
        best = self.cmd_bus_free
        v = self._last_cas_any + t.tCCD_S
        if v > best:
            best = v
        if not is_write:
            # Write-to-read turnaround (command-level).
            v = self._wr_end_any + t.tWTR_S
            if v > best:
                best = v
        # External data-bus occupancy: the new burst must start after the
        # previous one ends, plus a turnaround bubble on direction change.
        last_write = self._last_data_write
        if last_write is not None and last_write != is_write:
            v = (self._last_data_end + TURNAROUND_CLOCKS * t.tCK
                 - (t.tCWL if is_write else t.tCL))
        else:
            v = self._last_data_end - (t.tCWL if is_write else t.tCL)
        if v > best:
            best = v
        tag = FLOOR_BUS
        if self._groups:
            v = self._last_cas_bg[bank_group] + t.tCCD_L
            if v >= best:
                tag, best = FLOOR_CCD_WTR_LONG, v
            if not is_write:
                v = self._wr_end_bg[bank_group] + t.tWTR_L
                if v >= best:
                    tag, best = FLOOR_CCD_WTR_LONG, v
        elif self._ddb:
            v = self._last_cas_bank[bank] + t.tCCD_L
            if v >= best:
                tag, best = FLOOR_CCD_WTR_LONG, v
            if not is_write:
                v = self._wr_end_bank[bank] + t.tWTR_L
                if v >= best:
                    tag, best = FLOOR_CCD_WTR_LONG, v
            if self._windows_active:
                v = self._cas_window[bank_group][0] + t.tTCW
                if v >= best:
                    tag, best = FLOOR_DDB_WINDOW, v
                if not is_write:
                    v = self._wr_window[bank_group][0] + t.tTWTRW
                    if v >= best:
                        tag, best = FLOOR_DDB_WINDOW, v
        return tag, best

    # -- recorders -------------------------------------------------------

    def record_act(self, time: int) -> None:
        """Commit an ACT: advance the ``tRRD`` anchor, roll the ``tFAW``
        window, and occupy the command bus."""
        self._last_act = time
        w = self._act_window
        w[0], w[1], w[2], w[3] = w[1], w[2], w[3], time
        free = time + self.timing.tCK
        if free > self.cmd_bus_free:
            self.cmd_bus_free = free

    def record_command(self, time: int) -> None:
        """Commit a PRE or REF/REFpb: it only occupies the command bus
        for a clock."""
        free = time + self.timing.tCK
        if free > self.cmd_bus_free:
            self.cmd_bus_free = free

    def record_column(self, time: int, is_write: bool, bank_group: int,
                      bank: int) -> int:
        """Record a column command; returns the data-burst end time."""
        t = self.timing
        data_end = time + (self._wr_data_end if is_write
                           else self._rd_data_end)
        # Running maxima, updated by comparison (one call per column
        # command; max() calls dominated this recorder).
        if time > self._last_cas_any:
            self._last_cas_any = time
        cas_bg = self._last_cas_bg
        if time > cas_bg[bank_group]:
            cas_bg[bank_group] = time
        cas_bank = self._last_cas_bank
        if time > cas_bank[bank]:
            cas_bank[bank] = time
        if data_end > self._last_data_end:
            self._last_data_end = data_end
        self._last_data_write = is_write
        window = self._cas_window[bank_group]
        window[0], window[1] = window[1], time
        if is_write:
            if data_end > self._wr_end_any:
                self._wr_end_any = data_end
            wr_bg = self._wr_end_bg
            if data_end > wr_bg[bank_group]:
                wr_bg[bank_group] = data_end
            wr_bank = self._wr_end_bank
            if data_end > wr_bank[bank]:
                wr_bank[bank] = data_end
            wr_window = self._wr_window[bank_group]
            wr_window[0], wr_window[1] = wr_window[1], time
        free = time + t.tCK
        if free > self.cmd_bus_free:
            self.cmd_bus_free = free
        return data_end
