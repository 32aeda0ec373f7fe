"""Independent post-hoc validation of issued command schedules.

The event-driven controller computes earliest-issue times incrementally;
this module re-checks a finished run's *complete command log* against the
timing rules written down directly from their definitions -- a second,
independent implementation.  Any bug in the scheduler's bookkeeping
(stale caches, missed constraints, window mix-ups) surfaces here as a
:class:`TimingViolation`.

Enable logging with ``SystemConfig(record_commands=True)`` (or
``Channel(..., record_commands=True)``) and call :func:`validate_log`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dram.bank import NEVER, SlotKey
from repro.dram.resources import TURNAROUND_CLOCKS, BusPolicy
from repro.dram.timing import TimingParams


class TimingViolation(AssertionError):
    """A command in the log breaks a DRAM timing rule."""


@dataclass(frozen=True)
class CommandRecord:
    """One issued command, as logged by the Channel."""

    kind: str            # "ACT" | "RD" | "WR" | "PRE" | "PRE_PARTIAL"
                         # | "REF" | "REFPB"
    time: int
    bank: int            # flattened bank index
    bank_group: int
    slot: SlotKey
    row: int = -1


@dataclass
class _SlotState:
    act_time: int = NEVER
    pre_time: int = NEVER
    open_row: int = -1
    last_rd: int = NEVER
    last_wr_end: int = NEVER


def _fail(record: CommandRecord, rule: str, bound: int) -> None:
    raise TimingViolation(
        f"{record.kind} at {record.time} to bank {record.bank} "
        f"slot {record.slot} violates {rule} (earliest legal {bound})")


def validate_log(log: List[CommandRecord], timing: TimingParams,
                 policy: BusPolicy) -> int:
    """Check every command against the full rule set; returns the count.

    Rules checked (straight from the JEDEC-style definitions):

    * Every command: the shared command bus carries one command per
      channel clock, so consecutive commands must be >= tCK apart.
    * ACT: tRC from the slot's previous ACT, tRP from its precharge,
      tRRD from any ACT on the rank, at most four ACTs rank-wide in any
      tFAW window, and the slot must be closed.
    * RD/WR: tRCD from the slot's ACT, row must be open; CAS-to-CAS
      tCCD_S globally plus tCCD_L within the policy's long scope (bank
      group, or bank under DDB); DDB's tTCW (at most two column commands
      per group per window) and tTWTRW (read after two writes); write-
      to-read turnaround (tWTR_S/_L); non-overlapping data bursts with a
      turnaround bubble on direction change.
    * PRE / PRE_PARTIAL: tRAS from ACT, tRTP from the last read, tWR
      after the last write burst, and the slot must be open.  A
      PRE_PARTIAL (Section VI-A) additionally requires an open row in
      the *other* sub-bank of the same bank -- without a raised MWL to
      preserve, a partial precharge is structurally impossible.
    * REF / REFPB (refresh-enabled timings only): every slot in the
      refresh scope -- the rank, one bank, or one sub-bank, per the
      record's (bank, slot) wildcards -- must be precharged with tRP
      and tRC satisfied, and the scope must not overlap an in-flight
      refresh blackout.
    * Blackout: while a refresh is in flight (``tRFC`` all-bank,
      ``tRFCpb`` per-bank, half that per-sub-bank), no command may
      target a covered (bank, sub-bank).
    * Refresh interval: no demand command may find its (bank,
      sub-bank) more than 9 x tREFI past its last covering refresh
      (JEDEC's eight-deferral allowance; the window opens at time 0).
    """
    slots: Dict[Tuple[int, SlotKey], _SlotState] = defaultdict(_SlotState)
    last_cmd_time = NEVER
    last_act_rank = NEVER
    act_times_rank: List[int] = []
    last_cas_any = NEVER
    last_cas_long: Dict[int, int] = defaultdict(lambda: NEVER)
    cas_times_by_group: Dict[int, List[int]] = defaultdict(list)
    wr_times_by_group: Dict[int, List[int]] = defaultdict(list)
    wr_end_any = NEVER
    wr_end_long: Dict[int, int] = defaultdict(lambda: NEVER)
    last_data_end = NEVER
    last_data_write: Optional[bool] = None

    windows_active = (policy is BusPolicy.DDB and timing.tTCW > 0
                      and timing.ddb_windows_needed())

    # Refresh bookkeeping: in-flight blackout windows as
    # (end, bank, subbank) with -1 wildcards, and the last refresh
    # covering each scope level (rank / bank / sub-bank), all opening
    # at time 0.
    refresh_windows: List[Tuple[int, int, int]] = []
    last_ref_rank = 0
    last_ref_bank: Dict[int, int] = {}
    last_ref_pair: Dict[Tuple[int, int], int] = {}
    max_ref_gap = 9 * timing.tREFI

    for rec in sorted(log, key=lambda r: r.time):
        if rec.time < last_cmd_time + timing.tCK:
            _fail(rec, "command bus (one command per tCK)",
                  last_cmd_time + timing.tCK)
        last_cmd_time = rec.time
        if refresh_windows:
            refresh_windows = [w for w in refresh_windows
                               if w[0] > rec.time]
        if rec.kind in ("REF", "REFPB"):
            if not timing.refresh_enabled:
                _fail(rec, "refresh with refresh modelling disabled "
                      "(tRFC == 0)", -1)
            b, sb = rec.bank, rec.slot[0]
            for end, wb, ws in refresh_windows:
                if (wb < 0 or b < 0 or wb == b) and \
                        (ws < 0 or sb < 0 or ws == sb):
                    _fail(rec, "refresh into an active blackout", end)
            for (bank, slot), s in slots.items():
                if b >= 0 and bank != b:
                    continue
                if sb >= 0 and slot[0] != sb:
                    continue
                if s.open_row >= 0:
                    _fail(rec, "refresh with an open row in scope", -1)
                if rec.time < s.pre_time + timing.tRP:
                    _fail(rec, "tRP before refresh",
                          s.pre_time + timing.tRP)
                if rec.time < s.act_time + timing.tRC:
                    _fail(rec, "tRC before refresh",
                          s.act_time + timing.tRC)
            duration = (timing.tRFC if b < 0 else
                        timing.trfc_pb if sb < 0 else
                        (timing.trfc_pb + 1) // 2)
            refresh_windows.append((rec.time + duration, b, sb))
            if b < 0:
                last_ref_rank = max(last_ref_rank, rec.time)
            elif sb < 0:
                last_ref_bank[b] = max(last_ref_bank.get(b, 0),
                                       rec.time)
            else:
                last_ref_pair[(b, sb)] = max(
                    last_ref_pair.get((b, sb), 0), rec.time)
            continue
        if timing.refresh_enabled:
            sb = rec.slot[0]
            for end, wb, ws in refresh_windows:
                if (wb < 0 or wb == rec.bank) and (ws < 0 or ws == sb):
                    _fail(rec, "tRFC blackout (refresh in flight)", end)
            covered = max(last_ref_rank,
                          last_ref_bank.get(rec.bank, 0),
                          last_ref_pair.get((rec.bank, sb), 0))
            if rec.time - covered > max_ref_gap:
                _fail(rec, "9 x tREFI (bank starved of refresh)",
                      covered + max_ref_gap)
        key = (rec.bank, rec.slot)
        state = slots[key]
        if rec.kind == "ACT":
            if state.open_row >= 0:
                _fail(rec, "ACT to an open slot", -1)
            if rec.time < state.act_time + timing.tRC:
                _fail(rec, "tRC", state.act_time + timing.tRC)
            if rec.time < state.pre_time + timing.tRP:
                _fail(rec, "tRP", state.pre_time + timing.tRP)
            if rec.time < last_act_rank + timing.tRRD:
                _fail(rec, "tRRD", last_act_rank + timing.tRRD)
            if timing.tFAW > 0:
                # Rank-wide four-activate window: this ACT is illegal
                # while four earlier ACTs are still inside it.
                recent = [t for t in act_times_rank
                          if rec.time - t < timing.tFAW]
                if len(recent) >= 4:
                    _fail(rec, "tFAW (fifth ACT in window)",
                          sorted(recent)[len(recent) - 4] + timing.tFAW)
                act_times_rank = recent
                act_times_rank.append(rec.time)
            state.act_time = rec.time
            state.open_row = rec.row
            last_act_rank = max(last_act_rank, rec.time)
        elif rec.kind in ("RD", "WR"):
            is_write = rec.kind == "WR"
            if state.open_row < 0:
                _fail(rec, "column to closed slot", -1)
            if rec.time < state.act_time + timing.tRCD:
                _fail(rec, "tRCD", state.act_time + timing.tRCD)
            if rec.time < last_cas_any + timing.tCCD_S:
                _fail(rec, "tCCD_S", last_cas_any + timing.tCCD_S)
            long_scope = (rec.bank if policy is BusPolicy.DDB
                          else rec.bank_group)
            if policy is not BusPolicy.NO_GROUPS:
                if rec.time < last_cas_long[long_scope] + timing.tCCD_L:
                    _fail(rec, "tCCD_L",
                          last_cas_long[long_scope] + timing.tCCD_L)
            if windows_active:
                # Prune to the live window first: the lists stay at most
                # two long, so a marathon log cannot degrade to O(n^2),
                # and a stale entry can never shadow the window edge.
                recent = [t for t in cas_times_by_group[rec.bank_group]
                          if rec.time - t < timing.tTCW]
                cas_times_by_group[rec.bank_group] = recent
                if len(recent) >= 2:
                    _fail(rec, "tTCW (third CAS in window)",
                          min(recent) + timing.tTCW)
            if not is_write:
                if rec.time < wr_end_any + timing.tWTR_S:
                    _fail(rec, "tWTR_S", wr_end_any + timing.tWTR_S)
                if policy is not BusPolicy.NO_GROUPS:
                    if rec.time < (wr_end_long[long_scope]
                                   + timing.tWTR_L):
                        _fail(rec, "tWTR_L",
                              wr_end_long[long_scope] + timing.tWTR_L)
                if windows_active:
                    writes = [t for t in wr_times_by_group[rec.bank_group]
                              if rec.time - t < timing.tTWTRW]
                    wr_times_by_group[rec.bank_group] = writes
                    if len(writes) >= 2:
                        _fail(rec, "tTWTRW",
                              min(writes) + timing.tTWTRW)
            # Data bus occupancy.
            latency = timing.tCWL if is_write else timing.tCL
            start = rec.time + latency
            end = start + timing.burst_time
            gap = 0
            if (last_data_write is not None
                    and last_data_write != is_write):
                gap = TURNAROUND_CLOCKS * timing.tCK
            if start < last_data_end + gap:
                _fail(rec, "data-bus overlap", last_data_end + gap)
            # max(): a shorter-latency command (a read after a write)
            # must not rewind the occupancy horizon and mask a later
            # overlap with the still-draining earlier burst.
            last_data_end = max(last_data_end, end)
            last_data_write = is_write
            last_cas_any = rec.time
            last_cas_long[long_scope] = rec.time
            cas_times_by_group[rec.bank_group].append(rec.time)
            if is_write:
                state.last_wr_end = end
                wr_end_any = max(wr_end_any, end)
                wr_end_long[long_scope] = max(
                    wr_end_long[long_scope], end)
                wr_times_by_group[rec.bank_group].append(rec.time)
            else:
                state.last_rd = rec.time
        elif rec.kind in ("PRE", "PRE_PARTIAL"):
            if state.open_row < 0:
                _fail(rec, "PRE of a closed slot", -1)
            if rec.time < state.act_time + timing.tRAS:
                _fail(rec, "tRAS", state.act_time + timing.tRAS)
            if rec.time < state.last_rd + timing.tRTP:
                _fail(rec, "tRTP", state.last_rd + timing.tRTP)
            if rec.time < state.last_wr_end + timing.tWR:
                _fail(rec, "tWR", state.last_wr_end + timing.tWR)
            if rec.kind == "PRE_PARTIAL":
                # Section VI-A: a partial precharge keeps the MWL raised
                # for an EWLR partner row, which can only live in the
                # other sub-bank of the same bank.  The log carries no
                # plane/MWL tags, but the necessary structural condition
                # is checkable: that sub-bank must have an open row now.
                other_sb = 1 - rec.slot[0]
                if not any(
                        s.open_row >= 0
                        for (bank, slot), s in slots.items()
                        if bank == rec.bank and slot[0] == other_sb):
                    _fail(rec, "PRE_PARTIAL without an open row in the "
                          "other sub-bank", -1)
            state.pre_time = rec.time
            state.open_row = -1
        else:
            raise ValueError(f"unknown command kind {rec.kind!r}")
    return len(log)
