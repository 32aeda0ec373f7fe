"""Cycle accounting: attribute every channel cycle to one stall bucket.

ERUCA's evaluation is a set of *mechanism attributions* -- speedup comes
from avoided plane conflicts (Section IV), EWLR hits, RAP de-aliasing,
and DDB relaxing the same-group ``tCCD_L``/``tWTR_L`` penalties
(Section V) -- so the simulator must be able to say *where the cycles
go*, not just who wins.  This module implements per-channel cycle
accounting with a hard invariant: **the buckets sum exactly to the
channel's wall time** (asserted by :meth:`AccountingReport.verify` and
the property tests over every configuration preset).

The accounting walks each channel's command stream.  Consecutive
commands on one channel are at least one bus clock apart (the command
bus), so the timeline decomposes exactly into

* ``issue`` -- one ``tCK`` of command-bus occupancy per command;
* the *gap* before each command, charged to a single bucket; and
* the drained tail after the last command.

Gap attribution (:class:`StallBucket`):

``queue_empty``
    The channel had no queued transaction for (a prefix of) the gap.
    Tracked from actual queue occupancy, not the winning command's
    arrival, so FR-FCFS reordering cannot misfile idle time.
``plane_conflict`` / ``ewlr_miss``
    The command was a precharge forced by an inter-sub-bank plane
    conflict (Fig. 5).  On an EWLR-enabled organisation the same event
    is filed as ``ewlr_miss``: the activation *would* have hit had the
    rows shared their MWL tag (Section IV).
``row_conflict`` / ``policy_close``
    Precharge of the transaction's own conflicting row, or a
    speculative adaptive-page-policy close.
``refresh``
    Refresh work: the gap before a ``REF``/``REFpb`` command or a
    refresh-forced close, and any ACT whose binding floor was the end
    of a refresh blackout (``tRFC``/``tRFCpb``) over its slot.
``bank_busy``
    The issued command waited on its own (sub-)bank's FSM --
    ``tRCD``/``tRAS``/``tRC``/``tRP``/``tWR``/``tRTP``, or MASA's
    ``tSA`` serialisation.
``ccd_wtr_long``
    The same-group long CAS windows -- ``tCCD_L`` / ``tWTR_L`` -- the
    exact penalties DDB exists to relax (Fig. 10).
``ddb_window``
    DDB's own guard windows ``tTCW`` / ``tTWTRW`` (Fig. 10c), binding
    only at high channel frequencies (Fig. 14).
``trrd``
    Rank-wide ACT-to-ACT spacing (``tRRD``).
``tfaw``
    The rolling four-activate window (``tFAW``): the fifth ACT waited
    for the oldest of the last four to leave the window.
``bus``
    Generic shared-resource pressure: command bus, cross-group
    ``tCCD_S``/``tWTR_S``, data-bus occupancy and turnaround bubbles.
``request_gap``
    The device was ready earlier, but the issued request only arrived
    (or only became eligible, e.g. a write-drain flip) later while other
    work was queued.

For ACT/RD/WR the gap is charged to the **binding** device floor -- the
constraint that released last.  Each floor rule is written once and
returns ``(tag, time)`` (``Channel.act_floor``/``column_floor``): the
scheduler reads the time, this module reads the tag, both from the same
pre-issue state.  On a tie the most specific tag wins: refresh, DDB
window, ``tCCD_L``/``tWTR_L``, ``tFAW``, ``tRRD``, bank FSM, bus.  For
precharges the gap is charged to the conflict that forced the close:
that is the quantity Fig. 13b cares about.

Everything here is a pure observer: with accounting enabled the command
stream is bit-identical to a plain run (digest-equality tests), and with
it disabled the controller pays one ``is None`` test per event.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Tuple

from repro.dram.commands import CommandKind, PrechargeCause
from repro.dram import resources as res
from repro.sim.metrics import rate
from repro.sim.tracing import TraceEvent, TraceSink


class StallBucket(enum.Enum):
    """Where one channel cycle went (see the module docstring)."""

    ISSUE = "issue"
    QUEUE_EMPTY = "queue_empty"
    REQUEST_GAP = "request_gap"
    BANK_BUSY = "bank_busy"
    PLANE_CONFLICT = "plane_conflict"
    EWLR_MISS = "ewlr_miss"
    ROW_CONFLICT = "row_conflict"
    POLICY_CLOSE = "policy_close"
    REFRESH = "refresh"
    CCD_WTR_LONG = "ccd_wtr_long"
    DDB_WINDOW = "ddb_window"
    TRRD = "trrd"
    TFAW = "tfaw"
    BUS = "bus"

    #: Members are singletons compared by identity, so identity hashing
    #: is consistent; it keeps the per-command bucket updates from
    #: calling ``Enum.__hash__`` (a Python-level function).  No set of
    #: members is ever iterated: dicts keep insertion order regardless.
    __hash__ = object.__hash__


#: Floor tag (:mod:`repro.dram.resources`) -> the bucket a wait it
#: bound is charged to.
_FLOOR_BUCKETS = {
    res.FLOOR_REFRESH: StallBucket.REFRESH,
    res.FLOOR_DDB_WINDOW: StallBucket.DDB_WINDOW,
    res.FLOOR_CCD_WTR_LONG: StallBucket.CCD_WTR_LONG,
    res.FLOOR_TFAW: StallBucket.TFAW,
    res.FLOOR_TRRD: StallBucket.TRRD,
    res.FLOOR_BANK: StallBucket.BANK_BUSY,
    res.FLOOR_BUS: StallBucket.BUS,
}

# Enum members the per-command path reads, bound as module globals:
# loading a member off an Enum class costs several global loads.
_ACT, _RD, _WR = CommandKind.ACT, CommandKind.RD, CommandKind.WR
_PRE_PARTIAL = CommandKind.PRE_PARTIAL
_REF, _REFPB = CommandKind.REF, CommandKind.REFPB
_CAUSE_ROW = PrechargeCause.ROW_CONFLICT
_CAUSE_PLANE = PrechargeCause.PLANE_CONFLICT
_CAUSE_POLICY = PrechargeCause.POLICY
_CAUSE_REFRESH = PrechargeCause.REFRESH
_ISSUE = StallBucket.ISSUE
_REQUEST_GAP = StallBucket.REQUEST_GAP
_REFRESH = StallBucket.REFRESH
_DDB_WINDOW = StallBucket.DDB_WINDOW


@dataclass
class BankStats:
    """Command counters for one (bank, sub-bank), Fig. 13b-style.

    ``row_hit_rate`` is the fraction of column commands served from an
    already-open row (1 - ACTs per column); ``ewlr_hit_rate`` the
    fraction of ACTs that were EWLR hits (the paper's 18% Vpp saving
    events, Section IV); ``ddb_window_occupancy`` the fraction of
    column commands whose binding constraint was a DDB guard window
    (``tTCW``/``tTWTRW``, Fig. 10).
    """

    acts: int = 0
    ewlr_hits: int = 0
    reads: int = 0
    writes: int = 0
    precharges: int = 0
    partial_precharges: int = 0
    plane_conflict_precharges: int = 0
    row_conflict_precharges: int = 0
    policy_precharges: int = 0
    #: Closes forced so a refresh scope could be fully precharged.
    refresh_precharges: int = 0
    #: REF/REFpb commands; all-bank REFs file under the pseudo-bank
    #: ``(-1, -1)`` row (they serve the whole rank, not one bank).
    refreshes: int = 0
    ddb_window_stalls: int = 0
    #: Stall picoseconds charged to commands serving this (sub-)bank.
    stall_ps: int = 0

    @property
    def columns(self) -> int:
        """Column commands (reads + writes) served by this (sub-)bank."""
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        if not self.columns:
            return 0.0
        return max(0.0, 1.0 - rate(self.acts, self.columns))

    @property
    def ewlr_hit_rate(self) -> float:
        return rate(self.ewlr_hits, self.acts)

    @property
    def ddb_window_occupancy(self) -> float:
        return rate(self.ddb_window_stalls, self.columns)

    def merge(self, other: "BankStats") -> None:
        """Fold another (sub-)bank's counters into this one."""
        self.acts += other.acts
        self.ewlr_hits += other.ewlr_hits
        self.reads += other.reads
        self.writes += other.writes
        self.precharges += other.precharges
        self.partial_precharges += other.partial_precharges
        self.plane_conflict_precharges += other.plane_conflict_precharges
        self.row_conflict_precharges += other.row_conflict_precharges
        self.policy_precharges += other.policy_precharges
        self.refresh_precharges += other.refresh_precharges
        self.refreshes += other.refreshes
        self.ddb_window_stalls += other.ddb_window_stalls
        self.stall_ps += other.stall_ps

    def to_dict(self) -> dict:
        return {
            "acts": self.acts,
            "ewlr_hits": self.ewlr_hits,
            "reads": self.reads,
            "writes": self.writes,
            "precharges": self.precharges,
            "partial_precharges": self.partial_precharges,
            "plane_conflict_precharges": self.plane_conflict_precharges,
            "row_conflict_precharges": self.row_conflict_precharges,
            "policy_precharges": self.policy_precharges,
            "refresh_precharges": self.refresh_precharges,
            "refreshes": self.refreshes,
            "ddb_window_stalls": self.ddb_window_stalls,
            "stall_ps": self.stall_ps,
            "row_hit_rate": self.row_hit_rate,
            "ewlr_hit_rate": self.ewlr_hit_rate,
            "ddb_window_occupancy": self.ddb_window_occupancy,
        }


class ChannelAccounting:
    """Cycle accounting for one channel (see the module docstring).

    The accounting cursor starts at 0 and advances to ``issue + tCK``
    on every command; :meth:`finish` pads the drained tail, after which
    ``sum(buckets) == horizon_ps`` exactly -- the invariant
    :meth:`verify` asserts.
    """

    def __init__(self, channel_index: int, tCK: int, ewlr: bool) -> None:
        self.channel_index = channel_index
        self.tCK = tCK
        #: Plane conflicts file under EWLR_MISS on EWLR organisations.
        self.ewlr = ewlr
        #: Precharge cause -> the bucket its gap is charged to.
        self._cause_buckets = {
            _CAUSE_ROW: StallBucket.ROW_CONFLICT,
            _CAUSE_PLANE: (StallBucket.EWLR_MISS if ewlr
                           else StallBucket.PLANE_CONFLICT),
            _CAUSE_POLICY: StallBucket.POLICY_CLOSE,
            _CAUSE_REFRESH: StallBucket.REFRESH,
        }
        self.buckets: Dict[StallBucket, int] = {
            b: 0 for b in StallBucket}
        #: Per (bank index, sub-bank) counters.
        self.banks: Dict[Tuple[int, int], BankStats] = {}
        self.commands = 0
        self.cursor = 0
        #: Accounted wall time; set by :meth:`finish`.
        self.horizon_ps = 0
        # Queue-occupancy tracking: the channel starts empty.
        self._empty_since: Optional[int] = 0
        self._nonempty_at: Optional[int] = None

    # -- event intake ----------------------------------------------------

    def note_nonempty(self, time: int) -> None:
        """First transaction arrived into an empty channel queue."""
        if self._empty_since is not None and self._nonempty_at is None:
            self._nonempty_at = time

    def _queue_empty_prefix(self, time: int) -> int:
        """Resolve the queue-empty part of the gap ending at ``time``."""
        if self._empty_since is None:
            return self.cursor
        nonempty = self._nonempty_at if self._nonempty_at is not None \
            else time
        end = min(max(nonempty, self.cursor), time)
        self.buckets[StallBucket.QUEUE_EMPTY] += end - self.cursor
        return end

    def on_command(self, time: int, kind: CommandKind,
                   cause: Optional[PrechargeCause],
                   bank: int, subbank: int,
                   floor: Optional[Tuple[str, int]],
                   ewlr_hit: bool, partial: bool,
                   queue_empty_after: bool
                   ) -> Tuple[StallBucket, int]:
        """Account one committed command; returns (bucket, wait_ps).

        ``floor`` is the command's pre-issue ``(tag, time)`` device
        floor for ACT/RD/WR (``Channel.act_floor``/``column_floor``);
        ``None`` for precharges, whose gap is charged to their cause,
        and for REF/REFpb.  ``queue_empty_after`` reports whether the
        channel queue drained as a result of this command.
        """
        cursor = self.cursor
        if time < cursor:
            raise ValueError(
                f"command at {time} overlaps accounted time "
                f"{cursor} (commands must be >= tCK apart)")
        buckets = self.buckets
        stall_start = (cursor if self._empty_since is None
                       else self._queue_empty_prefix(time))
        wait = time - stall_start
        bucket = _ISSUE
        stats = self.banks.get((bank, subbank))
        if stats is None:
            stats = self.banks[(bank, subbank)] = BankStats()
        if wait > 0:
            if cause is None:
                if kind is _REF or kind is _REFPB:
                    # The REF/REFpb itself: refresh work.
                    bucket = _REFRESH
                    buckets[bucket] += wait
                else:
                    tag, released = floor
                    bucket = _FLOOR_BUCKETS[tag]
                    device_end = min(max(released, stall_start), time)
                    buckets[bucket] += device_end - stall_start
                    buckets[_REQUEST_GAP] += time - device_end
                    if device_end == stall_start:
                        bucket = _REQUEST_GAP
            else:
                # A precharge: charged to the conflict (or the refresh)
                # that forced the close.
                bucket = self._cause_buckets[cause]
                buckets[bucket] += wait
            stats.stall_ps += wait
            if bucket is _DDB_WINDOW:
                stats.ddb_window_stalls += 1
        # The command itself: one bus clock on the command bus.
        buckets[_ISSUE] += self.tCK
        self.cursor = time + self.tCK
        self.commands += 1
        # Per-bank command counters.
        if kind is _RD:
            stats.reads += 1
        elif kind is _WR:
            stats.writes += 1
        elif kind is _ACT:
            stats.acts += 1
            if ewlr_hit:
                stats.ewlr_hits += 1
        elif kind is _REF or kind is _REFPB:
            stats.refreshes += 1
        else:
            stats.precharges += 1
            if partial:
                stats.partial_precharges += 1
            if cause is _CAUSE_ROW:
                stats.row_conflict_precharges += 1
            elif cause is _CAUSE_PLANE:
                stats.plane_conflict_precharges += 1
            elif cause is _CAUSE_POLICY:
                stats.policy_precharges += 1
            elif cause is _CAUSE_REFRESH:
                stats.refresh_precharges += 1
        # Queue-occupancy bookkeeping for the next gap.
        self._empty_since = time if queue_empty_after else None
        self._nonempty_at = None
        return bucket, wait

    def finish(self, horizon_ps: int) -> None:
        """Close the books at ``horizon_ps`` (>= the last command end).

        The drained tail is queue-empty time; if transactions were
        still queued (e.g. a capped run), the remainder is filed as
        ``request_gap`` so the invariant still holds.
        """
        horizon_ps = max(horizon_ps, self.cursor)
        end = self._queue_empty_prefix(horizon_ps)
        self.buckets[StallBucket.REQUEST_GAP] += horizon_ps - end
        self.cursor = horizon_ps
        self.horizon_ps = horizon_ps

    # -- invariants & views ----------------------------------------------

    def stall_total_ps(self) -> int:
        """Every accounted picosecond of this channel."""
        return sum(self.buckets.values())

    def verify(self) -> None:
        """Assert the bucket-sum invariant for this channel."""
        total = self.stall_total_ps()
        if total != self.horizon_ps:
            raise AssertionError(
                f"channel {self.channel_index}: buckets sum to {total} "
                f"but wall time is {self.horizon_ps}")
        issue = self.buckets[StallBucket.ISSUE]
        if issue != self.commands * self.tCK:
            raise AssertionError(
                f"channel {self.channel_index}: issue bucket {issue} != "
                f"{self.commands} commands x tCK {self.tCK}")


@dataclass
class AccountingReport:
    """The merged cycle-accounting view of one simulation run.

    Held by :attr:`SimulationResult.accounting
    <repro.sim.simulator.SimulationResult>` when the run was observed;
    deliberately excluded from the result digest (observability must
    never define behaviour).
    """

    config_name: str
    channels: List[ChannelAccounting] = field(default_factory=list)

    # -- roll-ups --------------------------------------------------------

    def totals(self) -> Dict[StallBucket, int]:
        """Bucket totals summed over channels (ps)."""
        out = {b: 0 for b in StallBucket}
        for channel in self.channels:
            for bucket, ps in channel.buckets.items():
                out[bucket] += ps
        return out

    def wall_ps(self) -> int:
        """Total accounted channel-time (sum of channel horizons)."""
        return sum(c.horizon_ps for c in self.channels)

    def commands(self) -> int:
        return sum(c.commands for c in self.channels)

    def bank_rows(self) -> List[Tuple[int, int, int, BankStats]]:
        """(channel, bank, subbank, stats) rows, sorted."""
        rows = []
        for channel in self.channels:
            for (bank, subbank), stats in channel.banks.items():
                rows.append((channel.channel_index, bank, subbank, stats))
        rows.sort(key=lambda r: r[:3])
        return rows

    def merged_bank_stats(self) -> BankStats:
        """All (sub-)bank counters folded together."""
        merged = BankStats()
        for _, _, _, stats in self.bank_rows():
            merged.merge(stats)
        return merged

    def verify(self) -> None:
        """Assert the bucket-sum invariant on every channel."""
        for channel in self.channels:
            channel.verify()

    # -- exporters -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready sidecar payload (the ``--emit-stats`` schema)."""
        return {
            "config": self.config_name,
            "wall_ps": self.wall_ps(),
            "commands": self.commands(),
            "buckets_ps": {b.value: ps for b, ps in self.totals().items()},
            "channels": [
                {
                    "channel": c.channel_index,
                    "horizon_ps": c.horizon_ps,
                    "commands": c.commands,
                    "buckets_ps": {b.value: ps
                                   for b, ps in c.buckets.items()},
                }
                for c in self.channels
            ],
            "banks": [
                {"channel": ch, "bank": bank, "subbank": subbank,
                 **stats.to_dict()}
                for ch, bank, subbank, stats in self.bank_rows()
            ],
        }

    def write_json(self, fh: IO[str]) -> None:
        json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    def bucket_csv_rows(self) -> List[List[object]]:
        """Rows for a flat CSV export: channel, bucket, ps."""
        rows: List[List[object]] = [["channel", "bucket", "ps"]]
        for channel in self.channels:
            for bucket in StallBucket:
                rows.append([channel.channel_index, bucket.value,
                             channel.buckets[bucket]])
        return rows

    def format_table(self, per_bank: bool = False) -> str:
        """Human-readable stall-attribution table (``repro stats``)."""
        wall = self.wall_ps()
        lines = [f"stall attribution for {self.config_name} "
                 f"({len(self.channels)} channels, "
                 f"{self.commands()} commands, wall {wall / 1e6:.2f} us "
                 f"of channel-time)"]
        lines.append(f"{'bucket':16s} {'ps':>14s} {'share':>7s}")
        totals = self.totals()
        for bucket in StallBucket:
            ps = totals[bucket]
            lines.append(f"{bucket.value:16s} {ps:14d} "
                         f"{rate(ps, wall):7.2%}")
        lines.append(f"{'total':16s} {wall:14d} {1:7.2%}")
        if per_bank:
            lines.append("")
            lines.append(f"{'ch':>2s} {'bank':>4s} {'sb':>2s} "
                         f"{'acts':>7s} {'cols':>7s} {'pres':>6s} "
                         f"{'rowhit':>7s} {'ewlr':>6s} {'part':>5s} "
                         f"{'ddbocc':>7s} {'stall_us':>9s}")
            for ch, bank, subbank, s in self.bank_rows():
                lines.append(
                    f"{ch:2d} {bank:4d} {subbank:2d} {s.acts:7d} "
                    f"{s.columns:7d} {s.precharges:6d} "
                    f"{s.row_hit_rate:7.1%} {s.ewlr_hit_rate:6.1%} "
                    f"{s.partial_precharges:5d} "
                    f"{s.ddb_window_occupancy:7.1%} "
                    f"{s.stall_ps / 1e6:9.3f}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ObserveOptions:
    """What to observe during a run (``None`` observer = observe nothing).

    An observed run always keeps cycle accounting, which costs one
    tagged device floor and a few counter updates per command.
    Measured as Python bytecodes executed on the ten ``figref``
    configurations on mix0 (400 accesses/core, seed 5), an observed run
    executes 15.0 % (12.6 M) more than an unobserved one.  ``trace``
    also stores one event per command, so cap it with ``trace_limit``
    on long runs.
    """

    trace: bool = False
    trace_limit: Optional[int] = None

    def build_sink(self) -> Optional[TraceSink]:
        """The shared trace sink these options call for, if any."""
        return TraceSink(self.trace_limit) if self.trace else None


class CommandObserver:
    """Per-channel observer the controller drives from its hot path.

    The controller calls :meth:`floors_for` *before* applying a command
    (the device floor reads pre-issue state) and :meth:`on_command`
    after, plus :meth:`note_nonempty` when a transaction is admitted
    into an empty queue.  All cost lives behind the controller's single
    ``observer is not None`` check, keeping the unobserved path within
    the <2% budget of ``bench_simspeed``.
    """

    def __init__(self, channel_index: int, channel,
                 sink: Optional[TraceSink] = None) -> None:
        self.channel = channel
        self.sink = sink
        self.accounting = ChannelAccounting(
            channel_index, channel.timing.tCK,
            ewlr=any(bank.ewlr for bank in channel.banks))

    def note_nonempty(self, time: int) -> None:
        self.accounting.note_nonempty(time)

    def floors_for(self, candidate) -> Optional[Tuple[str, int]]:
        """Pre-issue ``(tag, time)`` device floor of a scheduler
        candidate (``Channel.act_floor``/``column_floor``)."""
        kind = candidate.kind
        if kind is _RD or kind is _WR:
            return self.channel.column_floor(candidate.txn.coords,
                                             kind is _WR)
        if kind is _ACT:
            return self.channel.act_floor(candidate.txn.coords)
        # Precharges are attributed by cause, REF/REFpb wholesale to
        # the refresh bucket -- neither needs a device floor.
        return None

    def on_command(self, candidate, floor, ewlr_hit: bool,
                   partial: bool, queue_empty_after: bool) -> None:
        """Account (and optionally trace) one committed command."""
        victim = candidate.victim
        if victim is None:
            txn = candidate.txn
            bank, subbank = txn.bank_index, txn.coords.subbank
        else:
            # Precharges and refreshes name their target slot; a refresh
            # scope is (-1, (-1, -1)) all-bank, (b, (-1, -1)) per-bank
            # and (b, (s, -1)) per-sub-bank.
            bank, (subbank, _) = victim
        bucket, wait = self.accounting.on_command(
            candidate.issue_time, candidate.kind, candidate.cause, bank,
            subbank, floor, ewlr_hit, partial, queue_empty_after)
        if self.sink is not None:
            self.sink.record(self._event(candidate, bank, subbank,
                                         partial, bucket, wait))

    def _event(self, candidate, bank: int, subbank: int, partial: bool,
               bucket: StallBucket, wait: int) -> TraceEvent:
        """The trace record of one committed command."""
        kind = candidate.kind
        victim = candidate.victim
        if victim is None:
            txn = candidate.txn
            row = txn.coords.row
            group = self.channel.banks[bank].geometry.group_of(row)
            core = txn.core
            if kind is not _ACT:
                row = -1
        else:
            # No precharge or refresh is attributed to a core.
            group = victim[1][1]
            row = core = -1
            if partial:
                kind = _PRE_PARTIAL
        cause = candidate.cause
        return TraceEvent(
            candidate.issue_time, self.accounting.channel_index, bank,
            subbank, group, kind.name, cause.value if cause else "", row,
            core, bucket.value, wait)


def collect_report(config_name: str,
                   observers: List[Optional[CommandObserver]],
                   elapsed_ps: int) -> Optional[AccountingReport]:
    """Close every channel's books and assemble the run's report.

    Each channel's horizon is the later of the run's end (the last core
    finish) and the channel's own last command end, so trailing write
    drains stay fully accounted.
    """
    channels = [obs.accounting for obs in observers if obs is not None]
    if not channels:
        return None
    for accounting in channels:
        accounting.finish(elapsed_ps)
    return AccountingReport(config_name=config_name, channels=channels)
