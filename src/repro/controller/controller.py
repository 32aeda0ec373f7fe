"""The per-channel memory controller: queues + scheduler + statistics.

The controller exposes a two-phase interface so a multi-channel simulator
can interleave command issue in global time order: :meth:`peek` proposes
the next command and its issue time without side effects, :meth:`commit`
applies it.  Completed transactions are returned so the CPU model can be
notified of read completions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.controller.queue import QueueConfig, TransactionQueues
from repro.controller.scheduler import Candidate, Scheduler
from repro.controller.transaction import Transaction
from repro.dram.commands import CommandKind
from repro.dram.device import Channel
from repro.sim.metrics import LatencyHistogram

# Command kinds bound as module globals: commit() tests one to four per
# command, and an Enum member load costs several global loads.
_ACT, _WR, _PRE = CommandKind.ACT, CommandKind.WR, CommandKind.PRE
_REF, _REFPB = CommandKind.REF, CommandKind.REFPB


@dataclass
class ControllerStats:
    """Per-channel statistics the experiments aggregate."""

    commands_issued: int = 0
    acts: int = 0
    ewlr_hits: int = 0
    columns: int = 0
    precharges: int = 0
    #: REF/REFpb commands issued (always zero with refresh disabled).
    #: Deliberately not part of the digest -- the digest already pins
    #: refresh behaviour through finish times, latencies and the
    #: precharge-cause split.
    refreshes: int = 0
    #: Read queueing latencies (arrival -> data end), ps. Fig. 16a.
    #: Counter-backed: memory stays O(unique latencies) however long
    #: the run; iteration yields the exact sorted expansion.
    read_latencies: LatencyHistogram = field(
        default_factory=LatencyHistogram)
    #: Perf counters, copied from the scheduler once at result
    #: collection (:meth:`ChannelController.collect_perf_counters`):
    #: peeks (selections), candidates_built (proposals constructed),
    #: candidates_examined (proposals the selection loop compared).
    #: peeks/candidates_built stay flat while commands_issued grows when
    #: the incremental candidate cache is doing its job;
    #: candidates_examined/peeks is what the floor-indexed selection
    #: tables shrink.
    peeks: int = 0
    candidates_built: int = 0
    candidates_examined: int = 0
    #: Peeks answered from a cache without re-running the scheduler.
    #: Always 0: the event loop caches proposals per channel itself and
    #: only re-peeks a channel whose state changed.  Kept so readers of
    #: this counter (the figure-turnaround benchmark) keep working.
    peek_reuses: int = 0

    def merge(self, other: "ControllerStats") -> None:
        self.commands_issued += other.commands_issued
        self.acts += other.acts
        self.ewlr_hits += other.ewlr_hits
        self.columns += other.columns
        self.precharges += other.precharges
        self.refreshes += other.refreshes
        self.read_latencies.merge(other.read_latencies)
        self.peeks += other.peeks
        self.candidates_built += other.candidates_built
        self.candidates_examined += other.candidates_examined
        self.peek_reuses += other.peek_reuses


class ChannelController:
    """Drives one :class:`~repro.dram.device.Channel`.

    ``observer`` is an optional
    :class:`~repro.sim.accounting.CommandObserver` fed from the commit
    path (cycle accounting + event tracing).  It is a pure observer --
    it never influences scheduling -- and when absent the controller
    pays a single ``is None`` check per event.
    """

    def __init__(self, channel: Channel,
                 queue_config: QueueConfig = QueueConfig(),
                 idle_close_ps=None, observer=None,
                 incremental=True, refresh_policy=None) -> None:
        self.channel = channel
        self.queues = TransactionQueues(queue_config)
        self.scheduler = Scheduler(channel, self.queues, idle_close_ps,
                                   incremental=incremental,
                                   refresh_policy=refresh_policy)
        self.stats = ControllerStats()
        self.observer = observer

    # -- admission ---------------------------------------------------------

    def has_room(self, is_read: bool) -> bool:
        return self.queues.has_room(is_read)

    def enqueue(self, txn: Transaction, time: int) -> None:
        obs = self.observer
        if not self.queues.pending():
            if obs is not None:
                obs.note_nonempty(time)
            refresh = self.scheduler.refresh
            if refresh is not None:
                # Settle refreshes owed across the idle span before this
                # arrival (the scheduler proposes no refresh candidates
                # while the queues are empty, so runs terminate).
                for command, partial in refresh.catch_up(
                        time, self.scheduler.note_bank_change):
                    self.stats.commands_issued += 1
                    if command.kind is _PRE:
                        self.stats.precharges += 1
                    else:
                        self.stats.refreshes += 1
                    if obs is not None:
                        # Issued into the idle span: the span up to the
                        # arrival stays queue-empty, and any wait past
                        # it is charged to refresh.
                        obs.on_command(command, None, False, partial, True)
                        obs.note_nonempty(time)
        self.queues.enqueue(txn, time)
        self.scheduler.note_enqueue(txn)

    def pending(self) -> bool:
        return self.queues.pending()

    # -- scheduling ----------------------------------------------------------

    def peek(self, now: int) -> Optional[Candidate]:
        """The command this channel would issue next, or None if idle."""
        return self.scheduler.best(now)

    def collect_perf_counters(self) -> None:
        """Copy the scheduler's perf counters into :attr:`stats`.

        Called once when results are collected (they used to be
        mirrored on every peek, two attribute stores per scheduling
        decision for counters nothing reads mid-run).
        """
        scheduler = self.scheduler
        self.stats.peeks = scheduler.peeks
        self.stats.candidates_built = scheduler.candidates_built
        self.stats.candidates_examined = scheduler.candidates_examined

    def commit(self, candidate: Candidate) -> List[Transaction]:
        """Issue the candidate; returns transactions completed by it."""
        txn = candidate.txn
        time = candidate.issue_time
        kind = candidate.kind
        obs = self.observer
        # The floor must be read before the issue mutates channel state.
        floor = obs.floors_for(candidate) if obs is not None else None
        self.stats.commands_issued += 1
        if kind is _PRE:
            bank_index, slot = candidate.victim
            partial = self.channel.issue_precharge(bank_index, slot, time,
                                                   candidate.cause)
            self.scheduler.note_bank_change(bank_index)
            self.stats.precharges += 1
            if obs is not None:
                obs.on_command(candidate, floor, False, partial,
                               not self.queues.pending())
            return []
        if kind is _REF or kind is _REFPB:
            bank_index, slot = candidate.victim
            self.channel.issue_refresh(time, bank_index, slot[0])
            if bank_index < 0:
                for bi in range(len(self.channel.banks)):
                    self.scheduler.note_bank_change(bi)
            else:
                self.scheduler.note_bank_change(bank_index)
            self.scheduler.refresh.note_refresh(candidate)
            self.stats.refreshes += 1
            if obs is not None:
                obs.on_command(candidate, floor, False, False,
                               not self.queues.pending())
            return []
        c = txn.coords
        if kind is _ACT:
            ewlr_hit = self.channel.issue_act(c, time)
            self.scheduler.note_bank_change(txn.bank_index)
            self.stats.acts += 1
            if ewlr_hit:
                self.stats.ewlr_hits += 1
            if obs is not None:
                obs.on_command(candidate, floor, ewlr_hit, False,
                               not self.queues.pending())
            return []
        is_write = kind is _WR
        data_end = self.channel.issue_column(c, time, is_write)
        txn.completion_time = data_end
        self.queues.remove(txn)
        self.scheduler.note_remove(txn)
        self.stats.columns += 1
        if txn.is_read:
            self.stats.read_latencies.add(txn.queueing_latency)
        if obs is not None:
            obs.on_command(candidate, floor, False, False,
                           not self.queues.pending())
        return [txn]
