"""FR-FCFS command scheduling with the ERUCA operation flow (Fig. 5).

For every schedulable transaction the scheduler derives the *next* DRAM
command it needs -- a column command on a row hit, an ACT when its
(sub-)bank is ready (including EWLR hits), or a precharge of whichever slot
blocks it (its own row conflict, or a paired sub-bank's plane conflict) --
together with the earliest legal issue time from the device model.

Priority is first-ready, first-come-first-serve with column-over-row
ordering: among the candidates that can issue soonest, row-buffer hits win,
then older transactions.  A precharge that would close a row other, older
transactions still hit on is suppressed (anti-thrashing guard), which also
prevents inter-transaction livelock.

Two selection paths produce *identical* command streams:

* the **reference** path (:meth:`Scheduler.candidates`) rebuilds every
  candidate from scratch on each call -- simple, obviously correct, and
  kept as the equivalence oracle;
* the **incremental** path (the default) caches the bank-local part of
  every candidate per bank and only rebuilds banks whose FSM or queue
  membership actually changed since the last peek.  Channel-shared
  resource constraints (command/data bus, tRRD, the tFAW four-activate
  window, DDB windows) change on every commit, so they are re-applied
  cheaply at selection time.

The decomposition is exact because every bank-local input of a candidate
-- the activation verdict, the victim slot, the pending-hit map used by
the anti-thrashing guard, and the bank-side earliest issue times -- only
reads state of the transaction's own bank.  Ties are broken by a
deterministic per-transaction sequence number (queue order), so both
paths agree bit-for-bit regardless of enumeration order.

Selection over the cached candidates is *floor-indexed*: within one
bank, every candidate of one priority class shares the same
channel-resource floor (all column candidates share the bank's
column floor because the drain mode fixes the direction and the bank
fixes group/index; all ACTs share the channel ACT floor; precharges and
policy closes share the PRE floor).  Clamping a whole class to one floor
``F`` collapses every bank-local time ``t <= F`` onto ``F``, so the
class winner is either the minimal ``(arrival, seq)`` among those -- a
prefix-minimum over the ``t``-sorted candidates -- or, when every ``t``
exceeds ``F``, the first candidate in ``(t, arrival, seq)`` order.  Each
bank-class therefore keeps a :class:`SelectionTable` (a ``t``-sorted
array with prefix-min ``(arrival, seq)``) and answers a peek with one
binary search, making selection O(banks x classes x log candidates)
instead of O(total candidates).

Every ACT and RD/WR floor rule has one implementation, which returns
``(tag, time)``: :meth:`ChannelResources.act_floor
<repro.dram.resources.ChannelResources.act_floor>` and ``column_floor``
for the channel side, folded with the slot's floors by
``Channel.act_floor``/``column_floor``.  Both paths read only the time:
the reference path that of the ``Channel`` fold, the incremental path
that of the channel-side floor (it caches the slot side per bank).
Observability (:mod:`repro.sim.accounting`) reads the tag of the
``Channel`` fold: the controller asks for the winning candidate's pair
*after* selection and *before* commit, so the observer sees exactly the
pre-issue device state the scheduler consulted, and neither selection
path ever branches on whether an observer is attached -- the
digest-equality tests in ``tests/sim/test_accounting.py`` hold for both.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.controller.queue import TransactionQueues
from repro.controller.transaction import Transaction
from repro.core.subbank import ActivationVerdict
from repro.dram.bank import SlotKey
from repro.dram.commands import CommandKind, PrechargeCause
from repro.dram.device import Channel

#: Priority classes, lower is better: row hits beat ACTs beat precharges;
#: speculative (page-policy) closes come last.
PRIO_COLUMN = 0
PRIO_ACT = 1
PRIO_PRE = 2
PRIO_POLICY = 3
#: Refresh-chain commands (scope closes and REF/REFpb) rank below every
#: demand class: on an exact issue-time tie the demand command wins and
#: the refresh retries at the next peek.
PRIO_REFRESH = 4

#: Arrival stamp for candidates that serve no transaction (policy closes).
_NO_ARRIVAL = 1 << 62

# Enum members the incremental path reads on every rebuild and peek,
# bound as module globals: loading a member off an Enum class costs
# several global loads.
_ACT_OK = ActivationVerdict.ACT_OK
_EWLR_HIT = ActivationVerdict.EWLR_HIT
_PLANE_CONFLICT = ActivationVerdict.PLANE_CONFLICT
_ROW_HIT = ActivationVerdict.ROW_HIT
_RD, _WR = CommandKind.RD, CommandKind.WR
_ACT, _PRE = CommandKind.ACT, CommandKind.PRE
_CAUSE_ROW = PrechargeCause.ROW_CONFLICT
_CAUSE_PLANE = PrechargeCause.PLANE_CONFLICT
_CAUSE_POLICY = PrechargeCause.POLICY


def _policy_seq(bank_index: int, slot: SlotKey) -> int:
    """Deterministic tie-break rank for a policy close of (bank, slot).

    Must be injective: two policy closes can tie on every other sort-key
    component (same time, same priority, ``_NO_ARRIVAL`` arrivals), so a
    seq collision would let the reference and table-based paths pick
    different winners depending on enumeration order.  The fields are
    packed wide enough that even a 2^32-group geometry cannot overlap
    the sub-bank or bank bits; the packing is ordered (bank, sub-bank,
    group), the same rank the narrow historical packing produced.
    """
    subbank, group = slot
    return (((bank_index << 1) | subbank) << 32) | group


@dataclass(slots=True)
class Candidate:
    """One issuable command proposal.

    ``txn`` is the queued transaction the command serves; policy
    precharges serve no transaction and carry ``txn = None``.  ``seq``
    breaks exact (issue_time, priority, arrival) ties deterministically:
    it is the serving transaction's enqueue sequence number, or a
    bank/slot rank for policy closes.  ``arrival`` is a denormalised
    copy of transaction state so the selection loop never chases
    ``cand.txn.*`` attribute chains.
    """

    issue_time: int
    priority: int
    txn: Optional[Transaction]
    kind: CommandKind
    victim: Optional[Tuple[int, SlotKey]] = None
    cause: Optional[PrechargeCause] = None
    seq: int = -1
    #: Serving transaction's arrival time (``_NO_ARRIVAL`` for policy
    #: closes), the FCFS component of the sort key.
    arrival: int = _NO_ARRIVAL

    def sort_key(self) -> Tuple[int, int, int, int]:
        return (self.issue_time, self.priority, self.arrival, self.seq)


class SelectionTable:
    """``t``-sorted entries of one (bank, priority class), answering
    "who wins after clamping to floor ``F``?" with one binary search.

    Entries are plain tuples whose first three fields are
    ``(t, arrival, seq)`` -- the class-local part of the FR-FCFS sort
    key -- followed by whatever payload the class needs to materialise
    the winning :class:`Candidate` (the serving transaction, the
    precharge victim, ...).  ``seq`` is unique within a table, so a
    key-less tuple sort never falls through to comparing payloads.

    Every entry in one table shares the same channel-resource floor
    (one column floor per bank, the channel-wide ACT floor, or the PRE
    floor), so the per-peek effective issue time of entry ``i`` is
    ``max(t_i, F)`` with one ``F`` for the whole table.  Every entry
    with ``t <= F`` collapses onto ``F`` and strictly beats every entry
    with ``t > F`` on time, hence the winner is

    * the prefix-minimum ``(arrival, seq)`` over the ``t``-sorted prefix
      ``t <= F`` when that prefix is non-empty, else
    * the first entry in ``(t, arrival, seq)`` order (the lexicographic
      minimum of the un-clamped keys).

    Exactness against the brute-force ``min`` over floor-clamped
    entries is property-tested in
    ``tests/controller/test_selection_table.py``.

    Single-entry tables (the overwhelmingly common case on these
    workloads) skip the sort and prefix arrays entirely; the head entry
    ``(t0, a0, s0, e0)`` -- the minimum of the un-clamped keys -- is
    denormalised into slots so the selection loop can answer the
    floor-above-everything case with two attribute loads and a compare.
    """

    __slots__ = ("times", "entries", "pmin", "single",
                 "t0", "a0", "s0", "e0")

    def __init__(self, entries: List[tuple]) -> None:
        if len(entries) > 1:
            entries.sort()
            self.single = False
            self.times = [e[0] for e in entries]
            #: ``pmin[i]`` = (arrival, seq, index) of the minimal
            #: ``(arrival, seq)`` among ``entries[: i + 1]``.
            pmin: List[Tuple[int, int, int]] = []
            best_a = best_s = best_i = -1
            first = True
            for i, e in enumerate(entries):
                if first or e[1] < best_a or (e[1] == best_a
                                              and e[2] < best_s):
                    best_a, best_s, best_i = e[1], e[2], i
                    first = False
                pmin.append((best_a, best_s, best_i))
            self.pmin = pmin
        else:
            self.single = True
            self.times = None
            self.pmin = None
        self.entries = entries
        head = entries[0]
        self.t0 = head[0]
        self.a0 = head[1]
        self.s0 = head[2]
        self.e0 = head

    def __len__(self) -> int:
        return len(self.entries)

    def select(self, floor: int) -> Tuple[int, int, int, tuple]:
        """Winner after clamping every entry to ``floor``.

        Returns ``(time, arrival, seq, entry)`` where ``time`` is the
        winner's effective issue time (already >= ``floor`` clamping).
        """
        t0 = self.t0
        if t0 > floor:
            # The floor clamps nothing: the head is the lexicographic
            # minimum of the un-clamped keys.
            return t0, self.a0, self.s0, self.e0
        if self.single:
            return floor, self.a0, self.s0, self.e0
        # t0 <= floor, so the clamped prefix is non-empty (pos >= 1).
        pos = bisect_right(self.times, floor)
        arrival, seq, i = self.pmin[pos - 1]
        return floor, arrival, seq, self.entries[i]


#: One bank's cached column table ``(table, is_write, bank_group,
#: bank_index)``.  The last three are the arguments of the bank's
#: column floor, shared by every column candidate of the bank (the
#: drain mode fixes the direction, the bank fixes group and index), so
#: one :meth:`~repro.dram.resources.ChannelResources.column_floor`
#: call floors the whole table.  A plain tuple, not a dataclass: one is
#: built per bank rebuild, ~1.6x per command.
ColTable = Tuple[SelectionTable, bool, int, int]

#: One bank's cached non-column tables ``(act, pre, policy)``.  ACTs
#: share the channel-wide ACT floor; precharges and policy closes share
#: the PRE floor (but stay in separate tables because their priorities
#: differ).  Kept apart from the column tables so the selection loop's
#: second pass only visits banks that actually have row work pending --
#: on row-hit-friendly workloads that is a near-empty dict.
AuxTables = Tuple[Optional[SelectionTable],
                  Optional[SelectionTable],
                  Optional[SelectionTable]]


#: The schedulable refresh policies (``SystemConfig.refresh_policy``).
REFRESH_POLICIES = ("baseline", "darp", "sarp")


class RefreshScheduler:
    """Deadline tracking and candidate generation for DRAM refresh.

    One refresh *scope* is the unit a single REF/REFpb command covers:
    the whole rank (``baseline``), one bank (``darp``), or one sub-bank
    (``sarp``, which :class:`~repro.sim.config.SystemConfig` allows on
    sub-banked organisations only).  One
    refresh is owed per ``period = tREFI / len(scopes)`` elapsed, so
    every policy retires the same rank-wide refresh bandwidth; JEDEC's
    eight-deferral allowance becomes ``defer_slack = 8 * period`` of
    schedule slip before a refresh is forced over pending demand.

    The three policies differ only in *when* a scope refreshes:

    * ``baseline`` -- on-deadline all-bank REF: demand issues while it
      beats the deadline, then the rank closes and refreshes.
    * ``darp`` -- deferred per-bank REFpb, out of order: banks with no
      pending demand refresh early (up to 8 periods pulled in), busy
      banks defer until forced.
    * ``sarp`` -- like ``darp`` at sub-bank granularity: one sub-bank
      refreshes (half a ``tRFCpb`` -- half the rows) while its partner
      keeps serving hits through ERUCA's partial-precharge machinery.

    The machine owns the deadline: :attr:`due` is when the next owed
    refresh falls due, and each retired refresh pushes it one
    ``period`` out.  The channel owns each scope's row slots
    (``Channel.refresh_scopes``) and the blackout, which
    ``Channel.issue_refresh`` writes into their FSM.

    Path safety: refresh candidates exist only while the demand queues
    are non-empty, and the demand-vs-refresh decision compares
    ``demand.issue_time`` (already ``max(now, ...)``-clamped the same
    way by both scheduler paths) against the deadline and offsets of
    it -- never raw ``now`` -- so the reference and incremental paths
    pick identical winners.  While the queues are empty the controller
    settles owed refreshes in one idle catch-up at the next admission
    (:meth:`catch_up`), which keeps run termination trivially intact:
    a drained simulation proposes no further events.
    """

    def __init__(self, channel: Channel, queues: TransactionQueues,
                 policy: str) -> None:
        if policy not in REFRESH_POLICIES:
            raise ValueError(
                f"unknown refresh policy {policy!r}; known: "
                + ", ".join(REFRESH_POLICIES))
        self.channel = channel
        self.queues = queues
        self.policy = policy
        banks = len(channel.banks)
        subbanks = channel.banks[0].geometry.subbanks
        if policy == "baseline":
            scopes = [(-1, -1)]
        elif policy == "darp":
            scopes = [(b, -1) for b in range(banks)]
        else:
            scopes = [(b, s) for b in range(banks)
                      for s in range(subbanks)]
        #: Scope rotation order of one tREFI round, (bank, sub-bank)
        #: with -1 as "all" wildcards.
        self.scopes = scopes
        self.period = max(1, channel.timing.tREFI // len(scopes))
        self.defer_slack = 8 * self.period
        #: When the next owed refresh falls due: one period in.
        self.due = self.period
        #: Scopes still owed a refresh this round, deadline order.
        self.rotation = list(scopes)
        #: Memoised scopes with schedulable demand: every busy
        #: (bank, sub-bank) pair plus its ``(bank, -1)`` per-bank scope,
        #: so one set lookup answers both DARP and SARP scopes.
        #: ``None`` = stale (queue membership changed since computed).
        self._busy: Optional[Set[Tuple[int, int]]] = None

    # -- internals ---------------------------------------------------------

    def _busy_scopes(self) -> Set[Tuple[int, int]]:
        busy = self._busy
        if busy is None:
            busy = set()
            for txn in self.queues.schedulable():
                bank_index = txn.bank_index
                busy.add((bank_index, txn.coords.subbank))
                busy.add((bank_index, -1))
            self._busy = busy
        return busy

    def _chain(self, now: int, scope: Tuple[int, int],
               clamp: int) -> Candidate:
        """Next step of refreshing ``scope``: close its first open slot,
        or the REF/REFpb itself once the scope is fully precharged.

        ``clamp`` is the earliest the policy may act (the deadline for
        baseline, the 8-period pull-in bound for darp/sarp).
        """
        bank_index, subbank = scope
        channel = self.channel
        open_slots = channel.refresh_scope_open(bank_index, subbank)
        if open_slots:
            bi, key = open_slots[0]
            t = channel.earliest_precharge(bi, key)
            if t < clamp:
                t = clamp
            if t < now:
                t = now
            return Candidate(t, PRIO_REFRESH, None, CommandKind.PRE,
                             victim=(bi, key),
                             cause=PrechargeCause.REFRESH,
                             seq=_policy_seq(bi, key))
        t = channel.earliest_refresh(bank_index, subbank)
        if t < clamp:
            t = clamp
        if t < now:
            t = now
        kind = CommandKind.REF if bank_index < 0 else CommandKind.REFPB
        return Candidate(t, PRIO_REFRESH, None, kind,
                         victim=(bank_index, (subbank, -1)))

    def _opportunistic(self, now: int) -> Optional[Candidate]:
        """DARP/SARP pull-in: refresh the oldest-owed scope that has no
        pending demand and no open rows (no closes ever race demand)."""
        busy = self._busy_scopes()
        channel = self.channel
        scopes = channel.refresh_scopes
        for scope in self.rotation:
            if scope in busy:
                continue
            for _, _, slot in scopes[scope]:
                if slot.active_row is not None:
                    break
            else:
                bank_index, subbank = scope
                t = channel.earliest_refresh(bank_index, subbank)
                clamp = self.due - self.defer_slack
                if t < clamp:
                    t = clamp
                if t < now:
                    t = now
                return Candidate(t, PRIO_REFRESH, None, CommandKind.REFPB,
                                 victim=(bank_index, (subbank, -1)))
        return None

    # -- scheduler-facing --------------------------------------------------

    def arbitrate(self, now: int,
                  demand: Optional[Candidate]) -> Optional[Candidate]:
        """Pick between the demand winner and the refresh machine.

        Called once per peek while the queues are non-empty.
        """
        due = self.due
        if self.policy == "baseline":
            if demand is not None and demand.issue_time < due:
                return demand
            return self._chain(now, self.rotation[0], due)
        if demand is None or demand.issue_time >= due + self.defer_slack:
            # Out of slack: the oldest owed scope refreshes now, closing
            # rows over demand if it must.
            return self._chain(now, self.rotation[0], due - self.defer_slack)
        # Every opportunistic candidate issues no earlier than the
        # pull-in bound, ``now`` and the command bus (earliest_refresh
        # starts from it), and PRIO_REFRESH loses exact ties: a demand
        # at or before that bound wins without scanning the scopes.
        bound = due - self.defer_slack
        if now > bound:
            bound = now
        cmd_bus_free = self.channel.resources.cmd_bus_free
        if cmd_bus_free > bound:
            bound = cmd_bus_free
        if demand.issue_time <= bound:
            return demand
        cand = self._opportunistic(now)
        if cand is not None and cand.issue_time < demand.issue_time:
            return cand
        return demand

    def note_refresh(self, candidate: Candidate) -> None:
        """A REF/REFpb committed: retire one owed period and advance the
        scope rotation."""
        self.due += self.period
        bank_index, slot = candidate.victim
        scope = (bank_index, slot[0])
        try:
            self.rotation.remove(scope)
        except ValueError:
            pass
        if not self.rotation:
            self.rotation = list(self.scopes)

    def catch_up(self, time: int, note_bank_change
                 ) -> List[Tuple[Candidate, bool]]:
        """Settle refreshes owed across an idle span, at admission time.

        While the queues are empty the scheduler proposes no refresh
        candidates (so drained runs terminate); a controller with no
        demand would in reality keep refreshing on schedule.  When a
        transaction arrives at ``time`` with refreshes owed, this
        replays that schedule: close any open rows (idle-close may have
        beaten us to it), then issue on-deadline all-bank REFs until
        the deadline passes ``time``.  Each all-bank REF covers a whole
        rotation round, so it retires ``len(scopes)`` owed periods.

        Returns the issued commands in issue order, each with whether
        it was a partial precharge, so the controller can count them
        and report them to its observer.  They enter the device log
        too, so the validator sees them.
        """
        if self.due > time:
            return []
        channel = self.channel
        issued: List[Tuple[Candidate, bool]] = []
        for bi, key in channel.refresh_scope_open():
            t = channel.earliest_precharge(bi, key)
            partial = channel.issue_precharge(bi, key, t,
                                              PrechargeCause.REFRESH)
            note_bank_change(bi)
            issued.append((Candidate(t, PRIO_REFRESH, None, CommandKind.PRE,
                                     victim=(bi, key),
                                     cause=PrechargeCause.REFRESH),
                           partial))
        banks = range(len(channel.banks))
        while self.due <= time:
            t = channel.earliest_refresh()
            if t < self.due:
                t = self.due
            channel.issue_refresh(t)
            self.due += self.period * len(self.scopes)
            issued.append((Candidate(t, PRIO_REFRESH, None, CommandKind.REF,
                                     victim=(-1, (-1, -1))), False))
            for bi in banks:
                note_bank_change(bi)
        self.rotation = list(self.scopes)
        return issued


class Scheduler:
    """Candidate generation and FR-FCFS selection for one channel.

    ``idle_close_ps`` enables the adaptive open-page policy (Tab. III):
    an open row with no pending requests is speculatively closed after
    that much idle time, hiding the tRP of a future conflict.  ``None``
    keeps rows open until a conflict forces a precharge.

    The controller must report every event that can change candidates:
    :meth:`note_enqueue` when a transaction is admitted,
    :meth:`note_remove` when a column command retires one, and
    :meth:`note_bank_change` when a committed command touched a bank's
    FSM -- a REF/REFpb too, which writes its blackout into the FSM of
    every slot in scope.  Anything missed would silently stale the
    incremental cache, so the golden-digest tests run both paths over
    every configuration.
    """

    def __init__(self, channel: Channel, queues: TransactionQueues,
                 idle_close_ps: Optional[int] = None,
                 incremental: bool = True,
                 refresh_policy: Optional[str] = None) -> None:
        self.channel = channel
        self.queues = queues
        self.idle_close_ps = idle_close_ps
        self.incremental = incremental
        #: The refresh machine, or ``None`` when the timing preset has
        #: refresh disabled (the historical machine: zero overhead, and
        #: schedules stay bit-identical to pre-refresh builds).
        self.refresh: Optional[RefreshScheduler] = (
            RefreshScheduler(channel, queues, refresh_policy or "baseline")
            if channel.timing.refresh_enabled else None)
        #: Perf counters (copied into ControllerStats once, at result
        #: collection -- :meth:`ChannelController.collect_perf_counters`).
        self.peeks = 0
        self.candidates_built = 0
        #: Candidates the selection loop actually compared.  The
        #: reference path examines every rebuilt candidate per peek; the
        #: table path examines one pre-reduced winner per (bank, class).
        self.candidates_examined = 0
        # -- incremental state ------------------------------------------
        self._seq = 0
        #: Whether queue membership changed since the last peek.  The
        #: drain source is a pure function of queue contents (the
        #: watermark state machine only advances when a length
        #: changes), so peeks in between skip the drain-mode
        #: re-evaluation entirely.
        self._queues_changed = True
        #: Which queue the current membership was built from ('R'/'W'),
        #: or None before the first peek.
        self._source: Optional[str] = None
        #: Schedulable transactions per bank, in queue order.
        self._bank_txns: Dict[int, List[Transaction]] = {}
        #: Cached selection tables per bank, holding candidates with
        #: *bank-local* issue times (the channel-resource floor and the
        #: ``now`` clamp are re-applied at selection).  Banks with no
        #: candidates of the kind are absent from the respective dict.
        self._col_tables: Dict[int, ColTable] = {}
        self._aux_tables: Dict[int, AuxTables] = {}
        #: Banks whose cached candidates must be rebuilt.
        self._dirty: Set[int] = set()
        #: Channel state bound once (the bank list and the resources
        #: object live as long as the channel and are only mutated in
        #: place).  Saves the ``self.channel.*`` attribute chains on
        #: every rebuild and peek.
        resources = channel.resources
        self._banks = channel.banks
        self._banks_per_group = channel.banks_per_group
        self._res_column_floor = resources.column_floor
        self._res_act_floor = resources.act_floor
        self._res_earliest_precharge = resources.earliest_precharge
        #: Reusable return vehicle for :meth:`_best_incremental`: one
        #: peek's winner is always consumed (committed or discarded)
        #: before the next peek of the same scheduler overwrites it,
        #: and nothing downstream stores the object itself -- the
        #: simulator's peek cache holds at most the latest one per
        #: channel, and the accounting observer copies scalar fields.
        self._scratch = Candidate(0, 0, None, CommandKind.PRE)

    # -- transaction preparation (memoised) ------------------------------

    def _prepare(self, txn: Transaction) -> None:
        """Fill the transaction's scheduler caches once."""
        c = txn.coords
        bank_index = c.bank_group * self._banks_per_group + c.bank
        bank = self._banks[bank_index]
        txn.bank_index = bank_index
        txn.slot = bank.slot_key(c.subbank, c.row)
        if bank.plane_tagged:
            txn.plane = bank.row_layout.plane_id(c.row, c.subbank,
                                                 bank.rap)
            txn.mwl = bank.row_layout.mwl_tag(c.row)

    # -- change notifications (controller-facing) -------------------------

    def note_enqueue(self, txn: Transaction) -> None:
        """A transaction entered the queues: prepare it and track it."""
        if txn.bank_index < 0:
            self._prepare(txn)
        if txn.seq < 0:
            txn.seq = self._seq
            self._seq += 1
        self._queues_changed = True
        if self.refresh is not None:
            self.refresh._busy = None
        # Only fold it into the membership if it joins the queue the
        # current candidate set was built from; otherwise the source
        # check in best() picks it up on the next drain-mode flip.
        if self._source == ('R' if txn.is_read else 'W'):
            self._bank_txns.setdefault(txn.bank_index, []).append(txn)
            self._dirty.add(txn.bank_index)

    def note_remove(self, txn: Transaction) -> None:
        """A column command retired ``txn``; drop it from its bank."""
        self._queues_changed = True
        if self.refresh is not None:
            self.refresh._busy = None
        txns = self._bank_txns.get(txn.bank_index)
        if txns is not None:
            try:
                txns.remove(txn)
            except ValueError:
                pass
        self._dirty.add(txn.bank_index)

    def note_bank_change(self, bank_index: int) -> None:
        """A committed command changed this bank's FSM state."""
        self._dirty.add(bank_index)

    # -- reference path ----------------------------------------------------

    def _pending_hits(self, txns: List[Transaction]
                      ) -> Dict[Tuple[int, SlotKey], int]:
        """Oldest arrival per (bank, slot) whose open row still has hits."""
        hits: Dict[Tuple[int, SlotKey], int] = {}
        banks = self.channel.banks
        for txn in txns:
            if txn.bank_index < 0:
                self._prepare(txn)
            slot = banks[txn.bank_index].slots[txn.slot]
            if slot.active_row == txn.coords.row:
                loc = (txn.bank_index, txn.slot)
                if loc not in hits or txn.arrival_time < hits[loc]:
                    hits[loc] = txn.arrival_time
        return hits

    def _policy_closes(self, now: int,
                       hits: Dict[Tuple[int, SlotKey], int]
                       ) -> List[Candidate]:
        """Adaptive open-page: close rows idle past the threshold."""
        out: List[Candidate] = []
        banks = self.channel.banks
        for loc in self.channel.open_slots:
            if loc in hits:
                continue  # a pending request still wants this row
            bank_index, key = loc
            slot = banks[bank_index].slots[key]
            due = slot.last_use + self.idle_close_ps
            t = max(now, due,
                    self.channel.earliest_precharge(bank_index, key))
            out.append(Candidate(t, PRIO_POLICY, None, CommandKind.PRE,
                                 victim=loc,
                                 cause=PrechargeCause.POLICY,
                                 seq=_policy_seq(bank_index, key)))
        return out

    def candidates(self, now: int) -> List[Candidate]:
        """Every issuable command, rebuilt from scratch (reference path).

        This is the equivalence oracle the incremental path is tested
        against; it is also what ``incremental=False`` schedulers use.
        """
        txns = self.queues.schedulable()
        if not txns and self.idle_close_ps is None:
            return []
        hits = self._pending_hits(txns)
        out: List[Candidate] = []
        if self.idle_close_ps is not None:
            out.extend(self._policy_closes(now, hits))
        if not txns:
            self.candidates_built += len(out)
            return out
        seen_acts: set = set()
        seen_pres: set = set()
        banks = self.channel.banks
        for txn in txns:
            c = txn.coords
            bank = banks[txn.bank_index]
            verdict, victim_slot = bank.classify(
                c.subbank, c.row, txn.plane, txn.mwl, txn.slot)
            if verdict is ActivationVerdict.ROW_HIT:
                t = self.channel.earliest_column(c, not txn.is_read)
                out.append(Candidate(max(now, t), PRIO_COLUMN, txn,
                                     CommandKind.WR if not txn.is_read
                                     else CommandKind.RD, seq=txn.seq,
                                     arrival=txn.arrival_time))
            elif verdict in (ActivationVerdict.ACT_OK,
                             ActivationVerdict.EWLR_HIT):
                slot = (txn.bank_index, txn.slot)
                if slot in seen_acts:
                    continue  # one ACT proposal per target slot
                seen_acts.add(slot)
                t = self.channel.earliest_act(c)
                out.append(Candidate(max(now, t), PRIO_ACT, txn,
                                     CommandKind.ACT, seq=txn.seq,
                                     arrival=txn.arrival_time))
            else:
                bank_index = txn.bank_index
                loc = (bank_index, victim_slot)
                # Anti-thrashing: do not close a row that an older (or
                # equally old) transaction still hits on.
                if loc in hits and hits[loc] <= txn.arrival_time:
                    continue
                if loc in seen_pres:
                    continue
                seen_pres.add(loc)
                cause = (PrechargeCause.PLANE_CONFLICT
                         if verdict is ActivationVerdict.PLANE_CONFLICT
                         else PrechargeCause.ROW_CONFLICT)
                t = self.channel.earliest_precharge(bank_index, victim_slot)
                out.append(Candidate(max(now, t), PRIO_PRE, txn,
                                     CommandKind.PRE, victim=loc,
                                     cause=cause, seq=txn.seq,
                                     arrival=txn.arrival_time))
        self.candidates_built += len(out)
        return out

    # -- incremental path --------------------------------------------------

    def _rebuild_all(self, txns: List[Transaction]) -> None:
        """Drain-mode flip (or first peek): regroup the whole source."""
        stale = set(self._col_tables) | set(self._aux_tables)
        self._bank_txns = {}
        for txn in txns:
            if txn.bank_index < 0:
                self._prepare(txn)
            if txn.seq < 0:
                txn.seq = self._seq
                self._seq += 1
            self._bank_txns.setdefault(txn.bank_index, []).append(txn)
        self._dirty = stale | set(self._bank_txns)
        if self.idle_close_ps is not None:
            self._dirty.update(loc[0] for loc in self.channel.open_slots)

    def _rebuild_bank(self, bank_index: int) -> None:
        """Recompute the bank-local selection tables of one bank.

        Issue times stored here exclude the channel-resource floor and
        the ``now`` clamp -- both are re-applied at selection, so a
        cached candidate never goes stale from *other* banks' traffic.
        A refresh blackout is slot FSM state like any other: a REF
        raises ``act_allowed`` over its scope and dirties every bank in
        it, and column and precharge times already lie past it.
        """
        bank = self._banks[bank_index]
        slots = bank.slots
        txns = self._bank_txns.get(bank_index, ())
        if self.idle_close_ps is None and len(txns) <= 1:
            # Most rebuilds see zero or one transaction (the committed
            # command retired the only pending one, or a lone arrival
            # dirtied an idle bank).  With no page policy and a single
            # transaction, the anti-thrashing hit map is provably empty
            # for every conflict verdict -- a hit on the own slot would
            # have classified as ROW_HIT -- so the general path's list,
            # set and dict machinery below is pure overhead here.
            if not txns:
                self._col_tables.pop(bank_index, None)
                self._aux_tables.pop(bank_index, None)
                return
            txn = txns[0]
            c = txn.coords
            # The head of Bank.classify, inlined: a hit or an own-slot
            # conflict resolves on one slot load, and a flat bank can
            # never plane-conflict.  Only the sub-banked
            # empty-own-slot case needs the full plane/EWLR scan.
            key = txn.slot
            own = slots[key]
            active = own.active_row
            self.candidates_built += 1
            if active == c.row:  # ROW_HIT
                is_write = not txn.is_read
                t = bank.column_ready(key)
                table = SelectionTable(
                    [(t, txn.arrival_time, txn.seq, txn)])
                self._col_tables[bank_index] = (
                    table, is_write, c.bank_group, bank_index)
                self._aux_tables.pop(bank_index, None)
                return
            self._col_tables.pop(bank_index, None)
            if active is not None:  # OWN_ROW_CONFLICT
                verdict, victim_slot = None, key
                cause = _CAUSE_ROW
            elif not bank.plane_tagged:  # ACT_OK
                verdict, victim_slot = _ACT_OK, None
            else:
                verdict, victim_slot = bank.classify(
                    c.subbank, c.row, txn.plane, txn.mwl, key)
                cause = (_CAUSE_PLANE if verdict is _PLANE_CONFLICT
                         else _CAUSE_ROW)
            if verdict is _ACT_OK or verdict is _EWLR_HIT:
                t = own.act_allowed  # Bank.earliest_act of this slot
                table = SelectionTable(
                    [(t, txn.arrival_time, txn.seq, txn)])
                self._aux_tables[bank_index] = (table, None, None)
            else:
                t = bank.earliest_precharge(victim_slot)
                table = SelectionTable(
                    [(t, txn.arrival_time, txn.seq, txn,
                      (bank_index, victim_slot), cause)])
                self._aux_tables[bank_index] = (None, table, None)
            return
        #: Oldest arrival per (bank, slot) whose open row still has
        #: hits; ``None`` until the first hit (most rebuilds see a
        #: single transaction, so the dict is usually never needed).
        hits: Optional[Dict[Tuple[int, SlotKey], int]] = None
        for txn in txns:
            if slots[txn.slot].active_row == txn.coords.row:
                loc = (bank_index, txn.slot)
                if hits is None:
                    hits = {loc: txn.arrival_time}
                elif loc not in hits or txn.arrival_time < hits[loc]:
                    hits[loc] = txn.arrival_time
        policies: List[tuple] = []
        if self.idle_close_ps is not None:
            for key, slot in slots.items():
                if slot.active_row is None:
                    continue
                loc = (bank_index, key)
                if hits is not None and loc in hits:
                    continue  # a pending request still wants this row
                t = max(slot.last_use + self.idle_close_ps,
                        bank.earliest_precharge(key))
                policies.append((t, _NO_ARRIVAL,
                                 _policy_seq(bank_index, key), loc))
        cols: List[tuple] = []
        acts: List[tuple] = []
        pres: List[tuple] = []
        is_write = False
        bank_group = -1
        seen_acts: set = set()
        seen_pres: set = set()
        seen_cols: set = set()
        for txn in txns:
            c = txn.coords
            verdict, victim_slot = bank.classify(
                c.subbank, c.row, txn.plane, txn.mwl, txn.slot)
            if verdict is _ROW_HIT:
                # All hits on one slot target the same open row, share
                # the same issue time and direction, and are visited in
                # (arrival, seq) order -- only the first can ever win,
                # so later duplicates are provably unselectable.
                if txn.slot in seen_cols:
                    continue
                seen_cols.add(txn.slot)
                # The drain mode fixes the direction and the bank fixes
                # (group, index): one column floor per table.
                is_write = not txn.is_read
                bank_group = c.bank_group
                t = bank.column_ready(txn.slot)
                cols.append((t, txn.arrival_time, txn.seq, txn))
            elif verdict is _ACT_OK or verdict is _EWLR_HIT:
                if txn.slot in seen_acts:
                    continue  # one ACT proposal per target slot
                seen_acts.add(txn.slot)
                t = slots[txn.slot].act_allowed
                acts.append((t, txn.arrival_time, txn.seq, txn))
            else:
                loc = (bank_index, victim_slot)
                if (hits is not None and loc in hits
                        and hits[loc] <= txn.arrival_time):
                    continue
                if victim_slot in seen_pres:
                    continue
                seen_pres.add(victim_slot)
                cause = (_CAUSE_PLANE if verdict is _PLANE_CONFLICT
                         else _CAUSE_ROW)
                t = bank.earliest_precharge(victim_slot)
                pres.append((t, txn.arrival_time, txn.seq, txn, loc,
                             cause))
        self.candidates_built += (len(cols) + len(acts) + len(pres)
                                  + len(policies))
        if cols:
            self._col_tables[bank_index] = (
                SelectionTable(cols), is_write, bank_group, bank_index)
        else:
            self._col_tables.pop(bank_index, None)
        if acts or pres or policies:
            self._aux_tables[bank_index] = (
                SelectionTable(acts) if acts else None,
                SelectionTable(pres) if pres else None,
                SelectionTable(policies) if policies else None)
        else:
            self._aux_tables.pop(bank_index, None)

    def _best_incremental(self, now: int) -> Optional[Candidate]:
        if self._queues_changed:
            # Queue membership moved since the last peek: re-evaluate
            # the drain source (idempotent between length changes) and
            # regroup everything if it flipped.  Peeks triggered by
            # ACT/PRE commits leave the queues untouched and skip this.
            self._queues_changed = False
            txns = self.queues.schedulable()
            source = 'W' if txns is self.queues.writes else 'R'
            if source != self._source:
                self._source = source
                self._rebuild_all(txns)
        if self._dirty:
            rebuild = self._rebuild_bank
            for bank_index in self._dirty:
                rebuild(bank_index)
            self._dirty.clear()
        col_tables = self._col_tables
        aux_tables = self._aux_tables
        if not col_tables and not aux_tables:
            return None
        column_floor = self._res_column_floor
        select = SelectionTable.select
        # Class floors, already clamped to ``now``.  The ACT and PRE
        # floors are channel-wide, computed lazily once per peek and
        # shared by every bank; column floors are per bank (one
        # column_floor call floors the bank's whole column table).  The
        # scheduler reads only the time of each ``(tag, time)`` floor.
        #
        # Pruning: a table's effective winner time is >= max(t0, now)
        # whatever its floor turns out to be (floors only lift times),
        # so a table whose lower bound already loses to the running best
        # -- strictly on time, or tied on time with a worse priority --
        # is skipped without computing its floor.  Columns go first:
        # they carry the top priority and the smallest times on
        # row-hit-friendly workloads, so they set a tight bound that
        # prunes most ACT/PRE tables down to one integer compare.
        res_act = res_pre = None
        examined = 0
        best: Optional[tuple] = None
        best_write = False
        best_t = best_prio = 1 << 62
        best_key: Tuple[int, int, int, int] = (best_t, best_prio, 0, 0)
        for table, is_write, bank_group, bank_index in col_tables.values():
            t0 = table.t0
            lb = t0 if t0 > now else now
            if lb > best_t:
                continue
            floor = column_floor(is_write, bank_group, bank_index)[1]
            if floor < now:
                floor = now
            # SelectionTable.select, inlined (the hottest few lines of
            # the simulator -- one winner per column table per peek).
            if t0 > floor:
                t, arrival, seq, entry = t0, table.a0, table.s0, table.e0
            elif table.single:
                t, arrival, seq, entry = floor, table.a0, table.s0, \
                    table.e0
            else:
                pos = bisect_right(table.times, floor)
                arrival, seq, i = table.pmin[pos - 1]
                t, entry = floor, table.entries[i]
            examined += 1
            if t <= best_t:
                key = (t, PRIO_COLUMN, arrival, seq)
                if key < best_key:
                    best, best_key = entry, key
                    best_t, best_prio = t, PRIO_COLUMN
                    best_write = is_write
        for act_table, pre_table, policy_table in aux_tables.values():
            if act_table is not None:
                lb = act_table.t0
                if lb < now:
                    lb = now
                if lb < best_t or (lb == best_t
                                   and PRIO_ACT <= best_prio):
                    if res_act is None:
                        res_act = self._res_act_floor()[1]
                        if res_act < now:
                            res_act = now
                    t, arrival, seq, entry = select(act_table, res_act)
                    examined += 1
                    if t <= best_t:
                        key = (t, PRIO_ACT, arrival, seq)
                        if key < best_key:
                            best, best_key = entry, key
                            best_t, best_prio = t, PRIO_ACT
            if pre_table is None and policy_table is None:
                continue
            for table, prio in ((pre_table, PRIO_PRE),
                                (policy_table, PRIO_POLICY)):
                if table is None:
                    continue
                lb = table.t0
                if lb < now:
                    lb = now
                if lb > best_t or (lb == best_t and prio > best_prio):
                    continue
                if res_pre is None:
                    res_pre = self._res_earliest_precharge()
                    if res_pre < now:
                        res_pre = now
                t, arrival, seq, entry = select(table, res_pre)
                examined += 1
                if t <= best_t:
                    key = (t, prio, arrival, seq)
                    if key < best_key:
                        best, best_key = entry, key
                        best_t, best_prio = t, prio
        self.candidates_examined += examined
        if best is None:
            return None
        # The winner is materialised into the scratch Candidate (the
        # cached tuples are shared across peeks -- never mutated).
        out = self._scratch
        out.issue_time = best_t
        out.priority = best_prio
        if best_prio == PRIO_COLUMN:
            _, out.arrival, out.seq, out.txn = best
            out.kind = _WR if best_write else _RD
            out.victim = out.cause = None
        elif best_prio == PRIO_ACT:
            _, out.arrival, out.seq, out.txn = best
            out.kind = _ACT
            out.victim = out.cause = None
        elif best_prio == PRIO_PRE:
            _, out.arrival, out.seq, out.txn, out.victim, out.cause = \
                best
            out.kind = _PRE
        else:
            _, out.arrival, out.seq, out.victim = best
            out.txn = None
            out.kind = _PRE
            out.cause = _CAUSE_POLICY
        return out

    # -- selection ---------------------------------------------------------

    def best(self, now: int) -> Optional[Candidate]:
        self.peeks += 1
        if self.incremental:
            demand = self._best_incremental(now)
        else:
            cands = self.candidates(now)
            self.candidates_examined += len(cands)
            demand = (min(cands, key=Candidate.sort_key)
                      if cands else None)
        refresh = self.refresh
        if refresh is not None and self.queues.pending():
            # Refresh arbitration is computed fresh per peek *after*
            # demand selection and is shared verbatim by both selection
            # paths, so path equivalence is unaffected.
            return refresh.arbitrate(now, demand)
        return demand
