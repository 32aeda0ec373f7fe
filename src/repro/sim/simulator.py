"""The event-driven simulator binding cores to channel controllers.

The loop processes, in global time order, exactly two kinds of events:

1. a core hands its next memory access to a channel controller, and
2. a controller issues the next DRAM command on its channel.

Controllers report the earliest time they could issue (a pure "peek"),
cores report when their next access is ready (``BLOCKED`` while the ROB is
full behind an outstanding read); the simulator always commits the
earliest event.  Because channels are fully independent and core arrivals
are processed before any later command, this is behaviourally equivalent
to a cycle-by-cycle simulation while skipping every idle cycle.

Core arrivals live in a min-heap keyed by (ready time, core id): a core's
ready time only changes when it hands off a request or one of its reads
completes, so the heap is patched at those two points instead of
re-sorting every core on every iteration.  Stale entries (a read
completion moved a core from ``BLOCKED`` to ready) are dropped lazily at
the top of the heap.  Controller proposals are cached per channel and
invalidated only when that channel's state changes.

Admission uses **wake-on-room parking**: a core whose target channel
queue is full leaves the arrival heap and waits in that channel's
per-channel wait list, re-armed only when the controller retires a
transaction (the sole event that frees queue room), instead of
busy-retrying its doomed ``has_room`` probe on every loop iteration.
Parking is behaviourally invisible -- the retries it skips are pure
reads, and the parked entry re-enters the heap under its original
(ready time, core id) key before the first instant admission can
succeed -- so digests match with parking on or off
(``tests/sim/test_determinism.py``).
"""

from __future__ import annotations

import hashlib
import heapq
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.controller.controller import ChannelController, ControllerStats
from repro.controller.transaction import Transaction, TransactionKind
from repro.cpu.core import BLOCKED, CoreConfig, TraceCore
from repro.dram.commands import PrechargeCause
from repro.dram.power import EnergyMeter
from repro.sim.accounting import (
    AccountingReport,
    CommandObserver,
    ObserveOptions,
    collect_report,
)
from repro.sim.config import SystemConfig
from repro.sim.tracing import TraceSink

#: Bound once: an Enum member load costs several global loads.
_READ, _WRITE = TransactionKind.READ, TransactionKind.WRITE


class MemorySystem:
    """All channels of one configuration plus its address mapping.

    ``observe`` attaches the observability layer: ``True`` or an
    :class:`~repro.sim.accounting.ObserveOptions` enables per-channel
    cycle accounting (and optionally the per-command event trace) on
    every controller.  Observation never changes scheduling -- the
    command stream is bit-identical either way.
    """

    def __init__(self, config: SystemConfig,
                 observe=None) -> None:
        self.config = config
        self.mapping = config.mapping()
        if observe is True:
            observe = ObserveOptions()
        self.observe: Optional[ObserveOptions] = observe or None
        self.trace: Optional[TraceSink] = (
            self.observe.build_sink() if self.observe else None)
        self.observers: List[Optional[CommandObserver]] = []
        self.controllers: List[ChannelController] = []
        for index in range(config.channels):
            channel = config.build_channel()
            observer = (CommandObserver(index, channel, self.trace)
                        if self.observe else None)
            self.observers.append(observer)
            self.controllers.append(ChannelController(
                channel, config.queue, config.idle_close_ps,
                observer=observer, incremental=config.incremental,
                refresh_policy=config.refresh_policy))

    def controller_for(self, address: int):
        """(controller, coords, channel index) serving this address."""
        coords = self.mapping.decode(address)
        return self.controllers[coords.channel], coords, coords.channel


@dataclass
class SimulationResult:
    """Everything the experiments need from one run."""

    config_name: str
    #: Per-core IPC at the core's own clock.
    ipcs: List[float]
    #: Per-core finish times (ps).
    finish_times: List[int]
    #: Merged controller statistics.
    stats: ControllerStats
    #: Merged energy counters.
    energy: EnergyMeter
    #: Precharge counts by cause, summed over channels (Fig. 13b).
    precharge_causes: Dict[PrechargeCause, int]
    #: Total simulated time = latest core finish (ps).
    elapsed_ps: int = 0
    #: Total memory transactions served.
    transactions: int = 0
    #: Host wall-clock seconds spent in the event loop (perf counter;
    #: like peeks/candidates_built it does not feed the digest).
    wall_time_s: float = 0.0
    #: Cycle-accounting report when the run was observed (``observe=``
    #: on :class:`MemorySystem` / :func:`run_traces`); ``None``
    #: otherwise.  Observability never feeds the digest.
    accounting: Optional[AccountingReport] = None
    #: Per-command event trace when tracing was requested; ``None``
    #: otherwise.
    trace: Optional[TraceSink] = None

    @property
    def plane_conflict_precharge_fraction(self) -> float:
        """Fraction of precharges triggered by plane conflicts."""
        total = sum(self.precharge_causes.values())
        if not total:
            return 0.0
        return self.precharge_causes[PrechargeCause.PLANE_CONFLICT] / total

    @property
    def ewlr_hit_rate(self) -> float:
        if not self.stats.acts:
            return 0.0
        return self.stats.ewlr_hits / self.stats.acts

    def digest(self) -> str:
        """Stable hash of every architecturally visible outcome.

        Two runs are behaviourally identical iff their digests match:
        per-core IPCs and finish times, every command/latency counter,
        energy events, and the precharge-cause split all feed the hash.
        Perf counters (peeks, candidates built) deliberately do *not* --
        they describe scheduler effort, not scheduled behaviour.
        """
        s = self.stats
        e = self.energy
        parts = [
            self.config_name,
            ",".join(repr(v) for v in self.ipcs),
            ",".join(str(v) for v in self.finish_times),
            f"{s.commands_issued},{s.acts},{s.ewlr_hits},{s.columns},"
            f"{s.precharges}",
            ",".join(str(v) for v in sorted(s.read_latencies)),
            f"{e.activations},{e.ewlr_hit_activations},{e.precharges},"
            f"{e.partial_precharges},{e.reads},{e.writes}",
            # The refresh cause joins the serialization only once it
            # fires: refresh-off runs must keep the exact pre-refresh
            # digest strings (the other causes keep their legacy
            # always-present zeros).
            ",".join(f"{c.value}:{n}"
                     for c, n in sorted(self.precharge_causes.items(),
                                        key=lambda kv: kv[0].value)
                     if n or c is not PrechargeCause.REFRESH),
            f"{self.elapsed_ps},{self.transactions}",
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()


class DeadlockError(RuntimeError):
    """The simulator made no progress; indicates a modelling bug."""


class CommandBudgetExceeded(RuntimeError):
    """The run hit the caller's ``max_commands`` budget.

    Distinct from :class:`DeadlockError`: the simulator was still making
    progress, the caller just capped how long it may run.
    """


class Simulator:
    """Run a set of trace cores against one memory system.

    ``park_admission`` selects the admission strategy for cores whose
    target channel queue is full: ``True`` (the default) parks them in
    a per-channel wait list and re-arms them when that controller
    retires a transaction; ``False`` keeps the historical busy-retry
    (the failed arrival re-enters the heap and re-probes every
    iteration).  Both produce identical digests -- parking only skips
    side-effect-free ``has_room`` probes that were bound to fail.
    """

    def __init__(self, system: MemorySystem,
                 cores: List[TraceCore],
                 park_admission: bool = True) -> None:
        self.system = system
        self.cores = cores
        self.now = 0
        self.park_admission = park_admission
        #: Cached scheduler proposals per channel, invalidated on change.
        self._peeks: List = [None] * len(system.controllers)
        #: Each channel's ``Scheduler.best``, bound once: the loop asks
        #: the scheduler directly instead of through
        #: ``ChannelController.peek``.
        self._bests = [c.scheduler.best for c in system.controllers]
        self._dirty = [True] * len(system.controllers)
        #: Min-heap of (ready time, core id) arrival events; cores whose
        #: next access is BLOCKED have no entry until a read completion
        #: re-inserts them, and cores parked on a full queue have no
        #: entry until room opens on their channel.
        self._arrivals: List[Tuple[int, int]] = []
        #: Wake-on-room wait lists: per channel, the (ready, core id)
        #: heap entries of cores whose admission failed on a full
        #: queue.  Re-armed wholesale when that controller retires a
        #: transaction (the only event that frees room).
        self._parked: List[List[Tuple[int, int]]] = [
            [] for _ in system.controllers]
        #: Core ids currently parked (guards against double-parking a
        #: core whose stale heap duplicate -- e.g. pushed by a read
        #: completion -- fails admission again while parked).
        self._parked_cores: set = set()

    # -- internals ---------------------------------------------------------

    def _try_enqueue(self, core: TraceCore, ready: int) -> bool:
        entry = core.peek_entry()
        controller, coords, idx = self.system.controller_for(entry.address)
        if not controller.has_room(not entry.is_write):
            if self.park_admission:
                # Park under the target channel; _commit re-arms the
                # entry when this controller retires a transaction.  A
                # core can only be parked once -- duplicates (stale
                # heap entries) are dropped here and re-created from
                # the parked entry on wake.
                cid = core.core_id
                if cid not in self._parked_cores:
                    self._parked_cores.add(cid)
                    self._parked[idx].append((ready, cid))
            return False
        time = ready if ready > self.now else self.now
        core.pop_request(time)
        txn = Transaction(
            _WRITE if entry.is_write else _READ,
            entry.address, coords, core.core_id,
            core.instruction_index_of_last_request())
        controller.enqueue(txn, time)
        self.now = time
        self._dirty[idx] = True
        return True

    def _commit(self, idx: int, candidate) -> None:
        controller = self.system.controllers[idx]
        completed = controller.commit(candidate)
        if candidate.issue_time > self.now:
            self.now = candidate.issue_time
        self._dirty[idx] = True
        if completed and self._parked[idx]:
            # A retired transaction freed queue room: wake every core
            # parked on this channel.  Entries re-enter the heap under
            # their original (ready, core id) keys, so the admission
            # order after the wake matches what busy-retry would have
            # tried on its next iteration.
            for item in self._parked[idx]:
                heapq.heappush(self._arrivals, item)
                self._parked_cores.discard(item[1])
            self._parked[idx].clear()
        for txn in completed:
            if txn.is_read and txn.core >= 0:
                core = self.cores[txn.core]
                core.complete_read(txn.instruction, txn.completion_time)
                # The completion may have unblocked the core (ROB no
                # longer pinned / dependent address now known).
                ready = core.next_request_time()
                if ready < BLOCKED:
                    heapq.heappush(self._arrivals,
                                   (ready, txn.core))

    # -- main loop -----------------------------------------------------------

    def run(self, max_commands: int = 1 << 31) -> SimulationResult:
        wall_start = time.perf_counter()
        commands = 0
        cores = self.cores
        heap = self._arrivals
        heap.clear()
        for parked in self._parked:
            parked.clear()
        self._parked_cores.clear()
        for core in cores:
            ready = core.next_request_time()
            if ready < BLOCKED:
                heap.append((ready, core.core_id))
        heapq.heapify(heap)
        heappush, heappop = heapq.heappush, heapq.heappop
        park = self.park_admission
        peeks, dirty, bests = self._peeks, self._dirty, self._bests
        channels = range(len(bests))
        try_enqueue, commit = self._try_enqueue, self._commit
        while True:
            # The earliest proposal over all channels (the lowest
            # channel index on a tie).  Only channels whose state
            # changed since their last peek are asked again.
            cmd_idx = cmd = None
            cmd_time = BLOCKED
            now = self.now
            for idx in channels:
                if dirty[idx]:
                    peeks[idx] = bests[idx](now)
                    dirty[idx] = False
                cand = peeks[idx]
                if cand is not None and (cmd is None
                                         or cand.issue_time < cmd_time):
                    cmd, cmd_idx, cmd_time = cand, idx, cand.issue_time

            # All ready core requests, earliest first.  Cores whose target
            # queue is full must not head-of-line-block other cores: a
            # failed admission parks in the channel's wait list until
            # room opens (or, under busy-retry, is set aside and retried
            # next iteration).
            enqueued = False
            deferred = None
            while heap:
                ready, cid = heap[0]
                if ready > cmd_time:
                    # Checked before the staleness probe: a core's ready
                    # time never drops below its heap key until it pops
                    # a request, so a stale top entry that is already
                    # too late stays too late once refreshed.
                    break
                core = cores[cid]
                actual = core.next_request_time()
                if actual != ready:
                    # Stale entry (a completion re-inserted this core).
                    heappop(heap)
                    if actual < BLOCKED:
                        heappush(heap, (actual, cid))
                    continue
                heappop(heap)
                if try_enqueue(core, ready):
                    enqueued = True
                    nxt = core.next_request_time()
                    if nxt < BLOCKED:
                        heappush(heap, (nxt, cid))
                    break
                if park:
                    continue  # parked under its channel by _try_enqueue
                if deferred is None:
                    deferred = []
                deferred.append((ready, cid))
            if deferred:
                for item in deferred:
                    heappush(heap, item)
            if enqueued:
                continue

            if cmd is None:
                if all(core.done for core in self.cores):
                    break
                if self._parked_cores:
                    raise DeadlockError(
                        "cores parked on a full queue but no channel has "
                        "a command pending -- lost a wake-on-room signal?")
                raise DeadlockError(
                    "no events but cores unfinished -- lost a completion?")
            commit(cmd_idx, cmd)
            commands += 1
            if commands >= max_commands:
                raise CommandBudgetExceeded(
                    f"stopped after {max_commands} commands "
                    f"(raise max_commands to simulate further)")
        result = self._result()
        result.wall_time_s = time.perf_counter() - wall_start
        return result

    def _result(self) -> SimulationResult:
        return collect_result(self.system, self.cores)


def collect_result(system: MemorySystem,
                   cores: List[TraceCore]) -> SimulationResult:
    """Aggregate a finished run into a :class:`SimulationResult`.

    A pure function of the post-run system and core state: merged
    controller statistics, energy and precharge causes, per-core IPCs
    and finish times, and the accounting report when observed.
    """
    stats = ControllerStats()
    energy = EnergyMeter(system.config.energy)
    causes = {cause: 0 for cause in PrechargeCause}
    for controller in system.controllers:
        controller.collect_perf_counters()
        stats.merge(controller.stats)
        energy.merge(controller.channel.energy)
        for cause, n in controller.channel.precharge_causes.items():
            causes[cause] += n
    finish = [core.finish_time() for core in cores]
    elapsed = max(finish) if finish else 0
    return SimulationResult(
        config_name=system.config.name,
        ipcs=[core.ipc() for core in cores],
        finish_times=finish,
        stats=stats,
        energy=energy,
        precharge_causes=causes,
        elapsed_ps=elapsed,
        transactions=stats.columns,
        accounting=collect_report(system.config.name,
                                  system.observers, elapsed),
        trace=system.trace,
    )


def run_traces(config: SystemConfig, traces, core_config=None,
               observe=None) -> SimulationResult:
    """Convenience: build a system, one core per trace, and run.

    ``observe`` (``True`` or an
    :class:`~repro.sim.accounting.ObserveOptions`) attaches cycle
    accounting / event tracing; the result then carries
    ``result.accounting`` (and ``result.trace``).
    """
    system = MemorySystem(config, observe=observe)
    cc = core_config or CoreConfig()
    cores = [TraceCore(trace, cc, core_id=i)
             for i, trace in enumerate(traces)]
    return Simulator(system, cores).run()
