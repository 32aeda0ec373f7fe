"""ROB-limited trace-driven core model.

Matches the paper's methodology at the abstraction the memory study needs
(Tab. III: 4 GHz out-of-order x86, issue width 8, ROB 192): the core
executes its trace's non-memory instructions at the issue rate, sends
memory accesses to the controller as soon as the frontier reaches them,
and stalls only when the reorder buffer fills behind an incomplete read --
i.e. when the next instruction to fetch is more than ``rob_size``
instructions ahead of the oldest read still waiting for data.

The model is fully event-driven: :meth:`next_request_time` computes when
the next access can be handed to the controller from the frontier time and
the ROB barrier, returning ``BLOCKED`` while an unresolved read pins the
window.  Completions arrive via :meth:`complete_read`.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, fields
from typing import Deque, Optional

from repro.cpu.trace import Trace, TraceEntry

#: Sentinel "cannot issue until a read completes" timestamp.
BLOCKED = 1 << 62


@dataclass(frozen=True)
class CoreConfig:
    """Tab. III processor parameters."""

    clock_hz: float = 4e9
    issue_width: int = 8
    rob_size: int = 192

    @property
    def cycle_ps(self) -> int:
        return int(round(1e12 / self.clock_hz))

    @property
    def instruction_time_ps(self) -> float:
        """Average time to issue one non-memory instruction."""
        return self.cycle_ps / self.issue_width

    def scaled(self, factor: float) -> "CoreConfig":
        """CPU clock scaled by ``factor`` (Fig. 14 scales CPU with bus)."""
        return CoreConfig(self.clock_hz * factor, self.issue_width,
                          self.rob_size)

    def key_payload(self) -> dict:
        """``{field name: value}`` for every field: the core part of a
        result-store key.

        Built once per object and kept on it, as
        :meth:`~repro.sim.config.SystemConfig.digest` keeps its digest:
        the config is frozen, so the payload cannot change.  The memo is
        not a field, so equality, hashing and
        :func:`dataclasses.replace` never see it.  Callers must not
        mutate the returned dict.
        """
        payload = self.__dict__.get("_key_payload")
        if payload is None:
            payload = {f.name: getattr(self, f.name)
                       for f in fields(self)}
            object.__setattr__(self, "_key_payload", payload)
        return payload

    def key_text(self) -> str:
        """:meth:`key_payload` as the canonical JSON a store key embeds
        (sorted keys, compact separators).  Built once per object and
        kept on it, like the payload."""
        text = self.__dict__.get("_key_text")
        if text is None:
            text = json.dumps(self.key_payload(), sort_keys=True,
                              separators=(",", ":"))
            object.__setattr__(self, "_key_text", text)
        return text


class TraceCore:
    """One core executing one trace against the memory system."""

    def __init__(self, trace: Trace, config: CoreConfig = CoreConfig(),
                 core_id: int = 0) -> None:
        self.trace = trace
        self.config = config
        self.core_id = core_id
        #: The trace's (immutable) entry tuple and its length, bound once.
        self._entries = trace.entries
        self._length = len(trace.entries)
        self._index = 0                     # next trace entry
        self._instructions_issued = 0       # instructions before entry
        self._frontier_ps = 0.0             # execution-front time
        #: Reads in flight: (instruction index, completion time or None).
        self._inflight: Deque[list] = deque()
        self._last_read_completion = 0
        self._finish_time: Optional[int] = None
        #: Sticky retire barrier: once the ROB forces fetch to wait for a
        #: completion, that lower bound holds for all later fetches too.
        self._retire_barrier = 0
        #: Most recent read, for address-dependent (pointer-chase)
        #: accesses: instruction index and completion time (None while
        #: the data is outstanding).
        self._dep_read_index: Optional[int] = None
        self._dep_read_completion: Optional[int] = None
        #: Memoised next_request_time(); the answer only changes when
        #: this core pops a request or one of its reads completes.
        self._ready_cache: Optional[int] = None
        self._instr_ps = config.instruction_time_ps

    # -- progress ----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._index >= self._length and not self._pending_reads()

    def _pending_reads(self) -> bool:
        return any(item[1] is None for item in self._inflight)

    def _rob_barrier(self, target_index: int) -> int:
        """Latest completion among reads the ROB forces to retire first.

        Returns BLOCKED if any such read has not completed yet.
        """
        horizon = target_index - self.config.rob_size
        while self._inflight and self._inflight[0][0] <= horizon:
            completion = self._inflight[0][1]
            if completion is None:
                return BLOCKED
            self._retire_barrier = max(self._retire_barrier, completion)
            self._inflight.popleft()
        return self._retire_barrier

    def next_request_time(self) -> int:
        """When the next memory access is ready for the controller.

        ``BLOCKED`` while the ROB is full behind an incomplete read;
        ``BLOCKED`` also once the trace is exhausted.

        Memoised: the inputs only change through :meth:`pop_request` or
        :meth:`complete_read`, which drop the cache.
        """
        cached = self._ready_cache
        if cached is not None:
            return cached
        self._ready_cache = ready = self._compute_request_time()
        return ready

    def _compute_request_time(self) -> int:
        index = self._index
        if index >= self._length:
            return BLOCKED
        entry = self._entries[index]
        barrier = self._rob_barrier(self._instructions_issued + entry.gap + 1)
        if barrier == BLOCKED:
            return BLOCKED
        if entry.depends and self._dep_read_index is not None:
            # Pointer chase: the address comes from the previous read.
            if self._dep_read_completion is None:
                return BLOCKED
            barrier = max(barrier, self._dep_read_completion)
        compute = self._frontier_ps + entry.gap * self._instr_ps
        return max(int(compute), barrier)

    def peek_entry(self) -> TraceEntry:
        """The next access this core will issue (trace must not be done)."""
        return self._entries[self._index]

    def pop_request(self, issue_time: int) -> TraceEntry:
        """Hand the next access to the controller at ``issue_time``."""
        ready = self.next_request_time()
        if ready == BLOCKED:
            raise ValueError("core is blocked; no request to pop")
        if issue_time < ready:
            raise ValueError(f"issue at {issue_time} before ready {ready}")
        entry = self._entries[self._index]
        index = self._instructions_issued + entry.gap + 1
        if not entry.is_write:
            self._inflight.append([index, None])
            self._dep_read_index = index
            self._dep_read_completion = None
        self._instructions_issued = index
        # The access instruction itself occupies one issue slot.
        self._frontier_ps = issue_time + self._instr_ps
        self._index += 1
        self._ready_cache = None
        return entry

    def instruction_index_of_last_request(self) -> int:
        """Instruction index assigned to the most recent pop_request()."""
        return self._instructions_issued

    def complete_read(self, instruction_index: int,
                      completion_time: int) -> None:
        """Mark the read issued at ``instruction_index`` complete.

        DRAM may return data out of order across banks; completions are
        matched to the exact in-flight read so the ROB barrier reflects
        each read's true latency.
        """
        for item in self._inflight:
            if item[0] == instruction_index and item[1] is None:
                item[1] = completion_time
                self._last_read_completion = max(
                    self._last_read_completion, completion_time)
                if instruction_index == self._dep_read_index:
                    self._dep_read_completion = completion_time
                self._ready_cache = None
                return
        raise ValueError(
            f"no outstanding read at instruction {instruction_index}")

    # -- results -----------------------------------------------------------

    def finish_time(self) -> int:
        """Time when the last instruction retires."""
        if not self.done:
            raise ValueError("core has not finished its trace")
        if self._finish_time is None:
            tail = self.trace.tail_instructions * \
                self.config.instruction_time_ps
            self._finish_time = max(
                int(math.ceil(self._frontier_ps + tail)),
                self._last_read_completion)
        return self._finish_time

    def ipc(self) -> float:
        """Committed instructions per CPU cycle over the whole run."""
        elapsed = self.finish_time()
        if elapsed <= 0:
            return float(self.config.issue_width)
        cycles = elapsed / self.config.cycle_ps
        return self.trace.total_instructions / cycles

    @property
    def outstanding_reads(self) -> int:
        return sum(1 for item in self._inflight if item[1] is None)
