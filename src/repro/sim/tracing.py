"""Structured per-command event tracing.

Every committed DRAM command can be captured as a :class:`TraceEvent`:
*when* it issued, *where* (channel / bank / sub-bank / sub-array group),
*what* it was (ACT / RD / WR / PRE / PRE_PARTIAL / REF / REFPB and, for
precharges, the cause from :class:`~repro.dram.commands.PrechargeCause`),
and *why it waited* -- the stall bucket :mod:`repro.sim.accounting`
attributed to the gap since the channel's previous command.

The trace is collected by a :class:`TraceSink` shared by all channels of
one run and is exported as JSON-lines or CSV (``repro trace`` on the
command line).  Tracing is strictly an observer: enabling it never
changes a single issued command (the digest-identity tests in
``tests/sim/test_accounting.py`` prove it), and when it is disabled the
simulator pays only one ``is None`` check per committed command.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from typing import IO, Iterator, List, Optional

#: Column order of the CSV export; also the canonical schema of one
#: event (documented in docs/OBSERVABILITY.md).
TRACE_FIELDS = (
    "time_ps",
    "channel",
    "bank",
    "subbank",
    "group",
    "kind",
    "cause",
    "row",
    "core",
    "stall",
    "wait_ps",
)


@dataclass(slots=True)
class TraceEvent:
    """One committed DRAM command, with its stall attribution.

    ``wait_ps`` is the stall gap this command closed: the time from the
    channel's previous command becoming *done with the command bus* to
    this command's issue.  ``stall`` names the
    :class:`~repro.sim.accounting.StallBucket` that gap was charged to
    (``issue`` when the command issued back-to-back with no gap).
    """

    #: Issue time, integer picoseconds since simulation start.
    time_ps: int
    #: Channel index within the memory system.
    channel: int
    #: Flattened bank index within the channel; for ``REF``/``REFPB``
    #: the refresh scope (-1 = the whole rank).
    bank: int
    #: Sub-bank (0 for full-bank organisations, 0/1 for VSB-style); -1
    #: on a refresh of a whole bank or rank.
    subbank: int
    #: MASA sub-array group (0 unless the organisation has groups; for
    #: a precharge, the closed slot's group); -1 for refreshes.
    group: int
    #: Command opcode name: ``ACT`` / ``RD`` / ``WR`` / ``PRE`` /
    #: ``PRE_PARTIAL`` (ERUCA partial precharge) / ``REF`` (all-bank
    #: refresh) / ``REFPB`` (per-bank or per-sub-bank refresh).
    kind: str
    #: Precharge cause (``row_conflict`` / ``plane_conflict`` /
    #: ``page_policy`` / ``refresh``), empty for other commands.
    cause: str
    #: Row address for ACTs (-1 for commands that carry no row).
    row: int
    #: Issuing core (index into the mix) of an ACT/RD/WR; -1 for every
    #: precharge and refresh.
    core: int
    #: Stall bucket charged for the wait preceding this command.
    stall: str
    #: Length of that wait (ps); 0 for back-to-back issue.
    wait_ps: int


class TraceSink:
    """Collects :class:`TraceEvent` records for one simulation run.

    ``limit`` bounds memory on long runs: once reached, further events
    are counted in :attr:`dropped` instead of stored, and the exporters
    note the truncation.  The default (``None``) keeps everything.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit < 0:
            raise ValueError("trace limit must be non-negative")
        self.limit = limit
        self.events: List[TraceEvent] = []
        #: Events discarded after :attr:`limit` was reached.
        self.dropped = 0

    def record(self, event: TraceEvent) -> None:
        """Append one event (or count it as dropped past the limit)."""
        if self.limit is not None and len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    # -- exporters -------------------------------------------------------

    def to_dicts(self) -> List[dict]:
        """The events as plain dicts (the JSON schema)."""
        return [asdict(e) for e in self.events]

    def write_jsonl(self, fh: IO[str]) -> int:
        """Write one JSON object per line; returns the event count."""
        for event in self.events:
            fh.write(json.dumps(asdict(event), sort_keys=True))
            fh.write("\n")
        return len(self.events)

    def write_csv(self, fh: IO[str]) -> int:
        """Write a CSV with the :data:`TRACE_FIELDS` header."""
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        for event in self.events:
            d = asdict(event)
            writer.writerow([d[f] for f in TRACE_FIELDS])
        return len(self.events)
