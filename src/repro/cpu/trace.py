"""Memory-access trace format.

A trace is a sequence of :class:`TraceEntry` records: each carries the
number of non-memory instructions executed since the previous memory
access (the *gap*), the access kind, and its physical address.  This is
the USIMM trace abstraction the paper's methodology builds on -- enough to
drive a ROB-limited core model without simulating a pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, TextIO


@dataclass(frozen=True)
class TraceEntry:
    """One memory access preceded by ``gap`` non-memory instructions.

    ``depends`` marks an address-dependent access (pointer chasing): it
    cannot issue before the *previous read's* data returns, serialising
    the chain the way a real out-of-order core must.
    """

    gap: int
    is_write: bool
    address: int
    depends: bool = False

    def __post_init__(self) -> None:
        if self.gap < 0:
            raise ValueError("gap must be non-negative")
        if self.address < 0:
            raise ValueError("address must be non-negative")


@dataclass(frozen=True)
class Trace:
    """An immutable trace plus its bookkeeping totals."""

    entries: tuple
    #: Non-memory instructions after the last access (program epilogue).
    tail_instructions: int = 0
    name: str = "trace"

    @classmethod
    def from_entries(cls, entries: Iterable[TraceEntry],
                     tail_instructions: int = 0,
                     name: str = "trace") -> "Trace":
        return cls(tuple(entries), tail_instructions, name)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    @property
    def total_instructions(self) -> int:
        """All instructions, counting each memory access as one."""
        return (sum(e.gap for e in self.entries) + len(self.entries)
                + self.tail_instructions)

    @property
    def memory_accesses(self) -> int:
        return len(self.entries)

    @property
    def reads(self) -> int:
        return sum(1 for e in self.entries if not e.is_write)

    @property
    def writes(self) -> int:
        return sum(1 for e in self.entries if e.is_write)

    def mpki(self) -> float:
        """Memory accesses per thousand instructions."""
        total = self.total_instructions
        if not total:
            return 0.0
        return 1000.0 * self.memory_accesses / total


def write_trace(trace: Trace, stream: TextIO) -> None:
    """Serialise as ``gap R|W hex-address`` lines (USIMM-like)."""
    stream.write(f"# trace {trace.name} tail={trace.tail_instructions}\n")
    for e in trace.entries:
        kind = "W" if e.is_write else "R"
        dep = " D" if e.depends else ""
        stream.write(f"{e.gap} {kind} {e.address:#x}{dep}\n")


def read_trace(stream: TextIO, name: str = "trace") -> Trace:
    """Parse the :func:`write_trace` format."""
    entries: List[TraceEntry] = []
    tail = 0
    for line in stream:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line.split():
                if token.startswith("tail="):
                    tail = int(token[len("tail="):])
            continue
        fields = line.split()
        if len(fields) not in (3, 4):
            raise ValueError(f"bad trace line {line!r}")
        gap_s, kind, addr_s = fields[:3]
        depends = len(fields) == 4 and fields[3] == "D"
        if kind not in ("R", "W"):
            raise ValueError(f"bad access kind {kind!r}")
        entries.append(TraceEntry(int(gap_s), kind == "W",
                                  int(addr_s, 16), depends))
    return Trace.from_entries(entries, tail, name)
