"""Memory transactions and DRAM coordinates.

A :class:`Transaction` is one cache-line read or write as seen by the memory
controller; :class:`DramCoordinates` is the fully decoded DRAM location the
address mapping produced for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class TransactionKind(enum.Enum):
    READ = "read"
    WRITE = "write"


#: Bound once: an Enum member load costs several global loads.
_READ = TransactionKind.READ


@dataclass(frozen=True)
class DramCoordinates:
    """A decoded DRAM location.

    ``bank`` is the bank index *within* its bank group; ``global_bank``
    flattens (group, bank).  ``subbank`` is 0 for full-bank organisations
    and 0/1 (left/right) for sub-banked ones.  ``column`` indexes cache
    lines within the (sub-)bank row.
    """

    channel: int
    rank: int
    bank_group: int
    bank: int
    subbank: int
    row: int
    column: int

    def global_bank(self, banks_per_group: int) -> int:
        return self.bank_group * banks_per_group + self.bank

    def bank_key(self, banks_per_group: int) -> tuple:
        """Hashable identity of the physical bank this maps to."""
        return (self.channel, self.rank,
                self.global_bank(banks_per_group))


@dataclass(slots=True, eq=False)
class Transaction:
    """One cache-line memory request flowing through the controller.

    Equality is identity: two requests for the same line are distinct
    transactions, so queue removal must drop the exact object passed in.
    """

    kind: TransactionKind
    address: int
    coords: DramCoordinates
    #: Core that issued the request (index into the mix), -1 for synthetic.
    core: int = -1
    #: Position in the core's instruction stream (for ROB accounting).
    instruction: int = 0
    #: Time the request entered the controller queue (ps).
    arrival_time: int = -1
    #: Time the column command's data burst completed (ps); -1 if pending.
    completion_time: int = -1
    #: Scheduler caches (filled in by the controller on enqueue): the
    #: flattened bank index, target row slot, and the row's plane / MWL
    #: tag under the run's layout.  -1 / None mean "not computed yet".
    bank_index: int = -1
    slot: Optional[tuple] = None
    plane: Optional[int] = None
    mwl: Optional[int] = None
    #: Enqueue sequence number within the channel, assigned by the
    #: scheduler; the deterministic last-resort tie-break in FR-FCFS
    #: candidate selection.
    seq: int = -1
    #: Whether this is a read; fixed by ``kind`` and read on every
    #: command's path, so stored once instead of re-derived.
    is_read: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.is_read = self.kind is _READ

    @property
    def queueing_latency(self) -> int:
        """Arrival to completion, the paper's Fig. 16a metric."""
        if self.completion_time < 0 or self.arrival_time < 0:
            raise ValueError("transaction has not completed")
        return self.completion_time - self.arrival_time
