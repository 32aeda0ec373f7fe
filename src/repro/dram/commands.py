"""DRAM command vocabulary.

The controller drives the device with a small set of commands.  ERUCA adds
``PRE_PARTIAL`` (Section VI-A of the paper): precharge one sub-bank's logic
and data path without deactivating the main wordline it shares with its
paired sub-bank inside the same EWLR.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class CommandKind(enum.Enum):
    """The DRAM command opcodes the controller may issue."""

    ACT = "activate"
    RD = "read"
    WR = "write"
    PRE = "precharge"
    #: ERUCA partial precharge: close one sub-bank, keep the shared MWL up.
    PRE_PARTIAL = "partial_precharge"
    #: All-bank refresh: the whole rank is busy for tRFC.
    REF = "refresh"
    #: Per-bank refresh: one bank (or, under SARP, one sub-bank) is busy
    #: for tRFCpb while the rest of the rank keeps serving.
    REFPB = "refresh_per_bank"

    @property
    def is_column(self) -> bool:
        """Column commands occupy the data bus; row commands do not."""
        return self in (CommandKind.RD, CommandKind.WR)

    @property
    def is_precharge(self) -> bool:
        """Both full and ERUCA partial precharges close a row slot."""
        return self in (CommandKind.PRE, CommandKind.PRE_PARTIAL)


class PrechargeCause(enum.Enum):
    """Why the controller closed a row -- drives Fig. 13b.

    ``PLANE_CONFLICT`` precharges are the ones counted by the paper's
    "fraction of precharges triggered by plane conflicts" metric.
    """

    ROW_CONFLICT = "row_conflict"
    PLANE_CONFLICT = "plane_conflict"
    POLICY = "page_policy"
    #: Closed to make a (sub-)bank refreshable: refresh requires every
    #: slot in its scope precharged first.
    REFRESH = "refresh"

    #: Members are singletons compared by identity, so identity hashing
    #: is consistent; it keeps the per-precharge cause counters from
    #: calling ``Enum.__hash__`` (a Python-level function).  No set of
    #: members is ever iterated: dicts keep insertion order regardless.
    __hash__ = object.__hash__


@dataclass
class Command:
    """A single DRAM command bound for a specific (sub-)bank.

    ``subbank`` is 0/1 for sub-banked organisations and always 0 for full
    banks.  ``row`` is meaningful for ACT only.  ``cause`` is set for
    precharges so conflict statistics can be attributed.
    """

    kind: CommandKind
    channel: int
    rank: int
    bank: int
    subbank: int = 0
    row: int = 0
    cause: Optional[PrechargeCause] = None
    #: Stamped by the device model when issued.
    issue_time: int = field(default=-1, compare=False)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        where = f"ch{self.channel}.bk{self.bank}.sb{self.subbank}"
        if self.kind is CommandKind.ACT:
            return f"{self.kind.name} {where} row={self.row:#x}"
        return f"{self.kind.name} {where}"
