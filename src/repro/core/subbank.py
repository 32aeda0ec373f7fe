"""The VSB sub-bank plane-latch activation rules (paper Section IV, Fig. 5).

A sub-banked bank holds up to two active rows, one per sub-bank.  The two
sub-banks share ``n`` plane latch sets; whether a new activation is legal
depends on what the *other* sub-bank currently holds:

* different plane -> independent activation, no interaction;
* same plane, naive VSB -> legal only if the rows are *identical* (the
  shared latch can hold one row address), otherwise a **plane conflict**:
  the other sub-bank must be precharged first;
* same plane with EWLR -> legal whenever the MWL tags match (rows differ
  only in their LWL_SEL bits): an **EWLR hit**, which also skips the MWL
  charge-pump energy;
* RAP changes which plane a row lands in per sub-bank (handled by
  :meth:`repro.controller.mapping.RowLayout.plane_id`), it does not change
  the rules here.

This module is pure decision logic with no timing: the executable
specification of these rules.  The timed bank FSM implements them again
in :meth:`repro.dram.bank.Bank.classify` (with cached plane/MWL fields),
and ``tests/core/test_differential.py`` holds it to this module on every
mechanism combination.  Both read the plane ID and MWL tag from
:class:`repro.controller.mapping.RowLayout`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.controller.mapping import RowLayout


class ActivationVerdict(enum.Enum):
    """Outcome of asking "may sub-bank ``s`` activate row ``r`` now?"."""

    #: Target row already active in the target sub-bank.
    ROW_HIT = "row_hit"
    #: Target sub-bank idle, no plane interaction: plain ACT.
    ACT_OK = "act_ok"
    #: Target sub-bank idle; the paired sub-bank holds a row in the same
    #: plane with a matching MWL tag: ACT allowed, Vpp energy saved.
    EWLR_HIT = "ewlr_hit"
    #: Target sub-bank holds a different row: precharge *own* sub-bank.
    OWN_ROW_CONFLICT = "own_row_conflict"
    #: Paired sub-bank holds a conflicting row in the same plane:
    #: precharge the *other* sub-bank (inter-sub-bank row thrashing).
    PLANE_CONFLICT = "plane_conflict"


@dataclass
class SubbankPairState:
    """Active-row bookkeeping for one physical bank's two sub-banks.

    ``active`` maps sub-bank index (0 = left, 1 = right) to its open row,
    or ``None``.  The plane latches themselves need no separate state: a
    plane latch is "held" exactly when some sub-bank has an active row
    mapping to it, so conflicts are derivable from ``active`` alone.
    """

    layout: RowLayout
    ewlr_enabled: bool
    rap_enabled: bool

    def __post_init__(self) -> None:
        self.active: list = [None, None]

    def plane_of(self, row: int, subbank: int) -> int:
        """The plane latch set this row selects in this sub-bank.

        With RAP enabled the selection is permuted per sub-bank
        (Section IV-D), which is exactly what de-aliases same-plane
        collisions between the two sub-banks.
        """
        return self.layout.plane_id(row, subbank, self.rap_enabled)

    def open_row(self, subbank: int) -> Optional[int]:
        """The sub-bank's active row, or ``None`` when precharged."""
        return self.active[subbank]

    def classify(self, subbank: int, row: int) -> ActivationVerdict:
        """Apply the Fig. 5 operation flow to one target (subbank, row)."""
        own = self.active[subbank]
        if own == row:
            return ActivationVerdict.ROW_HIT
        if own is not None:
            return ActivationVerdict.OWN_ROW_CONFLICT
        other = self.active[1 - subbank]
        if other is None:
            return ActivationVerdict.ACT_OK
        own_plane = self.plane_of(row, subbank)
        other_plane = self.plane_of(other, 1 - subbank)
        if own_plane != other_plane:
            return ActivationVerdict.ACT_OK
        if self.ewlr_enabled:
            if self.layout.mwl_tag(other) == self.layout.mwl_tag(row):
                return ActivationVerdict.EWLR_HIT
            return ActivationVerdict.PLANE_CONFLICT
        # Naive VSB: the shared latch set holds one full row address, so
        # the sub-banks may only share a plane when the rows are identical.
        if other == row:
            return ActivationVerdict.ACT_OK
        return ActivationVerdict.PLANE_CONFLICT

    def activate(self, subbank: int, row: int) -> None:
        """Open ``row`` in ``subbank``; must be legal per Fig. 5.

        Raises ``ValueError`` on a conflicting activation -- the
        scheduler is expected to have issued the precharge the
        :meth:`classify` verdict called for first.
        """
        verdict = self.classify(subbank, row)
        if verdict not in (ActivationVerdict.ACT_OK,
                           ActivationVerdict.EWLR_HIT):
            raise ValueError(
                f"illegal activation of sb{subbank} row {row:#x}: {verdict}")
        self.active[subbank] = row

    def precharge(self, subbank: int) -> None:
        """Close the sub-bank's open row, releasing its plane latch."""
        if self.active[subbank] is None:
            raise ValueError(f"sub-bank {subbank} has no open row")
        self.active[subbank] = None

    def partial_precharge_possible(self, subbank: int) -> bool:
        """Whether closing ``subbank`` may keep the shared MWL raised.

        True exactly when both sub-banks sit in the same plane and EWLR
        (same MWL tag), i.e. the paired sub-bank still needs that MWL
        (paper Section VI-A, "Partial precharge").
        """
        own = self.active[subbank]
        other = self.active[1 - subbank]
        if own is None or other is None or not self.ewlr_enabled:
            return False
        return (self.plane_of(own, subbank)
                == self.plane_of(other, 1 - subbank)
                and self.layout.mwl_tag(own) == self.layout.mwl_tag(other))
