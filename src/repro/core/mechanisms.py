"""ERUCA mechanism configuration.

:class:`EruConfig` says which of the paper's mechanisms are active on a
sub-banked organisation:

* ``planes`` -- number of shared row-address latch sets per bank (VSB).
* ``ewlr`` -- per-sub-bank LWL_SEL latches (EWLR, Section IV).
* ``rap`` -- per-sub-bank plane-ID permutation (RAP, Section IV).
* ``ddb`` -- dual data bus (Section V).

Three more fields hold the design choices the ablation sweep varies
(``repro run ablation``): where the plane ID sits in the row address,
where the sub-bank ID sits in the physical address, and whether the
DDB guard windows apply.  Each is marked :data:`OMIT_AT_DEFAULT`, so a
config digest leaves it out while it holds its default.

The named constructors match the configurations evaluated in Figs. 12-15.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.controller.mapping import PlanePlacement, RowLayout

#: Field metadata key: a config digest omits a field marked with it
#: while the field holds its default, so adding such a field moves no
#: digest and no store key.
OMIT_AT_DEFAULT = "omit_at_default"


@dataclass(frozen=True)
class EruConfig:
    """Which ERUCA mechanisms are enabled, and the plane geometry."""

    planes: int = 4
    ewlr: bool = True
    rap: bool = True
    ddb: bool = True
    ewlr_bits: int = 3
    row_bits: int = 16
    #: Row bits the plane ID comes from (Fig. 9's two mappings); None
    #: derives the paper's choice from ``ewlr``/``rap``, see
    #: :meth:`row_layout`.  JSON names (``"lsb"``/``"msb"``) are
    #: accepted.
    plane_placement: Optional[PlanePlacement] = field(
        default=None, metadata={OMIT_AT_DEFAULT: True})
    #: Sub-bank ID among the frequently-changing low address bits
    #: (Fig. 9); False parks it just below the row bits.
    subbank_low: bool = field(default=True,
                              metadata={OMIT_AT_DEFAULT: True})
    #: Apply the tTCW/tTWTRW two-command windows on a DDB channel
    #: (Section V); False bounds what DDB could do without the guard.
    ddb_windows: bool = field(default=True,
                              metadata={OMIT_AT_DEFAULT: True})

    def __post_init__(self) -> None:
        if self.planes < 1 or self.planes & (self.planes - 1):
            raise ValueError("planes must be a power of two >= 1")
        if isinstance(self.plane_placement, str):
            object.__setattr__(self, "plane_placement",
                               PlanePlacement(self.plane_placement))

    @property
    def name(self) -> str:
        """The paper's label for this combination, e.g.
        ``VSB(EWLR+RAP,4P)+DDB`` (the Fig. 12 legend)."""
        if not (self.ewlr or self.rap or self.ddb):
            return f"VSB(naive,{self.planes}P)"
        parts = []
        if self.ewlr:
            parts.append("EWLR")
        if self.rap:
            parts.append("RAP")
        label = "+".join(parts) if parts else "naive"
        suffix = "+DDB" if self.ddb else ""
        return f"VSB({label},{self.planes}P){suffix}"

    def row_layout(self) -> RowLayout:
        """The row-address field layout this configuration implies.

        Fig. 9: with RAP the plane ID comes from the row MSBs (and RAP
        inverts them on one sub-bank); with EWLR alone the plane ID comes
        from the row LSBs so that spatially-adjacent rows land in
        different planes.  Naive VSB planes are contiguous row regions
        (row MSBs), as drawn in Fig. 3a/3b.  ``plane_placement``
        overrides that choice.
        """
        placement = self.plane_placement
        if placement is None:
            placement = (PlanePlacement.LSB if self.ewlr and not self.rap
                         else PlanePlacement.MSB)
        return RowLayout(
            row_bits=self.row_bits,
            plane_count=self.planes,
            plane_placement=placement,
            ewlr_bits=self.ewlr_bits if self.ewlr else 0,
        )

    # -- the paper's named configurations ------------------------------

    @classmethod
    def naive(cls, planes: int = 4) -> "EruConfig":
        """VSB with no conflict avoidance and no DDB (Fig. 12 leftmost)."""
        return cls(planes=planes, ewlr=False, rap=False, ddb=False)

    @classmethod
    def naive_ddb(cls, planes: int = 4) -> "EruConfig":
        """Naive VSB plus the dual data bus -- isolates DDB's
        contribution from conflict avoidance (Fig. 12/13)."""
        return cls(planes=planes, ewlr=False, rap=False, ddb=True)

    @classmethod
    def ewlr_only(cls, planes: int = 4, ddb: bool = True) -> "EruConfig":
        """EWLR without RAP: conflict avoidance by shared main
        wordlines alone (a Fig. 13 ablation arm)."""
        return cls(planes=planes, ewlr=True, rap=False, ddb=ddb)

    @classmethod
    def rap_only(cls, planes: int = 4, ddb: bool = True) -> "EruConfig":
        """RAP without EWLR: conflict avoidance by plane permutation
        alone (a Fig. 13 ablation arm)."""
        return cls(planes=planes, ewlr=False, rap=True, ddb=ddb)

    @classmethod
    def full(cls, planes: int = 4, ddb: bool = True) -> "EruConfig":
        """EWLR + RAP (+ DDB): the headline ERUCA configuration."""
        return cls(planes=planes, ewlr=True, rap=True, ddb=ddb)
