"""DRAM energy accounting.

The paper's Fig. 16b reports *relative* energy (ERUCA and Ideal vs. DDR4)
split into background, activation, and total.  We therefore model energy as
rank-level per-event quantities plus a background power, with magnitudes in
the right ballpark for a DDR4 x4 RDIMM rank (derived from Micron 8Gb DDR4
IDD figures); only the ratios matter for the reproduction.

Two paper-specific effects:

* an **EWLR hit** skips driving the already-raised main wordline, saving
  18% of the Vpp charge-pump energy of an activation (Section IV, based on
  the Rambus power model);
* **Half-DRAM** activates half-length wordlines, halving activation energy
  (its original purpose, Zhang et al. [4]).
"""

from __future__ import annotations

from dataclasses import dataclass, field

PS_PER_S = 1_000_000_000_000


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies (nJ) and background power (W) for one channel."""

    #: Row activation (ACT), rank level, one 4 KiB rank-slice.
    act_nj: float = 10.0
    #: Precharge (PRE).
    pre_nj: float = 5.0
    #: Fraction of the ACT energy drawn from the Vpp wordline supply.
    vpp_fraction: float = 0.35
    #: Fraction of Vpp activation energy spent driving the MWL -- the part
    #: an EWLR hit skips (paper: "saves 18% of Vpp power").
    ewlr_mwl_fraction: float = 0.18
    #: One read burst including I/O.
    rd_nj: float = 6.0
    #: One write burst including I/O.
    wr_nj: float = 6.5
    #: Background (standby + clocking) power per channel, W.
    background_w: float = 0.6
    #: Activation-energy scale for half-wordline organisations (Half-DRAM).
    act_scale: float = 1.0

    @property
    def ewlr_hit_saving_nj(self) -> float:
        """Energy saved by one EWLR-hit activation."""
        return self.act_nj * self.act_scale * \
            self.vpp_fraction * self.ewlr_mwl_fraction


@dataclass
class EnergyMeter:
    """Event counters and accumulated energy for one simulation."""

    params: EnergyParams = field(default_factory=EnergyParams)
    activations: int = 0
    ewlr_hit_activations: int = 0
    precharges: int = 0
    partial_precharges: int = 0
    reads: int = 0
    writes: int = 0

    def record_act(self, ewlr_hit: bool = False) -> None:
        """Count an ACT; EWLR hits are cheaper (Section IV's 18% Vpp)."""
        self.activations += 1
        if ewlr_hit:
            self.ewlr_hit_activations += 1

    def record_precharge(self, partial: bool = False) -> None:
        """Count a PRE, noting ERUCA partial precharges (Section VI-A)."""
        self.precharges += 1
        if partial:
            self.partial_precharges += 1

    def record_read(self) -> None:
        """Count one read burst."""
        self.reads += 1

    def record_write(self) -> None:
        """Count one write burst."""
        self.writes += 1

    # -- energy roll-ups (nJ) -------------------------------------------

    def activation_energy_nj(self) -> float:
        """ACT+PRE energy, net of EWLR-hit savings (Fig. 16b "act")."""
        p = self.params
        base = self.activations * p.act_nj * p.act_scale
        saved = self.ewlr_hit_activations * p.ewlr_hit_saving_nj
        return base - saved + self.precharges * p.pre_nj

    def access_energy_nj(self) -> float:
        """RD/WR burst energy."""
        return self.reads * self.params.rd_nj + \
            self.writes * self.params.wr_nj

    def background_energy_nj(self, elapsed_ps: int) -> float:
        """Standby power integrated over the run (Fig. 16b "bg")."""
        return self.params.background_w * elapsed_ps / PS_PER_S * 1e9

    def total_energy_nj(self, elapsed_ps: int) -> float:
        """Activation + access + background (the Fig. 16b total bar)."""
        return (self.activation_energy_nj() + self.access_energy_nj()
                + self.background_energy_nj(elapsed_ps))

    def merge(self, other: "EnergyMeter") -> None:
        """Fold another channel's counters into this one."""
        self.activations += other.activations
        self.ewlr_hit_activations += other.ewlr_hit_activations
        self.precharges += other.precharges
        self.partial_precharges += other.partial_precharges
        self.reads += other.reads
        self.writes += other.writes
