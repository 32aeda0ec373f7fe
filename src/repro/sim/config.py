"""System configurations for every organisation in the paper's evaluation.

Each :class:`SystemConfig` fully determines a memory system: bank/bank-group
counts, sub-banking geometry, ERUCA mechanisms, bus policy, timings, and
address mapping.  The named constructors produce exactly the configurations
in Figs. 12-16:

=====================  ==============================================
constructor            paper label
=====================  ==============================================
``ddr4_baseline``      DDR4 (16 banks, 4 bank groups)
``bg32``               BG32 (32 banks, 8 groups, grouped timing)
``ideal32``            Ideal32 (32 banks, no bank-group penalty)
``vsb``                VSB(naive / EWLR / RAP / EWLR+RAP)(+DDB)
``paired_bank``        Paired-bank(EWLR+RAP)(+DDB)
``masa``               MASA4 / MASA8 (SALP)
``half_dram``          Half-DRAM
``masa_eruca``         MASA8 + ERUCA (with or without DDB)
``pcm_palp``           PCM-PALP (technology backend, not a paper point)
``gddr5``              GDDR5 (technology backend, not a paper point)
=====================  ==============================================

All organisations keep capacity constant (4 KiB rank-level rows; the
baseline's half-bank select bit is its row MSB, see
:func:`repro.controller.mapping.skylake_mapping`).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.controller.mapping import AddressMapping, skylake_mapping
from repro.controller.queue import QueueConfig
from repro.controller.scheduler import REFRESH_POLICIES
from repro.core.mechanisms import OMIT_AT_DEFAULT, EruConfig
from repro.dram.backends import get_backend
from repro.dram.bank import BankGeometry
from repro.dram.device import Channel
from repro.dram.power import EnergyParams
from repro.dram.resources import BusPolicy
from repro.dram.timing import TimingParams, ns


def canonical(value):
    """JSON-able form of a config value: enums by value, dataclasses as
    dicts of their fields, recursively.  A field marked
    :data:`~repro.core.mechanisms.OMIT_AT_DEFAULT` is left out while it
    holds its default."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for f in dataclasses.fields(value):
            item = getattr(value, f.name)
            if not (f.metadata.get(OMIT_AT_DEFAULT) and item == f.default):
                out[f.name] = canonical(item)
        return out
    return value


class Organization(enum.Enum):
    DDR4_16 = "ddr4_16"
    BG32 = "bg32"
    IDEAL32 = "ideal32"
    VSB = "vsb"
    PAIRED_BANK = "paired_bank"
    MASA = "masa"
    HALF_DRAM = "half_dram"
    MASA_ERUCA = "masa_eruca"


#: Sub-array interleave latency for MASA (the tSA of Kim et al. [2]).
DEFAULT_TSA_PS = ns(4)


def _ddr4_energy() -> EnergyParams:
    """The DDR4 power model: the ``dram`` backend's, the one place its
    numbers are written.  Read each time a config is built."""
    return get_backend("dram").energy


@dataclass(frozen=True)
class SystemConfig:
    """One complete memory-system configuration."""

    name: str
    organization: Organization
    bank_groups: int = 4
    banks_per_group: int = 4
    channels: int = 2
    eru: Optional[EruConfig] = None
    masa_groups: int = 1
    bus_frequency_hz: float = 1.333e9
    tSA: int = DEFAULT_TSA_PS
    queue: QueueConfig = field(default_factory=QueueConfig)
    energy: EnergyParams = field(default_factory=_ddr4_energy)
    #: Adaptive open-page idle-close threshold (ps); None keeps rows
    #: open until a conflict forces the precharge (pure open page).
    idle_close_ps: Optional[int] = None
    #: Record every issued command for post-hoc timing validation
    #: (:mod:`repro.dram.validation`).
    record_commands: bool = False
    #: Scheduler selection path, and the only switch that picks one:
    #: True runs the incremental scheduler, False the rebuild-everything
    #: reference path kept as its equivalence oracle.  The two are
    #: bit-identical, so the field stays out of the config digest.
    incremental: bool = True
    #: Four-activate window override in nanoseconds: None keeps the
    #: preset's value, 0 disables the window (the pre-tFAW model).
    tfaw_ns: Optional[float] = None
    #: All-bank refresh cycle time (``tRFC``) override in nanoseconds.
    #: None keeps the preset's value (refresh off -- the presets ship
    #: without it so historical digests are preserved); 0 forces it
    #: off; a positive value enables refresh with ``tREFI`` = 7.8 us
    #: and ``tRFCpb`` scaled from the 8Gb density grade.  Use
    #: ``refresh_density`` for the exact JEDEC grades.
    refresh_ns: Optional[float] = None
    #: Die density selecting a (tRFC, tRFCpb) row of the backend's
    #: ``refresh_grades_ns`` (DDR4: "4Gb" / "8Gb" / "16Gb").  Overrides
    #: ``refresh_ns``.
    refresh_density: Optional[str] = None
    #: Refresh scheduling policy, one of
    #: :data:`~repro.controller.scheduler.REFRESH_POLICIES` (checked even
    #: with refresh off, where it is unused): ``"baseline"`` on-deadline
    #: all-bank REF, ``"darp"`` deferred out-of-order per-bank refresh
    #: behind pending demand, ``"sarp"`` sub-bank refresh overlapped
    #: with the partner sub-bank's accesses (sub-banked organisations
    #: only: a flat bank has no partner sub-bank).
    refresh_policy: str = "baseline"
    #: Memory-technology backend supplying the timing-rule table,
    #: refresh grades, and power model (:mod:`repro.dram.backends`):
    #: ``"dram"`` (DDR4), ``"pcm_palp"``, or ``"gddr5"``.
    backend: str = "dram"

    def __post_init__(self) -> None:
        tech = get_backend(self.backend)  # raises on unknown names
        if self.refresh_policy not in REFRESH_POLICIES:
            raise ValueError(
                f"unknown refresh policy {self.refresh_policy!r}; known: "
                + ", ".join(REFRESH_POLICIES))
        if self.refresh_enabled and not tech.refresh_capable:
            raise ValueError(
                f"backend {self.backend!r} has no refresh (refresh_ns / "
                f"refresh_density cannot be set on {self.name!r})")
        if (self.refresh_density is not None
                and self.refresh_density not in tech.refresh_grades_ns):
            known = ", ".join(sorted(tech.refresh_grades_ns))
            raise ValueError(
                f"backend {self.backend!r} has no {self.refresh_density!r} "
                f"density grade (known: {known})")
        if self.refresh_policy == "sarp" and not self.subbanked:
            raise ValueError(
                f"refresh policy 'sarp' needs sub-banks; {self.name!r} "
                "has none (use 'darp' for per-bank refresh)")

    # -- derived properties ----------------------------------------------

    @property
    def subbanked(self) -> bool:
        return self.organization in (Organization.VSB,
                                     Organization.PAIRED_BANK,
                                     Organization.HALF_DRAM,
                                     Organization.MASA_ERUCA)

    @property
    def row_bits(self) -> int:
        """Row-address width keeping capacity constant (34-bit space).

        The non-row fields (offset, column, channel) take 13 bits; the
        remaining 21 split between bank-group/bank/sub-bank IDs and the
        row.  The baseline's 17th row bit becomes the sub-bank ID in
        VSB-style organisations; the paired-bank's sub-bank ID instead
        comes from a *bank* bit (two banks fuse into one); the 32-bank
        organisations spend one more bank bit.
        """
        bg_bits = (self.bank_groups - 1).bit_length()
        bank_bits = (self.banks_per_group - 1).bit_length()
        subbank_bits = 1 if self.subbanked else 0
        return 21 - bg_bits - bank_bits - subbank_bits

    @property
    def bus_policy(self) -> BusPolicy:
        if self.organization is Organization.IDEAL32:
            return BusPolicy.NO_GROUPS
        if self.eru is not None and self.eru.ddb:
            return BusPolicy.DDB
        return BusPolicy.BANK_GROUPS

    @property
    def refresh_enabled(self) -> bool:
        return self.refresh_density is not None or bool(self.refresh_ns)

    def timing(self) -> TimingParams:
        tech = get_backend(self.backend)
        t = tech.timings(self.bus_frequency_hz)
        if self.tfaw_ns is not None:
            t = t.replace(tFAW=ns(self.tfaw_ns))
        if self.refresh_density is not None:
            t = t.replace(**tech.refresh_overrides(self.refresh_density))
        elif self.refresh_ns:
            t = t.replace(**tech.adhoc_refresh_overrides(self.refresh_ns))
        if self.bus_policy is BusPolicy.DDB and self.eru.ddb_windows:
            t = t.with_ddb_windows()
        return t

    def digest_payload(self) -> dict:
        """Canonical JSON-able form of every behaviour-affecting field.

        Host-side knobs (``record_commands``, ``incremental``) and the
        cosmetic ``name`` are excluded: configs differing only in those
        produce bit-identical simulations.  Nested fields marked
        :data:`~repro.core.mechanisms.OMIT_AT_DEFAULT` are left out
        while they hold their default.
        """
        skip = {"name", "record_commands", "incremental"}
        return {f.name: canonical(getattr(self, f.name))
                for f in dataclasses.fields(self) if f.name not in skip}

    def digest(self) -> str:
        """SHA-256 over :meth:`digest_payload` -- a stable identity for
        caching: equal digests imply equal simulated behaviour.

        Computed once per object and kept on it: the config and every
        nested field are frozen, so the payload cannot change.  The memo
        is not a field, so equality, hashing and
        :func:`dataclasses.replace` never see it.
        """
        memo = self.__dict__.get("_digest")
        if memo is None:
            payload = json.dumps(self.digest_payload(), sort_keys=True)
            memo = hashlib.sha256(payload.encode()).hexdigest()
            object.__setattr__(self, "_digest", memo)
        return memo

    def __hash__(self) -> int:
        """The hash of :meth:`digest`: equal configs have equal digests,
        and the memoised digest makes re-hashing a config (every
        ``CellKey`` lookup) one cached string hash.  Configs differing
        only in fields the digest leaves out hash alike and are told
        apart by equality.  No hash value is stored, so nothing
        process-specific crosses a pickle."""
        return hash(self.digest())

    def bank_geometry(self) -> BankGeometry:
        groups = self.masa_groups if self.organization in (
            Organization.MASA, Organization.MASA_ERUCA) else 1
        return BankGeometry(
            subbanks=2 if self.subbanked else 1,
            subarray_groups=groups,
            row_bits=self.row_bits,
            tSA=self.tSA if groups > 1 else 0,
        )

    def mapping(self) -> AddressMapping:
        eru = self.eru if self.subbanked else None
        return skylake_mapping(
            subbanked=self.subbanked,
            row_layout=eru.row_layout() if eru else None,
            bank_groups=self.bank_groups,
            banks_per_group=self.banks_per_group,
            channels=self.channels,
            row_bits=self.row_bits,
            subbank_low=eru.subbank_low if eru else True,
        )

    def build_channel(self) -> Channel:
        eru = self.eru
        return Channel(
            timing=self.timing(),
            policy=self.bus_policy,
            bank_groups=self.bank_groups,
            banks_per_group=self.banks_per_group,
            bank_geometry=self.bank_geometry(),
            row_layout=eru.row_layout() if (self.subbanked and eru)
            else None,
            ewlr=bool(eru and eru.ewlr),
            rap=bool(eru and eru.rap),
            energy_params=self.energy,
            record_commands=self.record_commands,
        )

    def at_frequency(self, bus_frequency_hz: float) -> "SystemConfig":
        """The same organisation at a different channel clock (Fig. 14)."""
        grade = f"{bus_frequency_hz / 1e9:.2f}GHz"
        return replace(self, bus_frequency_hz=bus_frequency_hz,
                       name=f"{self.name}@{grade}")


# -- named configurations (the paper's evaluated points) -------------------


def ddr4_baseline() -> SystemConfig:
    """Tab. III baseline: DDR4, 16 banks in 4 bank groups."""
    return SystemConfig("DDR4", Organization.DDR4_16)


def bg32() -> SystemConfig:
    """32 banks, 8 bank groups, standard grouped timing."""
    return SystemConfig("BG32", Organization.BG32,
                        bank_groups=8, banks_per_group=4)


def ideal32() -> SystemConfig:
    """Idealised 32 banks with enough buses to avoid bank grouping."""
    return SystemConfig("Ideal32", Organization.IDEAL32,
                        bank_groups=8, banks_per_group=4)


def vsb(eru: EruConfig = None) -> SystemConfig:
    """Vertical sub-banks on x4 Combo DRAM with the given mechanisms."""
    if eru is None:
        eru = EruConfig.full()
    return SystemConfig(eru.name, Organization.VSB, eru=eru)


def paired_bank(eru: EruConfig = None) -> SystemConfig:
    """Paired-bank for non-Combo DRAM: 8 fused banks of 2 sub-banks.

    Two adjacent banks share one row decoder; the old bank-select LSB
    becomes the sub-bank ID, so bank count halves while sub-bank count
    restores the parallel resources (minus plane conflicts).
    """
    if eru is None:
        eru = EruConfig.full()
    eru = replace(eru, row_bits=17)
    return SystemConfig(f"Paired-bank({eru.name})",
                        Organization.PAIRED_BANK,
                        bank_groups=4, banks_per_group=2, eru=eru)


def masa(groups: int = 8) -> SystemConfig:
    """MASA (SALP, Kim et al. [2]) with 4 or 8 sub-array groups."""
    return SystemConfig(f"MASA{groups}", Organization.MASA,
                        masa_groups=groups)


def half_dram() -> SystemConfig:
    """Half-DRAM (Zhang et al. [4]): two half-wordline sub-banks sharing
    one row-address latch set (a single plane, no EWLR/RAP), with halved
    activation energy."""
    eru = EruConfig(planes=1, ewlr=False, rap=False, ddb=False)
    return SystemConfig("Half-DRAM", Organization.HALF_DRAM, eru=eru,
                        energy=replace(_ddr4_energy(), act_scale=0.5))


def masa_eruca(groups: int = 8, ddb: bool = True,
               planes: int = 4) -> SystemConfig:
    """MASA sub-array groups combined with full ERUCA (Fig. 15)."""
    eru = EruConfig.full(planes=planes, ddb=ddb)
    suffix = "" if ddb else "(no DDB)"
    return SystemConfig(f"MASA{groups}+ERUCA{suffix}",
                        Organization.MASA_ERUCA,
                        eru=eru, masa_groups=groups)


def pcm_palp(eru: EruConfig = None) -> SystemConfig:
    """Phase-change memory with PALP-style partition parallelism.

    Asymmetric array timing (slow reads, fast write *initiation*, a long
    self-timed write pulse), write cancellation on a pending-read
    conflict, and no refresh.  With ``eru`` the partitions additionally
    get ERUCA's sub-banked resource sharing.
    """
    tech = get_backend("pcm_palp")
    if eru is None:
        return SystemConfig("PCM-PALP", Organization.DDR4_16,
                            backend="pcm_palp", energy=tech.energy)
    return SystemConfig(f"PCM-PALP({eru.name})", Organization.VSB,
                        eru=eru, backend="pcm_palp", energy=tech.energy)


def gddr5() -> SystemConfig:
    """GDDR5 graphics DRAM: 2.5 GHz bus, tighter core timings, the
    shorter per-bank refresh of high-bandwidth parts (promoted from
    ``examples/gddr5_extension.py``)."""
    tech = get_backend("gddr5")
    return SystemConfig("GDDR5", Organization.DDR4_16, backend="gddr5",
                        bus_frequency_hz=tech.default_frequency_hz,
                        energy=tech.energy)


def all_presets() -> list:
    """Every preset the experiments evaluate, plus stress variants.

    The shared corpus for the equivalence tests, the accounting property
    tests, and the differential fuzzer (``tools/fuzz_schedules.py``):
    each organisation of Figs. 12-16, a high-frequency DDB point where
    the guard windows bind, two adaptive-page-policy variants (the
    policy-close path has its own candidate bookkeeping), and the
    non-DDR4 technology backends (PCM-PALP flat and sub-banked, GDDR5).
    The 17 ``dram`` presets come first, in their historical order.
    """
    return [
        ddr4_baseline(),
        bg32(),
        ideal32(),
        vsb(EruConfig.naive(4)),
        vsb(EruConfig.naive_ddb(4)),
        vsb(EruConfig.ewlr_only(4)),
        vsb(EruConfig.rap_only(4)),
        vsb(EruConfig.full(4)),
        paired_bank(),
        paired_bank(EruConfig.full(4, ddb=False)),
        half_dram(),
        masa(4),
        masa(8),
        masa_eruca(8),
        vsb(EruConfig.full(4)).at_frequency(2.4e9),
        replace(ddr4_baseline(), idle_close_ps=400_000,
                name="DDR4+close@400ns"),
        replace(vsb(EruConfig.full(4)), idle_close_ps=400_000,
                name="VSB+close@400ns"),
        pcm_palp(),
        pcm_palp(EruConfig.full(4, ddb=False)),
        gddr5(),
    ]
