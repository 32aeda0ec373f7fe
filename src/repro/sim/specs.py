"""Declarative experiment specs: factors x levels -> grid cells.

An :class:`ExperimentSpec` is a frozen, digest-able description of one
experiment grid -- which configurations (as :class:`ConfigSpec`
factors, not materialized objects), which mixes, at what scale, over
which fragmentations and seeds.  :meth:`ExperimentSpec.expand`
turns it into a deterministic list of :class:`CellKey` cells, each of
which maps 1:1 onto a content address in the result store
(:mod:`repro.sim.store`): the spec is the *what*, the runner
(:mod:`repro.sim.runner`) is the *how*, and the figure reducers in
:mod:`repro.sim.experiments` are pure functions over the cell results.

Specs round-trip through JSON (``repro run my_spec.json``) and their
digest is canonical-JSON based, so it is stable under dict ordering:
two specs with the same factors digest identically no matter how the
JSON was written.  The named builders at the bottom reproduce every
paper figure's grid declaratively; ``repro run fig12`` resolves through
:data:`NAMED_SPECS`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.controller.mapping import PlanePlacement
from repro.core.mechanisms import EruConfig
from repro.cpu.core import CoreConfig
from repro.dram.timing import FIG14_BUS_FREQUENCIES_HZ
from repro.sim import config as cfgs
from repro.sim.config import SystemConfig
from repro.sim.store import store_key
from repro.workloads.mixes import MIX_NAMES, MIXES


@dataclass(frozen=True)
class ExperimentSettings:
    """Scale knobs shared by all experiment runners."""

    accesses_per_core: int = 2500
    fragmentation: float = 0.1
    seed: int = 0
    mixes: Tuple[str, ...] = MIX_NAMES

    def quick(self) -> "ExperimentSettings":
        """A cut-down version for smoke tests."""
        return replace(self, accesses_per_core=600,
                       mixes=self.mixes[:2])


#: Preset factories a :class:`ConfigSpec` may name.  Mechanism-taking
#: factories receive the spec's :class:`EruConfig` as their first
#: positional argument.
PRESETS: Dict[str, Callable[..., SystemConfig]] = {
    "ddr4_baseline": cfgs.ddr4_baseline,
    "bg32": cfgs.bg32,
    "ideal32": cfgs.ideal32,
    "vsb": cfgs.vsb,
    "paired_bank": cfgs.paired_bank,
    "masa": cfgs.masa,
    "half_dram": cfgs.half_dram,
    "masa_eruca": cfgs.masa_eruca,
    "gddr5": cfgs.gddr5,
}


@dataclass(frozen=True)
class ConfigSpec:
    """One configuration factor: preset + mechanism + overrides.

    Materializes (:meth:`to_config`) into the :class:`SystemConfig` the
    preset factory builds, with the overrides applied in a fixed order,
    so equal factors always land on the same store entries.
    """

    preset: str = "ddr4_baseline"
    mechanism: Optional[EruConfig] = None
    #: Extra positional arguments after the mechanism (JSON scalars
    #: only), e.g. ``("masa", args=(4,))`` for ``masa(4)``.
    args: Tuple = ()
    #: Keyword arguments as (name, value) pairs, e.g.
    #: ``(("ddb", False),)`` for ``masa_eruca(8, ddb=False)``.
    kwargs: Tuple[Tuple[str, object], ...] = ()
    #: Re-derive the config at this bus frequency
    #: (:meth:`SystemConfig.at_frequency`).
    frequency_hz: Optional[float] = None
    #: (SystemConfig field, JSON value) pairs applied last, e.g.
    #: ``(("refresh_density", "8Gb"), ("name", "VSB+ref"))``.  A dict
    #: value updates only the named sub-fields of a dataclass field:
    #: ``(("queue", {"drain_high": 31, "drain_low": 30}),)``.
    overrides: Tuple[Tuple[str, object], ...] = ()
    #: CPU-clock scale factor for this configuration's cells (Fig. 14
    #: scales the cores along with the channel).
    core_scale: float = 1.0

    def to_config(self) -> SystemConfig:
        """Materialize the described :class:`SystemConfig`.

        Built once per spec object and kept on it, as
        :meth:`SystemConfig.digest` keeps its digest: the spec is
        frozen, so every call returns the same config object, and the
        cell lookups of :meth:`ExperimentSpec.expand`, the runner and
        the reducers find their configs equal by identity.  The memo is
        not a field, so equality, hashing and :func:`dataclasses.replace`
        never see it.
        """
        config = self.__dict__.get("_config")
        if config is None:
            config = self._build_config()
            object.__setattr__(self, "_config", config)
        return config

    def _build_config(self) -> SystemConfig:
        factory = PRESETS.get(self.preset)
        if factory is None:
            raise ValueError(f"unknown preset {self.preset!r}; "
                             f"one of {sorted(PRESETS)}")
        pos: List[object] = []
        if self.mechanism is not None:
            pos.append(self.mechanism)
        pos.extend(self.args)
        config = factory(*pos, **dict(self.kwargs))
        if self.frequency_hz is not None:
            config = config.at_frequency(self.frequency_hz)
        if not self.overrides:
            return config
        changes = dict(self.overrides)
        _reject_unknown(changes, SystemConfig, "override")
        for name, value in changes.items():
            current = getattr(config, name)
            if isinstance(value, dict):
                if not dataclasses.is_dataclass(current):
                    raise ValueError(f"override {name!r} has no "
                                     f"sub-fields to update")
                _reject_unknown(value, type(current), f"{name} override")
                changes[name] = replace(current, **value)
            elif dataclasses.is_dataclass(current):
                raise ValueError(f"override {name!r} takes an object "
                                 f"of sub-fields")
            elif isinstance(current, enum.Enum):
                changes[name] = type(current)(value)
        return replace(config, **changes)

    def to_dict(self) -> dict:
        """JSON form; also the spec digest's payload."""
        return {
            "preset": self.preset,
            "mechanism": (cfgs.canonical(self.mechanism)
                          if self.mechanism else None),
            "args": list(self.args),
            "kwargs": [[k, v] for k, v in self.kwargs],
            "frequency_hz": self.frequency_hz,
            "overrides": [[k, v] for k, v in self.overrides],
            "core_scale": self.core_scale,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConfigSpec":
        """Parse :meth:`to_dict` output.

        Unknown keys, presets and override names raise ValueError here,
        at parse time, rather than when the grid expands.
        """
        _reject_unknown(data, cls, "config")
        mech = data.get("mechanism")
        if mech:
            _reject_unknown(mech, EruConfig, "mechanism")
        spec = cls(
            preset=data.get("preset", "ddr4_baseline"),
            mechanism=EruConfig(**mech) if mech else None,
            args=tuple(data.get("args") or ()),
            kwargs=tuple((k, v) for k, v in (data.get("kwargs") or ())),
            frequency_hz=data.get("frequency_hz"),
            overrides=tuple((k, v) for k, v
                            in (data.get("overrides") or ())),
            core_scale=data.get("core_scale", 1.0),
        )
        spec.to_config()
        return spec


@dataclass(frozen=True)
class CellKey:
    """One grid cell: a materialized config on one workload.

    ``kind`` is ``"mix"`` (a multi-programmed run of the named mix) or
    ``"alone"`` (a single-benchmark run on the alone baseline -- the
    weighted-speedup denominator).  The key is hashable, and
    :meth:`store_key` is its content address in the result store.
    """

    kind: str
    config: SystemConfig
    workload: str
    accesses: int
    fragmentation: float
    seed: int
    core_config: CoreConfig

    def __hash__(self) -> int:
        """The hash of the field tuple, computed once per object and
        kept on it (the key is frozen, so it cannot change): a run
        looks each cell up in several dicts and sets.  The memo is not
        a field, so equality and :func:`dataclasses.replace` never see
        it, and :meth:`__getstate__` leaves it out of a pickle: string
        hashes differ between processes."""
        memo = self.__dict__.get("_hash")
        if memo is None:
            memo = hash((self.kind, self.config, self.workload,
                         self.accesses, self.fragmentation, self.seed,
                         self.core_config))
            object.__setattr__(self, "_hash", memo)
        return memo

    def __getstate__(self) -> dict:
        """The fields, without the hash memo."""
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def store_key(self) -> str:
        return store_key(
            self.config, accesses=self.accesses,
            fragmentation=self.fragmentation, seed=self.seed,
            mix=self.workload if self.kind == "mix" else None,
            benchmark=self.workload if self.kind == "alone" else None,
            core_config=self.core_config)

    def describe(self) -> dict:
        """Human-readable summary for ``repro cells`` and store
        ``key`` sidecars."""
        return {
            "kind": self.kind,
            "config": self.config.name,
            "config_digest": self.config.digest(),
            "workload": self.workload,
            "accesses": self.accesses,
            "fragmentation": self.fragmentation,
            "seed": self.seed,
            "clock_hz": self.core_config.clock_hz,
        }


@dataclass(frozen=True)
class ExperimentSpec:
    """A full experiment grid: configs x mixes x frags x seeds."""

    name: str
    configs: Tuple[ConfigSpec, ...]
    mixes: Tuple[str, ...]
    accesses_per_core: int = 2500
    fragmentations: Tuple[float, ...] = (0.1,)
    seeds: Tuple[int, ...] = (0,)
    #: Also expand the member benchmarks' alone runs (the
    #: weighted-speedup denominators) on the ``alone`` baseline.
    include_alone: bool = True
    #: Attach cycle accounting to every mix cell.
    observe: bool = False
    alone: ConfigSpec = ConfigSpec("ddr4_baseline")

    # -- factor helpers ------------------------------------------------

    def settings(self) -> ExperimentSettings:
        """The equivalent single-(frag, seed) settings (first levels)."""
        return ExperimentSettings(
            accesses_per_core=self.accesses_per_core,
            fragmentation=self.fragmentations[0],
            seed=self.seeds[0], mixes=self.mixes)

    # -- expansion -----------------------------------------------------

    def expand(self, core_config: CoreConfig = CoreConfig()
               ) -> List[CellKey]:
        """The grid as a deterministic cell list.

        Iteration order is seed-major, then fragmentation, then config,
        then mix, with each mix's not-yet-seen alone cells emitted just
        before it -- the order the historical runners evaluated in.
        The list is duplicate-free: repeated (config, mix) factor
        combinations collapse onto one cell.
        """
        alone_config = self.alone.to_config()
        cells: List[CellKey] = []
        seen = set()
        # Every config repeats the same alone cells; look up the fields
        # they vary in before building a CellKey for one.
        alone_seen = set()

        def emit(cell: CellKey) -> None:
            if cell not in seen:
                seen.add(cell)
                cells.append(cell)

        for seed in self.seeds:
            for frag in self.fragmentations:
                for cs in self.configs:
                    config = cs.to_config()
                    core = (core_config if cs.core_scale == 1.0
                            else core_config.scaled(cs.core_scale))
                    for mix in self.mixes:
                        if self.include_alone:
                            for benchmark in MIXES[mix][0]:
                                alone = (seed, frag, core, benchmark)
                                if alone in alone_seen:
                                    continue
                                alone_seen.add(alone)
                                emit(CellKey(
                                    kind="alone", config=alone_config,
                                    workload=benchmark,
                                    accesses=self.accesses_per_core,
                                    fragmentation=frag, seed=seed,
                                    core_config=core))
                        emit(CellKey(
                            kind="mix", config=config, workload=mix,
                            accesses=self.accesses_per_core,
                            fragmentation=frag, seed=seed,
                            core_config=core))
        return cells

    # -- digest + JSON round-trip --------------------------------------

    def to_dict(self) -> dict:
        """JSON form; also the digest's payload."""
        return {
            "name": self.name,
            "configs": [cs.to_dict() for cs in self.configs],
            "mixes": list(self.mixes),
            "accesses_per_core": self.accesses_per_core,
            "fragmentations": list(self.fragmentations),
            "seeds": list(self.seeds),
            "include_alone": self.include_alone,
            "observe": self.observe,
            "alone": self.alone.to_dict(),
        }

    def digest(self) -> str:
        """Canonical-JSON SHA-256: stable across dict/key ordering."""
        canon = json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Parse :meth:`to_dict` output.

        Unknown keys and unknown mix names raise :class:`ValueError`
        naming them, so a misspelt factor cannot silently fall back to
        its default.
        """
        _reject_unknown(data, cls, "spec")
        missing = [k for k in ("configs", "mixes") if k not in data]
        if missing:
            raise ValueError(f"spec lacks required key(s) {missing}")
        unknown_mixes = [m for m in data["mixes"] if m not in MIXES]
        if unknown_mixes:
            raise ValueError(f"unknown mix(es) {unknown_mixes}; "
                             f"known: {', '.join(MIX_NAMES)}")
        alone = data.get("alone")
        return cls(
            name=data.get("name", "spec"),
            configs=tuple(ConfigSpec.from_dict(c)
                          for c in data["configs"]),
            mixes=tuple(data["mixes"]),
            accesses_per_core=data.get("accesses_per_core", 2500),
            fragmentations=tuple(data.get("fragmentations") or (0.1,)),
            seeds=tuple(data.get("seeds") or (0,)),
            include_alone=data.get("include_alone", True),
            observe=data.get("observe", False),
            alone=(ConfigSpec.from_dict(alone) if alone
                   else ConfigSpec("ddr4_baseline")),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))


def _reject_unknown(data: dict, cls, what: str) -> None:
    """ValueError naming every key of ``data`` that ``cls`` lacks."""
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown {what} key(s) {unknown}; "
                         f"known: {', '.join(sorted(known))}")


def load_spec(path: str) -> ExperimentSpec:
    """Read an :class:`ExperimentSpec` from a JSON file."""
    with open(path) as fh:
        return ExperimentSpec.from_json(fh.read())


# -- named figure specs ------------------------------------------------------
#
# Each builder is the only definition of its figure's grid; the reducers
# in repro.sim.experiments read every axis back from the spec.  A
# speedup figure lists its normalisation baseline first (Fig. 14: first
# within each frequency).


def _vsb(eru: EruConfig, name: Optional[str] = None) -> ConfigSpec:
    return ConfigSpec("vsb", mechanism=eru,
                      overrides=(("name", name),) if name else ())


def _base_fields(settings: ExperimentSettings, observe: bool) -> dict:
    return dict(mixes=settings.mixes,
                accesses_per_core=settings.accesses_per_core,
                fragmentations=(settings.fragmentation,),
                seeds=(settings.seed,), observe=observe)


#: Fig. 13 scheme axis: label -> mechanism factory over plane count.
FIG13_SCHEMES: Tuple[Tuple[str, Callable[[int], EruConfig]], ...] = (
    ("VSB(naive)+DDB", EruConfig.naive_ddb),
    ("VSB(EWLR)+DDB", EruConfig.ewlr_only),
    ("VSB(RAP)+DDB", EruConfig.rap_only),
    ("VSB(EWLR+RAP)+DDB", EruConfig.full),
)
FIG13_PLANES = (2, 4, 8, 16)

#: DDR4 density grades the refresh sweep walks (tRFC grows with
#: density, so the refresh tax rises left to right).
REFRESH_SWEEP_DENSITIES: Tuple[str, ...] = ("4Gb", "8Gb", "16Gb")


#: Fig. 12 comparison set (plus the paired-bank variants), baseline
#: first (it is also the normalisation denominator).
FIG12_CONFIG_SPECS: Tuple[ConfigSpec, ...] = (
    ConfigSpec("ddr4_baseline"),
    _vsb(EruConfig.naive(4)),
    _vsb(EruConfig.naive_ddb(4)),
    _vsb(EruConfig.full(4)),
    ConfigSpec("bg32"),
    ConfigSpec("ideal32"),
    ConfigSpec("paired_bank", mechanism=EruConfig.full(4, ddb=False)),
    ConfigSpec("paired_bank", mechanism=EruConfig.full(4, ddb=True)),
)

#: Fig. 14 platforms (without the baseline), before frequency scaling.
FIG14_CONFIG_SPECS: Tuple[ConfigSpec, ...] = (
    _vsb(EruConfig.full(4, ddb=False)),   # VSB(EWLR+RAP)+BG
    _vsb(EruConfig.full(4, ddb=True)),    # VSB(EWLR+RAP)+DDB
    ConfigSpec("bg32"),
    ConfigSpec("ideal32"),
)

#: Fig. 15 prior-work comparison set (without the baseline).
FIG15_CONFIG_SPECS: Tuple[ConfigSpec, ...] = (
    ConfigSpec("half_dram"),
    _vsb(EruConfig.full(4, ddb=False)),
    _vsb(EruConfig.full(4, ddb=True)),
    ConfigSpec("masa", args=(4,)),
    ConfigSpec("masa", args=(8,)),
    ConfigSpec("masa_eruca", args=(8,), kwargs=(("ddb", False),)),
    ConfigSpec("masa_eruca", args=(8,), kwargs=(("ddb", True),)),
    ConfigSpec("ideal32"),
)

#: Fig. 16 latency/energy rows.
FIG16_CONFIG_SPECS: Tuple[ConfigSpec, ...] = (
    ConfigSpec("ddr4_baseline"),
    _vsb(EruConfig.full(4, ddb=True)),
    ConfigSpec("ideal32"),
)


def fig12_spec(settings: ExperimentSettings,
               observe: bool = False) -> ExperimentSpec:
    """The Fig. 12 comparison set (plus the paired-bank variants)."""
    return ExperimentSpec(name="fig12", configs=FIG12_CONFIG_SPECS,
                          **_base_fields(settings, observe))


def fig13_spec(settings: ExperimentSettings,
               fragmentations: Sequence[float] = (0.1, 0.5),
               planes: Sequence[int] = FIG13_PLANES,
               observe: bool = False) -> ExperimentSpec:
    """Plane-count sensitivity sweep: schemes x planes x frag."""
    fields = _base_fields(settings, observe)
    fields["fragmentations"] = tuple(fragmentations)
    return ExperimentSpec(
        name="fig13",
        configs=(ConfigSpec("ddr4_baseline"),)
        + tuple(_vsb(make(n)) for _, make in FIG13_SCHEMES
                for n in planes),
        **fields)


def fig13_scheme(cs: ConfigSpec) -> str:
    """The :data:`FIG13_SCHEMES` label of one Fig. 13 sweep config."""
    return next(label for label, make in FIG13_SCHEMES
                if make(cs.mechanism.planes) == cs.mechanism)


def fig14_spec(settings: ExperimentSettings,
               frequencies: Sequence[float] = FIG14_BUS_FREQUENCIES_HZ,
               observe: bool = False) -> ExperimentSpec:
    """Channel-frequency sweep; CPU clocks scale with the channel."""
    base_freq = frequencies[0]
    specs: List[ConfigSpec] = []
    for freq in frequencies:
        scale = freq / base_freq
        for cs in (ConfigSpec("ddr4_baseline"),) + FIG14_CONFIG_SPECS:
            specs.append(replace(cs, frequency_hz=freq,
                                 core_scale=scale))
    return ExperimentSpec(name="fig14", configs=tuple(specs),
                          **_base_fields(settings, observe))


def fig15_spec(settings: ExperimentSettings,
               observe: bool = False) -> ExperimentSpec:
    """Prior sub-banking work comparison set."""
    return ExperimentSpec(
        name="fig15",
        configs=(ConfigSpec("ddr4_baseline"),) + FIG15_CONFIG_SPECS,
        **_base_fields(settings, observe))


def fig16_spec(settings: ExperimentSettings,
               observe: bool = False) -> ExperimentSpec:
    """Latency/energy rows (no weighted speedup, so no alone cells)."""
    fields = _base_fields(settings, observe)
    return ExperimentSpec(name="fig16", configs=FIG16_CONFIG_SPECS,
                          include_alone=False, **fields)


def refresh_platform_spec() -> ConfigSpec:
    """The refresh sweep's platform: VSB(EWLR+RAP,4P)+DDB."""
    return _vsb(EruConfig.full(4))


def refresh_config_specs(
        densities: Sequence[str] = REFRESH_SWEEP_DENSITIES
        ) -> Tuple[ConfigSpec, ...]:
    """The sweep factors: the platform per (density, policy) pair."""
    from repro.controller.scheduler import REFRESH_POLICIES
    base = refresh_platform_spec()
    base_name = base.to_config().name
    return tuple(
        replace(base, overrides=(
            ("refresh_density", density), ("refresh_policy", policy),
            ("name", f"{base_name}+ref-{policy}-{density}")))
        for density in densities
        for policy in REFRESH_POLICIES)


def figref_spec(settings: ExperimentSettings,
                densities: Sequence[str] = REFRESH_SWEEP_DENSITIES,
                observe: bool = False) -> ExperimentSpec:
    """Refresh policy x density sweep over the VSB platform."""
    return ExperimentSpec(
        name="figref",
        configs=(refresh_platform_spec(),)
        + refresh_config_specs(densities),
        **_base_fields(settings, observe))


#: The mix every ablation arm replays.
ABLATION_MIX = "mix0"

#: The design choices DESIGN.md calls worth ablating: sweep -> arms,
#: each arm named by its label.
ABLATION_SWEEPS: Dict[str, Tuple[ConfigSpec, ...]] = {
    # Fig. 9's two plane-ID mappings, with and without RAP.
    "plane": tuple(
        _vsb(EruConfig(rap=rap, plane_placement=placement),
             name=f"rap={rap},plane={placement.value}")
        for rap in (False, True)
        for placement in (PlanePlacement.LSB, PlanePlacement.MSB)),
    # Sub-bank ID among the low address bits (Fig. 9), or parked high.
    "subbank": tuple(
        _vsb(EruConfig(subbank_low=low), name=f"subbank_low={low}")
        for low in (True, False)),
    # Write-drain watermarks on the baseline.
    "drain": tuple(
        ConfigSpec(overrides=(
            ("queue", {"drain_high": high, "drain_low": low}),
            ("name", f"drain {high}/{low}")))
        for high, low in ((24, 8), (31, 30), (9, 8))),
    # Pure open page vs adaptive idle-close at three thresholds.
    "page": tuple(
        ConfigSpec(overrides=(("idle_close_ps", idle), ("name", label)))
        for label, idle in (("open page", None),
                            ("close@100ns", 100_000),
                            ("close@400ns", 400_000),
                            ("close@1600ns", 1_600_000))),
    # The DDB guard windows at 2.4 GHz, where they bind.
    "ddb": tuple(
        ConfigSpec("vsb", mechanism=EruConfig(ddb_windows=on),
                   frequency_hz=2.4e9,
                   overrides=(("name", f"tTCW {'on' if on else 'off'}"),))
        for on in (True, False)),
}


def ablation_spec(settings: ExperimentSettings,
                  observe: bool = False) -> ExperimentSpec:
    """Every :data:`ABLATION_SWEEPS` arm on :data:`ABLATION_MIX` (no
    weighted speedup, so no alone cells; ``settings.mixes`` is
    ignored)."""
    fields = _base_fields(settings, observe)
    fields["mixes"] = (ABLATION_MIX,)
    return ExperimentSpec(
        name="ablation",
        configs=tuple(cs for arms in ABLATION_SWEEPS.values()
                      for cs in arms),
        include_alone=False, **fields)


def ablation_sweep(cs: ConfigSpec) -> str:
    """The :data:`ABLATION_SWEEPS` key of one ablation arm."""
    return next(sweep for sweep, arms in ABLATION_SWEEPS.items()
                if cs in arms)


#: ``repro run <name>`` / ``repro cells <name>`` resolve through this:
#: each builder takes (settings, observe=...) and returns the figure's
#: full grid spec.
NAMED_SPECS: Dict[str, Callable[..., ExperimentSpec]] = {
    "fig12": fig12_spec,
    "fig13": fig13_spec,
    "fig14": fig14_spec,
    "fig15": fig15_spec,
    "fig16": fig16_spec,
    "figref": figref_spec,
    "ablation": ablation_spec,
}


def resolve_spec(name_or_path: str,
                 settings: Optional[ExperimentSettings] = None,
                 observe: bool = False) -> ExperimentSpec:
    """A spec from a registry name or a JSON file path.

    Raises :class:`ValueError` listing the registered names when the
    argument is neither.
    """
    builder = NAMED_SPECS.get(name_or_path)
    if builder is not None:
        return builder(settings or ExperimentSettings(), observe=observe)
    if not os.path.isfile(name_or_path):
        raise ValueError(f"{name_or_path!r} is neither a named spec "
                         f"({', '.join(sorted(NAMED_SPECS))}) nor a "
                         f"spec file")
    return load_spec(name_or_path)
