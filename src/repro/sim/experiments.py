"""The paper's figures: one pure reducer per named spec.

Each figure has exactly one definition.  Its grid (configs x mixes x
fragmentations x seeds) is a builder in
:data:`repro.sim.specs.NAMED_SPECS`; :func:`repro.sim.runner.run_spec`
executes it through the content-addressed result store; and its table
is a reducer in :data:`FIGURE_REDUCERS` -- a pure function over the
returned :class:`~repro.sim.runner.ResultSet`.  Every reducer is called
as ``reducer(rs, mixes)`` and reads all other axes (configs, planes,
scheme labels, fragmentations, frequencies, densities, core config)
from ``rs.spec`` and ``rs``, so a cut-down or re-clocked grid reduces
exactly as it was built.  :func:`run_figure` joins the three.  The
reduced numbers are pinned in ``tests/data/figure_digests.json``.

Weighted speedup follows the paper: per-mix Snavely-Tullsen WS normalised
to the DDR4 baseline, GMEAN across mixes.  Alone-IPCs are measured on the
baseline system once per (benchmark, fragmentation, seed) and served
from the store on every later run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Sequence, Tuple

from repro.sim.metrics import LatencyHistogram, gmean, quartiles
from repro.sim.runner import ResultSet, run_spec
from repro.sim.simulator import SimulationResult
from repro.sim.specs import (
    NAMED_SPECS,
    ExperimentSettings,
    ablation_sweep,
    fig13_scheme,
)


def _baseline_ws(rs: ResultSet, mixes: Sequence[str],
                 fragmentation: float = None) -> Dict[str, float]:
    """Per-mix weighted speedup of the spec's first (baseline) config."""
    base = rs.spec.configs[0].to_config()
    return {mix: rs.ws(base, mix, fragmentation)[0] for mix in mixes}


# -- Fig. 12: normalised weighted speedup per mix ---------------------------


@dataclass
class SpeedupTable:
    """Per-mix normalised weighted speedups: {config: {mix: value}}."""

    values: Dict[str, Dict[str, float]] = field(default_factory=dict)
    baseline: str = "DDR4"

    def normalized(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        base = self.values[self.baseline]
        for config, row in self.values.items():
            out[config] = {mix: v / base[mix] for mix, v in row.items()}
        return out

    def gmeans(self) -> Dict[str, float]:
        return {config: gmean(row.values())
                for config, row in self.normalized().items()}


def reduce_fig12(rs: ResultSet, mixes: Sequence[str]) -> SpeedupTable:
    """Weighted speedups per (config, mix), normalised to the first."""
    configs = [cs.to_config() for cs in rs.spec.configs]
    table = SpeedupTable(baseline=configs[0].name)
    for config in configs:
        table.values[config.name] = {mix: rs.ws(config, mix)[0]
                                     for mix in mixes}
    return table


# -- Fig. 13: plane-count sensitivity + conflict precharges -----------------


@dataclass
class PlaneSweepPoint:
    scheme: str
    planes: int
    fragmentation: float
    normalized_ws: float
    plane_precharge_fraction: float
    ewlr_hit_rate: float


def reduce_fig13(rs: ResultSet,
                 mixes: Sequence[str]) -> List[PlaneSweepPoint]:
    """One point per (fragmentation, scheme, planes) of the sweep."""
    points: List[PlaneSweepPoint] = []
    for frag in rs.spec.fragmentations:
        base_ws = _baseline_ws(rs, mixes, frag)
        for cs in rs.spec.configs[1:]:
            config = cs.to_config()
            normalized, pre_frac, hits = [], [], []
            for mix in mixes:
                ws, result = rs.ws(config, mix, frag)
                normalized.append(ws / base_ws[mix])
                pre_frac.append(result.plane_conflict_precharge_fraction)
                hits.append(result.ewlr_hit_rate)
            points.append(PlaneSweepPoint(
                scheme=fig13_scheme(cs), planes=cs.mechanism.planes,
                fragmentation=frag, normalized_ws=gmean(normalized),
                plane_precharge_fraction=sum(pre_frac) / len(pre_frac),
                ewlr_hit_rate=sum(hits) / len(hits)))
    return points


# -- Fig. 14: channel-frequency sensitivity of DDB ---------------------------


@dataclass
class FrequencyPoint:
    config: str
    bus_frequency_hz: float
    normalized_ws: float


def reduce_fig14(rs: ResultSet,
                 mixes: Sequence[str]) -> List[FrequencyPoint]:
    """Normalised WS per (frequency, config).

    Each frequency's configs open with its baseline; cores run at
    ``rs.core_config`` scaled by the config's ``core_scale`` (the CPU
    clock scales with the channel, per the paper).
    """
    points: List[FrequencyPoint] = []
    frequency, base_ws = None, None
    for cs in rs.spec.configs:
        config = cs.to_config()
        core = rs.core_config.scaled(cs.core_scale)
        ws = [rs.ws(config, mix, core_config=core)[0] for mix in mixes]
        if cs.frequency_hz != frequency:
            frequency, base_ws = cs.frequency_hz, ws
            continue
        points.append(FrequencyPoint(
            config=replace(cs, frequency_hz=None).to_config().name,
            bus_frequency_hz=frequency,
            normalized_ws=gmean([w / b for w, b in zip(ws, base_ws)])))
    return points


# -- Fig. 15: comparison to prior sub-banking work ---------------------------


def reduce_fig15(rs: ResultSet,
                 mixes: Sequence[str]) -> Dict[str, float]:
    """GMEAN normalised WS per prior-work config."""
    base_ws = _baseline_ws(rs, mixes)
    out: Dict[str, float] = {}
    for cs in rs.spec.configs[1:]:
        config = cs.to_config()
        out[config.name] = gmean([rs.ws(config, mix)[0] / base_ws[mix]
                                  for mix in mixes])
    return out


# -- Fig. 16: read queueing latency and energy -------------------------------


@dataclass
class LatencyEnergyRow:
    config: str
    latency_stats_ns: Dict[str, float]
    background_energy: float
    activation_energy: float
    total_energy: float

    def relative_to(self, other: "LatencyEnergyRow") -> Dict[str, float]:
        return {
            "background": self.background_energy / other.background_energy,
            "activation": self.activation_energy / other.activation_energy,
            "total": self.total_energy / other.total_energy,
        }


def reduce_fig16(rs: ResultSet,
                 mixes: Sequence[str]) -> List[LatencyEnergyRow]:
    """Latency quartiles + energy per config."""
    rows: List[LatencyEnergyRow] = []
    for cs in rs.spec.configs:
        config = cs.to_config()
        # Merging histograms is O(unique latencies), never O(samples).
        latencies = LatencyHistogram()
        background = activation = total = 0.0
        for mix in mixes:
            result = rs.mix(config, mix)
            latencies.merge(result.stats.read_latencies)
            background += result.energy.background_energy_nj(
                result.elapsed_ps)
            activation += result.energy.activation_energy_nj()
            total += result.energy.total_energy_nj(result.elapsed_ps)
        stats = {k: v / 1000.0 for k, v in quartiles(latencies).items()}
        rows.append(LatencyEnergyRow(
            config=config.name, latency_stats_ns=stats,
            background_energy=background, activation_energy=activation,
            total_energy=total))
    return rows


# -- refresh sweep: policy x density grade (docs/REFRESH.md) -----------------


@dataclass
class RefreshPoint:
    """One cell of the refresh sweep: policy x density grade."""

    policy: str
    density: str
    #: GMEAN weighted speedup normalised to the same platform with
    #: refresh off (1.0 = the policy fully hides the refresh tax).
    normalized_ws: float
    #: REF/REFpb commands issued, summed over mixes and channels.
    refreshes: int


def reduce_figref(rs: ResultSet,
                  mixes: Sequence[str]) -> List[RefreshPoint]:
    """One point per (density, policy), normalised to the refresh-off
    platform (the spec's first config)."""
    base_ws = _baseline_ws(rs, mixes)
    points: List[RefreshPoint] = []
    for cs in rs.spec.configs[1:]:
        config = cs.to_config()
        normalized, refreshes = [], 0
        for mix in mixes:
            ws, result = rs.ws(config, mix)
            normalized.append(ws / base_ws[mix])
            refreshes += result.stats.refreshes
        points.append(RefreshPoint(
            policy=config.refresh_policy,
            density=config.refresh_density,
            normalized_ws=gmean(normalized),
            refreshes=refreshes))
    return points


# -- design-choice ablations (DESIGN.md) -------------------------------------


def reduce_ablation(rs: ResultSet, mixes: Sequence[str]
                    ) -> Dict[str, Dict[str, SimulationResult]]:
    """Each arm's result on the spec's mix: ``{sweep: {label: result}}``
    (see :data:`repro.sim.specs.ABLATION_SWEEPS`)."""
    out: Dict[str, Dict[str, SimulationResult]] = {}
    for cs in rs.spec.configs:
        config = cs.to_config()
        out.setdefault(ablation_sweep(cs), {})[config.name] = \
            rs.mix(config, mixes[0])
    return out


#: The pure reducer of each spec in :data:`repro.sim.specs.NAMED_SPECS`:
#: ``FIGURE_REDUCERS[spec.name](rs, spec.mixes)``.
FIGURE_REDUCERS: Dict[str, Callable[[ResultSet, Sequence[str]], object]] = {
    "fig12": reduce_fig12,
    "fig13": reduce_fig13,
    "fig14": reduce_fig14,
    "fig15": reduce_fig15,
    "fig16": reduce_fig16,
    "figref": reduce_figref,
    "ablation": reduce_ablation,
}


def run_figure(name: str, settings: ExperimentSettings, *, jobs: int = 1,
               observe: bool = False, **axes) -> Tuple[object, ResultSet]:
    """Build, run and reduce one named figure; return (table, results).

    ``axes`` go to the figure's spec builder (e.g. ``planes=(2, 4)``
    for ``fig13``).  The spec runs through :func:`run_spec` against the
    default store, so only cells it lacks simulate (``jobs``-wide);
    ``observe`` attaches cycle accounting to every mix cell, which
    :func:`emit_stats_sidecars` exports from the returned results.
    """
    spec = NAMED_SPECS[name](settings, observe=observe, **axes)
    rs, _ = run_spec(spec, jobs=jobs)
    return FIGURE_REDUCERS[name](rs, spec.mixes), rs


# -- stall-attribution sidecars ----------------------------------------------


def slug(name: str) -> str:
    """Filesystem-safe slug of a config name (``VSB(EWLR+RAP,4P)+DDB``
    becomes ``vsb-ewlr-rap-4p-ddb``)."""
    out = []
    for ch in name.lower():
        out.append(ch if ch.isalnum() else "-")
    collapsed = "-".join(p for p in "".join(out).split("-") if p)
    return collapsed or "config"


def emit_stats_sidecars(rs: ResultSet, directory: str,
                        prefix: str = "") -> List[str]:
    """Write one JSON stall-attribution sidecar per observed mix cell.

    For each mix cell of ``rs`` that carries an accounting report,
    writes ``<prefix><config-slug>__<mix>.json`` (plus
    ``__frag<f>`` off the spec's first fragmentation level) with the
    report's :meth:`~repro.sim.accounting.AccountingReport.to_dict`
    schema (documented in ``docs/OBSERVABILITY.md``) plus a ``system``
    block naming the technology backend and the *effective* refresh
    policy -- ``sarp`` on a non-sub-banked organisation degrades to
    ``darp``, and the sidecar records the policy actually applied.
    Results restored from the store carry their persisted report, so
    re-emitted sidecars are identical to the original run's.  Returns
    the paths written, sorted.  Cells without accounting
    (``observe=False``) are skipped silently, so the helper is safe to
    call unconditionally.
    """
    os.makedirs(directory, exist_ok=True)
    default_frag = rs.spec.fragmentations[0]
    paths: List[str] = []
    cells = sorted((c for c in rs.results if c.kind == "mix"),
                   key=lambda c: (c.config.name, c.workload,
                                  c.fragmentation))
    for cell in cells:
        report = rs.results[cell].accounting
        if report is None:
            continue
        report.verify()
        payload = report.to_dict()
        config = cell.config
        payload["system"] = {
            "backend": config.backend,
            "refresh_policy": config.refresh_policy,
            "effective_refresh_policy": config.effective_refresh_policy,
        }
        name = f"{prefix}{slug(config.name)}__{cell.workload}"
        if cell.fragmentation != default_frag:
            name += f"__frag{cell.fragmentation:g}"
        path = os.path.join(directory, name + ".json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return sorted(paths)
