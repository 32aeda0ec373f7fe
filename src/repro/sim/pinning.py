"""Reduced-output payloads and digests for every figure runner.

The experiment-layer refactor (declarative specs + content-addressed
store) carries one non-negotiable invariant: **every figure's numbers
are identical to the pre-refactor path**.  This module freezes what
"the numbers" are -- for each figure/table runner it renders the
*reduced output* (the GMEAN tables, sweep points, quartile rows the
benches print) into a canonical JSON-able payload and hashes it.

``tools/pin_figure_digests.py`` ran these builders against the
pre-refactor code and pinned the digests in
``tests/data/figure_digests.json``; ``tests/sim/test_figure_digests.py``
re-runs them through the spec/store/runner path (cold store, warm
store, serial and ``--jobs N``) and asserts equality digest by digest.
Every builder takes ``(settings, jobs)``; the spec-backed figures run
through :func:`repro.sim.experiments.run_figure`, the others ignore
``jobs``.

Floats are carried verbatim: ``json.dumps`` round-trips Python floats
exactly, so digest equality means bit-identical arithmetic, not
"close enough".
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict

from repro.sim.experiments import run_figure
from repro.sim.specs import ExperimentSettings

#: Scale the digests were pinned at: small enough for CI, large enough
#: that every mechanism (EWLR, RAP, DDB, refresh) changes the numbers.
PINNED_ACCESSES = 350
PINNED_MIXES = ("mix0", "mix3")
PINNED_FRAGMENTATION = 0.1
PINNED_SEED = 0

#: Reduced sweep axes (full sweeps would dominate the suite's runtime
#: without covering more code paths).
PINNED_FIG13_PLANES = (2, 4)
PINNED_FIG13_FRAGS = (0.1, 0.5)
PINNED_FIG14_FREQUENCIES = (1.333e9, 2.0e9)
PINNED_FIGREF_DENSITIES = ("4Gb", "16Gb")

#: Where the pinned digests live, relative to the repo root.
PINNED_DIGESTS_PATH = "tests/data/figure_digests.json"


def pinned_settings() -> ExperimentSettings:
    """The :class:`ExperimentSettings` every pinned figure runs at."""
    return ExperimentSettings(
        accesses_per_core=PINNED_ACCESSES,
        fragmentation=PINNED_FRAGMENTATION,
        seed=PINNED_SEED,
        mixes=PINNED_MIXES,
    )


def payload_digest(payload) -> str:
    """SHA-256 over the canonical JSON rendering of one payload."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- per-figure payload builders --------------------------------------------


def _fig4_payload(s: ExperimentSettings, jobs: int) -> dict:
    from repro.analysis.plane_conflict import fig4_plane_conflicts
    results, total = fig4_plane_conflicts(
        s.accesses_per_core, s.fragmentation, s.seed)
    return {
        "overlapping": results[2].overlapping,
        "total": total,
        "points": {
            str(n): {"conflict": c.conflict_fraction(total),
                     "no_conflict": c.no_conflict_fraction(total)}
            for n, c in sorted(results.items())
        },
    }


def _fig11_payload(settings: ExperimentSettings, jobs: int) -> list:
    from repro.core.area import fig11_table
    return [{"scheme": row.scheme, "planes": row.planes,
             "overhead_pct": row.overhead_pct}
            for row in fig11_table()]


def _tab1_payload(settings: ExperimentSettings, jobs: int) -> list:
    from repro.dram.timing import GENERATIONS
    return [{"name": g.name, "bank_count": g.bank_count,
             "channel_clock_mhz": g.channel_clock_mhz,
             "core_clock_mhz": g.core_clock_mhz,
             "internal_prefetch": g.internal_prefetch,
             "tfaw_ns": g.tfaw_ns}
            for g in GENERATIONS]


def _tab3_payload(settings: ExperimentSettings, jobs: int) -> dict:
    from repro.sim import config as cfgs
    from repro.workloads.mixes import MIXES

    configs = [cfgs.ddr4_baseline(), cfgs.bg32(), cfgs.ideal32(),
               cfgs.vsb(), cfgs.paired_bank(), cfgs.half_dram(),
               cfgs.masa(4), cfgs.masa(8), cfgs.masa_eruca(8)]
    t = cfgs.ddr4_baseline().timing()
    ddb_t = cfgs.vsb().timing()
    return {
        "configs": [{"name": c.name, "policy": c.bus_policy.name,
                     "digest": c.digest()} for c in configs],
        "timing": {"tCCD_S": t.tCCD_S, "tCCD_L": t.tCCD_L,
                   "tWTR_S": t.tWTR_S, "tWTR_L": t.tWTR_L,
                   "tTCW": ddb_t.tTCW, "tTWTRW": ddb_t.tTWTRW},
        "mixes": {mix: {"members": list(names), "signature": sig}
                  for mix, (names, sig) in MIXES.items()},
    }


def _fig12_payload(settings: ExperimentSettings, jobs: int) -> dict:
    table, _ = run_figure("fig12", settings, jobs=jobs)
    return {"values": table.values, "normalized": table.normalized(),
            "gmeans": table.gmeans()}


def _fig13_payload(settings: ExperimentSettings, jobs: int) -> list:
    points, _ = run_figure("fig13", settings, jobs=jobs,
                           fragmentations=PINNED_FIG13_FRAGS,
                           planes=PINNED_FIG13_PLANES)
    return [{"scheme": p.scheme, "planes": p.planes,
             "fragmentation": p.fragmentation,
             "normalized_ws": p.normalized_ws,
             "plane_precharge_fraction": p.plane_precharge_fraction,
             "ewlr_hit_rate": p.ewlr_hit_rate}
            for p in points]


def _fig14_payload(settings: ExperimentSettings, jobs: int) -> list:
    points, _ = run_figure("fig14", settings, jobs=jobs,
                           frequencies=PINNED_FIG14_FREQUENCIES)
    return [{"config": p.config,
             "bus_frequency_hz": p.bus_frequency_hz,
             "normalized_ws": p.normalized_ws}
            for p in points]


def _fig15_payload(settings: ExperimentSettings, jobs: int) -> dict:
    table, _ = run_figure("fig15", settings, jobs=jobs)
    return dict(table)


def _fig16_payload(settings: ExperimentSettings, jobs: int) -> list:
    rows, _ = run_figure("fig16", settings, jobs=jobs)
    return [{"config": r.config, "latency_stats_ns": r.latency_stats_ns,
             "background_energy": r.background_energy,
             "activation_energy": r.activation_energy,
             "total_energy": r.total_energy}
            for r in rows]


def _figref_payload(settings: ExperimentSettings, jobs: int) -> list:
    points, _ = run_figure("figref", settings, jobs=jobs,
                           densities=PINNED_FIGREF_DENSITIES)
    return [{"policy": p.policy, "density": p.density,
             "normalized_ws": p.normalized_ws,
             "refreshes": p.refreshes}
            for p in points]


def _ablation_payload(settings: ExperimentSettings, jobs: int) -> dict:
    """A representative arm of each ablation sweep
    (:data:`repro.sim.specs.ABLATION_SWEEPS`)."""
    sweeps, _ = run_figure("ablation", settings, jobs=jobs)
    out: Dict[str, dict] = {}
    for rap in (False, True):
        for placement in ("lsb", "msb"):
            res = sweeps["plane"][f"rap={rap},plane={placement}"]
            out[f"plane rap={rap},placement={placement}"] = {
                "ipc": sum(res.ipcs),
                "plane_pre": res.plane_conflict_precharge_fraction,
                "ewlr_hits": res.ewlr_hit_rate,
            }
    # (sweep, arm label, pinned key)
    picks = (("subbank", "subbank_low=True", "subbank_low=True"),
             ("subbank", "subbank_low=False", "subbank_low=False"),
             ("drain", "drain 24/8", "drain 24/8"),
             ("drain", "drain 31/30", "drain 31/30"),
             ("page", "open page", "page open page"),
             ("page", "close@400ns", "page close@400ns"),
             ("ddb", "tTCW on", "ddb tTCW on"),
             ("ddb", "tTCW off", "ddb tTCW off"))
    for sweep, label, key in picks:
        out[key] = {"ipc": sum(sweeps[sweep][label].ipcs)}
    return out


#: Every pinned runner, in pin/verification order.
FIGURE_BUILDERS: Dict[str, Callable[[ExperimentSettings, int],
                                     object]] = {
    "fig4": _fig4_payload,
    "fig11": _fig11_payload,
    "tab1": _tab1_payload,
    "tab3": _tab3_payload,
    "fig12": _fig12_payload,
    "fig13": _fig13_payload,
    "fig14": _fig14_payload,
    "fig15": _fig15_payload,
    "fig16": _fig16_payload,
    "figref": _figref_payload,
    "ablation": _ablation_payload,
}


def figure_payload(name: str, settings: ExperimentSettings,
                   jobs: int = 1):
    """The reduced output of one figure runner as a JSON-able payload."""
    return FIGURE_BUILDERS[name](settings, jobs)
