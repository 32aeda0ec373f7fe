"""Every behaviour pin, and the one command that checks or rewrites them.

Three files under ``tests/data`` pin what the simulator computes.  Each
has one compute function here, and the tier-1 tests assert through the
same functions, so this command cannot drift from what the suite checks:

* ``figure_digests.json`` (:func:`figure_digests`): the reduced output
  of every figure runner on the pinned grid (:data:`SETTINGS` and
  :data:`AXES`) and its canonical-JSON SHA-256.  JSON round-trips
  Python floats exactly, so an equal digest means bit-identical
  arithmetic, not "close enough".
* ``accounting_digests.json`` (:func:`accounting_digests`): the digest
  of the observer's report on every mix cell of the pinned ``figref``
  grid, and of one DARP cell's event trace.  Result digests leave the
  observer out, so nothing else pins what it says.
* ``pre_backend_digests.json`` (:func:`pre_backend_digests`): the
  result digest of every ``dram`` preset and five refresh variants on
  one trace mix, in run order.  All but the no-DDB paired bank were
  captured before timings moved into the technology backends.

Usage, from the repository root::

    PYTHONPATH=src python -m tests.pins [--write FILE[:ENTRY] ...]

The command recomputes all three files in a throwaway result store,
prints ``file: entry: old -> new`` for each moved entry and exits 1 if
any moved.  An entry is a top-level scalar of a file, or a child of a
top-level object or list, named by its path: ``figures/ablation``,
``trace/<cell>``, ``digests/9``.  ``--write`` rewrites the files it
names, in the canonical ``indent=2, sort_keys=True`` form; naming
``FILE:ENTRY`` puts only that entry in scope.  FILE is a bare name
(``pre_backend_digests.json``) or a path to the file in ``tests/data``
(``tests/data/pre_backend_digests.json``); any other FILE is refused
with one line, and nothing is written.  If an entry outside the named
scope moved, it writes nothing and refuses with one line.

Two more pins keep their own checkers, so they have no second
implementation here: ``perfbench/pins.json``, which every benchmark run
verifies, and the ``quick_digest`` in ``BENCH_simspeed.json``, which
``benchmarks/bench_simspeed.py --quick`` verifies in CI's perf smoke.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.core.mechanisms import EruConfig
from repro.sim import config as cfgs
from repro.sim.accounting import ObserveOptions
from repro.sim.experiments import run_figure
from repro.sim.parallel import run_grid
from repro.sim.runner import cell_job
from repro.sim.simulator import run_traces
from repro.sim.specs import NAMED_SPECS, ExperimentSettings, ExperimentSpec
from repro.workloads.mixes import mix_traces

DATA = Path(__file__).parent / "data"

# -- the pinned grid ---------------------------------------------------------

#: Small enough for CI, large enough that every mechanism (EWLR, RAP,
#: DDB, refresh) changes the numbers.
SETTINGS = ExperimentSettings(accesses_per_core=350, fragmentation=0.1,
                              seed=0, mixes=("mix0", "mix3"))

#: Each spec-backed figure's axes: full sweeps would dominate the
#: suite's runtime without covering more code paths.
AXES: Dict[str, dict] = {
    "fig12": {},
    "fig13": {"fragmentations": (0.1, 0.5), "planes": (2, 4)},
    "fig14": {"frequencies": (1.333e9, 2.0e9)},
    "fig15": {},
    "fig16": {},
    "figref": {"densities": ("4Gb", "16Gb")},
    "ablation": {},
}


def pinned_spec(name: str, observe: bool = False) -> ExperimentSpec:
    """The grid one figure is pinned on."""
    return NAMED_SPECS[name](SETTINGS, observe=observe, **AXES[name])


def payload_digest(payload) -> str:
    """SHA-256 over the canonical JSON rendering of one payload."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- figure_digests.json -----------------------------------------------------


def _fig4() -> dict:
    from repro.analysis.plane_conflict import fig4_plane_conflicts
    results, total = fig4_plane_conflicts(
        SETTINGS.accesses_per_core, SETTINGS.fragmentation, SETTINGS.seed)
    return {
        "overlapping": results[2].overlapping,
        "total": total,
        "points": {
            str(n): {"conflict": c.conflict_fraction(total),
                     "no_conflict": c.no_conflict_fraction(total)}
            for n, c in sorted(results.items())
        },
    }


def _fig11() -> list:
    from repro.core.area import fig11_table
    return [asdict(row) for row in fig11_table()]


def _tab1() -> list:
    from repro.dram.timing import GENERATIONS
    return [{"name": g.name, "bank_count": g.bank_count,
             "channel_clock_mhz": g.channel_clock_mhz,
             "core_clock_mhz": g.core_clock_mhz,
             "internal_prefetch": g.internal_prefetch,
             "tfaw_ns": g.tfaw_ns}
            for g in GENERATIONS]


def _tab3() -> dict:
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


def _points(points) -> list:
    return [asdict(p) for p in points]


def _ablation(sweeps) -> dict:
    """A representative arm of each ablation sweep."""
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


#: The figures that simulate nothing.
_TABLES = {"fig4": _fig4, "fig11": _fig11, "tab1": _tab1, "tab3": _tab3}

#: How each spec-backed figure's reduced table becomes its payload.
_SPEC_PAYLOADS: Dict[str, Callable[[object], object]] = {
    "fig12": lambda table: {"values": table.values,
                            "normalized": table.normalized(),
                            "gmeans": table.gmeans()},
    "fig13": _points,
    "fig14": _points,
    "fig15": dict,
    "fig16": _points,
    "figref": _points,
    "ablation": _ablation,
}


def figure_payload(name: str, jobs: int = 1):
    """The reduced output of one figure runner as a JSON-able payload;
    spec-backed figures run ``jobs``-wide against the default store."""
    if name in _TABLES:
        return _TABLES[name]()
    table, _, _ = run_figure(name, SETTINGS, jobs=jobs, **AXES[name])
    return _SPEC_PAYLOADS[name](table)


#: Every pinned figure, in compute order.
FIGURES = tuple(_TABLES) + tuple(_SPEC_PAYLOADS)


def figure_digests() -> dict:
    """``figure_digests.json``: each figure's payload and its digest."""
    figures = {}
    for name in FIGURES:
        payload = figure_payload(name)
        figures[name] = {"digest": payload_digest(payload),
                         "payload": payload}
    return {"settings": asdict(SETTINGS), "figures": figures}


# -- accounting_digests.json -------------------------------------------------

#: The traced cell: DARP at the densest refresh grade, on the first mix.
TRACE_SUFFIX = "+ref-darp-16Gb"


def _figref_mix_cells():
    return [cell for cell in pinned_spec("figref", observe=True).expand()
            if cell.kind == "mix"]


def _label(cell) -> str:
    return f"{cell.config.name} / {cell.workload}"


def accounting_report_digests() -> dict:
    """``{cell: digest of AccountingReport.to_dict()}`` over every mix
    cell of the pinned ``figref`` grid, observed."""
    cells = _figref_mix_cells()
    results = run_grid([cell_job(cell, observe=True) for cell in cells])
    return {_label(cell): payload_digest(result.accounting.to_dict())
            for cell, result in zip(cells, results)}


def darp_trace_digests() -> dict:
    """``{cell: digest of TraceSink.to_dicts()}`` for the traced DARP
    cell."""
    cell = next(c for c in _figref_mix_cells()
                if c.config.name.endswith(TRACE_SUFFIX))
    traces = mix_traces(cell.workload, cell.accesses,
                        fragmentation=cell.fragmentation, seed=cell.seed)
    result = run_traces(cell.config, traces, core_config=cell.core_config,
                        observe=ObserveOptions(trace=True))
    return {_label(cell): payload_digest(result.trace.to_dicts())}


def accounting_digests() -> dict:
    """``accounting_digests.json``."""
    return {"accounting": accounting_report_digests(),
            "trace": darp_trace_digests()}


# -- pre_backend_digests.json ------------------------------------------------

GOLDEN_MIX = "mix3"
GOLDEN_ACCESSES = 300
GOLDEN_SEED = 5


def pre_backend_configs() -> list:
    """Every ``dram`` preset, then the refresh variants, in run order."""
    configs = [c for c in cfgs.all_presets() if c.backend == "dram"]
    for density, policy in (("8Gb", "baseline"), ("16Gb", "darp"),
                            ("16Gb", "sarp")):
        for base in (cfgs.ddr4_baseline(), cfgs.vsb(EruConfig.full(4))):
            if policy == "sarp" and not base.subbanked:
                continue  # the flat DDR4 has no sub-banks for sarp
            configs.append(replace(
                base, refresh_density=density, refresh_policy=policy,
                name=f"{base.name}+{density}/{policy}"))
    return configs


@functools.lru_cache(maxsize=1)
def _golden_traces():
    return mix_traces(GOLDEN_MIX, GOLDEN_ACCESSES, seed=GOLDEN_SEED)


def golden_digest(config) -> str:
    """The result digest of one config on the golden trace mix."""
    return run_traces(config, _golden_traces()).digest()


def pre_backend_digests() -> dict:
    """``pre_backend_digests.json``: ``[name, digest]`` per config."""
    return {"mix": GOLDEN_MIX, "accesses": GOLDEN_ACCESSES,
            "seed": GOLDEN_SEED,
            "digests": [[c.name, golden_digest(c)]
                        for c in pre_backend_configs()]}


# -- the command -------------------------------------------------------------

#: Every pin file under :data:`DATA`, with its compute function.
PINS: Dict[str, Callable[[], dict]] = {
    "figure_digests.json": figure_digests,
    "accounting_digests.json": accounting_digests,
    "pre_backend_digests.json": pre_backend_digests,
}


def load(name: str, data: Path = DATA) -> dict:
    """One pin file, parsed."""
    with open(data / name) as fh:
        return json.load(fh)


def entries(doc: dict) -> dict:
    """``{path: value}`` for every entry of one pin file.  List children
    are named by position, so two entries never merge."""
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update((f"{key}/{k}", v) for k, v in value.items())
        elif isinstance(value, list):
            out.update((f"{key}/{i}", v) for i, v in enumerate(value))
        else:
            out[key] = value
    return out


def _show(value) -> str:
    if value is None:
        return "missing"
    if isinstance(value, dict) and "digest" in value:
        return value["digest"]
    return json.dumps(value)


def drift(old: dict, new: dict) -> Dict[str, str]:
    """``{entry: "old -> new"}`` for each entry of the computed
    document ``new``, as it would be written, that differs from
    ``old``."""
    before, after = entries(old), entries(json.loads(json.dumps(new)))
    return {path: f"{_show(before.get(path))} -> {_show(after.get(path))}"
            for path in sorted(before.keys() | after.keys())
            if before.get(path) != after.get(path)}


def main(argv=None, pins: Dict[str, Callable[[], dict]] = PINS,
         data: Path = DATA) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.pins",
        description="Check every behaviour pin under tests/data, or "
                    "rewrite the ones named.")
    parser.add_argument("--write", nargs="+", default=[],
                        metavar="FILE[:ENTRY]",
                        help="rewrite these files (a bare name, or a "
                             "path in the pin data directory); "
                             "FILE:ENTRY puts only that entry in scope")
    args = parser.parse_args(argv)
    scope: Dict[str, Optional[set]] = {}  # file -> entries; None: all
    for item in args.write:
        name, _, entry = item.partition(":")
        path = Path(name)
        if path.resolve().parent == data.resolve():
            name = path.name
        if name not in pins:
            print(f"{parser.prog}: error: unknown pin file {name!r}; "
                  f"known: {', '.join(pins)}, by name or in {data}",
                  file=sys.stderr)
            return 2
        if not entry:
            scope[name] = None
        elif scope.get(name, set()) is not None:
            scope.setdefault(name, set()).add(entry)

    docs = {name: compute() for name, compute in pins.items()}
    moved = [(name, path, change) for name, doc in docs.items()
             for path, change in drift(load(name, data), doc).items()]
    if args.write:
        outside = [f"{name}: {path}" for name, path, _ in moved
                   if name not in scope
                   or scope[name] is not None and path not in scope[name]]
        if outside:
            print("refusing to write; moved outside --write: "
                  + "; ".join(outside), file=sys.stderr)
            return 1
    for name, path, change in moved:
        print(f"{name}: {path}: {change}")
    for name in scope:
        with open(data / name, "w") as fh:
            json.dump(docs[name], fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {name}")
    if args.write:
        return 0
    if moved:
        return 1
    print("every pin holds: " + ", ".join(pins))
    return 0


if __name__ == "__main__":
    # A throwaway store keeps the run hermetic: no entry a developer's
    # cache holds may leak into the pinned numbers.
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        sys.exit(main())
