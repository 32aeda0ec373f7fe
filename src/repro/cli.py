"""Command-line interface: regenerate any paper artefact from a shell.

::

    python -m repro list
    python -m repro fig12 --mixes mix0,mix3 --accesses 1500
    python -m repro fig12 --emit-stats out/          # + JSON sidecars
    python -m repro fig14 --accesses 1000
    python -m repro fig11
    python -m repro fig4 --accesses 2000
    python -m repro figref --mixes mix0,mix3     # refresh policy sweep
    python -m repro run --config vsb --mix mix0
    python -m repro run fig12 --jobs 0           # spec-driven, resumable
    python -m repro run my_spec.json
    python -m repro run ablation                 # design-choice sweeps
    python -m repro cells fig12                  # expansion + store diff
    python -m repro gc --max-age-days 30         # prune the result store
    python -m repro stats --config vsb --mix mix0 --per-bank
    python -m repro trace --config vsb --mix mix0 --limit 50
    python -m cProfile -s tottime -m repro run --config vsb --mix mix0

Each figure sub-command prints the same rows as the corresponding
benchmark in ``benchmarks/`` (the benches add assertions and timing on
top).  ``run`` with a positional argument executes a declarative
experiment spec -- a named figure grid or a JSON file (see
``docs/EXPERIMENTS_SERVICE.md``) -- against the content-addressed
result store, simulating only cells the store does not already hold;
``cells`` previews that diff and ``gc`` prunes the store.  ``stats``
and ``trace`` expose the cycle-accounting layer
(:mod:`repro.sim.accounting`): ``stats`` attributes every channel cycle
to one stall bucket, ``trace`` streams the per-command event log; both
are documented in ``docs/OBSERVABILITY.md``.  Single-cell ``run`` also
prints the scheduler's effort counters and the result digest; the
standard library's ``cProfile`` names its hottest functions.  A flag the
chosen form of ``run`` would ignore is a one-line error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.mechanisms import EruConfig
from repro.sim import config as cfgs
from repro.sim.experiments import emit_stats_sidecars, run_figure
from repro.sim.specs import ExperimentSettings
from repro.sim.store import StoreUnwritable
from repro.workloads.mixes import MIX_NAMES

#: Shell-friendly names for the evaluated configurations.
CONFIG_FACTORIES = {
    "ddr4": cfgs.ddr4_baseline,
    "bg32": cfgs.bg32,
    "ideal32": cfgs.ideal32,
    "vsb": cfgs.vsb,
    "vsb-naive": lambda: cfgs.vsb(EruConfig.naive(4)),
    "paired-bank": cfgs.paired_bank,
    "half-dram": cfgs.half_dram,
    "masa4": lambda: cfgs.masa(4),
    "masa8": lambda: cfgs.masa(8),
    "masa8-eruca": lambda: cfgs.masa_eruca(8),
    "pcm-palp": cfgs.pcm_palp,
    "pcm-palp-vsb": lambda: cfgs.pcm_palp(EruConfig.full(4, ddb=False)),
    "gddr5": cfgs.gddr5,
}


def _settings(args) -> ExperimentSettings:
    mixes = tuple(args.mixes.split(",")) if args.mixes else MIX_NAMES
    for m in mixes:
        if m not in MIX_NAMES:
            raise SystemExit(f"unknown mix {m!r}")
    return ExperimentSettings(accesses_per_core=args.accesses,
                              fragmentation=args.fragmentation,
                              seed=args.seed, mixes=mixes)


class _Given(argparse.Action):
    """Store the value and note the flag in ``args.given``, so a command
    can reject a flag it would otherwise ignore."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*getattr(namespace, "given", ()),
                           self.option_strings[0])


def _reject_given(args, flags, form: str) -> None:
    """One-line error exit if any of ``flags`` was given."""
    for flag in getattr(args, "given", ()):
        if flag in flags:
            raise SystemExit(f"repro {args.command}: error: {flag} "
                             f"does not apply to {form}")


def _jobs(args) -> int:
    """``--jobs``, with 0 meaning every core."""
    from repro.sim.parallel import default_workers
    return args.jobs if args.jobs > 0 else default_workers()


def _resolve_spec(args):
    """The spec ``run``/``cells`` name, or a one-line error exit."""
    from repro.sim.specs import resolve_spec
    try:
        return resolve_spec(args.spec, _settings(args))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro {args.command}: error: {exc}") from None


def _cell_config(args):
    """The selected preset, with the refresh knobs applied if given."""
    import dataclasses
    factory = CONFIG_FACTORIES.get(args.config)
    if factory is None:
        raise SystemExit(f"unknown config {args.config!r}; see 'list'")
    config = factory()
    density = getattr(args, "refresh", None)
    if density is not None:
        policy = getattr(args, "refresh_policy", "baseline")
        try:
            config = dataclasses.replace(
                config, refresh_density=density, refresh_policy=policy,
                name=f"{config.name}+ref-{policy}-{density}")
        except ValueError as exc:
            # e.g. --refresh on a refresh-free technology (PCM), or a
            # density grade the backend does not ship.
            raise SystemExit(str(exc)) from None
    return config


def _observed_run(args, trace: bool = False, trace_limit=None):
    """Run one (config, mix) cell with the observability layer on."""
    from repro.sim.accounting import ObserveOptions
    from repro.sim.simulator import run_traces
    from repro.workloads.mixes import mix_traces
    config = _cell_config(args)
    traces = mix_traces(args.mix, args.accesses,
                        fragmentation=args.fragmentation, seed=args.seed)
    observe = ObserveOptions(trace=trace, trace_limit=trace_limit)
    return run_traces(config, traces, observe=observe)


def cmd_list(args) -> None:
    from repro.sim.specs import NAMED_SPECS
    print("configurations:")
    for name in CONFIG_FACTORIES:
        print(f"  {name:14s} -> {CONFIG_FACTORIES[name]().name}")
    print("mixes:", ", ".join(MIX_NAMES))
    print("experiments: fig4 fig11 fig12 fig13 fig14 fig15 fig16 "
          "figref")
    print("named specs (run/cells):", " ".join(sorted(NAMED_SPECS)))
    print("observability: stats trace (and --emit-stats on figures); "
          "profile with python -m cProfile -m repro run")


def _progress_printer():
    """Per-cell progress lines for the spec runner."""
    def progress(cell, status):
        d = cell.describe()
        print(f"[{status:6s}] {d['kind']:5s} {d['workload']:10s} "
              f"frag={d['fragmentation']:.2f} seed={d['seed']} "
              f"{d['config']}", flush=True)
    return progress


def _run_spec_cmd(args) -> None:
    """``repro run <spec.json|named-fig>``: execute a declarative spec.

    Diffs the expanded grid against the result store and simulates only
    the missing cells; the final counter line (``cells=... submitted=...``)
    is stable for scripting -- the CI resume-smoke step asserts
    ``submitted=0`` on a second run.
    """
    from repro.sim.runner import run_spec
    spec = _resolve_spec(args)
    _, report = run_spec(spec, jobs=_jobs(args),
                         progress=_progress_printer())
    print(f"spec {spec.name} digest {spec.digest()[:12]}")
    print(report.summary())


def cmd_cells(args) -> None:
    """``repro cells``: preview a spec's expansion and its store diff."""
    from repro.sim.store import ResultStore
    spec = _resolve_spec(args)
    store = ResultStore()
    cached = 0
    for cell in spec.expand():
        hit = store.contains(cell.store_key(), cell.config.energy)
        cached += hit
        d = cell.describe()
        print(f"[{'cached' if hit else 'missing'}] {d['kind']:5s} "
              f"{d['workload']:10s} frag={d['fragmentation']:.2f} "
              f"seed={d['seed']} {d['config']}")
    total = len(spec.expand())
    print(f"spec {spec.name} digest {spec.digest()[:12]}: "
          f"{total} cells, {cached} cached, {total - cached} missing")


def cmd_gc(args) -> None:
    """``repro gc``: prune old / excess result-store entries."""
    from repro.sim.store import ResultStore
    store = ResultStore()
    report = store.gc(max_age_days=args.max_age_days,
                      max_entries=args.max_entries)
    print(f"store {store.root}: scanned {report.scanned}, "
          f"removed {report.removed} ({report.freed_bytes} bytes), "
          f"kept {report.kept}")


def cmd_run(args) -> None:
    if args.spec:
        _reject_given(args, ("--config", "--mix", "--refresh",
                             "--refresh-policy"), "a SPEC run")
        return _run_spec_cmd(args)
    _reject_given(args, ("--mixes", "--jobs"), "a single-cell run")
    from repro.sim.simulator import run_traces
    from repro.workloads.mixes import mix_traces
    config = _cell_config(args)
    traces = mix_traces(args.mix, args.accesses,
                        fragmentation=args.fragmentation, seed=args.seed)
    result = run_traces(config, traces)
    print(f"config: {config.name}")
    print(f"IPC per core: "
          + " ".join(f"{ipc:.3f}" for ipc in result.ipcs))
    print(f"transactions: {result.transactions}, "
          f"commands: {result.stats.commands_issued}")
    hit = 1 - result.stats.acts / max(1, result.stats.columns)
    print(f"row-hit rate: {hit:.1%}, EWLR hits: {result.ewlr_hit_rate:.1%}")
    print(f"plane-conflict precharges: "
          f"{result.plane_conflict_precharge_fraction:.1%}")
    print(f"elapsed: {result.elapsed_ps / 1e6:.1f} us simulated")
    s = result.stats
    print(f"effort: {s.peeks / max(1, s.commands_issued):.3f} "
          f"peeks/command, "
          f"{s.candidates_built / max(1, s.commands_issued):.3f} "
          f"candidates built/command, "
          f"{s.candidates_examined / max(1, s.peeks):.3f} examined/peek; "
          f"loop {result.wall_time_s:.3f} s; digest {result.digest()}")


def cmd_stats(args) -> None:
    """``repro stats``: full stall attribution for one (config, mix)."""
    result = _observed_run(args)
    report = result.accounting
    report.verify()
    print(report.format_table(per_bank=args.per_bank))
    if args.json:
        with open(args.json, "w") as fh:
            report.write_json(fh)
        print(f"wrote {args.json}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("\n".join(
                ",".join(str(v) for v in row)
                for row in report.bucket_csv_rows()) + "\n")
        print(f"wrote {args.csv}")


def cmd_trace(args) -> None:
    """``repro trace``: per-command event log for one (config, mix)."""
    result = _observed_run(args, trace=True, trace_limit=args.limit)
    sink = result.trace
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        if args.format == "csv":
            sink.write_csv(out)
        else:
            sink.write_jsonl(out)
    finally:
        if args.output:
            out.close()
            print(f"wrote {len(sink)} events to {args.output}"
                  + (f" ({sink.dropped} dropped past --limit)"
                     if sink.dropped else ""))
    if not args.output and sink.dropped:
        print(f"# {sink.dropped} events dropped past --limit",
              file=sys.stderr)


def cmd_fig4(args) -> None:
    from repro.analysis.plane_conflict import (
        FIG4_PLANE_COUNTS, fig4_plane_conflicts)
    results, total = fig4_plane_conflicts(
        args.accesses, args.fragmentation, args.seed)
    print(f"{'planes':>8s} {'conflict':>10s} {'no conflict':>12s}")
    for n in FIG4_PLANE_COUNTS:
        c = results[n]
        print(f"{n:8d} {c.conflict_fraction(total):10.1%} "
              f"{c.no_conflict_fraction(total):12.1%}")


def cmd_fig11(args) -> None:
    from repro.core.area import fig11_table
    for row in fig11_table():
        print(f"{row.scheme:28s} {row.planes:3d}P "
              f"{row.overhead_pct:7.3f}%")


def _print_fig12(table) -> None:
    norm = table.normalized()
    gmeans = table.gmeans()
    mixes = list(norm[table.baseline])
    print(f"{'config':36s} " + " ".join(f"{m:>6s}" for m in mixes)
          + f" {'GMEAN':>7s}")
    for config, row in norm.items():
        cells = " ".join(f"{row[m]:6.3f}" for m in mixes)
        print(f"{config:36s} {cells} {gmeans[config]:7.3f}")


def _print_fig13(points) -> None:
    for p in points:
        print(f"{p.scheme:22s} {p.planes:2d}P frag={p.fragmentation:3.0%} "
              f"ws={p.normalized_ws:5.3f} "
              f"plane-pre={p.plane_precharge_fraction:5.1%} "
              f"ewlr={p.ewlr_hit_rate:5.1%}")


def _print_fig14(points) -> None:
    for p in points:
        print(f"{p.config:30s} {p.bus_frequency_hz / 1e9:4.2f}GHz "
              f"ws={p.normalized_ws:5.3f}")


def _print_fig15(table) -> None:
    for name, value in table.items():
        print(f"{name:36s} {value:6.3f}")


def _print_fig16(rows) -> None:
    base = rows[0]
    for row in rows:
        s = row.latency_stats_ns
        rel = row.relative_to(base)
        print(f"{row.config:26s} lat mean/med/q3 = "
              f"{s['mean']:6.1f}/{s['median']:6.1f}/{s['q3']:6.1f} ns"
              f"   energy bg/act/total = {rel['background']:.1%}/"
              f"{rel['activation']:.1%}/{rel['total']:.1%}")


def _print_figref(points) -> None:
    """Refresh policy x density sweep (docs/REFRESH.md)."""
    policies, densities = [], []
    for p in points:
        if p.policy not in policies:
            policies.append(p.policy)
        if p.density not in densities:
            densities.append(p.density)
    by_key = {(p.policy, p.density): p for p in points}
    print(f"{'policy':10s} " + " ".join(f"{d:>8s}" for d in densities))
    for policy in policies:
        print(f"{policy:10s} " + "    ".join(
            f"{by_key[(policy, d)].normalized_ws:5.3f}"
            for d in densities))


def cmd_figure(args) -> None:
    """``repro fig12`` ... ``repro figref``: run a named figure spec
    through the store and print its table (plus stall-attribution
    sidecars with ``--emit-stats DIR``), then the run report line
    (``cells=... submitted=...``, as ``repro run`` prints it)."""
    table, rs, report = run_figure(args.command, _settings(args),
                                   jobs=_jobs(args),
                                   observe=args.emit_stats is not None)
    args.printer(table)
    if args.emit_stats is not None:
        for path in emit_stats_sidecars(rs, args.emit_stats,
                                        prefix=f"{args.command}__"):
            print(f"wrote {path}")
    print(report.summary())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--accesses", type=int, default=1500,
                       help="memory accesses per core (default 1500)")
        p.add_argument("--fragmentation", type=float, default=0.1,
                       help="FMFI level in [0,1] (default 0.1)")
        p.add_argument("--seed", type=int, default=0)
        return p

    def jobs(p):
        """--jobs, for the commands that run a grid."""
        p.add_argument("--jobs", type=int, default=1, action=_Given,
                       help="worker processes for the experiment grid "
                            "(default 1 = serial; 0 = all cores)")
        return p

    sub.add_parser("list", help="configurations, mixes, experiments"
                   ).set_defaults(func=cmd_list)

    def cell(p):
        """--config/--mix selectors shared by run/stats/trace."""
        from repro.controller.scheduler import REFRESH_POLICIES
        from repro.dram.backends import get_backend
        p.add_argument("--config", default="vsb", action=_Given,
                       choices=sorted(CONFIG_FACTORIES))
        p.add_argument("--mix", default="mix0", action=_Given,
                       choices=MIX_NAMES)
        p.add_argument("--refresh", metavar="DENSITY", default=None,
                       action=_Given,
                       choices=sorted(
                           get_backend("dram").refresh_grades_ns),
                       help="enable DRAM refresh at this density grade "
                            "(e.g. 8Gb; default: refresh off, matching "
                            "the presets)")
        p.add_argument("--refresh-policy", default="baseline",
                       action=_Given, choices=REFRESH_POLICIES,
                       help="refresh scheduling policy when --refresh "
                            "is given (see docs/REFRESH.md)")
        return p

    run = jobs(cell(common(sub.add_parser(
        "run", help="one config on one mix, or a full experiment spec",
        description="With no positional argument: simulate one "
                    "(--config, --mix) cell and print its headline "
                    "numbers.  With SPEC (a named figure grid such as "
                    "fig12, or a path to a spec JSON file): expand the "
                    "spec, serve every cell already in the result "
                    "store, and simulate only the missing ones -- a "
                    "killed sweep resubmitted re-runs only what is "
                    "absent.  See docs/EXPERIMENTS_SERVICE.md."))))
    run.add_argument("spec", nargs="?", default=None,
                     help="named spec (see 'list') or spec JSON path; "
                          "omit for the single-cell --config/--mix "
                          "form")
    run.add_argument("--mixes", default=None, action=_Given,
                     help="comma-separated mix subset for named specs")
    run.set_defaults(func=cmd_run)

    cells = common(sub.add_parser(
        "cells", help="expand a spec and diff it against the store",
        description="Print one line per grid cell of SPEC with its "
                    "store status (cached/missing) -- a dry run of "
                    "'repro run SPEC'."))
    cells.add_argument("spec",
                       help="named spec (see 'list') or spec JSON path")
    cells.add_argument("--mixes", default=None,
                       help="comma-separated mix subset for named "
                            "specs")
    cells.set_defaults(func=cmd_cells)

    gc = sub.add_parser(
        "gc", help="prune the on-disk result store",
        description="Remove unreadable entries and entries from other "
                    "cache versions; optionally also drop entries by "
                    "age or cap the store at a size.")
    gc.add_argument("--max-age-days", type=float, default=None,
                    help="also remove entries older than this")
    gc.add_argument("--max-entries", type=int, default=None,
                    help="keep only the newest N entries")
    gc.set_defaults(func=cmd_gc)

    stats = cell(common(sub.add_parser(
        "stats", help="stall attribution for one config on one mix",
        description="Run one (config, mix) cell with cycle accounting "
                    "and print the stall-attribution table: every "
                    "channel cycle filed under exactly one bucket "
                    "(the buckets sum to the wall time).  See "
                    "docs/OBSERVABILITY.md for bucket meanings.")))
    stats.add_argument("--per-bank", action="store_true",
                       help="append the per-(sub-)bank breakdown")
    stats.add_argument("--json", metavar="FILE",
                       help="also write the report as JSON")
    stats.add_argument("--csv", metavar="FILE",
                       help="also write per-channel buckets as CSV")
    stats.set_defaults(func=cmd_stats)

    trace = cell(common(sub.add_parser(
        "trace", help="per-command event trace for one config on one mix",
        description="Run one (config, mix) cell with event tracing and "
                    "stream one record per DRAM command (issue time, "
                    "bank/sub-bank, kind, stall bucket, wait).  See "
                    "docs/OBSERVABILITY.md for the schema.")))
    trace.add_argument("--limit", type=int, default=None,
                       help="keep at most N events (excess is counted, "
                            "not stored)")
    trace.add_argument("--format", choices=("jsonl", "csv"),
                       default="jsonl")
    trace.add_argument("--output", metavar="FILE",
                       help="write to FILE instead of stdout")
    trace.set_defaults(func=cmd_trace)

    for name, func in (("fig4", cmd_fig4), ("fig11", cmd_fig11)):
        p = sub.add_parser(name, help=f"regenerate {name}")
        if name != "fig11":
            common(p)
        p.set_defaults(func=func)
    for name, printer in (("fig12", _print_fig12), ("fig13", _print_fig13),
                          ("fig14", _print_fig14), ("fig15", _print_fig15),
                          ("fig16", _print_fig16),
                          ("figref", _print_figref)):
        p = jobs(common(sub.add_parser(name, help=f"regenerate {name}")))
        p.add_argument("--mixes", default="mix0,mix3,mix6",
                       help="comma-separated mix subset")
        p.add_argument("--emit-stats", metavar="DIR", default=None,
                       help="run observed and write one stall-"
                            "attribution JSON sidecar per "
                            "(config, mix) cell into DIR")
        p.set_defaults(func=cmd_figure, printer=printer)
    return parser


def main(argv: Optional[List[str]] = None) -> None:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except StoreUnwritable as exc:
        raise SystemExit(f"repro {args.command}: error: {exc}") from None


if __name__ == "__main__":  # pragma: no cover
    main()
