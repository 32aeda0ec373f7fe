#!/usr/bin/env python3
"""Profile the simulator over any preset x workload cell.

Standalone wrapper around :mod:`repro.sim.profiling` -- the same
harness ``repro profile`` uses -- with one extra mode: ``--compare``
profiles the reference and the table-based incremental scheduler paths
back to back on the identical cell, checks the two digests match, and
prints both effort summaries so a regression in either speed or
behaviour is visible from one command.

::

    python tools/profile_sim.py --config vsb --mix mix0
    python tools/profile_sim.py --config masa8-eruca --compare
    python tools/profile_sim.py --config ddr4 --output ddr4.pstats
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct invocation
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import CONFIG_FACTORIES
from repro.sim.profiling import profile_run
from repro.workloads.mixes import MIX_NAMES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--config", default="vsb",
                        choices=sorted(CONFIG_FACTORIES))
    parser.add_argument("--mix", default="mix0", choices=MIX_NAMES)
    parser.add_argument("--accesses", type=int, default=1500)
    parser.add_argument("--fragmentation", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sort", default="cumulative",
                        help="pstats sort key (default cumulative)")
    parser.add_argument("--limit", type=int, default=25,
                        help="pstats rows to print (default 25)")
    parser.add_argument("--output", metavar="FILE",
                        help="dump binary pstats to FILE (in --compare "
                             "mode the incremental run is dumped)")
    parser.add_argument("--reference", action="store_true",
                        help="profile the reference scheduler path")
    parser.add_argument("--compare", action="store_true",
                        help="profile both paths and assert digests "
                             "match")
    args = parser.parse_args(argv)

    config = CONFIG_FACTORIES[args.config]()
    cell = dict(mix=args.mix, accesses=args.accesses,
                fragmentation=args.fragmentation, seed=args.seed)

    if args.compare:
        reference = profile_run(config, incremental=False, **cell)
        incremental = profile_run(config, incremental=True, **cell)
        for title, report in (("reference", reference),
                              ("incremental", incremental)):
            print(f"== {title} path " + "=" * 50)
            print(report.format_table(limit=args.limit, sort=args.sort))
        if reference.digest != incremental.digest:
            print("DIGEST MISMATCH between scheduler paths",
                  file=sys.stderr)
            return 1
        speedup = (reference.wall_time_s
                   / max(1e-9, incremental.wall_time_s))
        print(f"digests match; incremental examined "
              f"{incremental.candidates_examined} candidates vs "
              f"{reference.candidates_examined} reference "
              f"({speedup:.2f}x wall under profiler)")
        if args.output:
            incremental.dump(args.output)
            print(f"wrote {args.output}")
        return 0

    report = profile_run(
        config, incremental=False if args.reference else None, **cell)
    print(report.format_table(limit=args.limit, sort=args.sort), end="")
    if args.output:
        report.dump(args.output)
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
