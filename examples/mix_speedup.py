#!/usr/bin/env python3
"""Fig. 12-style per-mix weighted-speedup comparison.

Runs every configuration of the paper's main result on one mix (or all
nine), reporting weighted speedup normalised to DDR4.

Run:  python examples/mix_speedup.py [mix0|...|mix8|all] [accesses]
"""

import sys

from repro import ExperimentSettings
from repro.sim.experiments import run_figure
from repro.sim.specs import FIG12_CONFIG_SPECS
from repro.workloads.mixes import MIX_NAMES


def main() -> None:
    which = sys.argv[1] if len(sys.argv) > 1 else "mix0"
    accesses = int(sys.argv[2]) if len(sys.argv) > 2 else 1500
    mixes = MIX_NAMES if which == "all" else (which,)
    if any(m not in MIX_NAMES for m in mixes):
        raise SystemExit(f"unknown mix {which!r}; choose from "
                         f"{', '.join(MIX_NAMES)} or 'all'")

    print(f"running {len(FIG12_CONFIG_SPECS)} configurations on "
          f"{', '.join(mixes)} ({accesses} accesses/core)...\n")
    table, _ = run_figure("fig12", ExperimentSettings(
        accesses_per_core=accesses, mixes=mixes))

    norm = table.normalized()
    gmeans = table.gmeans()
    print(f"{'config':36s} " + " ".join(f"{m:>7s}" for m in mixes)
          + f" {'GMEAN':>7s}")
    for config, row in norm.items():
        cells = " ".join(f"{row[m]:7.3f}" for m in mixes)
        print(f"{config:36s} {cells} {gmeans[config]:7.3f}")


if __name__ == "__main__":
    main()
