#!/usr/bin/env python3
"""Fig. 14-style study: does DDB keep paying off as channels get faster?

Sweeps the channel clock from 1.33 to 2.4 GHz (DRAM core fixed at
200 MHz) and compares VSB with bank-group timing against VSB with the
dual data bus, plus the idealised DRAM.  The paper's claim: bank-grouped
designs saturate as the frequency gap grows, DDB tracks the ideal.

Run:  python examples/frequency_scaling.py [accesses] [mix]
"""

import sys

from repro import ExperimentSettings
from repro.dram.timing import FIG14_BUS_FREQUENCIES_HZ
from repro.sim.experiments import run_figure


def main() -> None:
    accesses = int(sys.argv[1]) if len(sys.argv) > 1 else 1200
    mix = sys.argv[2] if len(sys.argv) > 2 else "mix0"
    print(f"sweeping channel frequency on {mix} "
          f"({accesses} accesses/core); CPU clock scales along...\n")
    points, _ = run_figure("fig14", ExperimentSettings(
        accesses_per_core=accesses, mixes=(mix,)))

    configs = []
    for p in points:
        if p.config not in configs:
            configs.append(p.config)
    print(f"{'config':30s} " + " ".join(
        f"{f / 1e9:>5.2f}GHz" for f in FIG14_BUS_FREQUENCIES_HZ))
    for config in configs:
        row = [p.normalized_ws for p in points if p.config == config]
        print(f"{config:30s} " + "    ".join(f"{v:5.3f}" for v in row))

    ddb = [p.normalized_ws for p in points if "DDB" in p.config]
    bg = [p.normalized_ws for p in points
          if "VSB" in p.config and "DDB" not in p.config]
    print(f"\nDDB advantage over bank-grouped VSB: "
          f"{ddb[0] - bg[0]:+.3f} at 1.33 GHz -> "
          f"{ddb[-1] - bg[-1]:+.3f} at 2.40 GHz")


if __name__ == "__main__":
    main()
