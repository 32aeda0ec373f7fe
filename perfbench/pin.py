"""Regenerate ``pins.json``: the outputs the benchmark checks runs against.

For each seed, runs the Fig. 12 and refresh-sweep grids once on an
empty store and pins the reduced-table digest with either the sorted
per-cell ``SimulationResult.digest()`` list (``--full`` seeds) or one
digest over that list (the other seeds).  Pin only from a commit whose
simulated behaviour is known good.

    python3 perfbench/pin.py --seeds 0-10 --full 0,7
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from typing import List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402
import run  # noqa: E402

#: The cold workload that regenerates each pinned figure.
PIN_WORKLOADS = {"fig12": "fig12_cold", "figref": "figref_obs_j2"}


def seed_list(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--full", type=seed_list, default=[])
    args = parser.parse_args()
    pins = {figure: {} for figure in PIN_WORKLOADS}
    for figure, workload in PIN_WORKLOADS.items():
        for seed in args.seeds:
            session = run.Session(workload, seed, 0.0)
            session.expected = None
            os.makedirs(session.dir)
            try:
                first = session.worker(
                    jobs=session.workload.jobs)["passes"][0]
            finally:
                shutil.rmtree(session.dir, ignore_errors=True)
            entry = {"table": first["table_digest"]}
            if seed in args.full:
                entry["cells"] = first["digests"]
            else:
                entry["cells_digest"] = first["cells_digest"]
            pins[figure][str(seed)] = entry
            print(f"pinned {figure} seed {seed}", file=sys.stderr)
    with open(benchlib.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
