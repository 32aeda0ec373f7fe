#!/usr/bin/env python
"""Pin the reduced-output digest of every figure runner.

Runs each builder in :mod:`repro.sim.pinning` at the pinned scale and
writes ``tests/data/figure_digests.json`` holding, per figure, the
payload itself (for diagnosable diffs) and its canonical-JSON SHA-256.
``tests/sim/test_figure_digests.py`` asserts the digests never drift --
the experiment-layer refactor's bit-identical-figures invariant.

Usage::

    PYTHONPATH=src python tools/pin_figure_digests.py [--check]

``--check`` recomputes and compares instead of rewriting (exit 1 on any
drift), which is how a modelling PR proves it re-baselined on purpose.
"""

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.sim.pinning import (  # noqa: E402
    FIGURE_BUILDERS,
    PINNED_DIGESTS_PATH,
    figure_payload,
    payload_digest,
    pinned_settings,
)


def compute() -> dict:
    # A throwaway cache directory keeps the pinning run hermetic: no
    # developer-machine cache entry may leak into the pinned numbers.
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        figures = {}
        for name in FIGURE_BUILDERS:
            payload = figure_payload(name, pinned_settings())
            figures[name] = {"digest": payload_digest(payload),
                             "payload": payload}
            print(f"{name:10s} {figures[name]['digest']}")
    settings = pinned_settings()
    return {
        "settings": {
            "accesses_per_core": settings.accesses_per_core,
            "fragmentation": settings.fragmentation,
            "seed": settings.seed,
            "mixes": list(settings.mixes),
        },
        "figures": figures,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="compare against the pinned file instead "
                             "of rewriting it")
    parser.add_argument("--output", default=PINNED_DIGESTS_PATH)
    args = parser.parse_args()

    table = compute()
    if args.check:
        with open(args.output) as fh:
            pinned = json.load(fh)
        drift = [name for name, entry in table["figures"].items()
                 if pinned["figures"].get(name, {}).get("digest")
                 != entry["digest"]]
        if drift:
            print(f"DRIFT in: {', '.join(drift)}")
            return 1
        print("all pinned digests match")
        return 0
    with open(args.output, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
