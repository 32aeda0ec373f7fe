"""One benchmark operation in a fresh process.

Reads a JSON request, sets up (imports, spec build, store directory and,
for warm workloads, one cold pass that fills the store), regenerates the
figure one or more times through the public experiment surfaces --
``NAMED_SPECS`` -> ``run_spec`` -> ``FIGURE_REDUCERS`` -- and writes a
JSON report.  A fresh process per operation keeps per-process memos
(trace memo, warm pool) from carrying over between regenerations.

Usage: python3 perfbench/worker.py REQUEST.json REPORT.json
(with the repository's ``src`` on PYTHONPATH; ``run.py`` does this).
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


def _result_counters(results) -> dict:
    """Simulated-behaviour and scheduler-effort sums over the cells."""
    out = dict(commands=0, acts=0, ewlr_hits=0, columns=0, precharges=0,
               plane_conflict_precharges=0, refreshes=0, peeks=0,
               candidates_built=0, candidates_examined=0, peek_reuses=0)
    for result in results:
        s = result.stats
        out["commands"] += s.commands_issued
        out["acts"] += s.acts
        out["ewlr_hits"] += s.ewlr_hits
        out["columns"] += s.columns
        out["refreshes"] += s.refreshes
        out["peeks"] += s.peeks
        out["candidates_built"] += s.candidates_built
        out["candidates_examined"] += s.candidates_examined
        out["peek_reuses"] += s.peek_reuses
        for cause, n in result.precharge_causes.items():
            out["precharges"] += n
            if cause.name == "PLANE_CONFLICT":
                out["plane_conflict_precharges"] += n
    return out


def _tree_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def main(request_path: str, report_path: str) -> None:
    req = benchlib.load_json(request_path)
    from repro.sim.experiments import FIGURE_REDUCERS
    from repro.sim.runner import run_spec
    from repro.sim.specs import NAMED_SPECS, ExperimentSettings
    from repro.sim.store import ResultStore

    settings = ExperimentSettings(accesses_per_core=req["accesses"],
                                  fragmentation=req["fragmentation"],
                                  seed=req["seed"])
    spec = NAMED_SPECS[req["figure"]](settings, observe=req["observe"])
    reduce = FIGURE_REDUCERS[spec.name]
    os.makedirs(req["store"])
    store = ResultStore(req["store"])
    expected = req["expected"]
    tracer = None

    def regenerate(jobs: int) -> dict:
        nonlocal expected
        start = time.perf_counter()
        if tracer is not None:
            rs, report = tracer.call("runner", run_spec, spec, jobs=jobs,
                                     store=store)
            table = tracer.call("experiments.reduce", reduce, rs,
                                spec.mixes)
        else:
            rs, report = run_spec(spec, jobs=jobs, store=store)
            table = reduce(rs, spec.mixes)
        wall = time.perf_counter() - start
        results = list(rs.results.values())
        digests = [r.digest() for r in results]
        table_payload = benchlib.jsonable(table)
        table_digest = benchlib.payload_digest(table_payload)
        if expected is None:
            # Unpinned seed: later passes must repeat the first one.
            expected = {"table": table_digest, "cells": sorted(digests)}
        counters = _result_counters(results)
        return {
            "wall_s": wall,
            "cells": len(results),
            "failed": benchlib.failed_cells(expected, digests,
                                            table_digest),
            "table_digest": table_digest,
            "cells_digest": benchlib.cells_digest(digests),
            "digests": sorted(digests),
            "table": table_payload,
            "report": {"cells": report.cells,
                       "memory_hits": report.memory_hits,
                       "store_hits": report.store_hits,
                       "submitted": report.submitted},
            "cell_wall_s": sum(r.wall_time_s for r in results),
            "counters": counters,
        }

    fill = regenerate(1) if req["fill"] else None
    setup_s = time.perf_counter() - _START

    passes = []
    hooks = req["hooks"]
    if hooks != "none":
        tracer = benchlib.Tracer()
        tracer.install(None if hooks == "all" else benchlib.GRID_LAYERS)
    store_hits = store.counters.hits
    store_misses = store.counters.misses
    bytes_before = _tree_bytes(req["store"])
    section_start = time.perf_counter()
    calibration = benchlib.calibrate() if req["calibrate"] else None
    try:
        while len(passes) < req["passes"] or (
                passes and time.perf_counter() - section_start
                < req["seconds"]):
            passes.append(regenerate(req["jobs"]))
            if calibration is not None:
                after = benchlib.calibrate()
                passes[-1]["calibration_s"] = (calibration + after) / 2
                calibration = after
    finally:
        if tracer is not None:
            tracer.uninstall()

    out = {
        "setup_s": setup_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fill": fill,
        # Only the first and last outputs travel back (the rest repeat).
        "passes": [dict(p, table=None, digests=None)
                   if 0 < i < len(passes) - 1 else p
                   for i, p in enumerate(passes)],
        "store_hits": store.counters.hits - store_hits,
        "store_misses": store.counters.misses - store_misses,
        "bytes_written": _tree_bytes(req["store"]) - bytes_before,
    }
    if tracer is not None:
        out["layers"] = tracer.totals()
        out["cell_ms"] = [1000.0 * s for s in tracer.cell_spans().values()]
        out["cell_self_gap"] = tracer.cell_self_gap()
        out["missing_hooks"] = tracer.missing
        if req.get("trace_out"):
            with open(req["trace_out"], "w") as fh:
                request = {k: v for k, v in req.items() if k != "expected"}
                json.dump({"request": request, "passes": len(passes),
                           "spans": tracer.records()}, fh)
                fh.write("\n")
    with open(report_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: worker.py REQUEST.json REPORT.json")
    main(sys.argv[1], sys.argv[2])
