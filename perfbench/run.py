"""Figure-turnaround benchmark for the ERUCA reproduction.

One operation regenerates one figure end to end, the way a user does:
``NAMED_SPECS[name](settings, observe=...)`` -> ``run_spec`` ->
``FIGURE_REDUCERS[name]``, each regeneration in a fresh worker process
with its own result store.  Workloads and their rationale live in
``benchlib.WORKLOADS``.

    python3 perfbench/run.py --workload fig12_cold --seed 0 \
        --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` reports the end-to-end
metrics from untraced runs; ``--trace 1`` reports the per-layer metrics
from a separate traced run (spans written to ``.perfbench_runs/``).
Every metric is printed with its unit; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Exits
non-zero without a result when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
WORKER = os.path.join(HERE, "worker.py")
#: Every run must end within 180 s; leave room for reporting.
BUDGET_S = 165.0
#: Set-up samples per run (their median is ``setup_s``).
SETUP_SAMPLES = 3
#: Largest tolerated relative gap between a cell's summed layer self
#: times and its span (float rounding only).
SELF_GAP_TOLERANCE = 1e-6

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "kcmd_per_s": "kcmd/s",
    "peak_rss_mb": "MiB",
}


class WorkerFailed(RuntimeError):
    """A worker process exited non-zero or overran the run budget."""


class Session:
    """One benchmark run: its environment, deadline and checks."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.name = workload
        self.workload = benchlib.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + BUDGET_S
        self.env = benchlib.clean_env(os.environ, SRC)
        pins = (benchlib.load_json(benchlib.PINS_PATH)
                if os.path.exists(benchlib.PINS_PATH) else {})
        self.expected = benchlib.expected_for(pins, self.workload.figure,
                                              seed)
        self.dir = os.path.join(RUNS_DIR,
                                f"{workload}-s{seed}-{os.getpid()}")
        self.requests = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    # -- workers -----------------------------------------------------------

    def worker(self, *, jobs: int = 1, fill: bool = False, passes: int = 1,
               seconds: float = 0.0, hooks: str = "none",
               trace_out: Optional[str] = None) -> dict:
        """Run one worker process and return its report."""
        self.requests += 1
        tag = f"w{self.requests}"
        request = {
            "figure": self.workload.figure, "seed": self.seed,
            "accesses": benchlib.ACCESSES,
            "fragmentation": benchlib.FRAGMENTATION,
            "observe": self.workload.observe, "jobs": jobs,
            "store": os.path.join(self.dir, tag + "-store"),
            "fill": fill, "passes": passes, "seconds": seconds,
            "hooks": hooks, "expected": self.expected,
            "trace_out": trace_out, "calibrate": self.workload.warm,
        }
        request_path = os.path.join(self.dir, tag + "-request.json")
        report_path = os.path.join(self.dir, tag + "-report.json")
        with open(request_path, "w") as fh:
            json.dump(request, fh)
        proc = subprocess.Popen(
            [sys.executable, WORKER, request_path, report_path],
            cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            stdout=sys.stderr, start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{tag} overran the run budget")
        finally:
            stop_group(proc)
        if proc.returncode != 0:
            raise WorkerFailed(f"{tag} exited with {proc.returncode}")
        report = benchlib.load_json(report_path)
        shutil.rmtree(request["store"], ignore_errors=True)
        self.check(report, jobs)
        return report

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    # -- correctness -----------------------------------------------------

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"perfbench: {self.name} seed {self.seed}: {text}",
              file=sys.stderr)

    def check(self, report: dict, jobs: int) -> None:
        """Count cells and failures; check each pass did what it claims."""
        fill = [report["fill"]] if report["fill"] else []
        timed = report["passes"]
        cold_passes = fill if self.workload.warm else fill + timed
        for p in fill + timed:
            self.attempted += p["cells"]
            self.failed += p["failed"]
            if p["failed"]:
                self.problem(f"{p['failed']} of {p['cells']} cells miss "
                             f"their pinned digests")
        for p in cold_passes:
            r = p["report"]
            if r["store_hits"] != 0 or r["submitted"] != r["cells"] \
                    or r["cells"] != p["cells"]:
                self.problem(f"cold pass was not cold: {r}")
        if self.workload.warm:
            for p in timed:
                r = p["report"]
                if r["submitted"] != 0 or r["store_hits"] != r["cells"] \
                        or r["cells"] != p["cells"]:
                    self.problem(f"warm pass was not warm: {r}")
        if jobs > 1:
            for p in timed:
                # The pool really fanned out: cells overlapped in time.
                if p["cell_wall_s"] <= p["wall_s"]:
                    self.problem(
                        f"{jobs}-worker pass ran serially: cells took "
                        f"{p['cell_wall_s']:.2f} s in {p['wall_s']:.2f} s")
        if "cell_self_gap" in report \
                and report["cell_self_gap"] > SELF_GAP_TOLERANCE:
            self.problem(f"layer self times miss the cell span by "
                         f"{report['cell_self_gap']:.3g}")
        for site in report.get("missing_hooks", ()):
            print(f"perfbench: no call site {site}; its layer reads 0",
                  file=sys.stderr)

    def check_repeatable(self, reports: List[dict]) -> None:
        """Every regeneration of one seed must produce the same outputs
        (covers seeds without pins)."""
        first = reports[0]["passes"][0]
        for report in reports[1:]:
            p = report["passes"][0]
            if (p["table_digest"], p["cells_digest"]) != (
                    first["table_digest"], first["cells_digest"]):
                self.failed += p["cells"]
                self.problem("a regeneration's outputs differ from the "
                             "first regeneration's")


def stop_group(proc: subprocess.Popen) -> None:
    """Stop ``proc`` and everything it started, and wait for them."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    # Pool workers outlive their parent briefly; wait until the
    # process group is empty, then force it.
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# -- measurement -----------------------------------------------------------------


def table_error_pp(workload: benchlib.Workload, table) -> float:
    """Gap to the reference table (see reference.json)."""
    reference = benchlib.load_json(benchlib.REFERENCE_PATH)
    if workload.figure == "fig12":
        paper = reference["fig12_paper"]
        return benchlib.paper_error_pp(table, paper["gmeans"],
                                       paper["baseline"])
    return benchlib.reference_error_pp(
        table, reference["figref_measured"]["normalized_ws"])


def end_to_end(s: Session) -> Dict[str, float]:
    """Untraced regenerations for ``--seconds``, reduced to one figure
    per metric."""
    wl = s.workload
    if wl.warm:
        reports = [s.worker(fill=True, seconds=s.seconds)]
        setups = [reports[0]["setup_s"]]
        passes = reports[0]["passes"]
        # Passes of identical work take 40 to 80 ms as other tenants of
        # the host come and go; each is scaled by the calibration loop
        # timed around it, to seconds at the uncontended speed.
        wall = statistics.median(
            p["wall_s"] * benchlib.CALIBRATION_REFERENCE_S
            / p["calibration_s"] for p in passes)
        commands = passes[0]["counters"]["commands"]
    else:
        reports = []
        start = time.monotonic()
        while not reports or (
                time.monotonic() - start < s.seconds
                and s.time_left() > 2.0 * reports[-1]["passes"][0]["wall_s"]
                + 10.0):
            reports.append(s.worker(jobs=wl.jobs))
        s.check_repeatable(reports)
        setups = [r["setup_s"] for r in reports]
        while len(setups) < SETUP_SAMPLES:
            setups.append(s.worker(passes=0)["setup_s"])
        # A regeneration lasts longer than the host's speed swings, so
        # calibration around it does not track them; interference only
        # ever adds time, so the fastest regeneration is the steadiest
        # estimate of its cost.
        fastest = min((r["passes"][0] for r in reports),
                      key=lambda p: p["wall_s"])
        wall = fastest["wall_s"]
        commands = fastest["counters"]["commands"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "kcmd_per_s": commands / wall / 1000.0,
        "peak_rss_mb": max(r["rss_mb"] for r in reports),
    }


PER_LAYER_UNITS = {
    "workloads.generate_s": "s", "workloads.generate_n": "count",
    "cpu.pop_request_s": "s", "cpu.pop_request_n": "count",
    "cpu.complete_read_s": "s",
    "controller.best_s": "s", "controller.best_n": "count",
    "controller.enqueue_s": "s", "controller.commit_self_s": "s",
    "controller.commit_n": "count",
    "controller.peeks_per_cmd": "ratio",
    "controller.built_per_cmd": "ratio",
    "controller.examined_per_peek": "ratio",
    "controller.peek_reuse_frac": "ratio",
    "dram.issue_s": "s", "dram.issue_n": "count",
    "dram.row_hit_rate": "ratio", "dram.ewlr_hit_rate": "ratio",
    "dram.plane_conflict_pre_frac": "ratio", "dram.refreshes": "count",
    "paper_err_pp": "pp",
    "accounting.observe_s": "s", "accounting.observe_n": "count",
    "sim.run_traces_s": "s", "sim.run_traces_n": "count",
    "sim.loop_self_s": "s", "sim.collect_result_s": "s",
    "sim.cell_ms_p50": "ms", "sim.cell_ms_p80": "ms",
    "store.key_s": "s", "store.get_s": "s", "store.get_n": "count",
    "store.restore_s": "s", "store.hit_frac": "ratio",
    "store.put_s": "s", "store.put_n": "count",
    "store.serialize_s": "s", "store.bytes_written": "B",
    "specs.expand_s": "s", "runner.self_s": "s",
    "runner.store_hits": "count", "runner.submitted": "count",
    "experiments.reduce_s": "s",
    "parallel.run_grid_s": "s", "parallel.busy_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(s: Session) -> Dict[str, float]:
    """Layer metrics per regeneration, from a separate traced run.

    ``*_s`` are self times (span minus child spans), except
    ``sim.run_traces_s`` and ``parallel.run_grid_s``, which are whole
    spans.  ``parallel.*`` come from the workload's own worker count;
    every other layer from one in-process serial traced regeneration.
    """
    wl = s.workload
    section = s.seconds / 2.0 if wl.warm else 0.0
    grid = s.worker(jobs=wl.jobs, fill=wl.warm, seconds=section,
                    hooks="grid")
    untraced = (grid if wl.jobs == 1
                else s.worker(fill=wl.warm, seconds=section))
    os.makedirs(RUNS_DIR, exist_ok=True)
    traced = s.worker(fill=wl.warm, seconds=section, hooks="all",
                      trace_out=os.path.join(
                          RUNS_DIR, f"trace-{s.name}-s{s.seed}.json"))
    s.check_repeatable([grid, untraced, traced])

    n = len(traced["passes"])
    layers = traced["layers"]

    def calls(layer):
        return layers.get(layer, [0, 0.0, 0.0])[0] / n

    def total(layer):
        return layers.get(layer, [0, 0.0, 0.0])[1] / n

    def own(layer):
        return layers.get(layer, [0, 0.0, 0.0])[2] / n

    c: Dict[str, float] = {}
    for p in traced["passes"]:
        for key, value in p["counters"].items():
            c[key] = c.get(key, 0) + value
    runs = {key: sum(p["report"][key] for p in traced["passes"])
            for key in ("store_hits", "submitted")}
    grid_n = len(grid["passes"])
    grid_s = grid["layers"].get("parallel.run_grid", [0, 0.0, 0.0])[1]
    cell_ms = traced["cell_ms"]

    def wall(report):
        return min(p["wall_s"] for p in report["passes"])

    return {
        "workloads.generate_s": own("workloads.generate"),
        "workloads.generate_n": calls("workloads.generate"),
        "cpu.pop_request_s": own("cpu.pop_request"),
        "cpu.pop_request_n": calls("cpu.pop_request"),
        "cpu.complete_read_s": own("cpu.complete_read"),
        "controller.best_s": own("controller.best"),
        "controller.best_n": calls("controller.best"),
        "controller.enqueue_s": own("controller.enqueue"),
        "controller.commit_self_s": own("controller.commit"),
        "controller.commit_n": calls("controller.commit"),
        "controller.peeks_per_cmd": ratio(c["peeks"], c["commands"]),
        "controller.built_per_cmd": ratio(c["candidates_built"],
                                          c["commands"]),
        "controller.examined_per_peek": ratio(c["candidates_examined"],
                                              c["peeks"]),
        "controller.peek_reuse_frac": ratio(c["peek_reuses"],
                                            c["peeks"] + c["peek_reuses"]),
        "dram.issue_s": own("dram.issue"),
        "dram.issue_n": calls("dram.issue"),
        "dram.row_hit_rate": max(0.0, 1.0 - ratio(c["acts"],
                                                  c["columns"])),
        "dram.ewlr_hit_rate": ratio(c["ewlr_hits"], c["acts"]),
        "dram.plane_conflict_pre_frac": ratio(
            c["plane_conflict_precharges"], c["precharges"]),
        "dram.refreshes": c["refreshes"] / n,
        "paper_err_pp": table_error_pp(wl, traced["passes"][0]["table"]),
        "accounting.observe_s": own("accounting.observe"),
        "accounting.observe_n": calls("accounting.observe"),
        "sim.run_traces_s": total("sim.run_traces"),
        "sim.run_traces_n": calls("sim.run_traces"),
        "sim.loop_self_s": own("sim.run_traces"),
        "sim.collect_result_s": own("sim.collect_result"),
        "sim.cell_ms_p50": (benchlib.nearest_rank(cell_ms, 50)
                            if cell_ms else 0.0),
        "sim.cell_ms_p80": (benchlib.nearest_rank(cell_ms, 80)
                            if cell_ms else 0.0),
        "store.key_s": own("store.key"),
        "store.get_s": own("store.get"),
        "store.get_n": calls("store.get"),
        "store.restore_s": own("store.restore"),
        "store.hit_frac": ratio(traced["store_hits"],
                                traced["store_hits"]
                                + traced["store_misses"]),
        "store.put_s": own("store.put"),
        "store.put_n": calls("store.put"),
        "store.serialize_s": own("store.serialize"),
        "store.bytes_written": traced["bytes_written"] / n,
        "specs.expand_s": own("specs.expand"),
        "runner.self_s": own("runner"),
        "runner.store_hits": runs["store_hits"] / n,
        "runner.submitted": runs["submitted"] / n,
        "experiments.reduce_s": own("experiments.reduce"),
        "parallel.run_grid_s": grid_s / grid_n,
        "parallel.busy_frac": ratio(
            sum(p["cell_wall_s"] for p in grid["passes"]),
            wl.jobs * grid_s),
        "trace.overhead_frac": wall(traced) / wall(untraced) - 1.0,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(benchlib.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under test at {SRC}",
              file=sys.stderr)
        return 2

    # Unwind through the cleanup below (stop workers, drop stores) on
    # SIGTERM as on Ctrl-C.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    s = Session(args.workload, args.seed, args.seconds)
    os.makedirs(s.dir)
    try:
        # Compile bytecode and warm the file cache before measuring.
        s.worker(passes=0)
        if args.trace:
            values, units = per_layer(s), PER_LAYER_UNITS
        else:
            values, units = end_to_end(s), END_TO_END
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(s.dir, ignore_errors=True)

    for name, value in values.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not s.problems and s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
