"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_benchlib.py -q
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


class FakeClock:
    """A clock the traced functions advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = benchlib.Tracer(clock=clock)
    leaf = tracer.wrap("leaf", lambda: clock.advance(2.0))

    def middle():
        clock.advance(1.0)
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle)

    def root():
        clock.advance(0.5)
        middle()
        clock.advance(0.25)

    tracer.wrap(benchlib.CELL_LAYER, root, opens_cell=True)()
    totals = tracer.totals()
    assert totals["leaf"] == [2, 4.0, 4.0]
    assert totals["middle"] == [1, 5.0, 1.0]
    assert totals[benchlib.CELL_LAYER] == [1, 5.75, 0.75]
    # Self times within the cell partition the cell's span.
    assert tracer.cell_spans() == {0: 5.75}
    assert tracer.cell_self_gap() == 0.0


def test_spans_aggregate_per_cell_and_outside_cells():
    clock = FakeClock()
    tracer = benchlib.Tracer(clock=clock)
    step = tracer.wrap("step", lambda: clock.advance(1.0))

    def cell():
        step()
        step()

    cell = tracer.wrap(benchlib.CELL_LAYER, cell, opens_cell=True)
    tracer.call("grid", lambda: [cell(), cell(), step()])
    assert tracer.spans[(0, "step")] == [2, 2.0, 2.0]
    assert tracer.spans[(1, "step")] == [2, 2.0, 2.0]
    assert tracer.spans[(None, "step")] == [1, 1.0, 1.0]
    assert tracer.spans[(None, "grid")] == [1, 5.0, 0.0]
    assert tracer.cell is None


def test_install_wraps_and_restores_call_sites(monkeypatch):
    import types
    module = types.ModuleType("fake_layer_module")

    class Thing:
        def work(self, x):
            return x + 1

    module.Thing = Thing
    monkeypatch.setitem(sys.modules, "fake_layer_module", module)
    monkeypatch.setattr(benchlib, "HOOKS", (
        ("fake.work", ("fake_layer_module:Thing.work",
                       "fake_layer_module:Thing.gone")),))
    original = Thing.__dict__["work"]
    tracer = benchlib.Tracer()
    tracer.install()
    assert Thing().work(1) == 2
    assert tracer.totals()["fake.work"][0] == 1
    assert tracer.missing == ["fake_layer_module:Thing.gone"]
    tracer.uninstall()
    assert Thing.__dict__["work"] is original


def test_nearest_rank_percentiles():
    values = [15, 20, 35, 40, 50]
    assert benchlib.nearest_rank(values, 5) == 15
    assert benchlib.nearest_rank(values, 30) == 20
    assert benchlib.nearest_rank(values, 40) == 20
    assert benchlib.nearest_rank(values, 50) == 35
    assert benchlib.nearest_rank(values, 100) == 50
    assert benchlib.nearest_rank(list(range(1, 11)), 80) == 8
    assert benchlib.nearest_rank([3.0], 50) == 3.0
    with pytest.raises(ValueError):
        benchlib.nearest_rank([], 50)
    with pytest.raises(ValueError):
        benchlib.nearest_rank(values, 0)


DIGESTS = ["%064x" % i for i in (3, 1, 2, 2)]


def test_matching_pins_pass():
    full = {"table": "t", "cells": sorted(DIGESTS)}
    compact = {"table": "t", "cells_digest": benchlib.cells_digest(DIGESTS)}
    assert benchlib.failed_cells(full, DIGESTS, "t") == 0
    assert benchlib.failed_cells(compact, list(reversed(DIGESTS)), "t") == 0


def test_tampered_cell_pin_fails_that_cell():
    tampered = sorted(DIGESTS)
    tampered[0] = "f" * 64
    assert benchlib.failed_cells({"table": "t", "cells": tampered},
                                 DIGESTS, "t") == 1


def test_tampered_table_or_combined_pin_fails_every_cell():
    assert benchlib.failed_cells({"table": "x", "cells": sorted(DIGESTS)},
                                 DIGESTS, "t") == len(DIGESTS)
    assert benchlib.failed_cells({"table": "t", "cells_digest": "0" * 64},
                                 DIGESTS, "t") == len(DIGESTS)


def test_missing_cells_fail():
    assert benchlib.failed_cells({"table": "t", "cells": sorted(DIGESTS)},
                                 DIGESTS[:2], "t") == 2


def test_committed_pins_cover_seed_zero_in_full():
    pins = benchlib.load_json(benchlib.PINS_PATH)
    for figure in ("fig12", "figref"):
        entry = benchlib.expected_for(pins, figure, 0)
        assert entry is not None and len(entry["cells"]) > 0


def test_clean_env_drops_knobs_and_points_at_src():
    env = benchlib.clean_env({
        "REPRO_SHARDS": "threads", "REPRO_SHARDS_CHECK": "1",
        "REPRO_GRID_MIN_COST": "0", "REPRO_CACHE_DIR": "/elsewhere",
        "REPRO_BENCH_ACCESSES": "600", "REPRO_BENCH_JOBS": "4",
        "PYTHONPATH": "/other", "HOME": "/home/u",
    }, "src")
    assert env == {"PYTHONPATH": "src", "HOME": "/home/u"}


def test_paper_error_is_mean_absolute_gmean_gap():
    table = {"values": {"DDR4": {"a": 2.0, "b": 4.0},
                        "X": {"a": 2.2, "b": 4.4},
                        "Y": {"a": 2.0, "b": 4.0}}}
    err = benchlib.paper_error_pp(table, {"X": 1.0, "Y": 1.02})
    assert err == pytest.approx((10.0 + 2.0) / 2)


def test_reported_metrics_match_benchmark_json():
    import run
    spec = benchlib.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER_UNITS
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {name: w.why for name, w in benchlib.WORKLOADS.items()}


def test_jsonable_renders_dataclasses():
    import dataclasses

    @dataclasses.dataclass
    class Point:
        policy: str
        value: float

    payload = benchlib.jsonable([Point("sarp", 0.5)])
    assert json.loads(json.dumps(payload)) == [
        {"policy": "sarp", "value": 0.5}]
