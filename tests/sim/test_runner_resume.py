"""Kill-and-resume semantics of the spec runner.

The resume guarantee: every finished cell is persisted the moment it
lands, so resubmitting an interrupted sweep re-runs only what is
absent.  The :class:`~repro.sim.runner.RunReport` counters are the
proof -- the same counters the CI resume-smoke step asserts on.
"""

import os
import shutil

import pytest

from repro.sim import parallel
from repro.sim.experiments import run_figure
from repro.sim.runner import RunReport, execute_cells, run_spec
from repro.sim.specs import (
    ConfigSpec,
    ExperimentSettings,
    ExperimentSpec,
    fig16_spec,
)
from repro.sim.store import CACHE_VERSION, Entry, ResultStore
from tests.sim.entries import (
    as_v6,
    read_bytes,
    read_entry,
    write_bytes,
    write_entry,
)

SETTINGS = ExperimentSettings(accesses_per_core=250, mixes=("mix0",))


def test_killed_run_resumes_from_the_store(tmp_path):
    """Run a prefix of a grid, 'die', resubmit the whole spec: only the
    absent suffix simulates."""
    spec = fig16_spec(SETTINGS)
    cells = spec.expand()
    assert len(cells) >= 3
    store = ResultStore(str(tmp_path))
    # First life: the run is killed after two cells -- modelled by
    # executing only the first two (each put lands atomically on
    # completion, so a real SIGKILL preserves exactly the finished
    # prefix).
    partial = execute_cells(cells[:2], results={}, store=store)
    assert partial.submitted == 2
    # Second life: fresh process (fresh memory cache, fresh store
    # instance), same spec.
    _, report = run_spec(spec, store=ResultStore(str(tmp_path)))
    assert report.cells == len(cells)
    assert report.store_hits == 2
    assert report.submitted == len(cells) - 2
    assert report.memory_hits == 0
    # Third life: nothing left to do.
    _, report = run_spec(spec, store=ResultStore(str(tmp_path)))
    assert report.submitted == 0
    assert report.store_hits == len(cells)
    assert "submitted=0" in report.summary()


def test_results_stream_to_the_store_as_they_land(tmp_path):
    """Each cell is persisted before the next one runs -- the property
    that makes a mid-grid kill resumable at cell granularity."""
    spec = fig16_spec(SETTINGS)
    store = ResultStore(str(tmp_path))
    stored_when_seen = []

    def progress(cell, status):
        if status == "run":
            stored_when_seen.append(store.contains(cell.store_key()))

    run_spec(spec, store=store, progress=progress)
    assert stored_when_seen and all(stored_when_seen)


def test_progress_reports_each_cell_once(tmp_path):
    spec = fig16_spec(SETTINGS)
    seen = []
    run_spec(spec, store=ResultStore(str(tmp_path)),
             progress=lambda cell, status: seen.append((cell, status)))
    cells = spec.expand()
    assert sorted(c.store_key() for c, _ in seen) == \
        sorted(c.store_key() for c in cells)
    assert {status for _, status in seen} == {"run"}


def test_memory_hits_take_precedence_over_the_store(tmp_path):
    spec = fig16_spec(SETTINGS)
    store = ResultStore(str(tmp_path))
    results = {}
    execute_cells(spec.expand(), results=results, store=store)
    report = execute_cells(spec.expand(), results=results, store=store)
    assert report.memory_hits == report.cells
    assert report.store_hits == report.submitted == 0


def test_cost_gate_prices_only_post_diff_cells(tmp_path, monkeypatch):
    """A mostly-cached grid re-run with ``--jobs N`` must stay serial:
    the store diff happens before ``run_grid``, so the cost gate sums
    only the missing cells and never warms a pool for a trickle."""
    parallel._shutdown_warm_pool()
    # The gate default (50k) dwarfs this grid's total cost, but force
    # the point: even a fully *cold* run here stays under it.
    spec = fig16_spec(SETTINGS)
    store = ResultStore(str(tmp_path))
    run_spec(spec, store=store, jobs=8)
    assert parallel._warm_pool is None
    # Warm store + one missing cell (drop one entry): still serial.
    victim = spec.expand()[0]
    os.remove(store.path_for(victim.store_key()))
    _, report = run_spec(spec, store=store, jobs=8)
    assert report.submitted == 1
    assert parallel._warm_pool is None


def test_context_run_cells_syncs_counters():
    """``run_figure`` persists through the default store, so the
    counters ``repro run <spec>`` prints see its cells as hits."""
    spec = fig16_spec(SETTINGS)
    run_figure("fig16", SETTINGS)
    _, report = run_spec(spec)
    assert report.submitted == 0
    assert report.store_hits == report.cells == len(spec.expand())


def test_partial_entry_is_a_miss_and_gets_repaired(tmp_path):
    """A current-version entry that cannot be restored (here a bare
    alone IPC, as the retired alone-IPC writer left them) reads as a
    miss: the runner re-simulates the cell and overwrites the entry."""
    spec = ExperimentSpec(name="baseline", configs=(ConfigSpec(),),
                          mixes=SETTINGS.mixes,
                          accesses_per_core=SETTINGS.accesses_per_core)
    alone = next(c for c in spec.expand() if c.kind == "alone")
    store = ResultStore(str(tmp_path))
    path = store.path_for(alone.store_key())
    os.makedirs(os.path.dirname(path))
    write_entry(path, Entry({"version": CACHE_VERSION,
                             "id": store.entry_id(alone.store_key()),
                             "result": {"ipcs": [1.0]}},
                            b"{}", b"", b""))
    assert store.load_entry(alone.store_key()) is not None
    assert not store.contains(alone.store_key())
    submitted = []
    rs, report = run_spec(
        spec, store=store,
        progress=lambda cell, status: submitted.append(cell)
        if status == "run" else None)
    assert alone in submitted
    assert report.submitted == report.cells
    repaired = ResultStore(str(tmp_path)).get(alone.store_key())
    assert repaired.digest() == rs.results[alone].digest()


def test_foreign_entry_is_a_miss_and_only_its_cell_reruns(tmp_path):
    """An entry copied onto another cell's path is never served as that
    cell's result: the read misses, the runner re-simulates exactly that
    cell, and its unobserved put keeps none of the copied entry's
    accounting sidecar."""
    observed = fig16_spec(SETTINGS, observe=True)
    store = ResultStore(str(tmp_path))
    rs, _ = run_spec(observed, store=store)
    source, victim = observed.expand()[:2]
    assert read_entry(store.path_for(source.store_key())).accounting()
    shutil.copyfile(store.path_for(source.store_key()),
                    store.path_for(victim.store_key()))
    assert store.get(victim.store_key()) is None
    rerun = []
    _, report = run_spec(
        fig16_spec(SETTINGS), store=store,
        progress=lambda cell, status: rerun.append(cell)
        if status == "run" else None)
    assert rerun == [victim]
    assert report.submitted == 1
    assert read_entry(store.path_for(victim.store_key())).sidecar == b""
    restored = store.get(victim.store_key())
    assert restored.digest() == rs.results[victim].digest()


def test_run_report_summary_is_greppable():
    report = RunReport(cells=7, memory_hits=1, store_hits=2,
                       submitted=4)
    assert report.summary() == \
        "cells=7 memory_hits=1 store_hits=2 submitted=4"


class GcRacingStore(ResultStore):
    """A store through which ``repro gc`` races a run: a sweep by
    another store on the same directory, ``ResultStore(root).gc(**gc)``,
    runs just before the reads numbered in ``before_get`` and just after
    the puts numbered in ``after_put`` (counted from 0)."""

    def __init__(self, directory, gc, before_get=(), after_put=()):
        super().__init__(directory)
        self.gc_args = gc
        self.before_get, self.after_put = before_get, after_put
        self.reads = self.writes = 0
        self.sweeps = []

    def _sweep(self):
        self.sweeps.append(ResultStore(self.root).gc(**self.gc_args))

    def get(self, key, need_accounting=False):
        if self.reads in self.before_get:
            self._sweep()
        self.reads += 1
        return super().get(key, need_accounting)

    def put(self, key, result, key_info=None):
        super().put(key, result, key_info)
        if self.writes in self.after_put:
            self._sweep()
        self.writes += 1


RACE_SPEC = ExperimentSpec(
    name="baseline", configs=(ConfigSpec(), ConfigSpec("vsb")),
    mixes=("mix0",), accesses_per_core=150)


@pytest.fixture(scope="module")
def uncached():
    """Every cell of ``RACE_SPEC``, simulated without a store."""
    results = {}
    execute_cells(RACE_SPEC.expand(), results=results, store=None)
    return results


@pytest.mark.parametrize("warm,v6_cell,gc,before_get,after_put,hits", [
    (True, None, {"max_entries": 0}, {2}, (), 2),
    (True, None, {"max_entries": 0}, {0, 3}, (), 0),
    (True, None, {"max_entries": 2}, {1}, (), None),
    (True, None, {"max_age_days": 0}, {4}, (), 4),
    (True, 1, {}, {0}, (), 5),
    (True, 4, {"max_entries": 0}, {5}, (), 4),
    (False, None, {"max_entries": 0}, (), {1}, 0),
    (False, None, {"max_entries": 1}, (), {0, 2, 4}, 0),
    (False, 2, {}, {1}, {0}, 0),
], ids=["cap0_between_reads", "cap0_first_and_mid", "cap2_between_reads",
        "age0_between_reads", "v6_then_gc_first", "v6_then_cap0_late",
        "cap0_between_puts", "cap1_between_puts", "v6_cold_both"])
def test_gc_racing_a_run_never_misreads(tmp_path, uncached, warm,
                                        v6_cell, gc, before_get,
                                        after_put, hits):
    """A ``repro gc`` during ``repro run SPEC`` leaves every cell
    either served with its uncached digest or re-simulated.  The sweeps run at chosen points of the run -- before
    a read of the store diff, between two puts -- with every entry, the
    newest few, or none kept, and with a stale v6 entry on one cell's
    path.  No read returns another cell's entry or a half-written one,
    and every entry left behind restores to its own cell's result."""
    cells = RACE_SPEC.expand()
    digests = {cell: result.digest() for cell, result in uncached.items()}
    directory = str(tmp_path / "cache")
    if warm:
        execute_cells(cells, results={}, store=ResultStore(directory))
    if v6_cell is not None:
        key = cells[v6_cell].store_key()
        ResultStore(directory).put(key, uncached[cells[v6_cell]])
        path = ResultStore(directory).path_for(key)
        write_bytes(path, as_v6(read_bytes(path)))
    store = GcRacingStore(directory, gc, before_get, after_put)
    results = {}
    report = execute_cells(cells, results=results, store=store)
    assert store.sweeps
    assert report.store_hits + report.submitted == report.cells
    if hits is not None:
        assert report.store_hits == hits
    assert {cell: r.digest() for cell, r in results.items()} == digests
    after = ResultStore(directory)
    for cell in cells:
        stored = after.get(cell.store_key())
        assert stored is None or stored.digest() == digests[cell]
