"""Determinism guarantees: reruns, worker processes, and the disk cache.

The whole experiment pipeline is deterministic given (config, workload,
seed): identical digests across independent runs, identical results
whether a grid executes serially or across worker processes, and a
persistent alone-IPC cache that returns exactly what was computed.
"""

import json

from repro.cpu.core import CoreConfig
from repro.sim import config as cfgs
from repro.sim.experiments import ExperimentContext, ExperimentSettings
from repro.sim.parallel import AloneIpcDiskCache, SimJob, run_grid
from repro.sim.simulator import run_traces
from repro.workloads.mixes import mix_traces


def test_same_seed_same_digest():
    traces_a = mix_traces("mix0", 300, seed=7)
    traces_b = mix_traces("mix0", 300, seed=7)
    a = run_traces(cfgs.vsb(), traces_a)
    b = run_traces(cfgs.vsb(), traces_b)
    assert a.digest() == b.digest()


def test_different_seed_different_digest():
    a = run_traces(cfgs.vsb(), mix_traces("mix0", 300, seed=7))
    b = run_traces(cfgs.vsb(), mix_traces("mix0", 300, seed=8))
    assert a.digest() != b.digest()


def _grid_jobs():
    return [
        SimJob(config=config, accesses=250, fragmentation=0.1, seed=0,
               core_config=CoreConfig(), mix=mix)
        for config in (cfgs.ddr4_baseline(), cfgs.vsb())
        for mix in ("mix0", "mix3")
    ]


def test_grid_results_identical_serial_vs_parallel():
    serial = run_grid(_grid_jobs(), workers=1)
    parallel = run_grid(_grid_jobs(), workers=4)
    assert [r.digest() for r in serial] == \
        [r.digest() for r in parallel]
    # Order matters too: results must come back in submission order.
    assert [r.config_name for r in parallel] == \
        ["DDR4", "DDR4", "VSB(EWLR+RAP,4P)+DDB", "VSB(EWLR+RAP,4P)+DDB"]


def test_alone_runs_through_grid_match_inline(tmp_path, monkeypatch):
    """A benchmark alone-run gives the same IPC via any execution path."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    settings = ExperimentSettings(accesses_per_core=250, mixes=("mix0",))
    inline = ExperimentContext(settings, disk_cache=False)
    job = SimJob(config=cfgs.ddr4_baseline(), accesses=250,
                 fragmentation=0.1, seed=0, core_config=CoreConfig(),
                 benchmark="mcf")
    (gridded,) = run_grid([job], workers=1)
    assert gridded.ipcs[0] == inline.alone_ipc("mcf")


def test_disk_cache_round_trip(tmp_path):
    cache = AloneIpcDiskCache(str(tmp_path / "cache"))
    key = AloneIpcDiskCache.key(cfgs.ddr4_baseline(), "mcf", 0.1,
                                0, 250, 4e9)
    assert cache.get(key) is None
    cache.put(key, 1.234)
    # A fresh instance reads what the first one persisted.
    fresh = AloneIpcDiskCache(str(tmp_path / "cache"))
    assert fresh.get(key) == 1.234
    # Merge-on-write keeps entries from concurrent writers.
    other = AloneIpcDiskCache(str(tmp_path / "cache"))
    other.put(AloneIpcDiskCache.key(cfgs.ddr4_baseline(), "lbm",
                                    0.1, 0, 250, 4e9), 2.5)
    assert AloneIpcDiskCache(str(tmp_path / "cache")).get(key) == 1.234


def test_disk_cache_survives_corruption(tmp_path):
    cache = AloneIpcDiskCache(str(tmp_path))
    cache.put("k", 1.0)
    # Corrupt the entry in place: it must read as a miss, and a re-put
    # must repair it.
    with open(cache.path_for("k"), "w") as fh:
        fh.write("{not json")
    assert cache.get("k") is None
    cache.put("k", 1.0)
    assert AloneIpcDiskCache(str(tmp_path)).get("k") == 1.0


def test_context_alone_ipc_uses_disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    settings = ExperimentSettings(accesses_per_core=250, mixes=("mix0",))
    first = ExperimentContext(settings)
    value = first.alone_ipc("mcf")
    key = AloneIpcDiskCache.key(cfgs.ddr4_baseline(), "mcf", 0.1, 0,
                                250, CoreConfig().clock_hz)
    path = first.store.path_for(key)
    with open(path) as fh:
        entry = json.load(fh)
    assert entry["result"]["ipcs"][0] == value
    # A second context must serve the value from disk: poison the
    # stored entry with a sentinel and observe it coming back.
    sentinel = 42.0
    entry["result"]["ipcs"][0] = sentinel
    with open(path, "w") as fh:
        json.dump(entry, fh)
    second = ExperimentContext(settings)
    assert second.alone_ipc("mcf") == sentinel


def test_parallel_context_matches_serial_tables(tmp_path, monkeypatch):
    """fig12-style prefetch through workers equals the serial runner."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro.sim.experiments import fig12
    settings = ExperimentSettings(accesses_per_core=250,
                                  mixes=("mix0", "mix3"))
    configs = [cfgs.ddr4_baseline(), cfgs.vsb()]
    serial = fig12(ExperimentContext(settings, jobs=1), configs)
    parallel = fig12(ExperimentContext(settings, jobs=4), configs)
    assert serial.values == parallel.values


def test_cache_key_includes_full_config_digest(tmp_path, monkeypatch):
    """Regression (stale alone-IPC keys): a ``--refresh`` alone run must
    never hit a refresh-free cache entry -- the key carries the full
    config digest, so any behaviour-affecting override separates."""
    from dataclasses import replace

    base = cfgs.ddr4_baseline()
    refreshed = replace(base, refresh_density="8Gb",
                        refresh_policy="darp")
    plain = AloneIpcDiskCache.key(base, "mcf", 0.1, 0, 250, 4e9)
    with_refresh = AloneIpcDiskCache.key(refreshed, "mcf", 0.1, 0,
                                         250, 4e9)
    assert plain != with_refresh
    # Host-side knobs and the cosmetic name must NOT split the key.
    renamed = replace(base, name="renamed", record_commands=True)
    assert AloneIpcDiskCache.key(renamed, "mcf", 0.1, 0, 250,
                                 4e9) == plain

    # End to end: a refresh-enabled alone baseline recomputes instead
    # of reusing the refresh-free context's persisted entry.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    settings = ExperimentSettings(accesses_per_core=250, mixes=("mix0",))
    ExperimentContext(settings).alone_ipc("mcf")
    second = ExperimentContext(settings, alone_config=refreshed)
    second.alone_ipc("mcf")
    assert len(second.store) == 2


def test_disk_cache_two_writers_freshest_wins(tmp_path):
    """Regression (stale overlay in put_many): a writer holding an old
    in-memory snapshot must not shadow a value another process
    persisted after that snapshot was taken."""
    stale = AloneIpcDiskCache(str(tmp_path))
    stale.put("shared", 1.0)       # snapshot now holds shared=1.0
    other = AloneIpcDiskCache(str(tmp_path))
    other.put("shared", 2.0)       # a second writer updates the file
    stale.put("unrelated", 3.0)    # must merge, not resurrect 1.0
    fresh = AloneIpcDiskCache(str(tmp_path))
    assert fresh.get("shared") == 2.0
    assert fresh.get("unrelated") == 3.0
