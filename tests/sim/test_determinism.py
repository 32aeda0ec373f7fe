"""Determinism guarantees: reruns, worker processes, and the store.

The whole experiment pipeline is deterministic given (config, workload,
seed): identical digests across independent runs, identical results
whether a grid executes serially or across worker processes, and a
persistent result store that returns exactly what was computed --
alone-IPC denominators included.
"""

from repro.cpu.core import CoreConfig
from repro.sim import config as cfgs
from repro.sim.parallel import SimJob, run_grid
from repro.sim.runner import run_spec
from repro.sim.simulator import run_traces
from repro.sim.specs import ConfigSpec, ExperimentSpec
from repro.sim.store import ResultStore, store_key
from repro.workloads.generator import generate_traces
from repro.workloads.mixes import mix_traces
from repro.workloads.profiles import profile
from tests.sim.entries import edit_header, read_entry


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


def _alone(benchmark="mcf", seed=0):
    """A live baseline alone run and its store key (250 accesses)."""
    config = cfgs.ddr4_baseline()
    traces = generate_traces([profile(benchmark)], 250,
                             fragmentation=0.1, seed=seed)
    key = store_key(config, benchmark=benchmark, accesses=250,
                    fragmentation=0.1, seed=seed, core_config=CoreConfig())
    return run_traces(config, traces), key


#: The smallest spec with alone cells: the baseline on mix0.
BASELINE_SPEC = ExperimentSpec(name="baseline", configs=(ConfigSpec(),),
                               mixes=("mix0",), accesses_per_core=250)


def test_alone_runs_through_grid_match_inline():
    """A benchmark alone-run gives the same IPC via any execution path."""
    inline, _ = _alone()
    job = SimJob(config=cfgs.ddr4_baseline(), accesses=250,
                 fragmentation=0.1, seed=0, core_config=CoreConfig(),
                 benchmark="mcf")
    (gridded,) = run_grid([job], workers=1)
    assert gridded.ipcs[0] == inline.ipcs[0]


def test_disk_cache_round_trip(tmp_path):
    store = ResultStore(str(tmp_path / "cache"))
    live, key = _alone()
    assert store.get(key) is None
    store.put(key, live)
    # A fresh instance reads what the first one persisted.
    fresh = ResultStore(str(tmp_path / "cache"))
    assert fresh.get(key).ipcs == live.ipcs
    # Per-entry files: another writer's key leaves this one intact.
    other_live, other_key = _alone("lbm")
    ResultStore(str(tmp_path / "cache")).put(other_key, other_live)
    assert ResultStore(str(tmp_path / "cache")).get(key).digest() == \
        live.digest()


def test_disk_cache_survives_corruption(tmp_path):
    store = ResultStore(str(tmp_path))
    live, key = _alone()
    store.put(key, live)
    # Corrupt the entry in place: it must read as a miss, and a re-put
    # must repair it.
    with open(store.path_for(key), "w") as fh:
        fh.write("{not json")
    assert store.get(key) is None
    store.put(key, live)
    assert ResultStore(str(tmp_path)).get(key).digest() == live.digest()


def test_context_alone_ipc_uses_disk_cache(tmp_path):
    """A later run serves alone IPCs from the store, not by re-running:
    poison the stored entry with a sentinel and see it come back."""
    first, _ = run_spec(BASELINE_SPEC, store=ResultStore(str(tmp_path)))
    value = first.alone_ipc("mcf")
    (cell,) = [c for c in first.results
               if c.kind == "alone" and c.workload == "mcf"]
    path = ResultStore(str(tmp_path)).path_for(cell.store_key())
    ipcs = read_entry(path).header["result"]["ipcs"]
    assert ipcs[0] == value
    sentinel = 42.0

    def poison(header):
        header["result"]["ipcs"][0] = sentinel

    edit_header(path, poison)
    second, report = run_spec(BASELINE_SPEC,
                              store=ResultStore(str(tmp_path)))
    assert report.submitted == 0
    assert second.alone_ipc("mcf") == sentinel


def test_parallel_context_matches_serial_tables(tmp_path, monkeypatch):
    """A fig12 grid through worker processes equals the serial run."""
    from repro.sim.experiments import reduce_fig12
    monkeypatch.setattr("repro.sim.parallel.DEFAULT_GRID_MIN_COST", 0)
    spec = ExperimentSpec(
        name="fig12", configs=(ConfigSpec("ddr4_baseline"),
                               ConfigSpec("vsb")),
        mixes=("mix0", "mix3"), accesses_per_core=250)
    serial, _ = run_spec(spec, jobs=1,
                         store=ResultStore(str(tmp_path / "serial")))
    parallel, _ = run_spec(spec, jobs=4,
                           store=ResultStore(str(tmp_path / "parallel")))
    assert reduce_fig12(serial, spec.mixes).values == \
        reduce_fig12(parallel, spec.mixes).values


def test_cache_key_includes_full_config_digest(tmp_path):
    """Regression (stale alone-IPC keys): a ``--refresh`` alone run must
    never hit a refresh-free cache entry -- the key carries the full
    config digest, so any behaviour-affecting override separates."""
    from dataclasses import replace

    base = cfgs.ddr4_baseline()
    refreshed = replace(base, refresh_density="8Gb",
                        refresh_policy="darp")

    def key(config):
        return store_key(config, benchmark="mcf", accesses=250,
                         fragmentation=0.1, seed=0,
                         core_config=CoreConfig(clock_hz=4e9))

    assert key(base) != key(refreshed)
    # Host-side knobs and the cosmetic name must NOT split the key.
    assert key(replace(base, name="renamed",
                       record_commands=True)) == key(base)

    # End to end: a refresh-enabled alone baseline recomputes its alone
    # cells instead of reusing the refresh-free run's entries.
    store = ResultStore(str(tmp_path))
    run_spec(BASELINE_SPEC, store=store)
    assert len(store) == 5  # four alone cells + the mix cell
    refreshed_alone = replace(BASELINE_SPEC, alone=ConfigSpec(
        overrides=(("refresh_density", "8Gb"),
                   ("refresh_policy", "darp"))))
    _, report = run_spec(refreshed_alone, store=store)
    assert (report.store_hits, report.submitted) == (1, 4)
    assert len(store) == 9


def test_disk_cache_two_writers_freshest_wins(tmp_path):
    """Regression (stale overlay in put_many): a writer holding an old
    view must not shadow a value another writer persisted later."""
    old, key = _alone(seed=0)
    new, _ = _alone(seed=1)
    unrelated, unrelated_key = _alone("lbm")
    stale = ResultStore(str(tmp_path))
    stale.put(key, old)
    other = ResultStore(str(tmp_path))
    other.put(key, new)              # a second writer updates the entry
    stale.put(unrelated_key, unrelated)  # must not resurrect ``old``
    fresh = ResultStore(str(tmp_path))
    assert fresh.get(key).digest() == new.digest()
    assert fresh.get(unrelated_key).digest() == unrelated.digest()
