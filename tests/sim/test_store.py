"""The content-addressed result store: round-trips, merges, gc.

The store's contract is that a restored result is *behaviourally
indistinguishable* from the live one (same digest, same reducer
inputs), that concurrent writers merge freshest-last without dropping
sidecars, and that entries from other cache versions are ignored --
never misread -- including the pre-v4 ``alone_ipc.json`` table.
"""

import json
import multiprocessing
import os
import zlib

import pytest

from repro.cpu.core import CoreConfig
from repro.cpu.trace import Trace, TraceEntry
from repro.sim import config as cfgs
from repro.sim.accounting import ObserveOptions
from repro.sim.simulator import run_traces
from repro.sim.store import (
    CACHE_VERSION,
    ResultStore,
    StoreUnwritable,
    store_key,
)
from repro.workloads.mixes import mix_traces


def _small_result(observe=False):
    traces = mix_traces("mix0", 200, fragmentation=0.1, seed=0)
    return run_traces(cfgs.vsb(), traces,
                      observe=ObserveOptions() if observe else None)


def _key(config=None, seed=0):
    return store_key(config or cfgs.vsb(), accesses=200,
                     fragmentation=0.1, seed=seed, mix="mix0",
                     core_config=CoreConfig())


def test_round_trip_is_digest_identical(tmp_path):
    store = ResultStore(str(tmp_path))
    live = _small_result()
    store.put(_key(), live)
    restored = ResultStore(str(tmp_path)).get(_key())
    assert restored is not None
    # Digest equality covers IPCs, stats, energy, and precharge causes
    # -- everything any figure reducer reads.
    assert restored.digest() == live.digest()
    assert restored.ipcs == list(live.ipcs)
    assert restored.energy.activation_energy_nj() == \
        live.energy.activation_energy_nj()
    assert restored.energy.access_energy_nj() == \
        live.energy.access_energy_nj()
    assert restored.stats.read_latencies.quartiles() == \
        live.stats.read_latencies.quartiles()


def test_run_without_reads_round_trips(tmp_path):
    """A write-only run stores its empty histogram as a packed pair of
    empty arrays and restores to the same digest."""
    trace = Trace.from_entries(
        [TraceEntry(10, True, i * 64) for i in range(100)])
    live = run_traces(cfgs.ddr4_baseline(), [trace])
    assert not live.stats.read_latencies
    key = _key(cfgs.ddr4_baseline())
    store = ResultStore(str(tmp_path))
    store.put(key, live)
    stats = store.load_entry(key)["result"]["stats"]
    assert stats["read_latencies"] == "[[],[]]"
    assert stats["read_latencies_crc32"] == zlib.crc32(b"[[],[]]")
    assert store.get(key).digest() == live.digest()


@pytest.mark.parametrize("histogram", [
    {"values": [100, 200], "counts": [3]},
    {"values": [100], "counts": [3, 1]},
    {"100": 3, "200": 1},
], ids=["fewer_counts", "fewer_values", "v4_string_keyed"])
def test_malformed_histogram_is_a_miss(tmp_path, histogram):
    """Histogram arrays of unequal length, or the v4 ``{str: count}``
    map under a v5 version stamp, read as misses -- never as a
    truncated or re-keyed histogram."""
    store = ResultStore(str(tmp_path))
    store.put(_key(), _small_result())
    entry = store.load_entry(_key())
    entry["result"]["stats"]["read_latencies"] = histogram
    with open(store.path_for(_key()), "w") as fh:
        json.dump(entry, fh)
    assert not store.contains(_key())
    assert store.get(_key()) is None


def _change_one_digit(stats):
    packed = stats["read_latencies"]
    i = next(i for i, ch in enumerate(packed) if ch.isdigit())
    stats["read_latencies"] = (packed[:i] + str((int(packed[i]) + 1) % 10)
                               + packed[i + 1:])


def _truncate(stats):
    stats["read_latencies"] = stats["read_latencies"][:-3]


def _drop_crc(stats):
    del stats["read_latencies_crc32"]


def _crc_as_string(stats):
    stats["read_latencies_crc32"] = str(stats["read_latencies_crc32"])


def _v5_arrays(stats):
    values, counts = json.loads(stats["read_latencies"])
    stats["read_latencies"] = {"values": values, "counts": counts}


@pytest.mark.parametrize("corrupt", [
    _change_one_digit, _truncate, _drop_crc, _crc_as_string, _v5_arrays,
], ids=["digit_changed", "truncated", "crc_missing", "crc_string",
        "v5_arrays"])
def test_corrupt_packed_histogram_is_a_miss(tmp_path, corrupt):
    """v6 checks the packed histogram's CRC-32 on every read: a changed
    or truncated string, a missing or mistyped CRC and v5's two arrays
    under a v6 stamp are all misses at ``get`` -- never an entry whose
    histogram fails later, on first read."""
    store = ResultStore(str(tmp_path))
    store.put(_key(), _small_result())
    entry = store.load_entry(_key())
    corrupt(entry["result"]["stats"])
    with open(store.path_for(_key()), "w") as fh:
        json.dump(entry, fh)
    assert not store.contains(_key())
    assert store.get(_key()) is None
    live = _small_result()
    store.put(_key(), live)
    assert store.get(_key()).digest() == live.digest()


def test_every_preset_round_trips(tmp_path):
    """Each preset's result comes back with its digest and its latency
    quartiles, the two things the packed histogram feeds."""
    store = ResultStore(str(tmp_path))
    traces = mix_traces("mix0", 100, fragmentation=0.1, seed=0)
    for config in cfgs.all_presets():
        live = run_traces(config, traces)
        key = _key(config)
        store.put(key, live)
        restored = ResultStore(str(tmp_path)).get(key)
        assert not restored.stats.read_latencies.decoded
        assert restored.stats.read_latencies.quartiles() == \
            live.stats.read_latencies.quartiles(), config.name
        assert restored.digest() == live.digest(), config.name


def test_fig12_reducer_never_decodes_a_histogram(tmp_path):
    """Fig. 12 reduces per-core IPCs only, so a warm pass leaves every
    restored histogram packed; the result digest decodes it and still
    matches the simulated result's."""
    from dataclasses import replace

    from repro.sim.experiments import reduce_fig12
    from repro.sim.runner import run_spec
    from repro.sim.specs import ExperimentSettings, fig12_spec

    settings = ExperimentSettings(accesses_per_core=100, mixes=("mix0",))
    spec = fig12_spec(settings)
    spec = replace(spec, configs=spec.configs[:2])
    cold, _ = run_spec(spec, store=ResultStore(str(tmp_path)))
    warm, report = run_spec(spec, store=ResultStore(str(tmp_path)))
    assert report.store_hits == report.cells
    assert reduce_fig12(warm, spec.mixes) == reduce_fig12(cold, spec.mixes)
    histograms = [r.stats.read_latencies for r in warm.results.values()]
    assert histograms and not any(h.decoded for h in histograms)
    for cell, result in warm.results.items():
        assert result.digest() == cold.results[cell].digest()
        assert result.stats.read_latencies.decoded


def test_sidecar_race_costs_one_rerun(tmp_path):
    """``put`` reads, merges and writes without a lock, so a concurrent
    unobserved writer can drop another writer's accounting sidecar.
    Held here with one deterministic interleaving:

    1. the unobserved writer loads the entry;
    2. an observed writer puts its sidecar;
    3. the unobserved writer writes, without the sidecar.

    The documented cost: the next ``need_accounting`` read misses, and
    the observed re-run puts an identical result back."""
    observed = _small_result(observe=True)
    observed_writer = ResultStore(str(tmp_path))
    plain_writer = ResultStore(str(tmp_path))
    load_entry = plain_writer.load_entry

    def load_then_interleave(key):
        entry = load_entry(key)
        observed_writer.put(key, observed)
        return entry

    plain_writer.load_entry = load_then_interleave
    plain_writer.put(_key(), _small_result())
    reader = ResultStore(str(tmp_path))
    assert reader.load_entry(_key())["accounting"] is None
    assert reader.get(_key(), need_accounting=True) is None
    rerun = _small_result(observe=True)
    assert rerun.digest() == observed.digest()
    reader.put(_key(), rerun)
    restored = reader.get(_key(), need_accounting=True)
    assert restored.digest() == observed.digest()
    assert restored.accounting.to_dict() == observed.accounting.to_dict()


def test_unwritable_directory_is_refused(tmp_path, monkeypatch):
    """``ensure_writable`` names the store directory when it cannot be
    made (a regular file in the way) or written (a read-only mount or
    mode bits, faked here because root ignores mode bits)."""
    import re
    blocker = tmp_path / "regular"
    blocker.write_text("")
    blocked = ResultStore(str(blocker / "cache"))
    with pytest.raises(StoreUnwritable, match=re.escape(blocked.directory)):
        blocked.ensure_writable()
    store = ResultStore(str(tmp_path / "cache"))
    store.ensure_writable()
    assert os.path.isdir(store.directory)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    with pytest.raises(StoreUnwritable, match="permission denied"):
        store.ensure_writable()


def test_store_key_demands_exactly_one_workload():
    with pytest.raises(ValueError):
        store_key(cfgs.vsb(), accesses=200, fragmentation=0.1, seed=0)
    with pytest.raises(ValueError):
        store_key(cfgs.vsb(), accesses=200, fragmentation=0.1, seed=0,
                  mix="mix0", benchmark="mcf")


def test_unobserved_overwrite_keeps_accounting_sidecar(tmp_path):
    """Freshest-last merge: a plain re-run must not drop the sidecar an
    observed run persisted earlier."""
    observed = _small_result(observe=True)
    assert observed.accounting is not None
    first = ResultStore(str(tmp_path))
    first.put(_key(), observed, key_info={"kind": "mix"})
    # A different store instance (e.g. another process's runner)
    # rewrites the same key without accounting.
    second = ResultStore(str(tmp_path))
    second.put(_key(), _small_result(observe=False))
    merged = ResultStore(str(tmp_path)).get(_key(),
                                            need_accounting=True)
    assert merged is not None and merged.accounting is not None
    assert merged.accounting.to_dict() == observed.accounting.to_dict()
    # The key sidecar survives too.
    entry = ResultStore(str(tmp_path)).load_entry(_key())
    assert entry["key"] == {"kind": "mix"}


def test_need_accounting_misses_on_plain_entries(tmp_path):
    store = ResultStore(str(tmp_path))
    store.put(_key(), _small_result())
    assert store.get(_key(), need_accounting=True) is None
    assert store.get(_key()) is not None


def _writer(directory, key, result):
    ResultStore(directory).put(key, result)


def test_two_process_writers_both_persist(tmp_path):
    """Two OS processes writing distinct keys into one store directory
    must both land (atomic per-entry files, no shared table to race)."""
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else None)
    live = _small_result()
    keys = [_key(seed=1), _key(seed=2)]
    procs = [ctx.Process(target=_writer, args=(str(tmp_path), key, live))
             for key in keys]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
        assert p.exitcode == 0
    store = ResultStore(str(tmp_path))
    assert [store.get(k).digest() for k in keys] == [live.digest()] * 2


def _alone_key():
    return store_key(cfgs.ddr4_baseline(), benchmark="mcf",
                     fragmentation=0.1, seed=0, accesses=250,
                     core_config=CoreConfig(clock_hz=4e9))


def test_v3_alone_ipc_table_is_ignored_not_misread(tmp_path):
    """Regression for the v3 -> v4 migration: the old single-file
    alone-IPC table must never surface as a store hit."""
    key = _alone_key()
    # The pre-v4 layout: one JSON table of {key: ipc} at the root.
    with open(tmp_path / "alone_ipc.json", "w") as fh:
        json.dump({"version": 3, "entries": {key: 99.0}}, fh)
    store = ResultStore(str(tmp_path))
    assert store.get(key) is None
    # Even a hand-placed *entry file* from another version reads as a
    # miss (the version is checked inside the payload as well).
    path = store.path_for(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"version": 3, "result": {"ipcs": [99.0]}}, fh)
    assert store.get(key) is None
    # A fresh put repairs the entry in place.
    live = _small_result()
    store.put(key, live)
    assert ResultStore(str(tmp_path)).get(key).digest() == live.digest()


def test_scalar_and_full_entries_share_one_read_path(tmp_path):
    """``get`` and ``contains`` read through one path: a full summary
    hits both, and a current-version entry holding only a scalar IPC
    (what the retired alone-IPC writer produced) misses both instead
    of crashing the reader."""
    store = ResultStore(str(tmp_path))
    live = _small_result()
    store.put(_key(), live)
    assert store.contains(_key())
    assert store.get(_key()).ipcs == list(live.ipcs)
    path = store.path_for(_key(seed=5))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"version": CACHE_VERSION,
                   "id": store.entry_id(_key(seed=5)),
                   "result": {"config_name": "", "ipcs": [2.75]}}, fh)
    assert not store.contains(_key(seed=5))
    assert store.get(_key(seed=5)) is None
    assert store.counters.misses == 1


@pytest.mark.parametrize("raw", [
    b"", b'{"version": 6, "id"', b'{"version": 6, "id": "\xe9"}', b"[]",
    b"null",
    b'"entry"',
], ids=["empty", "truncated", "not_utf8", "array", "null", "string"])
def test_unreadable_entry_bytes_are_a_miss(tmp_path, raw):
    """Entries are parsed from their bytes: an empty, truncated or
    non-UTF-8 file, and JSON that is not an object, all read as misses
    that the next put overwrites."""
    store = ResultStore(str(tmp_path))
    path = store.path_for(_key())
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(raw)
    assert store.load_entry(_key()) is None
    assert not store.contains(_key())
    assert store.get(_key()) is None
    live = _small_result()
    store.put(_key(), live)
    assert store.get(_key()).digest() == live.digest()


def test_entry_file_is_sorted_json_and_a_newline(tmp_path):
    """A put writes the entry as ``json.dumps(entry, sort_keys=True)``
    plus a newline, byte for byte."""
    store = ResultStore(str(tmp_path))
    store.put(_key(), _small_result(observe=True))
    with open(store.path_for(_key()), "rb") as fh:
        raw = fh.read()
    entry = json.loads(raw)
    assert raw == (json.dumps(entry, sort_keys=True) + "\n").encode()


def test_gc_prunes_versions_age_and_excess(tmp_path):
    store = ResultStore(str(tmp_path))
    live = _small_result()
    for seed in range(3):
        store.put(_key(seed=seed), live)
    # A stale-version file and a corrupt file both go unconditionally.
    stale = store.path_for("stale")
    os.makedirs(os.path.dirname(stale), exist_ok=True)
    with open(stale, "w") as fh:
        json.dump({"version": CACHE_VERSION - 1, "result": {}}, fh)
    with open(os.path.join(os.path.dirname(stale), "bad.json"),
              "w") as fh:
        fh.write("{not json")
    report = store.gc()
    assert (report.scanned, report.removed, report.kept) == (5, 2, 3)
    assert report.freed_bytes > 0
    # Age-based pruning: backdate one survivor.
    old = store.load_entry(_key(seed=0))
    old["written_at"] = 0.0
    with open(store.path_for(_key(seed=0)), "w") as fh:
        json.dump(old, fh)
    report = store.gc(max_age_days=1)
    assert (report.removed, report.kept) == (1, 2)
    # Size cap keeps the newest N.
    report = store.gc(max_entries=1)
    assert (report.removed, report.kept) == (1, 1)
    assert store.counters.evictions == 4


def test_gc_removes_entries_that_are_not_objects(tmp_path):
    """An entry file holding valid JSON that is not an object (``[]``,
    ``null``) is unreadable: gc removes it instead of dying on it."""
    store = ResultStore(str(tmp_path))
    store.put(_key(), _small_result())
    for seed, text in ((1, "[]"), (2, "null")):
        path = store.path_for(_key(seed=seed))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    report = store.gc()
    assert (report.scanned, report.removed, report.kept) == (3, 2, 1)
    assert report.freed_bytes == len("[]") + len("null")
    assert store.get(_key()) is not None


def test_gc_removes_stale_orphaned_temp_files_only(tmp_path):
    """A writer killed between its temp write and the rename leaves
    ``<key>.json.tmp.<pid>`` behind; gc sweeps it once it is older than
    ORPHAN_TMP_AGE_S, and never touches a fresh one (a live writer)."""
    import time
    from repro.sim.store import ORPHAN_TMP_AGE_S
    store = ResultStore(str(tmp_path))
    store.put(_key(), _small_result())
    entry = store.path_for(_key())
    stale, fresh = entry + ".tmp.101", entry + ".tmp.202"
    for path in (stale, fresh):
        with open(path, "w") as fh:
            fh.write('{"partial')
    backdated = time.time() - ORPHAN_TMP_AGE_S - 60
    os.utime(stale, (backdated, backdated))
    size = os.path.getsize(stale)
    report = store.gc()
    assert (report.scanned, report.removed, report.kept) == (1, 1, 1)
    assert report.freed_bytes == size
    assert not os.path.exists(stale)
    assert os.path.exists(fresh)
    assert store.get(_key()) is not None


def test_counters_tally_hits_misses_puts(tmp_path):
    store = ResultStore(str(tmp_path))
    assert store.get(_key()) is None
    store.put(_key(), _small_result())
    assert store.get(_key()) is not None
    c = store.counters
    assert (c.hits, c.misses, c.puts) == (1, 1, 1)
