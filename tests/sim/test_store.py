"""The content-addressed result store: round-trips, merges, gc.

The store's contract is that a restored result is *behaviourally
indistinguishable* from the live one (same digest, same reducer
inputs), that concurrent writers merge freshest-last without dropping
sidecars, and that entries from other cache versions are ignored --
never misread -- including the pre-v4 ``alone_ipc.json`` table.
"""

import dataclasses
import hashlib
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
    Entry,
    Header,
    ResultStore,
    StoreUnwritable,
    decode_entry,
    store_key,
)
from repro.workloads.mixes import mix_traces
from tests.sim.entries import (
    as_v6,
    as_v7,
    as_v8,
    edit_header,
    read_bytes,
    read_entry,
    write_bytes,
    write_entry,
)

#: The energy parameters of :func:`_key`'s default config, which every
#: read of its entries passes (an entry does not store them).
PARAMS = cfgs.vsb().energy


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
    restored = ResultStore(str(tmp_path)).get(_key(), PARAMS)
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
    entry = read_entry(store.path_for(key))
    assert entry.histogram == b"[[],[]]"
    assert entry.header.histogram_crc32 == zlib.crc32(b"[[],[]]")
    assert store.get(key, cfgs.ddr4_baseline().energy).digest() == \
        live.digest()


@pytest.mark.parametrize("histogram", [
    {"values": [100, 200], "counts": [3]},
    {"values": [100], "counts": [3, 1]},
    {"100": 3, "200": 1},
], ids=["fewer_counts", "fewer_values", "v4_string_keyed"])
def test_malformed_histogram_is_a_miss(tmp_path, histogram):
    """A histogram section holding arrays of unequal length, or the v4
    ``{str: count}`` map, reads as a miss -- never as a truncated or
    re-keyed histogram."""
    store = ResultStore(str(tmp_path))
    store.put(_key(), _small_result())
    path = store.path_for(_key())
    entry = read_entry(path)
    write_entry(path, entry._replace(
        histogram=json.dumps(histogram).encode()))
    assert not store.contains(_key(), PARAMS)
    assert store.get(_key(), PARAMS) is None


def _change_one_digit(entry):
    packed = entry.histogram
    i = next(i for i, ch in enumerate(packed) if chr(ch).isdigit())
    digit = str((int(chr(packed[i])) + 1) % 10).encode()
    return entry._replace(histogram=packed[:i] + digit + packed[i + 1:])


def _truncate(entry):
    return entry._replace(histogram=entry.histogram[:-3])


def _drop_crc(entry):
    header = list(entry.header)
    del header[Header._fields.index("histogram_crc32")]
    return entry._replace(header=header)


def _crc_as_string(entry):
    return entry._replace(header=entry.header._replace(
        histogram_crc32=str(entry.header.histogram_crc32)))


def _v5_arrays(entry):
    values, counts = json.loads(entry.histogram)
    return entry._replace(histogram=json.dumps(
        {"values": values, "counts": counts}).encode())


@pytest.mark.parametrize("corrupt", [
    _change_one_digit, _truncate, _drop_crc, _crc_as_string, _v5_arrays,
], ids=["digit_changed", "truncated", "crc_missing", "crc_string",
        "v5_arrays"])
def test_corrupt_packed_histogram_is_a_miss(tmp_path, corrupt):
    """Every read checks the histogram section's CRC-32: a changed or
    truncated section, a missing or mistyped CRC and v5's two arrays
    are all misses at ``get`` -- never an entry whose histogram fails
    later, on first read.  The header is re-sealed after each edit, so
    only the histogram check stands between the damage and a hit."""
    store = ResultStore(str(tmp_path))
    store.put(_key(), _small_result())
    path = store.path_for(_key())
    write_entry(path, corrupt(read_entry(path)))
    assert not store.contains(_key(), PARAMS)
    assert store.get(_key(), PARAMS) is None
    live = _small_result()
    store.put(_key(), live)
    assert store.get(_key(), PARAMS).digest() == live.digest()


def _sections(raw):
    """(header line end, histogram section end) of an entry's bytes."""
    header_end = raw.index(b"\n")
    return header_end, raw.index(b"\n", header_end + 1)


def _digit_after(raw, start):
    """The offset of the first digit at or after ``start``."""
    return next(i for i in range(start, len(raw))
                if chr(raw[i]).isdigit())


def _bump(raw, i):
    return raw[:i] + str((int(chr(raw[i])) + 1) % 10).encode() \
        + raw[i + 1:]


def _header_digit(raw):
    # A digit of the first IPC, inside the header array, not the seal:
    # the JSON still parses, so only the seal catches it.
    ipc = repr(decode_entry(raw).header.ipcs[0]).encode()
    return _bump(raw, _digit_after(raw, raw.index(ipc)))


def _key_info_digit(raw):
    # The key info ends the header line; a read never parses it, but
    # the seal covers it.
    return _bump(raw, _digit_after(raw, raw.index(b'"accesses"')))


def _seal_digit(raw):
    return _bump(raw, 1)


def _histogram_digit(raw):
    return _bump(raw, _digit_after(raw, _sections(raw)[0]))


def _cut_header(raw):
    return raw[:_sections(raw)[0] // 2]


def _cut_header_newline(raw):
    return raw[:_sections(raw)[0]]


def _cut_histogram(raw):
    header_end, histogram_end = _sections(raw)
    return raw[:(header_end + histogram_end) // 2]


def _cut_histogram_newline(raw):
    return raw[:_sections(raw)[1]]


@pytest.mark.parametrize("damage", [
    _header_digit, _key_info_digit, _seal_digit, _histogram_digit,
    _cut_header, _cut_header_newline, _cut_histogram,
    _cut_histogram_newline, as_v6, as_v7, as_v8,
], ids=["header_digit", "key_info_digit", "seal_digit",
        "histogram_digit", "cut_in_header", "cut_header_newline",
        "cut_in_histogram", "cut_histogram_newline", "v6_entry",
        "v7_entry", "v8_entry"])
@pytest.mark.parametrize("observed", [False, True],
                         ids=["unobserved", "observed"])
def test_damage_to_what_a_read_serves_is_a_miss(tmp_path, damage,
                                                observed):
    """A changed byte in the header or the histogram section, a
    truncation that cuts into either, and a v6, v7 or v8 entry are
    misses for every reader, with or without accounting; the next put
    repairs the entry."""
    store = ResultStore(str(tmp_path))
    store.put(_key(), _small_result(observe=True),
              key_info={"accesses": 200})
    path = store.path_for(_key())
    raw = read_bytes(path)
    write_bytes(path, damage(raw, PARAMS) if damage in (as_v6, as_v7)
                else damage(raw))
    assert not store.contains(_key(), PARAMS, need_accounting=observed)
    assert store.get(_key(), PARAMS, need_accounting=observed) is None
    live = _small_result(observe=True)
    store.put(_key(), live)
    assert store.get(_key(), PARAMS, need_accounting=True).digest() == \
        live.digest()


def _sidecar_digit(raw):
    return _bump(raw, _digit_after(raw, _sections(raw)[1]))


def _cut_sidecar(raw):
    histogram_end = _sections(raw)[1]
    return raw[:(histogram_end + len(raw)) // 2]


def _drop_sidecar(raw):
    return raw[:_sections(raw)[1] + 1]


@pytest.mark.parametrize("damage", [
    _sidecar_digit, _cut_sidecar, _drop_sidecar,
], ids=["sidecar_digit", "cut_in_sidecar", "sidecar_gone"])
def test_damaged_sidecar_misses_only_for_accounting(tmp_path, damage):
    """An unobserved read never reads the sidecar section, so damage
    there leaves it a hit with the same digest; a ``need_accounting``
    read checks the section's CRC-32 and misses.  An unobserved put
    over the damaged entry keeps no sidecar, so the observed re-run
    puts it back."""
    store = ResultStore(str(tmp_path))
    observed = _small_result(observe=True)
    store.put(_key(), observed)
    path = store.path_for(_key())
    write_bytes(path, damage(read_bytes(path)))
    plain = store.get(_key(), PARAMS)
    assert plain is not None and plain.accounting is None
    assert plain.digest() == observed.digest()
    assert store.get(_key(), PARAMS, need_accounting=True) is None
    store.put(_key(), _small_result())
    assert read_entry(path).accounting() is None
    assert store.get(_key(), PARAMS, need_accounting=True) is None
    store.put(_key(), observed)
    restored = store.get(_key(), PARAMS, need_accounting=True)
    assert restored.accounting.to_dict() == observed.accounting.to_dict()


def _energy_totals(result):
    """Every :class:`EnergyMeter` total the Fig. 16 reducer reads."""
    e = result.energy
    return (e.activation_energy_nj(), e.access_energy_nj(),
            e.background_energy_nj(result.elapsed_ps),
            e.total_energy_nj(result.elapsed_ps))


def test_every_preset_round_trips(tmp_path):
    """Each preset's result comes back with its digest, its latency
    quartiles (what the packed histogram feeds) and every energy total
    Fig. 16 reads.  The entry holds no energy parameters: the restored
    meter takes the cell config's, passed to ``get``, which for the
    GDDR5 and Half-DRAM presets differ from DDR4's."""
    store = ResultStore(str(tmp_path))
    traces = mix_traces("mix0", 100, fragmentation=0.1, seed=0)
    presets = cfgs.all_presets()
    assert len({config.energy for config in presets}) == 3
    for config in presets:
        live = run_traces(config, traces)
        key = _key(config)
        store.put(key, live)
        assert b"act_nj" not in read_bytes(store.path_for(key))
        restored = ResultStore(str(tmp_path)).get(key, config.energy)
        assert not restored.stats.read_latencies.decoded
        assert restored.energy.params is config.energy
        assert _energy_totals(restored) == _energy_totals(live), \
            config.name
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
    assert read_entry(reader.path_for(_key())).accounting() is None
    assert reader.get(_key(), PARAMS, need_accounting=True) is None
    rerun = _small_result(observe=True)
    assert rerun.digest() == observed.digest()
    reader.put(_key(), rerun)
    restored = reader.get(_key(), PARAMS, need_accounting=True)
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


def _canonical_key(cell):
    """The key as the canonical JSON of its whole payload, built in one
    ``json.dumps`` call."""
    payload = {
        "version": CACHE_VERSION,
        "config": cell.config.digest(),
        "workload": {
            "mix": cell.workload if cell.kind == "mix" else None,
            "benchmark": cell.workload if cell.kind == "alone" else None,
            "accesses": cell.accesses,
            "fragmentation": cell.fragmentation,
            "seed": cell.seed,
        },
        "core": {f.name: getattr(cell.core_config, f.name)
                 for f in dataclasses.fields(CoreConfig)},
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def test_every_named_spec_key_is_the_canonical_json_digest():
    """``store_key`` assembles the canonical text from a memoised
    (config, core config) prefix; every key of every named spec equals
    the digest of the whole payload dumped at once -- Fig. 14's scaled
    cores and Fig. 13's two fragmentations among them."""
    from repro.sim.specs import NAMED_SPECS, ExperimentSettings
    clocks, fragmentations = set(), set()
    for seed in (0, 7):
        settings = ExperimentSettings(accesses_per_core=300, seed=seed)
        for name, make in NAMED_SPECS.items():
            for cell in make(settings).expand():
                assert cell.store_key() == _canonical_key(cell), \
                    (name, cell.describe())
                clocks.add(cell.core_config.clock_hz)
                fragmentations.add(cell.fragmentation)
    assert len(clocks) == 4 and fragmentations == {0.1, 0.5}


@pytest.mark.parametrize("value", [
    None, True, False, 0, -3, 10**20, 0.1, 2.0, 1e300, -0.0,
    float("nan"), float("inf"), "mix0", "é", 'a"b\\c\n', "",
], ids=repr)
def test_key_scalars_are_written_as_json_dumps_writes_them(value):
    """The key's workload values skip the encoder's set-up, and still
    come out exactly as ``json.dumps`` writes them."""
    from repro.sim.store import _json_scalar
    assert _json_scalar(value) == json.dumps(value)


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
    merged = ResultStore(str(tmp_path)).get(_key(), PARAMS,
                                            need_accounting=True)
    assert merged is not None and merged.accounting is not None
    assert merged.accounting.to_dict() == observed.accounting.to_dict()
    # The key sidecar survives too.
    entry = read_entry(ResultStore(str(tmp_path)).path_for(_key()))
    assert json.loads(entry.key_info) == {"kind": "mix"}


def test_need_accounting_misses_on_plain_entries(tmp_path):
    store = ResultStore(str(tmp_path))
    store.put(_key(), _small_result())
    assert store.get(_key(), PARAMS, need_accounting=True) is None
    assert store.get(_key(), PARAMS) is not None


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
    assert [store.get(k, PARAMS).digest() for k in keys] == \
        [live.digest()] * 2


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
    params = cfgs.ddr4_baseline().energy
    assert store.get(key, params) is None
    # Even a hand-placed *entry file* from another version reads as a
    # miss (the version is checked inside the payload as well).
    path = store.path_for(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"version": 3, "result": {"ipcs": [99.0]}}, fh)
    assert store.get(key, params) is None
    # A fresh put repairs the entry in place.
    live = _small_result()
    store.put(key, live)
    assert ResultStore(str(tmp_path)).get(key, params).digest() == \
        live.digest()


def test_scalar_and_full_entries_share_one_read_path(tmp_path):
    """``get`` and ``contains`` read through one path: a full summary
    hits both, and a current-version entry holding only a scalar IPC
    (what the retired alone-IPC writer produced) misses both instead
    of crashing the reader."""
    store = ResultStore(str(tmp_path))
    live = _small_result()
    store.put(_key(), live)
    assert store.contains(_key(), PARAMS)
    assert store.get(_key(), PARAMS).ipcs == list(live.ipcs)
    path = store.path_for(_key(seed=5))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_entry(path, Entry(
        [CACHE_VERSION, store.entry_id(_key(seed=5)), "", [2.75]],
        b"{}", b"", b""))
    assert store.load_entry(_key(seed=5)) is None
    assert not store.contains(_key(seed=5), PARAMS)
    assert store.get(_key(seed=5), PARAMS) is None
    assert store.counters.misses == 1


@pytest.mark.parametrize("raw", [
    b"", b'{"version": 6, "id"', b'{"version": 6, "id": "\xe9"}', b"[]",
    b"null",
    b'"entry"',
    b'[0,{"version": 7, "id"', b'[0,{"version": 7, "id": "\xe9"},{}]',
    b"[0]", b"0", b'"ab"',
], ids=["empty", "truncated", "not_utf8", "array", "null", "string",
        "v7_truncated", "v7_not_utf8", "no_header", "number",
        "two_chars"])
def test_unreadable_entry_bytes_are_a_miss(tmp_path, raw):
    """Entries are parsed from their bytes: an empty, truncated or
    non-UTF-8 header line, and one that is not a sealed
    ``[crc,header,key_info]`` array, all read as misses that the next
    put overwrites -- alone, or followed by empty histogram and
    sidecar sections."""
    store = ResultStore(str(tmp_path))
    path = store.path_for(_key())
    os.makedirs(os.path.dirname(path), exist_ok=True)
    for sections in (b"", b"\n\n\n"):
        write_bytes(path, raw + sections)
        assert store.load_entry(_key()) is None
        assert not store.contains(_key(), PARAMS)
        assert store.get(_key(), PARAMS) is None
    live = _small_result()
    store.put(_key(), live)
    assert store.get(_key(), PARAMS).digest() == live.digest()


@pytest.mark.parametrize("sealed", [
    b"[],{}", b"null,{}", b'"header",{}', b'{"version":7}',
    b'{"version":7}{}',
], ids=["array", "null", "string", "no_key_info", "no_comma"])
def test_sealed_line_without_a_header_object_is_a_miss(tmp_path, sealed):
    """A header line whose CRC matches but that holds no header array
    followed by the key info is unreadable too."""
    store = ResultStore(str(tmp_path))
    path = store.path_for(_key())
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_bytes(path, b"[%d,%s]\n[[],[]]\n\n" % (zlib.crc32(sealed),
                                                   sealed))
    assert store.load_entry(_key()) is None
    assert store.get(_key(), PARAMS) is None
    assert store.gc().removed == 1


def _drop_last_field(header):
    return list(header)[:-1]


def _extra_field(header):
    return list(header) + [0]


def _as_object(header):
    # The v7 shape: the same fields, as one key-sorted object.
    return header._asdict()


def _field(name, value):
    def edit(header):
        return header._replace(**{name: value})
    edit.__name__ = f"{name}={value!r}"
    return edit


@pytest.mark.parametrize("edit", [
    _drop_last_field, _extra_field, _as_object,
    _field("version", CACHE_VERSION + 1), _field("version", 7),
    _field("version", str(CACHE_VERSION)),
    _field("acts", 3.0), _field("acts", True), _field("ipcs", "1.0"),
    _field("written_at", None), _field("sidecar_crc32", None),
    _field("row_conflict_precharges", "7"),
], ids=lambda edit: edit.__name__.strip("_"))
def test_header_array_of_another_shape_is_a_miss(tmp_path, edit):
    """A sealed header line whose array is short, too long, an object
    instead of an array, of another version, or with a field of another
    JSON type is a miss, and the cell re-simulates: the header is read
    only as :class:`Header`'s exact field list."""
    from repro.sim.runner import run_spec
    from repro.sim.specs import ConfigSpec, ExperimentSpec
    spec = ExperimentSpec(name="vsb", configs=(ConfigSpec("vsb"),),
                          mixes=("mix0",), accesses_per_core=150,
                          include_alone=False)
    (cell,) = spec.expand()
    store = ResultStore(str(tmp_path))
    cold, _ = run_spec(spec, store=store)
    path = store.path_for(cell.store_key())
    entry = read_entry(path)
    write_entry(path, entry._replace(header=edit(entry.header)))
    assert store.load_entry(cell.store_key()) is None
    assert not store.contains(cell.store_key(), cell.config.energy)
    warm, report = run_spec(spec, store=store)
    assert (report.store_hits, report.submitted) == (0, 1)
    assert warm.results[cell].digest() == cold.results[cell].digest()
    assert read_entry(path).header._replace(written_at=0.0) == \
        entry.header._replace(written_at=0.0)


def _compact(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def test_entry_file_is_sorted_json_and_a_newline(tmp_path):
    """A put writes three sections, each compact key-sorted JSON plus a
    newline, byte for byte: the header line ``[crc,header,key_info]``
    (the CRC-32 of the header's and key info's text), the packed
    histogram, and the sidecar, whose CRC-32 the header holds.  The
    header is one flat array in :class:`Header`'s field order, version
    and id first, and holds no energy parameter."""
    store = ResultStore(str(tmp_path))
    live = _small_result(observe=True)
    store.put(_key(), live, key_info={"kind": "mix", "seed": 0})
    raw = read_bytes(store.path_for(_key()))
    header_line, histogram, sidecar, tail = raw.split(b"\n")
    assert tail == b""
    header = read_entry(store.path_for(_key())).header
    sealed = (_compact(list(header)) + b","
              + _compact({"kind": "mix", "seed": 0}))
    assert header_line == b"[%d,%s]" % (zlib.crc32(sealed), sealed)
    crc, fields, key_info = json.loads(header_line)
    assert key_info == {"kind": "mix", "seed": 0}
    assert Header._make(fields) == header
    assert Header._fields[:2] == ("version", "id")
    assert (histogram, header.histogram_crc32) \
        == live.stats.read_latencies.pack()
    assert sidecar == _compact(live.accounting.to_dict())
    assert header.sidecar_crc32 == zlib.crc32(sidecar)
    assert header.version == CACHE_VERSION
    assert header.id == store.entry_id(_key())
    assert not any(isinstance(field, dict) for field in header)
    assert b"act_nj" not in raw and b"params" not in raw


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
    edit_header(store.path_for(_key(seed=0)), written_at=0.0)
    report = store.gc(max_age_days=1)
    assert (report.removed, report.kept) == (1, 2)
    # Size cap keeps the newest N.
    report = store.gc(max_entries=1)
    assert (report.removed, report.kept) == (1, 1)
    assert store.counters.evictions == 4


def test_gc_keeps_current_entries_and_removes_older_ones(tmp_path):
    """An entry the v6 writer laid out (one JSON object) is stale, so is
    one the v7 writer laid out (a header object), one the v8 writer laid
    out (a header array one field longer), and an entry in the current
    layout stamped with another version: gc frees all four, and keeps
    the current entry beside them."""
    store = ResultStore(str(tmp_path))
    live = _small_result(observe=True)
    for seed in (0, 1, 2, 3, 4):
        store.put(_key(seed=seed), live)
    v6 = store.path_for(_key(seed=1))
    write_bytes(v6, as_v6(read_bytes(v6), PARAMS))
    v7 = store.path_for(_key(seed=3))
    write_bytes(v7, as_v7(read_bytes(v7), PARAMS))
    v8 = store.path_for(_key(seed=4))
    write_bytes(v8, as_v8(read_bytes(v8)))
    restamped = store.path_for(_key(seed=2))
    edit_header(restamped, version=7)
    stale = (v6, v7, v8, restamped)
    size = sum(os.path.getsize(path) for path in stale)
    report = store.gc()
    assert (report.scanned, report.removed, report.kept) == (5, 4, 1)
    assert report.freed_bytes == size
    assert not any(os.path.exists(path) for path in stale)
    kept = store.get(_key(seed=0), PARAMS, need_accounting=True)
    assert kept.digest() == live.digest()


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
    assert store.get(_key(), PARAMS) is not None


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
    assert store.get(_key(), PARAMS) is not None


def test_counters_tally_hits_misses_puts(tmp_path):
    store = ResultStore(str(tmp_path))
    assert store.get(_key(), PARAMS) is None
    store.put(_key(), _small_result())
    assert store.get(_key(), PARAMS) is not None
    c = store.counters
    assert (c.hits, c.misses, c.puts) == (1, 1, 1)
