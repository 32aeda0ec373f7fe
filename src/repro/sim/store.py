"""Content-addressed on-disk result store for the experiment grid.

Every grid cell -- one :class:`~repro.sim.config.SystemConfig` evaluated
on one workload (a mix, or a lone benchmark for the weighted-speedup
denominator) -- is deterministic given its key, so its
:class:`~repro.sim.simulator.SimulationResult` can be persisted once and
reused by every figure, CLI invocation, and resumed sweep.  The store
generalises the old alone-IPC JSON table (PR 1/PR 8) to *all* cell
results:

* **Keys** are SHA-256 digests over a canonical JSON tuple of
  ``(CACHE_VERSION, SystemConfig.digest(), trace key, seed, core
  config)`` -- see :func:`store_key`.  Any behaviour-affecting knob
  lands in the config digest, so a refresh or backend override can
  never alias a stale entry.  The part of the canonical text fixed by
  the config and the core config is built once per pair and kept on
  the config.
* **Entries** are one file each under
  ``<cache dir>/store/<key[:2]>/<key>.json``, of three sections, each
  ending in a newline (:func:`encode_entry`):

  1. the *header line*, one JSON array ``[crc,header,key_info]``: the
     header is one flat JSON array whose fields :class:`Header` lists
     in file order -- the format version and the entry's own 64-hex id
     first, then when it was written, the CRC-32s of the other two
     sections, and the result summary (everything
     :meth:`SimulationResult.digest` hashes and the reducers read, less
     the latency histogram and the energy parameters); ``key_info`` is
     the cell's description for debugging; ``crc`` is the CRC-32 of the
     two, as written;
  2. the read-latency histogram, packed as compact JSON
     ``[[values...],[counts...]]`` with the distinct latencies
     ascending (:meth:`LatencyHistogram.pack`);
  3. the stall-attribution sidecar of an observed run as compact JSON,
     or nothing.

  An entry stores no energy parameters: the key's config digest
  already pins ``SystemConfig.energy``, so the caller passes the cell
  config's :class:`EnergyParams` to :meth:`ResultStore.get`.  A read
  parses the header array alone, into a :class:`Header`.  It checks the
  header line's CRC, the header's length and field types, its version,
  its entry id (an entry copied or renamed onto another key's path is a
  miss, never that key's result) and the histogram section's CRC; the
  histogram is decoded the first time something reads the latencies,
  so a figure that reduces IPCs alone (Fig. 12) never decodes it.  The
  sidecar is read only by a caller that asks for accounting: its CRC is
  checked then, and its JSON parsed on the first
  :meth:`StoredAccounting.to_dict`.
* **Writes** are atomic (temp file + ``os.replace``) and merge
  freshest-last: concurrent writers of the same key race to an
  identical deterministic payload, and a new unobserved write never
  drops an existing entry's accounting sidecar.
* **Counters** -- hits / misses / puts / evictions -- are kept per
  store (:attr:`ResultStore.counters`); ``repro gc`` prunes stale
  versions, old entries and temp files orphaned by a killed writer.

Set ``REPRO_CACHE_DIR`` to relocate the store (tests run against a
throwaway directory); delete the directory to invalidate everything.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time
import zlib
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import (
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    get_type_hints,
)

from repro.controller.controller import ControllerStats
from repro.cpu.core import CoreConfig
from repro.dram.commands import PrechargeCause
from repro.dram.power import EnergyMeter, EnergyParams
from repro.sim.config import SystemConfig
from repro.sim.metrics import LatencyHistogram
from repro.sim.simulator import SimulationResult

#: Environment variable relocating the on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"
#: Bump to invalidate every persisted entry after a modelling change or
#: an entry-format change.
#: v2: the tFAW four-activate window changed simulated IPCs.
#: v3: keys gained the full alone-config digest.
#: v4: the alone-IPC table became the content-addressed result store --
#: entries are full result summaries keyed by (version, config digest,
#: trace key, seed, core config); v3 ``alone_ipc.json`` files are
#: ignored entirely (never parsed as store entries).
#: v5: the read-latency histogram is stored as ascending ``values`` and
#: their ``counts`` (was a ``{str(latency): count}`` map), and each
#: entry records its entry ``id``, checked on every read.
#: v6: the histogram is one packed JSON string ``[values, counts]``
#: with its CRC-32 beside it (``read_latencies_crc32``), checked on
#: every read and decoded on first use; v5 entries read as misses.
#: v7: an entry is three newline-terminated sections -- a CRC-sealed
#: JSON header, the packed histogram, the accounting sidecar -- and a
#: read parses the header alone; v6 entries read as misses.
#: v8: the header is one flat JSON array in :class:`Header`'s field
#: order, and an entry no longer stores the energy parameters, which the
#: key's config digest pins; v7 entries (a header object) read as
#: misses.
CACHE_VERSION = 8

_HEX_KEY = re.compile(r"[0-9a-f]{64}")

#: Age (seconds) past which :meth:`ResultStore.gc` removes a
#: ``<key>.json.tmp.<pid>`` file: its writer died between the write and
#: the rename.  A live write takes milliseconds, so an hour never races
#: one.
ORPHAN_TMP_AGE_S = 3600.0


def cache_directory(directory: Optional[str] = None) -> str:
    """The cache root, honouring ``REPRO_CACHE_DIR``."""
    if directory is not None:
        return directory
    return os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)


# -- keys --------------------------------------------------------------------

_DEFAULT_CORE = CoreConfig()


def _json_scalar(value) -> str:
    """``json.dumps(value)``, without the encoder's per-call set-up for
    the types a key's workload holds: None, a string, an int, a finite
    float.  Anything else goes through ``json.dumps`` itself."""
    if value is None:
        return "null"
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    return json.dumps(value)


def _key_prefix(config: SystemConfig, core_config: CoreConfig) -> str:
    """The canonical key text up to the workload's value: everything
    the config and the core config fix.

    Kept on the config, one per core config (keyed by its canonical
    text, :meth:`CoreConfig.key_text`), as :meth:`SystemConfig.digest`
    keeps its digest: both are frozen, so the prefix cannot change, and
    the memo is not a field, so equality, hashing and
    :func:`dataclasses.replace` never see it.
    """
    prefixes = config.__dict__.get("_key_prefixes")
    if prefixes is None:
        prefixes = {}
        object.__setattr__(config, "_key_prefixes", prefixes)
    core = core_config.key_text()
    prefix = prefixes.get(core)
    if prefix is None:
        prefix = prefixes[core] = (
            f'{{"config":{_json_scalar(config.digest())},"core":{core},'
            f'"version":{_json_scalar(CACHE_VERSION)},"workload":')
    return prefix


def store_key(config: SystemConfig, *, accesses: int,
              fragmentation: float, seed: int,
              mix: Optional[str] = None,
              benchmark: Optional[str] = None,
              core_config: Optional[CoreConfig] = None) -> str:
    """Content address of one grid cell.

    Exactly one of ``mix`` / ``benchmark`` names the workload; the
    trace key (workload, accesses, fragmentation, seed) regenerates the
    stimulus bit-for-bit and :meth:`SystemConfig.digest` pins every
    behaviour-affecting system knob, so equal keys imply equal
    :class:`~repro.sim.simulator.SimulationResult` digests.

    The key is the SHA-256 of the canonical text ``json.dumps(payload,
    sort_keys=True, separators=(",", ":"))`` of ``{"version":
    CACHE_VERSION, "config": config.digest(), "core":
    core_config.key_payload(), "workload": {"mix", "benchmark",
    "accesses", "fragmentation", "seed"}}``, byte for byte.  The text
    is assembled in that sorted key order: the (config, core config)
    pair's prefix (:func:`_key_prefix`), then the workload.
    """
    if (mix is None) == (benchmark is None):
        raise ValueError("exactly one of mix/benchmark must be given")
    canon = (f"{_key_prefix(config, core_config or _DEFAULT_CORE)}"
             f'{{"accesses":{_json_scalar(accesses)},'
             f'"benchmark":{_json_scalar(benchmark)},'
             f'"fragmentation":{_json_scalar(fragmentation)},'
             f'"mix":{_json_scalar(mix)},'
             f'"seed":{_json_scalar(seed)}}}}}')
    return hashlib.sha256(canon.encode()).hexdigest()


# -- entry format ------------------------------------------------------------


def _dumps(value) -> str:
    """Compact, key-sorted JSON: the text of every entry section."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class Header(NamedTuple):
    """An entry's header: one flat JSON array of these fields, in this
    order.

    The entry's own fields come first, then the result summary --
    everything :meth:`SimulationResult.digest` hashes and the reducers
    read, less the latency histogram (a section of its own) and the
    energy parameters (pinned by the key's config digest, and passed in
    by the reader).  Each field's annotation is the type its JSON value
    parses to: a header array of another length, or with another type
    anywhere, is unreadable.
    """

    #: :data:`CACHE_VERSION` of the writer.
    version: int
    #: The entry's 64-hex id (:meth:`ResultStore.entry_id`), also its
    #: file name.
    id: str
    #: ``time.time()`` of the put; ``repro gc --max-age-days`` reads it.
    written_at: float
    #: CRC-32 of the histogram section.
    histogram_crc32: int
    #: CRC-32 of the sidecar section: 0, the CRC-32 of an empty
    #: section, when the entry has no sidecar.
    sidecar_crc32: int
    config_name: str
    ipcs: list
    finish_times: list
    elapsed_ps: int
    transactions: int
    #: :class:`ControllerStats` counters.
    commands_issued: int
    acts: int
    ewlr_hits: int
    columns: int
    precharges: int
    refreshes: int
    write_cancels: int
    #: :class:`EnergyMeter` counters.
    energy_activations: int
    energy_ewlr_hit_activations: int
    energy_precharges: int
    energy_partial_precharges: int
    energy_reads: int
    energy_writes: int
    #: Precharge counts by :class:`PrechargeCause`, one field per
    #: cause (a result counts every cause, zeros included).
    row_conflict_precharges: int
    plane_conflict_precharges: int
    policy_precharges: int
    refresh_precharges: int
    #: :meth:`SimulationResult.digest` of the live result, for readers
    #: of the file; a read does not recompute it.
    digest: str


#: The JSON type of each :class:`Header` field, in file order.
_HEADER_TYPES = tuple(get_type_hints(Header).values())


class Entry(NamedTuple):
    """One entry's sections, as :func:`decode_entry` found them."""

    #: The header (the header line's CRC and the field types already
    #: checked).
    header: Header
    #: The cell's description (``key_info``, :meth:`CellKey.describe`)
    #: as JSON text, unparsed: it ends the header line, and no read
    #: needs it.
    key_info: bytes
    #: The packed histogram section, unchecked: its CRC-32 is
    #: ``header.histogram_crc32``.
    histogram: bytes
    #: The sidecar section, unchecked (empty when there is none): its
    #: CRC-32 is ``header.sidecar_crc32``.
    sidecar: bytes

    def accounting(self) -> Optional[bytes]:
        """The sidecar's JSON text, or ``None`` if the entry has none
        or the section fails its CRC-32 (changed or cut)."""
        if not self.sidecar \
                or zlib.crc32(self.sidecar) != self.header.sidecar_crc32:
            return None
        return self.sidecar


def encode_entry(header: Sequence, key_info: bytes, histogram: bytes,
                 sidecar: bytes) -> bytes:
    """An entry file's bytes: the header line ``[crc,header,key_info]``,
    the histogram section and the sidecar section, each ending in a
    newline.  ``crc`` is the CRC-32 of the line between its first comma
    and its closing bracket, as written; the CRCs of the other two
    sections are whatever the header holds."""
    sealed = _dumps(header).encode() + b"," + key_info
    return b"[%d,%s]\n%s\n%s\n" % (zlib.crc32(sealed), sealed,
                                    histogram, sidecar)


_DECODER = json.JSONDecoder()


def decode_entry(raw: bytes) -> Entry:
    """The sections of an entry file's bytes.

    Parses the header array alone: the key info after it is returned as
    text.  Raises :class:`ValueError` if the header line fails its CRC
    (a changed byte, a truncation, a v6 entry's single JSON object), if
    it does not hold a header array of :class:`Header`'s length and
    field types (a v7 entry's header object among them), or if the
    histogram section has no terminating newline (a truncation).  The
    histogram and sidecar are returned unchecked; a final newline
    missing from the sidecar section leaves its text whole.
    """
    end = raw.index(b"\n")
    histogram_end = raw.index(b"\n", end + 1)
    split = raw.index(b",", 0, end)
    sealed = raw[split + 1:end - 1]
    if raw[:1] != b"[" or raw[end - 1:end] != b"]" \
            or zlib.crc32(sealed) != int(raw[1:split]):
        raise ValueError("entry header line fails its CRC-32")
    # The header's JSON text is ASCII (JSON escapes the rest), so the
    # decoder's string offset just past it is also a byte offset.
    fields, stop = _DECODER.raw_decode(sealed.decode())
    if sealed[stop:stop + 1] != b"," or type(fields) is not list \
            or tuple(map(type, fields)) != _HEADER_TYPES:
        raise ValueError("entry header line holds no v8 header array")
    sidecar = raw[histogram_end + 1:]
    if sidecar.endswith(b"\n"):
        sidecar = sidecar[:-1]
    return Entry(Header._make(fields), sealed[stop + 1:],
                 raw[end + 1:histogram_end], sidecar)


#: Bytes one ``os.read`` asks for: more than any entry but an observed
#: one with a large sidecar, which takes further reads.
_READ_SIZE = 1 << 16


def _read_entry(path: str) -> Entry:
    """The sections of the entry file at ``path``.

    Raises :class:`OSError` if the file cannot be read and
    :class:`ValueError` if its header or layout is damaged
    (:func:`decode_entry`).
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        raw = chunk = os.read(fd, _READ_SIZE)
        while len(chunk) == _READ_SIZE:
            chunk = os.read(fd, _READ_SIZE)
            raw += chunk
    finally:
        os.close(fd)
    return decode_entry(raw)


# -- result (de)serialization ------------------------------------------------


def serialize_result(result: SimulationResult) -> Tuple[dict, bytes]:
    """``(summary, histogram)``: the result's :class:`Header` fields by
    name -- everything the reducers and the result digest read, less
    the read-latency histogram, which comes packed
    (:meth:`LatencyHistogram.pack`) with its CRC-32 among the fields,
    and less the energy parameters, which the key pins.  Perf counters
    (peeks, wall time) are host-side observations, not behaviour, and
    are deliberately dropped."""
    s = result.stats
    e = result.energy
    causes = result.precharge_causes
    histogram, crc32 = s.read_latencies.pack()
    return {
        "histogram_crc32": crc32,
        "config_name": result.config_name,
        "ipcs": list(result.ipcs),
        "finish_times": list(result.finish_times),
        "elapsed_ps": result.elapsed_ps,
        "transactions": result.transactions,
        "commands_issued": s.commands_issued,
        "acts": s.acts,
        "ewlr_hits": s.ewlr_hits,
        "columns": s.columns,
        "precharges": s.precharges,
        "refreshes": s.refreshes,
        "write_cancels": s.write_cancels,
        "energy_activations": e.activations,
        "energy_ewlr_hit_activations": e.ewlr_hit_activations,
        "energy_precharges": e.precharges,
        "energy_partial_precharges": e.partial_precharges,
        "energy_reads": e.reads,
        "energy_writes": e.writes,
        "row_conflict_precharges": causes[PrechargeCause.ROW_CONFLICT],
        "plane_conflict_precharges": causes[PrechargeCause.PLANE_CONFLICT],
        "policy_precharges": causes[PrechargeCause.POLICY],
        "refresh_precharges": causes[PrechargeCause.REFRESH],
        "digest": result.digest(),
    }, histogram


class StoredAccounting:
    """Restored stall-attribution sidecar.

    Quacks like :class:`~repro.sim.accounting.AccountingReport` for the
    two calls the sidecar emitters make -- ``verify()`` (a no-op: the
    live report was verified before it was persisted) and ``to_dict()``
    (returns the stored payload verbatim, so re-emitted sidecars are
    byte-identical to the original run's).  Holds the sidecar's JSON
    text, CRC-checked by the store, and parses it on the first
    ``to_dict()``.
    """

    def __init__(self, text: bytes) -> None:
        self._text = text
        self._payload: Optional[dict] = None

    def verify(self) -> None:
        """Already verified before persisting."""

    def to_dict(self) -> dict:
        """The persisted report payload (a copy: sidecar emitters
        annotate the returned dict in place)."""
        if self._payload is None:
            self._payload = json.loads(self._text)
        return dict(self._payload)


def restore_result(header: Header, histogram: bytes,
                   params: EnergyParams,
                   accounting: Optional[bytes] = None
                   ) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from an entry's header and
    histogram section.

    ``params`` are the energy parameters of the cell's config (the
    entry does not store them: the key pins them) and ``accounting``
    the checked sidecar text, if the caller asked for it.  The restored
    result digests identically to the live one (asserted in
    ``tests/sim/test_store.py``); perf counters come back zero.  A
    histogram section that fails its CRC-32 raises :class:`ValueError`,
    which the store reads as a miss.  The histogram's counts are built
    on first read (:class:`~repro.sim.metrics.LatencyHistogram`).
    """
    stats = ControllerStats(
        commands_issued=header.commands_issued,
        acts=header.acts,
        ewlr_hits=header.ewlr_hits,
        columns=header.columns,
        precharges=header.precharges,
        refreshes=header.refreshes,
        write_cancels=header.write_cancels,
        read_latencies=LatencyHistogram.unpack(
            histogram, header.histogram_crc32),
    )
    energy = EnergyMeter(
        params=params,
        activations=header.energy_activations,
        ewlr_hit_activations=header.energy_ewlr_hit_activations,
        precharges=header.energy_precharges,
        partial_precharges=header.energy_partial_precharges,
        reads=header.energy_reads,
        writes=header.energy_writes,
    )
    causes = {
        PrechargeCause.ROW_CONFLICT: header.row_conflict_precharges,
        PrechargeCause.PLANE_CONFLICT: header.plane_conflict_precharges,
        PrechargeCause.POLICY: header.policy_precharges,
        PrechargeCause.REFRESH: header.refresh_precharges,
    }
    return SimulationResult(
        config_name=header.config_name,
        ipcs=header.ipcs,
        finish_times=header.finish_times,
        stats=stats,
        energy=energy,
        precharge_causes=causes,
        elapsed_ps=header.elapsed_ps,
        transactions=header.transactions,
        accounting=(StoredAccounting(accounting)
                    if accounting is not None else None),
    )


class StoreUnwritable(OSError):
    """The store directory cannot be created or written."""


# -- counters ----------------------------------------------------------------


@dataclass
class StoreCounters:
    """Hit/miss/put/evict tallies for one store."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0


# -- the store ---------------------------------------------------------------


@dataclass
class GcReport:
    """What one :meth:`ResultStore.gc` sweep did."""

    scanned: int = 0
    removed: int = 0
    kept: int = 0
    freed_bytes: int = 0


class ResultStore:
    """Content-addressed {cell key: result summary} table on disk.

    One file per entry under ``<root>/store/<key[:2]>/``; see the
    module docstring for key, format and merge semantics.  All methods
    tolerate concurrent writers and corrupt or partial files (such an
    entry reads as a miss and is rewritten on the next put).
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.root = cache_directory(directory)
        self.directory = os.path.join(self.root, "store")
        self.counters = StoreCounters()

    # -- paths ---------------------------------------------------------

    @staticmethod
    def entry_id(key: str) -> str:
        """Normalise a key to a 64-hex entry id.

        Store keys already are digests; any other string is hashed into
        the same namespace.
        """
        if _HEX_KEY.fullmatch(key):
            return key
        return hashlib.sha256(key.encode()).hexdigest()

    def path_for(self, key: str) -> str:
        return self._entry_path(self.entry_id(key))

    def _entry_path(self, eid: str) -> str:
        # os.path.join's result, without its per-call checks: the
        # directory never ends in a separator.
        return f"{self.directory}{os.sep}{eid[:2]}{os.sep}{eid}.json"

    # -- reads ---------------------------------------------------------

    def load_entry(self, key: str) -> Optional[Entry]:
        """The entry's sections, or ``None`` on miss/corruption.

        Entries from other cache versions are ignored, not misread:
        the version is checked inside the header as well as being part
        of the key digest, so even a hand-placed file from an older
        scheme cannot surface.  So are entries written for another key
        (a file copied or renamed onto this key's path): the entry's
        recorded ``id`` must be this key's :meth:`entry_id`.  The
        histogram and sidecar sections are not checked here.
        """
        eid = self.entry_id(key)
        try:
            entry = _read_entry(self._entry_path(eid))
        except (OSError, ValueError):
            return None
        header = entry.header
        if header.version != CACHE_VERSION or header.id != eid:
            return None
        return entry

    def _restore(self, key: str, params: EnergyParams,
                 need_accounting: bool) -> Optional[SimulationResult]:
        """The stored result, or ``None`` if absent or unrestorable."""
        entry = self.load_entry(key)
        if entry is None:
            return None
        accounting = None
        if need_accounting:
            accounting = entry.accounting()
            if accounting is None:
                return None
        try:
            return restore_result(entry.header, entry.histogram, params,
                                  accounting)
        except ValueError:
            # A histogram section that fails its CRC-32 is a miss: the
            # runner re-simulates the cell and its put overwrites the
            # entry.
            return None

    def get(self, key: str, params: EnergyParams,
            need_accounting: bool = False) -> Optional[SimulationResult]:
        """The stored result, or ``None``.

        ``params`` are the energy parameters of the config whose digest
        the key holds (``SystemConfig.energy``): the restored result's
        :class:`EnergyMeter` reads them, and the entry does not store
        them.  Missing, corrupt and unrestorable entries all read as
        misses.  ``need_accounting`` makes entries without an intact
        stall-attribution sidecar read as misses too -- an observed
        consumer must re-run the cell (the re-run's put then merges the
        sidecar in).  Without it the sidecar is never read, and the
        result carries no accounting.
        """
        result = self._restore(key, params, need_accounting)
        if result is None:
            self.counters.misses += 1
        else:
            self.counters.hits += 1
        return result

    def contains(self, key: str, params: EnergyParams,
                 need_accounting: bool = False) -> bool:
        """Whether :meth:`get` would hit (without counting)."""
        return self._restore(key, params, need_accounting) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_paths())

    def _shard_files(self) -> Iterator[Tuple[str, str]]:
        """``(name, path)`` of every file in the shard directories."""
        if not os.path.isdir(self.directory):
            return
        for prefix in sorted(os.listdir(self.directory)):
            sub = os.path.join(self.directory, prefix)
            if not os.path.isdir(sub):
                continue
            for name in sorted(os.listdir(sub)):
                yield name, os.path.join(sub, name)

    def iter_paths(self) -> Iterator[str]:
        """Every entry file currently on disk."""
        for name, path in self._shard_files():
            if name.endswith(".json"):
                yield path

    # -- writes --------------------------------------------------------

    def ensure_writable(self) -> None:
        """Create the store directory, or raise :class:`StoreUnwritable`
        naming it.

        The runner calls this before it simulates anything, so a cache
        that cannot hold results (placed under a regular file, or on a
        read-only file system) fails at once, not after the first cell.
        """
        try:
            os.makedirs(self.directory, exist_ok=True)
        except OSError as exc:
            reason = exc.strerror or str(exc)
        else:
            if os.access(self.directory, os.W_OK):
                return
            reason = "permission denied"
        raise StoreUnwritable(
            f"result store directory {self.directory} is not writable "
            f"({reason}); set {CACHE_DIR_ENV} to move it")

    def put(self, key: str, result: SimulationResult,
            key_info: Optional[dict] = None) -> None:
        """Persist one result summary (atomic, freshest-last merge).

        The new summary overlays any existing entry; an existing
        accounting sidecar that passes its CRC survives an unobserved
        overwrite, and an observed result contributes its sidecar.  The
        existing entry is read through :meth:`load_entry`, so a file
        written for another key contributes nothing.  ``key_info`` is
        stored for ``repro cells`` / debugging only -- it never feeds
        the key.
        """
        sidecar = b""
        report = result.accounting
        if report is not None:
            report.verify()
            sidecar = _dumps(report.to_dict()).encode()
        info = _dumps(key_info or {}).encode()
        existing = self.load_entry(key)
        if existing is not None:
            # Freshest-last: the new payload wins, but a sidecar the
            # new run did not produce is preserved from the old entry.
            if not sidecar:
                sidecar = existing.accounting() or b""
            if not key_info:
                info = existing.key_info
        summary, histogram = serialize_result(result)
        header = Header(version=CACHE_VERSION, id=self.entry_id(key),
                        written_at=time.time(),
                        sidecar_crc32=zlib.crc32(sidecar), **summary)
        self._write(key, encode_entry(header, info, histogram, sidecar))
        self.counters.puts += 1

    def _write(self, key: str, data: bytes) -> None:
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)

    # -- maintenance ---------------------------------------------------

    def gc(self, max_age_days: Optional[float] = None,
           max_entries: Optional[int] = None) -> GcReport:
        """Prune the store; returns what was scanned/removed/kept.

        Always removes unreadable entries (a header line that fails its
        CRC or holds no v8 header array, as in every v7 entry, or no
        histogram section, as in every v6 entry), entries from other
        cache versions, and temp files orphaned by a killed writer once
        they are older than :data:`ORPHAN_TMP_AGE_S` (counted in
        ``removed`` and ``freed_bytes``, not ``scanned``).
        ``max_age_days`` drops entries older than that (by
        ``written_at``); ``max_entries`` keeps only the newest N
        survivors.
        """
        report = GcReport()
        survivors: List[tuple] = []
        now = time.time()
        for path in list(self.iter_paths()):
            report.scanned += 1
            try:
                header = _read_entry(path).header
                stamp = header.written_at
                stale = header.version != CACHE_VERSION
            except (OSError, ValueError):
                stamp, stale = 0.0, True
            if not stale and max_age_days is not None:
                stale = now - stamp > max_age_days * 86400.0
            if stale:
                self._remove(path, report)
            else:
                survivors.append((stamp, path))
        if max_entries is not None and len(survivors) > max_entries:
            survivors.sort(reverse=True)  # newest first
            for _, path in survivors[max_entries:]:
                self._remove(path, report)
            survivors = survivors[:max_entries]
        report.kept = len(survivors)
        for name, path in list(self._shard_files()):
            if ".json.tmp." not in name:
                continue
            try:
                orphaned = now - os.path.getmtime(path) > ORPHAN_TMP_AGE_S
            except OSError:  # pragma: no cover - renamed meanwhile
                continue
            if orphaned:
                self._remove(path, report)
        return report

    def _remove(self, path: str, report: GcReport) -> None:
        try:
            size = os.path.getsize(path)
            os.remove(path)
        except OSError:  # pragma: no cover - racing gc sweeps
            return
        report.removed += 1
        report.freed_bytes += size
        self.counters.evictions += 1
