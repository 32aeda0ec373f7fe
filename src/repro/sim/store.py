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
  never alias a stale entry.
* **Entries** are one JSON file each under
  ``<cache dir>/store/<key[:2]>/<key>.json`` holding the serialized
  result summary (everything :meth:`SimulationResult.digest` hashes,
  plus the counters the reducers read) and, for observed runs, the
  stall-attribution sidecar payload.  The read-latency histogram is
  one compact JSON string, ``"[[values...],[counts...]]"`` with the
  distinct latencies ascending, next to its CRC-32
  (:meth:`LatencyHistogram.pack`).  Every read checks the CRC; the
  string is decoded only when something reads the latencies, so a
  figure that reduces IPCs alone (Fig. 12) never decodes it.  Each
  entry records its own 64-hex entry id, and a read checks it: an
  entry copied or renamed onto another key's path is a miss, never
  that key's result.
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

import dataclasses
import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

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
CACHE_VERSION = 6

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
    """
    if (mix is None) == (benchmark is None):
        raise ValueError("exactly one of mix/benchmark must be given")
    cc = core_config or CoreConfig()
    payload = {
        "version": CACHE_VERSION,
        "config": config.digest(),
        "workload": {"mix": mix, "benchmark": benchmark,
                     "accesses": accesses,
                     "fragmentation": fragmentation, "seed": seed},
        "core": cc.key_payload(),
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _read_json(path: str):
    """The JSON document in ``path``, parsed from its bytes.

    Raises :class:`OSError` if the file cannot be read and
    :class:`ValueError` if it is not JSON (bytes that are not UTF-8
    raise :class:`UnicodeDecodeError`, a :class:`ValueError`).
    """
    with open(path, "rb") as fh:
        return json.loads(fh.read())


# -- result (de)serialization ------------------------------------------------


def serialize_result(result: SimulationResult) -> dict:
    """JSON-able summary carrying everything the reducers and the
    result digest read.  Perf counters (peeks, wall time) are
    host-side observations, not behaviour, and are deliberately
    dropped."""
    s = result.stats
    e = result.energy
    latencies, crc32 = s.read_latencies.pack()
    return {
        "config_name": result.config_name,
        "ipcs": list(result.ipcs),
        "finish_times": list(result.finish_times),
        "elapsed_ps": result.elapsed_ps,
        "transactions": result.transactions,
        "stats": {
            "commands_issued": s.commands_issued,
            "acts": s.acts,
            "ewlr_hits": s.ewlr_hits,
            "columns": s.columns,
            "precharges": s.precharges,
            "refreshes": s.refreshes,
            "write_cancels": s.write_cancels,
            "read_latencies": latencies,
            "read_latencies_crc32": crc32,
        },
        "energy": {
            "params": {f.name: getattr(e.params, f.name)
                       for f in dataclasses.fields(EnergyParams)},
            "activations": e.activations,
            "ewlr_hit_activations": e.ewlr_hit_activations,
            "precharges": e.precharges,
            "partial_precharges": e.partial_precharges,
            "reads": e.reads,
            "writes": e.writes,
        },
        "precharge_causes": {cause.name: n for cause, n
                             in result.precharge_causes.items()},
        "digest": result.digest(),
    }


class StoredAccounting:
    """Restored stall-attribution sidecar.

    Quacks like :class:`~repro.sim.accounting.AccountingReport` for the
    two calls the sidecar emitters make -- ``verify()`` (a no-op: the
    live report was verified before it was persisted) and ``to_dict()``
    (returns the stored payload verbatim, so re-emitted sidecars are
    byte-identical to the original run's).
    """

    def __init__(self, payload: dict) -> None:
        self._payload = payload

    def verify(self) -> None:
        """Already verified before persisting."""

    def to_dict(self) -> dict:
        """The persisted report payload (a copy: sidecar emitters
        annotate the returned dict in place)."""
        return dict(self._payload)


def restore_result(payload: dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`serialize_result`.

    The restored result digests identically to the live one (asserted
    in ``tests/sim/test_store.py``); perf counters come back zero.  A
    histogram that fails its CRC-32 raises :class:`ValueError`, and a
    missing or mistyped one :class:`KeyError` or :class:`TypeError`;
    the store reads each as a miss.  The histogram's counts are built
    on first read (:class:`~repro.sim.metrics.LatencyHistogram`).
    """
    stats_p = payload["stats"]
    stats = ControllerStats(
        commands_issued=stats_p["commands_issued"],
        acts=stats_p["acts"],
        ewlr_hits=stats_p["ewlr_hits"],
        columns=stats_p["columns"],
        precharges=stats_p["precharges"],
        refreshes=stats_p["refreshes"],
        write_cancels=stats_p["write_cancels"],
        read_latencies=LatencyHistogram.unpack(
            stats_p["read_latencies"], stats_p["read_latencies_crc32"]),
    )
    energy_p = payload["energy"]
    energy = EnergyMeter(
        params=EnergyParams(**energy_p["params"]),
        activations=energy_p["activations"],
        ewlr_hit_activations=energy_p["ewlr_hit_activations"],
        precharges=energy_p["precharges"],
        partial_precharges=energy_p["partial_precharges"],
        reads=energy_p["reads"],
        writes=energy_p["writes"],
    )
    causes = {PrechargeCause[name]: n for name, n
              in payload["precharge_causes"].items()}
    accounting = payload.get("accounting")
    return SimulationResult(
        config_name=payload["config_name"],
        ipcs=list(payload["ipcs"]),
        finish_times=list(payload["finish_times"]),
        stats=stats,
        energy=energy,
        precharge_causes=causes,
        elapsed_ps=payload["elapsed_ps"],
        transactions=payload["transactions"],
        accounting=StoredAccounting(accounting) if accounting else None,
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

    One JSON file per entry under ``<root>/store/<key[:2]>/``; see the
    module docstring for key and merge semantics.  All methods tolerate
    concurrent writers and corrupt or partial files (such an entry
    reads as a miss and is rewritten on the next put).
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
        return os.path.join(self.directory, eid[:2], eid + ".json")

    # -- reads ---------------------------------------------------------

    def load_entry(self, key: str) -> Optional[dict]:
        """The raw entry payload, or ``None`` on miss/corruption.

        Entries from other cache versions are ignored, not misread:
        the version is checked inside the payload as well as being part
        of the key digest, so even a hand-placed file from an older
        scheme cannot surface.  So are entries written for another key
        (a file copied or renamed onto this key's path): the entry's
        recorded ``id`` must be this key's :meth:`entry_id`.
        """
        eid = self.entry_id(key)
        try:
            entry = _read_json(self._entry_path(eid))
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) \
                or entry.get("version") != CACHE_VERSION \
                or entry.get("id") != eid:
            return None
        return entry

    def _restore(self, key: str,
                 need_accounting: bool) -> Optional[SimulationResult]:
        """The stored result, or ``None`` if absent or unrestorable."""
        entry = self.load_entry(key)
        if entry is None or (need_accounting
                             and not entry.get("accounting")):
            return None
        try:
            payload = dict(entry["result"])
            if entry.get("accounting"):
                payload["accounting"] = entry["accounting"]
            return restore_result(payload)
        except (KeyError, TypeError, ValueError, AttributeError):
            # A partial or mistyped entry (e.g. a bare alone IPC from
            # an older writer) is a miss: the runner re-simulates the
            # cell and its put overwrites the entry.
            return None

    def get(self, key: str,
            need_accounting: bool = False) -> Optional[SimulationResult]:
        """The stored result, or ``None``.

        Missing, corrupt and unrestorable entries all read as misses.
        ``need_accounting`` makes entries without a stall-attribution
        sidecar read as misses too -- an observed consumer must re-run
        the cell (the re-run's put then merges the sidecar in).
        """
        result = self._restore(key, need_accounting)
        if result is None:
            self.counters.misses += 1
        else:
            self.counters.hits += 1
        return result

    def contains(self, key: str, need_accounting: bool = False) -> bool:
        """Whether :meth:`get` would hit (without counting)."""
        return self._restore(key, need_accounting) is not None

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
        accounting sidecar survives an unobserved overwrite, and an
        observed result contributes its sidecar.  The existing entry is
        read through :meth:`load_entry`, so a file written for another
        key contributes nothing.  ``key_info`` is
        stored for ``repro cells`` / debugging only -- it never feeds
        the key.
        """
        accounting = None
        report = result.accounting
        if report is not None:
            report.verify()
            accounting = report.to_dict()
        entry = {
            "version": CACHE_VERSION,
            "id": self.entry_id(key),
            "key": key_info or {},
            "result": serialize_result(result),
            "accounting": accounting,
            "written_at": time.time(),
        }
        existing = self.load_entry(key)
        if existing is not None:
            # Freshest-last: the new payload wins, but a sidecar the
            # new run did not produce is preserved from the old entry.
            if accounting is None and existing.get("accounting"):
                entry["accounting"] = existing["accounting"]
            if not entry["key"] and existing.get("key"):
                entry["key"] = existing["key"]
        self._write(key, entry)
        self.counters.puts += 1

    def _write(self, key: str, entry: dict) -> None:
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            # json.dumps encodes in C; json.dump to a file never does.
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        os.replace(tmp, path)

    # -- maintenance ---------------------------------------------------

    def gc(self, max_age_days: Optional[float] = None,
           max_entries: Optional[int] = None) -> GcReport:
        """Prune the store; returns what was scanned/removed/kept.

        Always removes unreadable entries (not JSON, or JSON that is
        not an object), entries from other cache versions, and temp
        files orphaned by a killed writer once they are older than
        :data:`ORPHAN_TMP_AGE_S` (counted in ``removed`` and
        ``freed_bytes``, not ``scanned``).  ``max_age_days`` drops
        entries older than that (by ``written_at``, falling back to
        file mtime); ``max_entries`` keeps only the newest N survivors.
        """
        report = GcReport()
        survivors: List[tuple] = []
        now = time.time()
        for path in list(self.iter_paths()):
            report.scanned += 1
            try:
                entry = _read_json(path)
                if not isinstance(entry, dict):
                    raise TypeError("entry is not a JSON object")
                raw_stamp = entry.get("written_at")
                stamp = (float(raw_stamp) if raw_stamp is not None
                         else os.path.getmtime(path))
                stale = entry.get("version") != CACHE_VERSION
            except (OSError, ValueError, TypeError):
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
