"""Read and write result-store entry files section by section.

The one helper through which tests edit or damage a stored entry
(:mod:`repro.sim.store`, entry format v9): :func:`read_entry` splits a
file into its header (and key info), histogram and sidecar sections,
and :func:`write_entry` writes sections back the way a put does.
:func:`edit_header` changes header fields by name.  The header line is
re-sealed with the CRC-32 of the header and key info as given, while
the histogram's and sidecar's CRCs stay whatever the header holds -- so
an edited header field is served, and an edited histogram or sidecar
section fails its CRC.  Raw byte damage (a truncation, a changed byte
that no writer re-sealed) is written with :func:`write_bytes`;
:func:`as_v8`, :func:`as_v7` and :func:`as_v6` lay an entry out as an
older writer did.
"""

import dataclasses
import json
import zlib

from repro.dram.power import EnergyParams
from repro.sim.store import Entry, Header, decode_entry, encode_entry


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def write_bytes(path, raw: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(raw)


def read_entry(path) -> Entry:
    """The entry file's sections (the header's own CRC checked)."""
    return decode_entry(read_bytes(path))


def write_entry(path, entry: Entry) -> None:
    """Write ``entry``'s sections, re-sealing the header line.  The
    header may be any JSON array, so a test can write one that no
    :class:`Header` holds."""
    write_bytes(path, encode_entry(*entry))


def edit_header(path, **fields) -> Entry:
    """Replace the named header fields in place and write the entry
    back; returns the entry as written."""
    entry = read_entry(path)
    entry = entry._replace(header=entry.header._replace(**fields))
    write_entry(path, entry)
    return entry


def _compact(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _v7_header(header: Header, params: EnergyParams) -> dict:
    """The header object the v7 writer stored for the same result: the
    summary nested by section, the energy parameters as their canonical
    JSON text, and no sidecar CRC when there was no sidecar."""
    return {
        "version": 7,
        "id": header.id,
        "written_at": header.written_at,
        "accounting_crc32": header.sidecar_crc32 or None,
        "result": {
            "config_name": header.config_name,
            "ipcs": header.ipcs,
            "finish_times": header.finish_times,
            "elapsed_ps": header.elapsed_ps,
            "transactions": header.transactions,
            "stats": {
                "commands_issued": header.commands_issued,
                "acts": header.acts,
                "ewlr_hits": header.ewlr_hits,
                "columns": header.columns,
                "precharges": header.precharges,
                "refreshes": header.refreshes,
                "write_cancels": 0,
                "read_latencies_crc32": header.histogram_crc32,
            },
            "energy": {
                "params": _compact(dataclasses.asdict(params)).decode(),
                "activations": header.energy_activations,
                "ewlr_hit_activations": header.energy_ewlr_hit_activations,
                "precharges": header.energy_precharges,
                "partial_precharges": header.energy_partial_precharges,
                "reads": header.energy_reads,
                "writes": header.energy_writes,
            },
            "precharge_causes": {
                "ROW_CONFLICT": header.row_conflict_precharges,
                "PLANE_CONFLICT": header.plane_conflict_precharges,
                "POLICY": header.policy_precharges,
                "REFRESH": header.refresh_precharges,
            },
            "digest": header.digest,
        },
    }


def as_v8(raw: bytes) -> bytes:
    """The same entry as the v8 writer laid it out: the same sections,
    sealed the same way, with version 8 and one more header field, a
    ``write_cancels`` count (0) after ``refreshes``."""
    entry = decode_entry(raw)
    fields = list(entry.header._replace(version=8))
    fields.insert(Header._fields.index("refreshes") + 1, 0)
    return encode_entry(fields, entry.key_info, entry.histogram,
                        entry.sidecar)


def as_v7(raw: bytes, params: EnergyParams) -> bytes:
    """The same entry as the v7 writer laid it out: the same three
    sections, sealed the same way, with a key-sorted header object in
    place of the header array.  ``params`` are the energy parameters of
    the entry's cell."""
    entry = decode_entry(raw)
    sealed = _compact(_v7_header(entry.header, params)) + b"," \
        + entry.key_info
    return b"[%d,%s]\n%s\n%s\n" % (zlib.crc32(sealed), sealed,
                                    entry.histogram, entry.sidecar)


def as_v6(raw: bytes, params: EnergyParams) -> bytes:
    """The same entry as the v6 writer laid it out: one key-sorted JSON
    object, version 6, with the histogram string and the sidecar
    payload inside."""
    entry = decode_entry(raw)
    header = _v7_header(entry.header, params)
    header.update(version=6, key=json.loads(entry.key_info),
                  accounting=(json.loads(entry.sidecar) if entry.sidecar
                              else None))
    del header["accounting_crc32"]
    header["result"]["stats"]["read_latencies"] = entry.histogram.decode()
    return (json.dumps(header, sort_keys=True) + "\n").encode()
