"""Read and write result-store entry files section by section.

The one helper through which tests edit or damage a stored entry
(:mod:`repro.sim.store`, entry format v7): :func:`read_entry` splits a
file into its header (and key info), histogram and sidecar sections,
and :func:`write_entry` writes sections back the way a put does.  The
header line is re-sealed with the CRC-32 of the header and key info as
given, while the histogram's and sidecar's CRCs stay whatever the
header holds -- so an edited header field is served, and an edited
histogram or sidecar section fails its CRC.  Raw byte damage (a
truncation, a changed byte that no writer re-sealed) is written with
:func:`write_bytes`.
"""

import json

from repro.sim.store import Entry, decode_entry, encode_entry


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
    """Write ``entry``'s sections, re-sealing the header line."""
    write_bytes(path, encode_entry(*entry))


def edit_header(path, edit) -> Entry:
    """Apply ``edit(header)`` in place and write the entry back;
    returns the entry as written."""
    entry = read_entry(path)
    edit(entry.header)
    write_entry(path, entry)
    return entry


def as_v6(raw: bytes) -> bytes:
    """The same entry as the v6 writer laid it out: one key-sorted JSON
    object, version 6, with the histogram string and the sidecar
    payload inside."""
    header, key_info, histogram, sidecar = decode_entry(raw)
    header.update(version=6, key=json.loads(key_info),
                  accounting=json.loads(sidecar) if sidecar else None)
    del header["accounting_crc32"]
    header["result"]["stats"]["read_latencies"] = histogram.decode()
    return (json.dumps(header, sort_keys=True) + "\n").encode()
