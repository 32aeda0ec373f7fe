"""Pinned stall attribution: the observer's outputs never drift.

Result digests deliberately leave the accounting report out (observing
must never define behaviour), so nothing else pins *what the observer
says*.  These tests hash two of its outputs, the two halves of
:func:`tests.pins.accounting_digests`, and compare each hash with its
entry in ``tests/data/accounting_digests.json``:

* every mix cell's :meth:`AccountingReport.to_dict` over the pinned
  ``figref`` grid (4Gb and 16Gb, every refresh policy, plus the
  refresh-off ``VSB(EWLR+RAP,4P)+DDB`` platform that Fig. 12 also
  runs), observed;
* :meth:`TraceSink.to_dicts` of one DARP cell run with event tracing.

A refactor of the observer or of the refresh machine must leave every
entry unchanged.  A deliberate change to what is recorded re-pins them
with ``PYTHONPATH=src python -m tests.pins --write
accounting_digests.json``, whose output names each moved entry,
old -> new, for the change notes.
"""

from tests import pins

ACCOUNTING = "accounting_digests.json"


def test_accounting_reports_match_their_pins():
    assert pins.accounting_report_digests() == \
        pins.load(ACCOUNTING)["accounting"]


def test_darp_trace_matches_its_pin():
    assert pins.darp_trace_digests() == pins.load(ACCOUNTING)["trace"]
