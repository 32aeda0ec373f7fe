"""Pinned stall attribution: the observer's outputs never drift.

Result digests deliberately leave the accounting report out (observing
must never define behaviour), so nothing else pins *what the observer
says*.  These tests hash two of its outputs and compare each hash with
a literal in ``tests/data/accounting_digests.json``:

* every mix cell's :meth:`AccountingReport.to_dict` over the pinned
  ``figref`` grid (4Gb and 16Gb, every refresh policy, plus the
  refresh-off ``VSB(EWLR+RAP,4P)+DDB`` platform that Fig. 12 also
  runs), observed;
* :meth:`TraceSink.to_dicts` of one DARP cell run with event tracing.

A refactor of the observer or of the refresh machine must leave every
literal unchanged.  A deliberate change to what is recorded regenerates
them with::

    PYTHONPATH=src python -m tests.sim.test_accounting_digests

and names each moved literal, old -> new, in its change notes.
"""

import json
import os
import sys

from repro.sim.accounting import ObserveOptions
from repro.sim.parallel import run_grid
from repro.sim.pinning import (
    PINNED_FIGREF_DENSITIES,
    payload_digest,
    pinned_settings,
)
from repro.sim.runner import cell_job
from repro.sim.simulator import run_traces
from repro.sim.specs import figref_spec
from repro.workloads.mixes import mix_traces

_DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                     "accounting_digests.json")

#: The traced cell: DARP at the densest refresh grade, on the first mix.
TRACE_POLICY = "darp"
TRACE_DENSITY = "16Gb"


def _mix_cells():
    spec = figref_spec(pinned_settings(), PINNED_FIGREF_DENSITIES,
                       observe=True)
    return [cell for cell in spec.expand() if cell.kind == "mix"]


def _label(cell) -> str:
    return f"{cell.config.name} / {cell.workload}"


def accounting_digests() -> dict:
    """``{cell label: digest of AccountingReport.to_dict()}``."""
    cells = _mix_cells()
    results = run_grid([cell_job(cell, observe=True) for cell in cells])
    return {_label(cell): payload_digest(result.accounting.to_dict())
            for cell, result in zip(cells, results)}


def trace_digests() -> dict:
    """``{cell label: digest of TraceSink.to_dicts()}`` for the DARP
    cell."""
    suffix = f"+ref-{TRACE_POLICY}-{TRACE_DENSITY}"
    cell = next(c for c in _mix_cells()
                if c.config.name.endswith(suffix))
    traces = mix_traces(cell.workload, cell.accesses,
                        fragmentation=cell.fragmentation, seed=cell.seed)
    result = run_traces(cell.config, traces, core_config=cell.core_config,
                        observe=ObserveOptions(trace=True))
    return {_label(cell): payload_digest(result.trace.to_dicts())}


def _pins() -> dict:
    with open(_DATA) as fh:
        return json.load(fh)


def test_accounting_reports_match_their_pins():
    assert accounting_digests() == _pins()["accounting"]


def test_darp_trace_matches_its_pin():
    assert trace_digests() == _pins()["trace"]


if __name__ == "__main__":
    table = {"accounting": accounting_digests(), "trace": trace_digests()}
    with open(_DATA, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.normpath(_DATA)}", file=sys.stderr)
