"""The refactor invariant: every figure's numbers are bit-identical.

``tests/data/figure_digests.json`` was pinned by running
``tools/pin_figure_digests.py`` against the *pre-refactor* experiment
layer.  These tests recompute every figure through the declarative
spec / content-addressed store / runner path -- cold store, warm
store, and through the parallel grid -- and assert digest equality.
Digests hash the canonical JSON of the reduced outputs, and JSON
round-trips Python floats exactly, so equality means bit-identical
arithmetic, not "close enough".
"""

import json
import os

import pytest

from repro.sim.pinning import (
    FIGURE_BUILDERS,
    figure_payload,
    payload_digest,
    pinned_settings,
)
from repro.sim.runner import run_spec
from repro.sim.specs import fig12_spec

_DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                     "figure_digests.json")


def _pins() -> dict:
    with open(_DATA) as fh:
        return json.load(fh)


def test_pin_file_covers_every_builder_at_the_right_scale():
    pins = _pins()
    assert set(pins["figures"]) == set(FIGURE_BUILDERS)
    s = pinned_settings()
    assert pins["settings"] == {
        "accesses_per_core": s.accesses_per_core,
        "fragmentation": s.fragmentation,
        "seed": s.seed,
        "mixes": list(s.mixes),
    }


def test_every_figure_matches_its_pin_cold_then_warm(tmp_path,
                                                     monkeypatch):
    """One store directory, two lives: a cold pass computes every
    figure and must match the pre-refactor pins; a second pass over
    the same store must reproduce them entirely from disk."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    pins = _pins()["figures"]
    for life in ("cold", "warm"):
        for name, entry in pins.items():
            assert payload_digest(figure_payload(
                name, pinned_settings())) == entry["digest"], \
                f"{name} diverged from pre-refactor ({life})"
    # The warm pass simulated nothing: the speedup figures' grids come
    # back 100% from the store.
    _, report = run_spec(fig12_spec(pinned_settings()))
    assert report.submitted == 0
    assert report.store_hits == report.cells > 0


def test_fig12_matches_its_pin_through_the_parallel_grid(tmp_path,
                                                         monkeypatch):
    """Cold run with ``--jobs 2`` and the cost gate forced open: the
    pool path must land on the same pinned digest as serial."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_GRID_MIN_COST", "0")
    assert payload_digest(figure_payload(
        "fig12", pinned_settings(), jobs=2)) == \
        _pins()["figures"]["fig12"]["digest"]
