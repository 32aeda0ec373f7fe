"""Every figure's numbers are bit-identical to their pins.

``tests/data/figure_digests.json`` pins the reduced output of every
figure runner; :func:`tests.pins.figure_digests` computes it, here and
in ``PYTHONPATH=src python -m tests.pins``, which re-pins it.  These
tests recompute every figure through the spec / content-addressed
store / runner path -- cold store, warm store, and through the
parallel grid -- and assert that no entry moved.
"""

from dataclasses import asdict

from repro.sim.runner import run_spec
from tests import pins

FIGURES = "figure_digests.json"


def test_pin_file_covers_every_builder_at_the_right_scale():
    """Without simulating: the file pins every figure, on the grid
    :mod:`tests.pins` computes."""
    pinned = pins.load(FIGURES)
    assert set(pinned["figures"]) == set(pins.FIGURES)
    assert pinned["settings"] == {**asdict(pins.SETTINGS),
                                  "mixes": list(pins.SETTINGS.mixes)}


def test_every_figure_matches_its_pin_cold_then_warm(tmp_path,
                                                     monkeypatch):
    """One store directory, two lives: a cold pass computes every
    figure and must match the pins; a second pass over the same store
    must reproduce them entirely from disk."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    pinned = pins.load(FIGURES)
    for life in ("cold", "warm"):
        assert pins.drift(pinned, pins.figure_digests()) == {}, life
    # The warm pass simulated nothing: the speedup figures' grids come
    # back 100% from the store.
    _, report = run_spec(pins.pinned_spec("fig12"))
    assert report.submitted == 0
    assert report.store_hits == report.cells > 0


def test_fig12_matches_its_pin_through_the_parallel_grid(tmp_path,
                                                         monkeypatch):
    """Cold run with ``--jobs 2`` and the cost gate forced open: the
    pool path must land on the same pinned digest as serial."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr("repro.sim.parallel.DEFAULT_GRID_MIN_COST", 0)
    assert pins.payload_digest(pins.figure_payload("fig12", jobs=2)) == \
        pins.load(FIGURES)["figures"]["fig12"]["digest"]
