"""Tests for metric helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import (
    LatencyHistogram,
    gmean,
    normalized,
    quartiles,
    weighted_speedup,
)


class TestWeightedSpeedup:
    def test_equal_ipcs_give_core_count(self):
        assert weighted_speedup([1.0, 2.0], [1.0, 2.0]) == pytest.approx(
            2.0)

    def test_slowdown_reflected(self):
        assert weighted_speedup([0.5], [1.0]) == pytest.approx(0.5)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup([], [])

    def test_zero_alone_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [0.0])


class TestNormalized:
    def test_baseline_becomes_one(self):
        out = normalized({"a": 2.0, "b": 3.0}, "a")
        assert out["a"] == 1.0
        assert out["b"] == 1.5

    def test_missing_baseline_rejected(self):
        with pytest.raises(KeyError):
            normalized({"a": 2.0}, "zzz")

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            normalized({"a": 0.0}, "a")


class TestGmean:
    def test_single_value(self):
        assert gmean([3.0]) == pytest.approx(3.0)

    def test_classic(self):
        assert gmean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gmean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gmean([1.0, 0.0])

    @settings(max_examples=100)
    @given(values=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=20))
    def test_between_min_and_max(self, values):
        g = gmean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9


class TestQuartiles:
    def test_basic(self):
        # Nearest-rank on n=100: rank ceil(0.25*100)=25 -> value 25, etc.
        q = quartiles(list(range(1, 101)))
        assert q["mean"] == pytest.approx(50.5)
        assert q["q1"] == pytest.approx(25)
        assert q["median"] == pytest.approx(50)
        assert q["q3"] == pytest.approx(75)

    def test_single_sample(self):
        q = quartiles([42])
        assert q["q1"] == q["median"] == q["q3"] == 42
        assert q["mean"] == 42

    def test_two_samples(self):
        # Nearest-rank: the median of an even-length sample is the
        # lower middle element, never the upper one.
        q = quartiles([1, 2])
        assert q["q1"] == 1
        assert q["median"] == 1
        assert q["q3"] == 2

    def test_four_samples(self):
        q = quartiles([1, 2, 3, 4])
        assert q["q1"] == 1
        assert q["median"] == 2
        assert q["q3"] == 3

    def test_five_samples(self):
        q = quartiles([1, 2, 3, 4, 5])
        assert q["q1"] == 2
        assert q["median"] == 3
        assert q["q3"] == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            quartiles([])

    def test_unsorted_input(self):
        q = quartiles([3, 1, 2])
        assert q["median"] == 2


class TestLatencyHistogram:
    def test_iter_is_sorted_expansion(self):
        h = LatencyHistogram([5, 1, 5, 3, 1, 1])
        assert list(h) == [1, 1, 1, 3, 5, 5]
        assert len(h) == 6

    def test_equals_list_and_histogram(self):
        h = LatencyHistogram([2, 7, 2])
        assert h == [2, 2, 7]
        assert h == LatencyHistogram([7, 2, 2])
        assert h != [2, 7]

    def test_add_and_merge_accumulate(self):
        h = LatencyHistogram()
        assert not h
        h.add(4)
        h.merge(LatencyHistogram([4, 9]))
        assert list(h) == [4, 4, 9]
        assert h.min() == 4 and h.max() == 9
        assert h.mean() == pytest.approx(17 / 3)

    def test_memory_is_bounded_by_unique_values(self):
        h = LatencyHistogram([7] * 100000)
        assert len(h) == 100000
        assert len(h.counts) == 1

    def test_empty_statistics_rejected(self):
        h = LatencyHistogram()
        for op in (h.min, h.max, h.mean, h.quartiles):
            with pytest.raises(ValueError):
                op()

    @given(st.lists(st.integers(0, 500), min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_quartiles_match_list_route_exactly(self, samples):
        # The histogram computes quantiles from counts; the list route
        # sorts and indexes.  Both must agree for every input.
        assert (quartiles(LatencyHistogram(samples))
                == quartiles(sorted(samples)))

    @given(st.lists(st.integers(0, 10**6), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_pack_unpack_round_trip(self, samples):
        live = LatencyHistogram(samples)
        restored = LatencyHistogram.unpack(*live.pack())
        assert not restored.decoded
        assert restored == live and list(restored) == sorted(samples)
        assert restored.decoded and len(restored) == len(samples)
        assert restored.pack() == live.pack()

    def test_module_examples_execute(self):
        """The docstring examples, the pack/unpack round trip among
        them, run as written."""
        import doctest

        from repro.sim import metrics
        results = doctest.testmod(metrics)
        assert results.failed == 0 and results.attempted >= 11
