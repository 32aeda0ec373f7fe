"""Tests for the Fig. 4 plane-conflict trace analysis."""

import pathlib
import re

import pytest

from repro.analysis.plane_conflict import (
    FIG4_PLANE_COUNTS,
    analyze_plane_conflicts,
    fig4_plane_conflicts,
    timestamp_trace,
)
from repro.controller.mapping import skylake_mapping
from repro.cpu.trace import Trace, TraceEntry

MAPPING = skylake_mapping(subbanked=True)


def trace_of(specs):
    return Trace.from_entries(
        [TraceEntry(g, False, a) for g, a in specs])


def address(subbank, row, mapping=MAPPING):
    """Physical address hitting bank (0,0) of channel 0."""
    from repro.controller.transaction import DramCoordinates
    coords = DramCoordinates(channel=0, rank=0, bank_group=0, bank=0,
                             subbank=subbank, row=row, column=0)
    return mapping.encode(coords)


class TestTimestamping:
    def test_times_monotone(self):
        t = trace_of([(10, 0x1000), (5, 0x2000), (0, 0x3000)])
        stamped = timestamp_trace(t, MAPPING)
        times = [a.time for a in stamped]
        assert times == sorted(times)
        assert times[0] > 0

    def test_effective_ipc_stretches_time(self):
        t = trace_of([(100, 0x1000)])
        slow = timestamp_trace(t, MAPPING, effective_ipc=1.0)
        fast = timestamp_trace(t, MAPPING, effective_ipc=4.0)
        assert slow[0].time > fast[0].time


class TestConflictDetection:
    def test_same_plane_cross_subbank_conflicts(self):
        # Two near-simultaneous accesses: same bank, opposite sub-banks,
        # different rows with equal MSBs -> conflict at low plane counts.
        rows = (0b01 << 14, (0b01 << 14) | 1)
        t = trace_of([(0, address(0, rows[0])), (0, address(1, rows[1]))])
        res = analyze_plane_conflicts([t], MAPPING, plane_counts=(4,))
        assert res[4].plane_conflict == 2

    def test_different_plane_no_conflict(self):
        rows = (0b00 << 14, 0b11 << 14)
        t = trace_of([(0, address(0, rows[0])), (0, address(1, rows[1]))])
        res = analyze_plane_conflicts([t], MAPPING, plane_counts=(4,))
        assert res[4].plane_conflict == 0
        assert res[4].no_plane_conflict == 2

    def test_same_row_does_not_conflict(self):
        row = 0b01 << 14
        t = trace_of([(0, address(0, row)), (0, address(1, row))])
        res = analyze_plane_conflicts([t], MAPPING, plane_counts=(4,))
        assert res[4].plane_conflict == 0
        assert res[4].overlapping == 2

    def test_same_subbank_not_counted_as_overlap(self):
        t = trace_of([(0, address(0, 1)), (0, address(0, 2))])
        res = analyze_plane_conflicts([t], MAPPING, plane_counts=(4,))
        assert res[4].overlapping == 0

    def test_distant_in_time_not_counted(self):
        # Gap huge => far outside the tRC window.
        t = trace_of([(0, address(0, 0b01 << 14)),
                      (10**6, address(1, (0b01 << 14) | 1))])
        res = analyze_plane_conflicts([t], MAPPING, plane_counts=(4,))
        assert res[4].overlapping == 0

    def test_different_banks_never_interact(self):
        from repro.controller.transaction import DramCoordinates
        a = MAPPING.encode(DramCoordinates(0, 0, 0, 0, 0, 5, 0))
        b = MAPPING.encode(DramCoordinates(0, 0, 0, 1, 1, 5, 0))
        t = trace_of([(0, a), (0, b)])
        res = analyze_plane_conflicts([t], MAPPING, plane_counts=(2,))
        assert res[2].overlapping == 0


class TestCurveShape:
    def test_conflicts_decrease_with_planes(self):
        import random
        rng = random.Random(0)
        specs = []
        for _ in range(300):
            specs.append((rng.randrange(3),
                          address(rng.randrange(2),
                                  rng.randrange(1 << 16))))
        t = trace_of(specs)
        res = analyze_plane_conflicts(
            [t], MAPPING, plane_counts=(2, 16, 1024))
        c2 = res[2].plane_conflict
        c16 = res[16].plane_conflict
        c1024 = res[1024].plane_conflict
        assert c2 >= c16 >= c1024

    def test_overlap_independent_of_plane_count(self):
        import random
        rng = random.Random(1)
        t = trace_of([(0, address(rng.randrange(2),
                                  rng.randrange(1 << 16)))
                      for _ in range(100)])
        res = analyze_plane_conflicts([t], MAPPING,
                                      plane_counts=(2, 4096))
        assert res[2].overlapping == res[4096].overlapping

    def test_fig4_axis(self):
        assert FIG4_PLANE_COUNTS[0] == 2
        assert FIG4_PLANE_COUNTS[-1] == 32768
        assert len(FIG4_PLANE_COUNTS) == 15


def _fig4_section():
    """EXPERIMENTS.md's Fig. 4 section: its stated scale (accesses per
    core) and its table as {row: (paper, measured)} fractions, where a
    row is a plane count or ``"overlap"``."""
    text = (pathlib.Path(__file__).resolve().parents[2]
            / "EXPERIMENTS.md").read_text()
    section = text.split("## Fig. 4")[1].split("\n## ")[0]
    accesses = int(re.search(r"(\d[\d,]*) accesses/core",
                             section).group(1).replace(",", ""))
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[2].endswith("%"):
            continue
        planes = re.search(r"@ (\d+) planes", cells[0])
        rows[int(planes.group(1)) if planes else "overlap"] = tuple(
            float(re.search(r"[\d.]+", c).group()) / 100.0
            for c in cells[1:])
    return accesses, rows


class TestFig4Divergences:
    """EXPERIMENTS.md's Fig. 4 table, and Known divergences 3 and 4,
    held at the scale the section states (seed 0, fragmentation 0.1)."""

    @pytest.fixture(scope="class")
    def measured(self):
        accesses, rows = _fig4_section()
        results, total = fig4_plane_conflicts(accesses)
        values = {n: results[n].conflict_fraction(total) for n in rows
                  if n != "overlap"}
        values["overlap"] = results[2].overlapping / total
        return rows, values

    def test_table_reproduces(self, measured):
        rows, values = measured
        assert set(rows) == {"overlap", 2, 4, 32768}
        for row, (_, documented) in rows.items():
            assert values[row] == pytest.approx(documented, abs=0.001), row

    def test_overlap_and_floor_stay_below_the_paper(self, measured):
        """Divergence 4: overlap under the paper's 67 %; divergence 3:
        the single-row-plane floor under the paper's 17 %."""
        rows, values = measured
        assert rows["overlap"][0] == 0.67 and rows[32768][0] == 0.17
        assert values["overlap"] < rows["overlap"][0]
        assert values[32768] < rows[32768][0]
