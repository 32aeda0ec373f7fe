"""Unit tests for DRAM timing parameters and the DDR4 preset."""

import pytest

from repro.dram.backends import get_backend
from repro.dram.timing import (
    DRAM_CORE_PERIOD_PS,
    FIG14_BUS_FREQUENCIES_HZ,
    GENERATIONS,
    clock_period_ps,
    ns,
)

DDR4 = get_backend("dram")


def test_ns_converts_to_picoseconds():
    assert ns(1) == 1000
    assert ns(2.5) == 2500
    assert ns(0.75) == 750


def test_clock_period_1333mhz():
    assert clock_period_ps(1.333e9) == 750


def test_clock_period_200mhz_is_core_period():
    assert clock_period_ps(200e6) == DRAM_CORE_PERIOD_PS


class TestDdr4Preset:
    def test_default_bus_clock(self):
        t = DDR4.timings()
        assert t.tCK == 750

    def test_cas_latency_is_18_cycles(self):
        t = DDR4.timings()
        assert t.tCL == 18 * 750

    def test_trc_covers_tras_plus_trp(self):
        t = DDR4.timings()
        assert t.tRC >= t.tRAS + t.tRP

    def test_tccd_l_is_one_core_clock(self):
        t = DDR4.timings()
        assert t.tCCD_L == DRAM_CORE_PERIOD_PS

    def test_burst_time_is_four_clocks(self):
        t = DDR4.timings()
        assert t.burst_time == 4 * t.tCK

    def test_higher_frequency_shrinks_tck_not_trcd(self):
        base = DDR4.timings(1.333e9)
        fast = DDR4.timings(2.4e9)
        assert fast.tCK < base.tCK
        assert fast.tRCD == base.tRCD  # analog latency constant in ns

    def test_windows_disabled_by_default(self):
        t = DDR4.timings()
        assert t.tTCW == 0
        assert t.tTWTRW == 0


class TestDdbWindows:
    def test_with_ddb_windows_sets_ttcw_to_core_clock(self):
        t = DDR4.timings().with_ddb_windows()
        assert t.tTCW == DRAM_CORE_PERIOD_PS

    def test_ttwtrw_formula(self):
        t = DDR4.timings().with_ddb_windows()
        assert t.tTWTRW == t.tCWL + 4 * t.tCK + t.tWTR_L

    def test_windows_not_needed_at_1333(self):
        # 2 * burst (6 ns) exceeds the 5 ns core clock: dual buses keep up.
        assert not DDR4.timings(1.333e9).ddb_windows_needed()

    def test_windows_needed_at_2400(self):
        assert DDR4.timings(2.4e9).ddb_windows_needed()

    def test_windows_needed_at_2000(self):
        assert DDR4.timings(2.0e9).ddb_windows_needed()


class TestValidation:
    def test_rejects_nonpositive_tck(self):
        with pytest.raises(ValueError):
            DDR4.timings().replace(tCK=0)

    def test_rejects_trc_below_tras_plus_trp(self):
        t = DDR4.timings()
        with pytest.raises(ValueError):
            t.replace(tRC=t.tRAS)

    def test_rejects_tccd_l_below_tccd_s(self):
        t = DDR4.timings()
        with pytest.raises(ValueError):
            t.replace(tCCD_L=t.tCCD_S - 1)

    def test_rejects_odd_burst_length(self):
        with pytest.raises(ValueError):
            DDR4.timings().replace(burst_length=7)


def test_tab1_lists_four_generations():
    names = [g.name for g in GENERATIONS]
    assert names == ["DDR", "DDR2", "DDR3", "DDR4"]


def test_tab1_ddr4_spec():
    ddr4 = GENERATIONS[-1]
    assert ddr4.bank_count == "16"
    assert ddr4.internal_prefetch == "8n"


def test_fig14_sweep_starts_at_baseline_frequency():
    assert FIG14_BUS_FREQUENCIES_HZ[0] == pytest.approx(1.333e9)
    assert len(FIG14_BUS_FREQUENCIES_HZ) == 4
