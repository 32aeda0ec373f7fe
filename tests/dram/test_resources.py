"""Tests for channel-level shared resources and the DDB bus windows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.backends import get_backend
from repro.dram.resources import (
    FLOOR_BUS,
    FLOOR_CCD_WTR_LONG,
    FLOOR_DDB_WINDOW,
    TURNAROUND_CLOCKS,
    BusPolicy,
    ChannelResources,
)

T = get_backend("dram").timings()


def make(policy, timing=T):
    if policy is BusPolicy.DDB:
        timing = timing.with_ddb_windows()
    return ChannelResources(timing, policy, bank_groups=4, banks=16)


class TestCommandBus:
    def test_starts_free(self):
        r = make(BusPolicy.BANK_GROUPS)
        assert r.act_floor()[1] == 0

    def test_one_command_per_clock(self):
        r = make(BusPolicy.BANK_GROUPS)
        r.record_command(0)
        assert r.earliest_precharge() == T.tCK


class TestActSpacing:
    def test_trrd_between_acts(self):
        r = make(BusPolicy.BANK_GROUPS)
        r.record_act(0)
        assert r.act_floor()[1] == T.tRRD


class TestCasSpacingBankGroups:
    def test_same_group_uses_tccd_l(self):
        r = make(BusPolicy.BANK_GROUPS)
        r.record_column(0, is_write=False, bank_group=1, bank=4)
        tag, t = r.column_floor(False, bank_group=1, bank=5)
        assert tag == FLOOR_CCD_WTR_LONG
        assert t >= T.tCCD_L

    def test_cross_group_uses_tccd_s(self):
        r = make(BusPolicy.BANK_GROUPS)
        r.record_column(0, is_write=False, bank_group=1, bank=4)
        tag, t = r.column_floor(False, bank_group=2, bank=8)
        assert tag == FLOOR_BUS
        assert t == T.tCCD_S
        assert t < T.tCCD_L


class TestCasSpacingNoGroups:
    def test_tccd_s_everywhere(self):
        r = make(BusPolicy.NO_GROUPS)
        r.record_column(0, is_write=False, bank_group=1, bank=4)
        assert r.column_floor(False, bank_group=1, bank=5)[1] == T.tCCD_S


class TestCasSpacingDdb:
    def test_same_group_different_bank_uses_tccd_s(self):
        """DDB's headline effect: intra-group bank interleave at tCCD_S."""
        r = make(BusPolicy.DDB)
        r.record_column(0, is_write=False, bank_group=1, bank=4)
        assert r.column_floor(False, bank_group=1, bank=5)[1] == T.tCCD_S

    def test_same_bank_still_tccd_l(self):
        r = make(BusPolicy.DDB)
        r.record_column(0, is_write=False, bank_group=1, bank=4)
        assert r.column_floor(False, bank_group=1, bank=4)[1] >= T.tCCD_L

    def test_windows_inactive_at_baseline_frequency(self):
        r = make(BusPolicy.DDB)
        assert not r.windows_active

    def test_ttcw_blocks_third_cas_at_high_frequency(self):
        fast = get_backend("dram").timings(2.4e9)
        r = make(BusPolicy.DDB, fast)
        assert r.windows_active
        t = fast.with_ddb_windows()
        r.record_column(0, is_write=False, bank_group=0, bank=0)
        second = r.column_floor(False, bank_group=0, bank=1)[1]
        r.record_column(second, is_write=False, bank_group=0, bank=1)
        tag, third = r.column_floor(False, bank_group=0, bank=2)
        # The third command waits for the tTCW window anchored at cmd #1.
        assert tag == FLOOR_DDB_WINDOW
        assert third >= t.tTCW

    def test_ttcw_does_not_constrain_other_group(self):
        fast = get_backend("dram").timings(2.4e9)
        r = make(BusPolicy.DDB, fast)
        r.record_column(0, is_write=False, bank_group=0, bank=0)
        second = r.column_floor(False, bank_group=0, bank=1)[1]
        r.record_column(second, is_write=False, bank_group=0, bank=1)
        other = r.column_floor(False, bank_group=1, bank=4)[1]
        assert other < fast.with_ddb_windows().tTCW

    def test_ttwtrw_after_two_writes(self):
        fast = get_backend("dram").timings(2.4e9)
        r = make(BusPolicy.DDB, fast)
        t = fast.with_ddb_windows()
        r.record_column(0, is_write=True, bank_group=0, bank=0)
        w2 = r.column_floor(True, bank_group=0, bank=1)[1]
        r.record_column(w2, is_write=True, bank_group=0, bank=1)
        tag, rd = r.column_floor(False, bank_group=0, bank=2)
        assert tag == FLOOR_DDB_WINDOW
        assert rd >= t.tTWTRW  # anchored at the first write (time 0)


class TestWriteToRead:
    def test_wtr_long_same_group(self):
        r = make(BusPolicy.BANK_GROUPS)
        end = r.record_column(0, is_write=True, bank_group=1, bank=4)
        tag, rd = r.column_floor(False, bank_group=1, bank=5)
        assert tag == FLOOR_CCD_WTR_LONG
        assert rd >= end + T.tWTR_L

    def test_wtr_short_cross_group(self):
        r = make(BusPolicy.BANK_GROUPS)
        end = r.record_column(0, is_write=True, bank_group=1, bank=4)
        rd = r.column_floor(False, bank_group=2, bank=8)[1]
        assert rd >= end + T.tWTR_S
        assert rd < end + T.tWTR_L

    def test_ddb_wtr_long_only_same_bank(self):
        r = make(BusPolicy.DDB)
        end = r.record_column(0, is_write=True, bank_group=1, bank=4)
        tag, same_bank = r.column_floor(False, bank_group=1, bank=4)
        assert tag == FLOOR_CCD_WTR_LONG
        tag, other_bank = r.column_floor(False, bank_group=1, bank=5)
        assert tag == FLOOR_BUS
        assert same_bank >= end + T.tWTR_L
        assert other_bank < same_bank


class TestDataBus:
    def test_bursts_do_not_overlap(self):
        r = make(BusPolicy.NO_GROUPS)
        end = r.record_column(0, is_write=False, bank_group=0, bank=0)
        nxt = r.column_floor(False, bank_group=1, bank=4)[1]
        assert nxt + T.tCL >= end or nxt >= T.tCCD_S

    def test_read_to_write_turnaround(self):
        r = make(BusPolicy.NO_GROUPS)
        end = r.record_column(0, is_write=False, bank_group=0, bank=0)
        wr = r.column_floor(True, bank_group=1, bank=4)[1]
        # Write data must start after read burst end + turnaround bubble.
        assert wr + T.tCWL >= end + TURNAROUND_CLOCKS * T.tCK

    def test_same_direction_no_turnaround(self):
        r = make(BusPolicy.NO_GROUPS)
        end = r.record_column(0, is_write=False, bank_group=0, bank=0)
        rd = r.column_floor(False, bank_group=1, bank=4)[1]
        assert rd + T.tCL >= end - T.burst_time  # back-to-back bursts fine


@settings(max_examples=200, deadline=None)
@given(
    policy=st.sampled_from(list(BusPolicy)),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 3)),
        min_size=1, max_size=20),
)
def test_earliest_column_is_monotone_and_legal(policy, ops):
    """Property: issuing at the reported earliest time is always accepted
    and times never move backwards."""
    timing = get_backend("dram").timings(2.4e9)
    if policy is BusPolicy.DDB:
        timing = timing.with_ddb_windows()
    r = ChannelResources(timing, policy, bank_groups=4, banks=16)
    prev = 0
    for is_write, bg, bank_in_group in ops:
        bank = bg * 4 + bank_in_group
        t = r.column_floor(is_write, bg, bank)[1]
        assert t >= 0
        issue = max(t, prev)
        r.record_column(issue, is_write, bg, bank)
        after = r.column_floor(is_write, bg, bank)[1]
        assert after > issue  # at least tCCD separates same-target CAS
        prev = issue
