"""Tests for the Channel device model and energy accounting."""

import pytest

from repro.controller.mapping import RowLayout
from repro.controller.transaction import DramCoordinates
from repro.core.subbank import ActivationVerdict
from repro.dram.backends import get_backend
from repro.dram.bank import BankGeometry
from repro.dram.commands import PrechargeCause
from repro.dram.device import Channel
from repro.dram.power import EnergyMeter, EnergyParams
from repro.dram.resources import BusPolicy

T = get_backend("dram").timings()


def flat_channel():
    return Channel(T, BusPolicy.BANK_GROUPS, bank_groups=4,
                   banks_per_group=4,
                   bank_geometry=BankGeometry(subbanks=1, row_bits=17))


def vsb_channel(ewlr=True, rap=True, planes=4, ddb=True):
    layout = RowLayout(row_bits=16, plane_count=planes,
                       ewlr_bits=3 if ewlr else 0)
    return Channel(T, BusPolicy.DDB if ddb else BusPolicy.BANK_GROUPS,
                   bank_groups=4, banks_per_group=4,
                   bank_geometry=BankGeometry(subbanks=2, row_bits=16),
                   row_layout=layout, ewlr=ewlr, rap=rap)


def coords(bg=0, bank=0, subbank=0, row=0, column=0):
    return DramCoordinates(channel=0, rank=0, bank_group=bg, bank=bank,
                           subbank=subbank, row=row, column=column)


class TestBankIndexing:
    def test_bank_index_flattens_groups(self):
        ch = flat_channel()
        assert ch.bank_index(coords(bg=2, bank=3)) == 11
        assert len(ch.banks) == 16

    def test_distinct_banks_are_distinct_objects(self):
        ch = flat_channel()
        assert ch.bank(coords(bg=0, bank=0)) is not ch.bank(
            coords(bg=0, bank=1))


class TestReadFlow:
    def test_act_then_read_completes(self):
        ch = flat_channel()
        c = coords(row=7)
        t_act = ch.earliest_act(c)
        ch.issue_act(c, t_act)
        t_rd = ch.earliest_column(c, is_write=False)
        assert t_rd >= t_act + T.tRCD
        data_end = ch.issue_column(c, t_rd, is_write=False)
        assert data_end == t_rd + T.tCL + T.burst_time

    def test_open_row_visible(self):
        ch = flat_channel()
        c = coords(row=7)
        ch.issue_act(c, 0)
        assert ch.open_row(c) == 7

    def test_energy_counters(self):
        ch = flat_channel()
        c = coords(row=7)
        ch.issue_act(c, 0)
        ch.issue_column(c, T.tRCD, is_write=False)
        assert ch.energy.activations == 1
        assert ch.energy.reads == 1

    def test_precharge_cause_tracked(self):
        ch = flat_channel()
        c = coords(row=7)
        ch.issue_act(c, 0)
        ch.issue_precharge(ch.bank_index(c), (0, 0), T.tRAS,
                           PrechargeCause.ROW_CONFLICT)
        assert ch.precharge_causes[PrechargeCause.ROW_CONFLICT] == 1
        assert ch.energy.precharges == 1


class TestEwlrOnChannel:
    def test_ewlr_hit_counted(self):
        ch = vsb_channel(ewlr=True, rap=False)
        base = 0b01 << 14
        ch.issue_act(coords(subbank=0, row=base), 0)
        near = base | (1 << 11)
        hit = ch.issue_act(coords(subbank=1, row=near), T.tRRD)
        assert hit
        assert ch.energy.ewlr_hit_activations == 1

    def test_partial_precharge_flag(self):
        ch = vsb_channel(ewlr=True, rap=False)
        base = 0b01 << 14
        ch.issue_act(coords(subbank=0, row=base), 0)
        ch.issue_act(coords(subbank=1, row=base | (1 << 11)), T.tRRD)
        partial = ch.issue_precharge(0, (0, 0), T.tRAS + T.tRRD,
                                     PrechargeCause.PLANE_CONFLICT)
        assert partial
        assert ch.energy.partial_precharges == 1


class TestSubbankParallelismOnChannel:
    def test_two_subbanks_both_open(self):
        ch = vsb_channel()
        ch.issue_act(coords(subbank=0, row=0x0010), 0)
        ch.issue_act(coords(subbank=1, row=0x8020), T.tRRD)
        assert ch.open_row(coords(subbank=0, row=0x0010)) == 0x0010
        assert ch.open_row(coords(subbank=1, row=0x8020)) == 0x8020

    def test_classify_exposed(self):
        ch = vsb_channel(ewlr=False, rap=False)
        row = 0b01 << 14
        ch.issue_act(coords(subbank=0, row=row), 0)
        verdict, victim = ch.classify(coords(subbank=1, row=row | 1))
        assert verdict is ActivationVerdict.PLANE_CONFLICT
        assert victim == (0, 0)


class TestEnergyMeter:
    def test_ewlr_hit_saves_energy(self):
        p = EnergyParams()
        full = EnergyMeter(p)
        full.record_act(ewlr_hit=False)
        hit = EnergyMeter(p)
        hit.record_act(ewlr_hit=True)
        assert hit.activation_energy_nj() < full.activation_energy_nj()
        saved = full.activation_energy_nj() - hit.activation_energy_nj()
        assert saved == pytest.approx(p.ewlr_hit_saving_nj)

    def test_ewlr_saving_is_18_percent_of_vpp(self):
        p = EnergyParams()
        assert p.ewlr_hit_saving_nj == pytest.approx(
            p.act_nj * p.vpp_fraction * 0.18)

    def test_background_scales_with_time(self):
        m = EnergyMeter(EnergyParams(background_w=1.0))
        one_us = 1_000_000
        assert m.background_energy_nj(one_us) == pytest.approx(1000.0)

    def test_total_combines_components(self):
        m = EnergyMeter()
        m.record_act()
        m.record_read()
        m.record_precharge()
        t = 1_000_000
        assert m.total_energy_nj(t) == pytest.approx(
            m.activation_energy_nj() + m.access_energy_nj()
            + m.background_energy_nj(t))

    def test_half_dram_activation_scale(self):
        half = EnergyMeter(EnergyParams(act_scale=0.5))
        full = EnergyMeter(EnergyParams())
        half.record_act()
        full.record_act()
        assert half.activation_energy_nj() < full.activation_energy_nj()

    def test_merge_accumulates(self):
        a = EnergyMeter()
        b = EnergyMeter()
        a.record_act()
        b.record_act(ewlr_hit=True)
        b.record_write()
        a.merge(b)
        assert a.activations == 2
        assert a.ewlr_hit_activations == 1
        assert a.writes == 1


class TestActivateVerdict:
    """The ACT path classifies once: ``Bank.do_activate`` returns the
    verdict it validated, and ``Channel.issue_act`` reports its EWLR hit
    from that verdict."""

    @pytest.mark.parametrize("rap", [True, False])
    def test_act_reports_the_pre_act_verdict(self, rap):
        # EWLR+RAP is the paper's VSB; the RAP-free bank is where an
        # EWLR hit can occur (RAP inverts the right sub-bank's plane
        # bits, so equal planes never share an MWL tag there).
        bank_side = vsb_channel(ewlr=True, rap=rap)
        channel_side = vsb_channel(ewlr=True, rap=rap)
        base = 0b01 << 14
        for time, c in enumerate((coords(subbank=0, row=base),
                                  coords(subbank=1, row=base | (1 << 11)))):
            before, _ = bank_side.classify(c)
            bank = bank_side.bank(c)
            assert bank.do_activate(c.subbank, c.row, time) is before
            hit = channel_side.issue_act(c, time)
            assert hit == (before is ActivationVerdict.EWLR_HIT)
        assert before is (ActivationVerdict.ACT_OK if rap
                          else ActivationVerdict.EWLR_HIT)
        assert channel_side.energy.ewlr_hit_activations == (0 if rap else 1)

    def test_illegal_act_still_raises(self):
        ch = vsb_channel(ewlr=True, rap=True)
        ch.issue_act(coords(subbank=0, row=0b01 << 14), 0)
        # Under RAP, row 0b10 << 14 on sub-bank 1 lands in the same
        # plane with a different MWL tag: a plane conflict.
        clash = coords(subbank=1, row=0b10 << 14)
        assert ch.classify(clash)[0] is ActivationVerdict.PLANE_CONFLICT
        with pytest.raises(ValueError, match="illegal ACT"):
            ch.issue_act(clash, T.tRRD)
        with pytest.raises(ValueError, match="illegal ACT"):
            ch.issue_act(coords(subbank=0, row=(0b01 << 14) | 1), T.tRRD)
