"""Tests for EruConfig and the RAP/EWLR address rules it switches on.

RAP and EWLR have one implementation, the row layout every simulation
runs (:class:`repro.controller.mapping.RowLayout`): ``plane_id``
applies RAP's per-sub-bank plane inversion, and ``mwl_tag`` masks
EWLR's LWL_SEL field out of the row.  ``test_subbank.py``,
``tests/dram/test_bank.py`` and ``test_differential.py`` test the
verdicts that read them on the MSB layout; the EWLR cases here use the
LSB layout that EWLR-alone configurations run (Fig. 9's mapping (2)).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.mapping import PlanePlacement
from repro.core.mechanisms import EruConfig
from repro.core.subbank import ActivationVerdict
from repro.dram.backends import get_backend
from repro.dram.bank import Bank, BankGeometry
from repro.dram.power import EnergyParams

PLANES = st.sampled_from([1, 2, 4, 8, 16])
PLACEMENTS = st.sampled_from(list(PlanePlacement))
ROWS = st.integers(0, 0xFFFF)


def plane_field(layout, row):
    """The plane field of ``row``, before any RAP permutation."""
    return layout.plane_id(row, 0, rap=False)


def with_plane(layout, row, plane):
    """``row`` with its plane field (row MSBs or LSBs) set to ``plane``."""
    shift = (layout.row_bits - layout.plane_bits
             if layout.plane_placement is PlanePlacement.MSB else 0)
    return row & ~((layout.plane_count - 1) << shift) | plane << shift


def with_lwl_sel(layout, row, offset):
    """``row`` with its LWL_SEL field set to ``offset``; the field sits
    next to the plane field (Fig. 9)."""
    shift = (layout.row_bits - layout.plane_bits - layout.ewlr_bits
             if layout.plane_placement is PlanePlacement.MSB
             else layout.plane_bits)
    return row & ~(((1 << layout.ewlr_bits) - 1) << shift) | offset << shift


def ewlr_bank(layout, open_row):
    """A VSB bank running EWLR without RAP, ``open_row`` open in
    sub-bank 0."""
    bank = Bank(BankGeometry(subbanks=2, row_bits=layout.row_bits),
                get_backend("dram").timings(), layout, ewlr=True,
                rap=False)
    bank.do_activate(0, open_row, time=0)
    return bank


class TestEruConfig:
    def test_full_has_everything(self):
        c = EruConfig.full(4)
        assert c.ewlr and c.rap and c.ddb
        assert c.planes == 4

    def test_naive_has_nothing(self):
        c = EruConfig.naive(8)
        assert not (c.ewlr or c.rap or c.ddb)

    def test_rejects_bad_plane_count(self):
        with pytest.raises(ValueError):
            EruConfig(planes=3)

    def test_names_distinct(self):
        names = {EruConfig.naive(4).name, EruConfig.naive_ddb(4).name,
                 EruConfig.ewlr_only(4).name, EruConfig.rap_only(4).name,
                 EruConfig.full(4).name, EruConfig.full(2).name}
        assert len(names) == 6

    def test_row_layout_placement_follows_fig9(self):
        # EWLR alone: plane from row LSBs (mapping 2).
        assert (EruConfig.ewlr_only(4).row_layout().plane_placement
                is PlanePlacement.LSB)
        # EWLR+RAP: plane from row MSBs (mapping 1).
        assert (EruConfig.full(4).row_layout().plane_placement
                is PlanePlacement.MSB)
        # Naive planes are contiguous regions (Fig. 3).
        assert (EruConfig.naive(4).row_layout().plane_placement
                is PlanePlacement.MSB)

    def test_row_layout_ewlr_bits(self):
        assert EruConfig.full(4).row_layout().ewlr_bits == 3
        assert EruConfig.naive(4).row_layout().ewlr_bits == 0


class TestRapHelpers:
    """RAP (Section IV-D) as :meth:`RowLayout.plane_id` applies it: the
    right sub-bank inverts the plane field, under either placement."""

    @staticmethod
    def layout(planes, placement):
        return EruConfig(planes=planes,
                         plane_placement=placement).row_layout()

    @settings(max_examples=200)
    @given(planes=PLANES, placement=PLACEMENTS, row=ROWS)
    def test_identity_on_left(self, planes, placement, row):
        layout = self.layout(planes, placement)
        assert (layout.plane_id(row, 0, rap=True)
                == layout.plane_id(row, 0, rap=False))

    @settings(max_examples=200)
    @given(planes=PLANES, placement=PLACEMENTS, row=ROWS)
    def test_inversion_on_right(self, planes, placement, row):
        layout = self.layout(planes, placement)
        assert (layout.plane_id(row, 1, rap=True)
                == layout.plane_id(row, 1, rap=False) ^ (planes - 1))

    def test_single_plane_unchanged(self):
        layout = self.layout(1, PlanePlacement.MSB)
        assert {layout.plane_id(row, subbank, rap=True)
                for row in range(0, layout.rows, 97)
                for subbank in (0, 1)} == {0}

    @settings(max_examples=200)
    @given(planes=st.sampled_from([2, 4, 8, 16]), placement=PLACEMENTS,
           left=ROWS, right=ROWS)
    def test_equal_fields_never_conflict_with_rap(self, planes, placement,
                                                  left, right):
        layout = self.layout(planes, placement)
        right = with_plane(layout, right, plane_field(layout, left))
        assert (layout.plane_id(left, 0, rap=True)
                != layout.plane_id(right, 1, rap=True))
        assert (layout.plane_id(left, 0, rap=False)
                == layout.plane_id(right, 1, rap=False))

    @settings(max_examples=200)
    @given(planes=st.sampled_from([2, 4, 8, 16]), placement=PLACEMENTS,
           left=ROWS, right=ROWS)
    def test_complement_fields_conflict_with_rap(self, planes, placement,
                                                 left, right):
        layout = self.layout(planes, placement)
        right = with_plane(layout, right,
                           plane_field(layout, left) ^ (planes - 1))
        assert (layout.plane_id(left, 0, rap=True)
                == layout.plane_id(right, 1, rap=True))

    @settings(max_examples=200)
    @given(planes=PLANES, placement=PLACEMENTS, row=ROWS)
    def test_permutation_is_involution(self, planes, placement, row):
        layout = self.layout(planes, placement)
        once = with_plane(layout, row, layout.plane_id(row, 1, rap=True))
        assert layout.plane_id(once, 1, rap=True) == plane_field(layout,
                                                                 row)

    @settings(max_examples=100)
    @given(planes=PLANES, placement=PLACEMENTS, row=ROWS)
    def test_permutation_is_bijection(self, planes, placement, row):
        layout = self.layout(planes, placement)
        image = {layout.plane_id(with_plane(layout, row, p), 1, rap=True)
                 for p in range(planes)}
        assert image == set(range(planes))


class TestEwlrHelpers:
    """EWLR (Section IV-C) on the layout EWLR-alone configurations run:
    the plane field in row bits 0-1, LWL_SEL in bits 2-4.  Rows in
    paired sub-banks share a raised main wordline (an ``EWLR_HIT``)
    exactly when their plane IDs and MWL tags agree."""

    LAYOUT = EruConfig.ewlr_only(4).row_layout()
    BASE = 0x5A01  # plane 1, LWL_SEL 0

    def test_rows_per_ewlr(self):
        """One MWL drives 8 local wordlines (DDR4's 3 LWL_SEL bits)."""
        layout = self.LAYOUT
        tag, plane = layout.mwl_tag(self.BASE), plane_field(layout,
                                                            self.BASE)
        assert sum(1 for row in range(layout.rows)
                   if layout.mwl_tag(row) == tag
                   and plane_field(layout, row) == plane) == 8

    def test_vpp_constant_is_papers(self):
        assert EnergyParams().ewlr_mwl_fraction == 0.18

    def test_hit_within_range(self):
        near = with_lwl_sel(self.LAYOUT, self.BASE, 0b010)
        verdict, _ = ewlr_bank(self.LAYOUT, self.BASE).classify(1, near)
        assert verdict is ActivationVerdict.EWLR_HIT

    def test_no_hit_same_subbank(self):
        near = with_lwl_sel(self.LAYOUT, self.BASE, 0b010)
        assert (ewlr_bank(self.LAYOUT, self.BASE).classify(0, near)
                == (ActivationVerdict.OWN_ROW_CONFLICT, (0, 0)))

    def test_no_hit_across_planes(self):
        other = with_plane(self.LAYOUT, self.BASE, 2)
        verdict, _ = ewlr_bank(self.LAYOUT, self.BASE).classify(1, other)
        assert verdict is ActivationVerdict.ACT_OK

    def test_no_hit_different_mwl(self):
        far = self.BASE ^ (1 << 5)  # the lowest bit above LWL_SEL
        assert (ewlr_bank(self.LAYOUT, self.BASE).classify(1, far)
                == (ActivationVerdict.PLANE_CONFLICT, (0, 0)))

    def test_range_equality_is_hit_criterion(self):
        """Of every row the idle sub-bank could open, exactly the open
        row's 8 LWL_SEL siblings share its (plane ID, MWL tag) range."""
        bank = ewlr_bank(self.LAYOUT, self.BASE)
        hits = [row for row in range(self.LAYOUT.rows)
                if bank.classify(1, row)[0] is ActivationVerdict.EWLR_HIT]
        assert hits == sorted(with_lwl_sel(self.LAYOUT, self.BASE, offset)
                              for offset in range(8))

    @settings(max_examples=200, deadline=None)
    @given(placement=PLACEMENTS, row=ROWS, offset=st.integers(0, 7))
    def test_every_row_hits_its_own_ewlr_siblings(self, placement, row,
                                                  offset):
        layout = EruConfig(planes=4, rap=False,
                           plane_placement=placement).row_layout()
        sibling = with_lwl_sel(layout, row, offset)
        assert layout.mwl_tag(sibling) == layout.mwl_tag(row)
        verdict, _ = ewlr_bank(layout, row).classify(1, sibling)
        assert verdict is ActivationVerdict.EWLR_HIT
