"""Differential testing: the pure reference rules vs the timed bank.

``repro.core.subbank.SubbankPairState`` is the executable specification
of the VSB plane-latch rules; ``repro.dram.bank.Bank`` reimplements them
inside the timed FSM (with cached plane/MWL fields).  They must agree on
every verdict for every mechanism combination.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.mapping import PlanePlacement, RowLayout
from repro.core.subbank import ActivationVerdict, SubbankPairState
from repro.dram.backends import get_backend
from repro.dram.bank import Bank, BankGeometry

T = get_backend("dram").timings()


def build_pair(layout, ewlr, rap):
    return SubbankPairState(layout, ewlr_enabled=ewlr, rap_enabled=rap)


def build_bank(layout, ewlr, rap):
    return Bank(BankGeometry(subbanks=2, row_bits=layout.row_bits), T,
                layout, ewlr=ewlr, rap=rap)


@settings(max_examples=400, deadline=None)
@given(
    planes=st.sampled_from([1, 2, 4, 8, 16]),
    placement=st.sampled_from(list(PlanePlacement)),
    ewlr=st.booleans(),
    rap=st.booleans(),
    ops=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 0xFFFF)),
                 min_size=1, max_size=12),
)
def test_bank_and_reference_agree_on_every_verdict(
        planes, placement, ewlr, rap, ops):
    layout = RowLayout(row_bits=16, plane_count=planes,
                       plane_placement=placement,
                       ewlr_bits=3 if ewlr else 0)
    pair = build_pair(layout, ewlr, rap)
    bank = build_bank(layout, ewlr, rap)
    time = 0
    for subbank, row in ops:
        ref = pair.classify(subbank, row)
        got, victim = bank.classify(subbank, row)
        assert got is ref, (subbank, row, ref, got)
        # Apply the op to both models, resolving conflicts identically.
        while got in (ActivationVerdict.OWN_ROW_CONFLICT,
                      ActivationVerdict.PLANE_CONFLICT):
            victim_subbank = victim[0]
            pair.precharge(victim_subbank)
            time = max(time + 1, bank.earliest_precharge(victim))
            bank.do_precharge(victim, time)
            ref = pair.classify(subbank, row)
            got, victim = bank.classify(subbank, row)
            assert got is ref
        if got is not ActivationVerdict.ROW_HIT:
            pair.activate(subbank, row)
            time = max(time + 1, bank.earliest_act(subbank, row))
            bank.do_activate(subbank, row, time)
        assert pair.open_row(subbank) == row
        assert bank.slot(subbank, row).active_row == row


@settings(max_examples=300, deadline=None)
@given(
    planes=st.sampled_from([2, 4, 8]),
    ewlr=st.booleans(),
    rap=st.booleans(),
    open_row=st.integers(0, 0xFFFF),
    target=st.integers(0, 0xFFFF),
)
def test_partial_precharge_agreement(planes, ewlr, rap, open_row,
                                     target):
    layout = RowLayout(row_bits=16, plane_count=planes,
                       ewlr_bits=3 if ewlr else 0)
    pair = build_pair(layout, ewlr, rap)
    bank = build_bank(layout, ewlr, rap)
    pair.activate(0, open_row)
    bank.do_activate(0, open_row, 0)
    verdict = pair.classify(1, target)
    if verdict not in (ActivationVerdict.ACT_OK,
                       ActivationVerdict.EWLR_HIT):
        return
    pair.activate(1, target)
    bank.do_activate(1, target, T.tRRD)
    assert (pair.partial_precharge_possible(0)
            == bank.partial_precharge_possible((0, 0)))
    assert (pair.partial_precharge_possible(1)
            == bank.partial_precharge_possible((1, 0)))
