"""Tests for the PCM-PALP write-pulse model (bank FSM + validator).

The PALP mechanics under test: asymmetric read/write tRCD, the
self-timed programming pulse that walls off a partition after a write,
write cancellation by a PRE once ``tWCT`` has elapsed, and the replay
gate that keeps columns out until the cancelled write has been
re-programmed -- across intervening row swaps (the hole the
differential fuzzer found).
"""

import pytest

from repro.dram.bank import NEVER, Bank, BankGeometry
from repro.dram.backends import get_backend
from repro.dram.timing import TimingParams, clock_period_ps, ns
from repro.dram.validation import (
    CommandRecord,
    TimingViolation,
    validate_log,
)
from repro.dram.resources import BusPolicy

PCM = get_backend("pcm_palp").timings()


def pcm_bank():
    return Bank(BankGeometry(subbanks=1, row_bits=17), PCM)


def _write(bank, row, time):
    bank.do_column(0, row, time, is_write=True)
    return time + PCM.tCWL + PCM.burst_time  # the burst's data end


class TestAsymmetricTrcd:
    def test_write_path_opens_before_read_path(self):
        b = pcm_bank()
        b.do_activate(0, 5, time=0)
        assert b.earliest_column(0, 5, is_write=True) == PCM.trcd_wr
        assert b.earliest_column(0, 5, is_write=False) == PCM.tRCD
        assert PCM.trcd_wr < PCM.tRCD

    def test_early_read_rejected_early_write_accepted(self):
        b = pcm_bank()
        b.do_activate(0, 5, time=0)
        with pytest.raises(ValueError):
            b.do_column(0, 5, PCM.trcd_wr, is_write=False)
        b.do_column(0, 5, PCM.trcd_wr, is_write=True)


class TestWritePulse:
    def test_pulse_blocks_columns_until_twrp(self):
        b = pcm_bank()
        b.do_activate(0, 5, time=0)
        end = _write(b, 5, PCM.trcd_wr)
        pulse_end = end + PCM.tWRP
        assert b.earliest_column(0, 5, is_write=False) == pulse_end
        assert b.earliest_column(0, 5, is_write=True) == pulse_end
        with pytest.raises(ValueError):
            b.do_column(0, 5, pulse_end - 1, is_write=False)
        b.do_column(0, 5, pulse_end, is_write=False)

    def test_plain_precharge_waits_out_the_pulse(self):
        b = pcm_bank()
        b.do_activate(0, 5, time=0)
        end = _write(b, 5, PCM.trcd_wr)
        key = b.slot_key(0, 5)
        assert b.earliest_precharge(key) == end + PCM.tWRP

    def test_cancel_floor_is_twct(self):
        b = pcm_bank()
        b.do_activate(0, 5, time=0)
        # Write late enough that end + tWCT lands past the tRAS floor,
        # so the cancellation floor is what binds.
        end = _write(b, 5, PCM.tRAS)
        key = b.slot_key(0, 5)
        assert end + PCM.tWCT > PCM.tRAS
        assert b.earliest_precharge(key, cancel=True) == end + PCM.tWCT

    def test_cancel_floor_respects_tras(self):
        b = pcm_bank()
        b.do_activate(0, 5, time=0)
        end = _write(b, 5, PCM.trcd_wr)
        key = b.slot_key(0, 5)
        # The early write's cancel window opens before tRAS does, so
        # the row-activation floor binds instead.
        assert end + PCM.tWCT < PCM.tRAS
        assert b.earliest_precharge(key, cancel=True) == PCM.tRAS

    def test_cancellation_sets_replay_and_counts(self):
        b = pcm_bank()
        b.do_activate(0, 5, time=0)
        end = _write(b, 5, PCM.trcd_wr)
        key = b.slot_key(0, 5)
        t_cancel = b.earliest_precharge(key, cancel=True)
        assert b.do_precharge(key, t_cancel) is True
        # Reactivate: columns gated by the replayed write's pulse.
        t_act = t_cancel + PCM.tRP
        b.do_activate(0, 5, t_act)
        assert b.earliest_column(0, 5) == t_cancel + PCM.tWRP

    def test_cancel_too_early_rejected(self):
        b = pcm_bank()
        b.do_activate(0, 5, time=0)
        end = _write(b, 5, PCM.trcd_wr)
        key = b.slot_key(0, 5)
        with pytest.raises(ValueError, match="cancel"):
            b.do_precharge(key, end + PCM.tWCT - 1)

    def test_replay_gate_survives_row_swaps(self):
        """The fuzzer's finding: closing and re-opening *another* row
        during the replay window must not drop the replay wall."""
        b = pcm_bank()
        b.do_activate(0, 5, time=0)
        _write(b, 5, PCM.trcd_wr)
        key = b.slot_key(0, 5)
        t_cancel = b.earliest_precharge(key, cancel=True)
        b.do_precharge(key, t_cancel)
        replay = t_cancel + PCM.tWRP
        # Swap to another row and back, all inside the replay window.
        t1 = t_cancel + PCM.tRP
        b.do_activate(0, 9, t1)
        t2 = max(b.earliest_precharge(b.slot_key(0, 9)), t1 + PCM.tRAS)
        assert t2 < replay
        b.do_precharge(b.slot_key(0, 9), t2)
        t3 = t2 + PCM.tRP
        b.do_activate(0, 5, t3)
        assert b.earliest_column(0, 5, is_write=True) >= replay
        with pytest.raises(ValueError):
            b.do_column(0, 5, replay - 1, is_write=True)

    def test_uncancellable_pulse_rejects_pre(self):
        t = PCM.replace(tWCT=0)
        b = Bank(BankGeometry(subbanks=1, row_bits=17), t)
        b.do_activate(0, 5, time=0)
        b.do_column(0, 5, t.trcd_wr, is_write=True)
        key = b.slot_key(0, 5)
        end = t.trcd_wr + t.tCWL + t.burst_time
        assert b.earliest_precharge(key, cancel=True) == end + t.tWRP
        with pytest.raises(ValueError, match="no cancellation"):
            b.do_precharge(key, end + t.tWRP - 1)

    def test_dram_timings_never_create_pulse_state(self):
        ddr4 = get_backend("dram").timings()
        b = Bank(BankGeometry(subbanks=1, row_bits=17), ddr4)
        b.do_activate(0, 5, time=0)
        b.do_column(0, 5, ddr4.tRCD, is_write=True)
        slot = b.slots[b.slot_key(0, 5)]
        assert slot.wr_pulse_end == NEVER
        assert slot.ready_col == slot.ready_col_wr


class TestTimingParamValidation:
    def test_twct_requires_pulse(self):
        with pytest.raises(ValueError, match="tWRP"):
            PCM.replace(tWRP=0)

    def test_twct_must_fall_inside_pulse(self):
        with pytest.raises(ValueError, match="inside"):
            PCM.replace(tWCT=PCM.tWRP + 1)

    def test_twct_must_cover_write_recovery(self):
        with pytest.raises(ValueError, match="tWR"):
            PCM.replace(tWCT=PCM.tWR - 1)


def _rec(kind, time, slot=(0, 0), row=5):
    return CommandRecord(kind=kind, time=time, bank=0, bank_group=0,
                         slot=slot, row=row if kind == "ACT" else -1)


class TestValidatorPcmRules:
    def _legal_prefix(self):
        # Write at tRAS so the cancel window (end + tWCT) opens past
        # every DRAM-side PRE floor (tRAS, tWR).
        t_wr = PCM.tRAS
        end = t_wr + PCM.tCWL + PCM.burst_time
        return [_rec("ACT", 0), _rec("WR", t_wr)], end

    def test_accepts_wait_out_pulse(self):
        log, end = self._legal_prefix()
        log.append(_rec("PRE", end + PCM.tWRP))
        assert validate_log(log, PCM, BusPolicy.BANK_GROUPS) == 3

    def test_accepts_legal_cancellation_with_replay(self):
        log, end = self._legal_prefix()
        cancel = end + PCM.tWCT
        log += [_rec("PRE", cancel), _rec("ACT", cancel + PCM.tRP),
                _rec("RD", cancel + PCM.tWRP)]
        assert validate_log(log, PCM, BusPolicy.BANK_GROUPS) == 5

    def test_rejects_column_inside_pulse(self):
        log, end = self._legal_prefix()
        log.append(_rec("RD", end + PCM.tWRP - 1))
        with pytest.raises(TimingViolation, match="write pulse"):
            validate_log(log, PCM, BusPolicy.BANK_GROUPS)

    def test_rejects_early_cancellation(self):
        log, end = self._legal_prefix()
        log.append(_rec("PRE", end + PCM.tWCT - PCM.tCK))
        with pytest.raises(TimingViolation, match="tWCT"):
            validate_log(log, PCM, BusPolicy.BANK_GROUPS)

    def test_rejects_column_before_replay_across_row_swap(self):
        log, end = self._legal_prefix()
        cancel = end + PCM.tWCT
        replay = cancel + PCM.tWRP
        t_act = cancel + PCM.tRP
        t_pre2 = t_act + PCM.tRAS
        log += [_rec("PRE", cancel), _rec("ACT", t_act, row=9),
                _rec("PRE", t_pre2), _rec("ACT", t_pre2 + PCM.tRP),
                _rec("WR", replay - PCM.tCK)]
        with pytest.raises(TimingViolation, match="replay"):
            validate_log(log, PCM, BusPolicy.BANK_GROUPS)

    def test_rejects_write_before_trcd_wr(self):
        log = [_rec("ACT", 0), _rec("WR", PCM.trcd_wr - PCM.tCK)]
        with pytest.raises(TimingViolation, match="tRCD_WR"):
            validate_log(log, PCM, BusPolicy.BANK_GROUPS)

    def test_rejects_pulse_pre_without_cancellation_support(self):
        t = PCM.replace(tWCT=0)
        t_wr = t.tRAS
        end = t_wr + t.tCWL + t.burst_time
        log = [_rec("ACT", 0), _rec("WR", t_wr),
               _rec("PRE", end + t.tWRP - t.tCK)]
        with pytest.raises(TimingViolation, match="no cancellation"):
            validate_log(log, t, BusPolicy.BANK_GROUPS)
