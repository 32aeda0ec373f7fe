"""Tests for FR-FCFS scheduling and the ERUCA operation flow."""

import pytest

from repro.controller.controller import ChannelController
from repro.controller.mapping import RowLayout
from repro.controller.queue import QueueConfig, TransactionQueues
from repro.controller.transaction import (
    DramCoordinates,
    Transaction,
    TransactionKind,
)
from repro.dram.bank import BankGeometry
from repro.dram.commands import CommandKind, PrechargeCause
from repro.dram.device import Channel
from repro.dram.resources import BusPolicy
from repro.dram.timing import ddr4_timings

T = ddr4_timings()


def flat_controller():
    ch = Channel(T, BusPolicy.BANK_GROUPS, 4, 4,
                 BankGeometry(subbanks=1, row_bits=17))
    return ChannelController(ch)


def vsb_controller(ewlr=True, rap=True, planes=4):
    layout = RowLayout(row_bits=16, plane_count=planes,
                       ewlr_bits=3 if ewlr else 0)
    ch = Channel(T, BusPolicy.DDB, 4, 4,
                 BankGeometry(subbanks=2, row_bits=16),
                 row_layout=layout, ewlr=ewlr, rap=rap)
    return ChannelController(ch)


def txn(bg=0, bank=0, subbank=0, row=0, column=0, write=False):
    coords = DramCoordinates(channel=0, rank=0, bank_group=bg, bank=bank,
                             subbank=subbank, row=row, column=column)
    return Transaction(
        kind=TransactionKind.WRITE if write else TransactionKind.READ,
        address=0, coords=coords)


def drain(controller, limit=100):
    """Issue commands until the queues empty; returns the command log."""
    log = []
    now = 0
    for _ in range(limit):
        cand = controller.peek(now)
        if cand is None:
            break
        log.append((cand.kind, cand.issue_time, cand.txn))
        controller.commit(cand)
        now = cand.issue_time
    assert not controller.pending(), "drain hit the iteration limit"
    return log


class TestBasicFlow:
    def test_idle_controller_peeks_none(self):
        assert flat_controller().peek(0) is None

    def test_single_read_needs_act_then_rd(self):
        c = flat_controller()
        c.enqueue(txn(row=3), 0)
        log = drain(c)
        assert [k for k, _, _ in log] == [CommandKind.ACT, CommandKind.RD]

    def test_rd_waits_trcd(self):
        c = flat_controller()
        c.enqueue(txn(row=3), 0)
        log = drain(c)
        act_t = log[0][1]
        rd_t = log[1][1]
        assert rd_t >= act_t + T.tRCD

    def test_row_hit_skips_act(self):
        c = flat_controller()
        c.enqueue(txn(row=3, column=0), 0)
        c.enqueue(txn(row=3, column=1), 0)
        log = drain(c)
        kinds = [k for k, _, _ in log]
        assert kinds == [CommandKind.ACT, CommandKind.RD, CommandKind.RD]

    def test_row_conflict_precharges(self):
        c = flat_controller()
        c.enqueue(txn(row=3), 0)
        c.enqueue(txn(row=4), 0)
        log = drain(c)
        kinds = [k for k, _, _ in log]
        assert kinds == [CommandKind.ACT, CommandKind.RD,
                         CommandKind.PRE, CommandKind.ACT, CommandKind.RD]

    def test_completion_time_set(self):
        c = flat_controller()
        t = txn(row=3)
        c.enqueue(t, 0)
        drain(c)
        assert t.completion_time >= T.tRCD + T.tCL + T.burst_time
        assert t.queueing_latency == t.completion_time


class TestFrFcfsPriorities:
    def test_hit_beats_older_miss_when_ready(self):
        c = flat_controller()
        miss = txn(bg=1, bank=0, row=5)
        c.enqueue(txn(row=3), 0)
        log = drain(c)
        # Open row 3 in bank (0,0); now a hit and an older miss race.
        hit = txn(row=3, column=2)
        c.enqueue(miss, 100)
        c.enqueue(hit, 200)
        cand = c.peek(10**6)
        assert cand.kind in (CommandKind.RD,)
        assert cand.txn is hit

    def test_older_first_within_class(self):
        c = flat_controller()
        a = txn(bg=0, row=1)
        b = txn(bg=1, row=1)
        c.enqueue(a, 0)
        c.enqueue(b, 1)
        cand = c.peek(10**6)
        assert cand.txn is a

    def test_anti_thrash_guard_blocks_younger_pre(self):
        c = flat_controller()
        older = txn(row=3)
        c.enqueue(older, 0)
        log = drain(c)
        # Row 3 open.  An older pending hit and a younger conflict:
        hit = txn(row=3, column=5)
        conflict = txn(row=9)
        c.enqueue(hit, 10)
        c.enqueue(conflict, 20)
        cand = c.peek(10**6)
        # The younger transaction must not close row 3.
        assert cand.txn is hit
        c.commit(cand)
        cand = c.peek(10**6)
        assert cand.kind is CommandKind.PRE  # now the conflict may close

    def test_pre_offered_when_conflicter_is_older(self):
        """An older conflicting transaction may close the row, but a
        *ready* column command still wins the same cycle (FR-FCFS serves
        open-row hits first); the precharge follows immediately after."""
        c = flat_controller()
        seed = txn(row=3)
        c.enqueue(seed, 0)
        drain(c)
        conflict = txn(row=9)
        hit = txn(row=3, column=5)
        c.enqueue(conflict, 10)  # older than the hit
        c.enqueue(hit, 20)
        cand = c.peek(10**6)
        assert cand.kind is CommandKind.RD
        assert cand.txn is hit
        c.commit(cand)
        cand = c.peek(10**6)
        assert cand.kind is CommandKind.PRE
        assert cand.cause is PrechargeCause.ROW_CONFLICT


class TestErucaFlow:
    def test_plane_conflict_precharges_other_subbank(self):
        c = vsb_controller(ewlr=False, rap=False)
        left = txn(subbank=0, row=0b01 << 14)
        c.enqueue(left, 0)
        drain(c)
        right = txn(subbank=1, row=(0b01 << 14) | 1)
        c.enqueue(right, 10)
        cand = c.peek(10**6)
        assert cand.kind is CommandKind.PRE
        assert cand.cause is PrechargeCause.PLANE_CONFLICT
        assert cand.victim[1] == (0, 0)  # the *left* sub-bank slot

    def test_ewlr_hit_activates_without_precharge(self):
        c = vsb_controller(ewlr=True, rap=False)
        base = 0b01 << 14
        c.enqueue(txn(subbank=0, row=base), 0)
        drain(c)
        c.enqueue(txn(subbank=1, row=base | (1 << 11)), 10)
        log = drain(c)
        kinds = [k for k, _, _ in log]
        assert CommandKind.PRE not in kinds
        assert c.stats.ewlr_hits == 1

    def test_rap_avoids_conflict_for_same_plane_field(self):
        c = vsb_controller(ewlr=False, rap=True)
        row = 0b01 << 14
        c.enqueue(txn(subbank=0, row=row), 0)
        drain(c)
        c.enqueue(txn(subbank=1, row=row | 1), 10)
        log = drain(c)
        assert CommandKind.PRE not in [k for k, _, _ in log]

    def test_plane_conflict_counted_in_channel(self):
        c = vsb_controller(ewlr=False, rap=False)
        c.enqueue(txn(subbank=0, row=0b01 << 14), 0)
        drain(c)
        c.enqueue(txn(subbank=1, row=(0b01 << 14) | 1), 10)
        drain(c)
        causes = c.channel.precharge_causes
        assert causes[PrechargeCause.PLANE_CONFLICT] == 1


class TestWriteHandling:
    def test_write_completes_with_cwl(self):
        c = flat_controller()
        w = txn(row=3, write=True)
        c.enqueue(w, 0)
        drain(c)
        assert w.completion_time >= T.tRCD + T.tCWL + T.burst_time

    def test_stats_track_commands(self):
        c = flat_controller()
        c.enqueue(txn(row=3), 0)
        c.enqueue(txn(row=4), 0)
        drain(c)
        assert c.stats.acts == 2
        assert c.stats.columns == 2
        assert c.stats.precharges == 1
        assert c.stats.commands_issued == 5
        assert len(c.stats.read_latencies) == 2

    def test_act_deduplicated_per_slot(self):
        c = flat_controller()
        c.enqueue(txn(row=3, column=0), 0)
        c.enqueue(txn(row=3, column=1), 0)
        cands = c.scheduler.candidates(0)
        acts = [x for x in cands if x.kind is CommandKind.ACT]
        assert len(acts) == 1


class TestTwinTransactions:
    """Two requests for the same line are distinct transactions: removal
    must drop the exact object retired, never an equal-looking twin."""

    def twins(self):
        first, second = txn(row=3), txn(row=3)
        # The scheduler numbers only unnumbered transactions, so equal
        # sequence numbers keep every field of the pair identical.
        first.seq = second.seq = 0
        return first, second

    def test_queue_remove_drops_the_object_passed_in(self):
        q = TransactionQueues()
        first, second = self.twins()
        q.enqueue(first, 0)
        q.enqueue(second, 0)
        q.remove(second)
        assert len(q.reads) == 1
        assert q.reads[0] is first

    def test_note_remove_drops_the_object_passed_in(self):
        c = flat_controller()
        first, second = self.twins()
        c.enqueue(first, 0)
        c.enqueue(second, 0)
        c.peek(0)  # groups the schedulable transactions per bank
        c.scheduler.note_remove(second)
        remaining = c.scheduler._bank_txns[second.bank_index]
        assert len(remaining) == 1
        assert remaining[0] is first
