"""Tests for the adaptive open-page (idle-close) policy."""

from dataclasses import replace

from repro.controller.controller import ChannelController
from repro.controller.transaction import (
    DramCoordinates,
    Transaction,
    TransactionKind,
)
from repro.dram.backends import get_backend
from repro.dram.bank import BankGeometry
from repro.dram.commands import CommandKind, PrechargeCause
from repro.dram.device import Channel
from repro.dram.resources import BusPolicy
from repro.dram.timing import ns
from repro.sim.config import ddr4_baseline
from repro.sim.simulator import run_traces

T = get_backend("dram").timings()
IDLE = ns(200)


def controller(idle_close=IDLE):
    ch = Channel(T, BusPolicy.BANK_GROUPS, 4, 4,
                 BankGeometry(subbanks=1, row_bits=17))
    return ChannelController(ch, idle_close_ps=idle_close)


def txn(row=0, column=0, bg=0):
    coords = DramCoordinates(channel=0, rank=0, bank_group=bg, bank=0,
                             subbank=0, row=row, column=column)
    return Transaction(kind=TransactionKind.READ, address=0,
                       coords=coords)


class TestIdleClose:
    def serve_one(self, c):
        now = 0
        while True:
            cand = c.peek(now)
            if cand is None or not c.pending():
                break
            c.commit(cand)
            now = cand.issue_time
            if cand.kind in (CommandKind.RD, CommandKind.WR):
                break
        return now

    def test_idle_row_gets_policy_close(self):
        c = controller()
        c.enqueue(txn(row=5), 0)
        now = self.serve_one(c)
        cand = c.peek(now)
        assert cand is not None
        assert cand.kind is CommandKind.PRE
        assert cand.cause is PrechargeCause.POLICY
        assert cand.issue_time >= now + IDLE - T.tRCD  # idle threshold

    def test_policy_close_empties_open_slots(self):
        c = controller()
        c.enqueue(txn(row=5), 0)
        now = self.serve_one(c)
        cand = c.peek(now)
        c.commit(cand)
        assert not c.channel.open_slots
        assert c.peek(cand.issue_time) is None

    def test_pending_hit_suppresses_close(self):
        c = controller()
        c.enqueue(txn(row=5, column=0), 0)
        now = self.serve_one(c)
        c.enqueue(txn(row=5, column=1), now)
        cand = c.peek(now)
        assert cand.kind is CommandKind.RD  # hit served, no policy PRE

    def test_disabled_policy_never_closes(self):
        c = controller(idle_close=None)
        c.enqueue(txn(row=5), 0)
        now = self.serve_one(c)
        assert c.peek(now) is None
        assert len(c.channel.open_slots) == 1

    def test_policy_respects_pre_allowed(self):
        c = controller(idle_close=0)  # close immediately on idleness
        c.enqueue(txn(row=5), 0)
        now = self.serve_one(c)
        cand = c.peek(now)
        assert cand.kind is CommandKind.PRE
        bank = c.channel.banks[0]
        assert cand.issue_time >= bank.slots[(0, 0)].pre_allowed


class TestEndToEnd:
    def test_adaptive_policy_completes_and_counts_policy_pres(self):
        from repro.cpu.trace import Trace, TraceEntry
        import random
        rng = random.Random(0)
        entries = [TraceEntry(20, rng.random() < 0.3,
                              rng.randrange(0, 1 << 30) & ~63)
                   for _ in range(300)]
        config = replace(ddr4_baseline(), idle_close_ps=ns(300))
        res = run_traces(config, [Trace.from_entries(entries)])
        assert res.stats.columns == 300
        assert res.precharge_causes[PrechargeCause.POLICY] > 0

    def test_adaptive_close_reduces_conflict_precharges(self):
        from repro.cpu.trace import Trace, TraceEntry
        import random
        rng = random.Random(1)
        entries = [TraceEntry(30, False,
                              rng.randrange(0, 1 << 30) & ~63)
                   for _ in range(400)]
        trace = [Trace.from_entries(entries)]
        open_page = run_traces(ddr4_baseline(), trace)
        trace = [Trace.from_entries(entries)]
        adaptive = run_traces(
            replace(ddr4_baseline(), idle_close_ps=ns(200)), trace)
        row_conf = PrechargeCause.ROW_CONFLICT
        assert (adaptive.precharge_causes[row_conf]
                <= open_page.precharge_causes[row_conf])
