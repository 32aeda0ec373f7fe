"""DRAM refresh: deadline tracker through policies, end to end.

Unit tests pin the deadline, which :class:`RefreshScheduler` owns, and
the blackout, which :meth:`Channel.issue_refresh` writes into the slot
FSM of exactly its scope: an ACT inside it raises, the ACT floor of
every slot in scope (and of no other) reads ``(refresh, end)``, and
an ACT at the end puts the column and precharge floors ``tRCD`` and
``tRAS`` past it.  The validator tests prove the independent rule
checker rejects broken refresh schedules; the system tests hold every
policy to the rule checker, the bucket-sum invariant, and refresh-off
digest identity; the hypothesis property drives random traffic through
random policies and lets the checker's 9 x tREFI rule prove no bank
ever starves.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.mapping import RowLayout
from repro.controller.queue import QueueConfig, TransactionQueues
from repro.controller.scheduler import (
    PRIO_ACT,
    PRIO_REFRESH,
    REFRESH_POLICIES,
    Candidate,
    RefreshScheduler,
    Scheduler,
)
from repro.controller.transaction import (
    DramCoordinates,
    Transaction,
    TransactionKind,
)
from repro.cpu.core import TraceCore
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.backends import get_backend
from repro.dram.bank import NEVER, BankGeometry
from repro.dram.commands import CommandKind, PrechargeCause
from repro.dram.device import Channel
from repro.dram.resources import FLOOR_BANK, FLOOR_REFRESH, BusPolicy
from repro.dram.validation import (
    CommandRecord,
    TimingViolation,
    validate_log,
)
from repro.sim import config as cfgs
from repro.sim.accounting import StallBucket
from repro.sim.simulator import MemorySystem, Simulator, run_traces
from repro.workloads.mixes import mix_traces
from tests.pins import pinned_spec

DDR4 = get_backend("dram")
T = DDR4.timings()
RT = T.replace(**DDR4.refresh_overrides("8Gb"))


def refresh_config(preset=None, policy="baseline", density="8Gb"):
    base = preset if preset is not None else cfgs.vsb()
    return replace(base, refresh_density=density, refresh_policy=policy,
                   name=f"{base.name}+ref-{policy}-{density}")


def mixed_traffic(cores=3, n=200, seed=11):
    rng = random.Random(seed)
    traces = []
    for c in range(cores):
        base = rng.randrange(0, 1 << 30) & ~63
        entries = []
        for i in range(n):
            if rng.random() < 0.5:
                addr = (base + i * 64) & ((1 << 34) - 64)
            else:
                addr = rng.randrange(0, 1 << 34) & ~63
            entries.append(TraceEntry(rng.randrange(0, 12),
                                      rng.random() < 0.3, addr))
        traces.append(Trace.from_entries(entries, name=f"c{c}"))
    return traces


class TestDeadlineTracker:
    """The deadline lives on the refresh machine; the blackout on the
    slot FSM of exactly the refreshed scope."""

    def test_refresh_off_has_no_blackout_table(self):
        ch = vsb_channel(T)
        assert ch.refresh_scopes == {}
        assert {slot.refresh_end for bank in ch.banks
                for slot in bank.slots.values()} == {NEVER}
        assert Scheduler(ch, TransactionQueues(QueueConfig())).refresh \
            is None

    def test_schedule_arms_one_period_in(self):
        refresh = RefreshScheduler(vsb_channel(),
                                   TransactionQueues(QueueConfig()),
                                   "baseline")
        assert refresh.period == RT.tREFI
        assert refresh.due == RT.tREFI
        refresh.note_refresh(Candidate(refresh.due, PRIO_REFRESH, None,
                                       CommandKind.REF,
                                       victim=(-1, (-1, -1))))
        assert refresh.due == 2 * RT.tREFI

    def test_all_bank_refresh_blacks_out_every_slot(self):
        ch = masa_vsb_channel()
        end = ch.issue_refresh(1000)
        assert end == 1000 + RT.tRFC
        assert set(act_floors(ch).values()) == {(FLOOR_REFRESH, end)}

    def test_per_bank_refresh_blacks_out_one_bank(self):
        ch = masa_vsb_channel()
        end = ch.issue_refresh(0, 3)
        assert end == RT.trfc_pb
        assert blacked_out(ch, end) == {
            (3, (sb, g)) for sb in (0, 1) for g in (0, 1)}

    def test_sub_bank_refresh_blacks_out_one_sub_bank(self):
        ch = masa_vsb_channel()
        end = ch.issue_refresh(0, 5, 1)
        assert end == (RT.trfc_pb + 1) // 2
        assert blacked_out(ch, end) == {(5, (1, 0)), (5, (1, 1))}

    def test_refresh_occupies_the_command_bus(self):
        ch = vsb_channel()
        ch.issue_refresh(500)
        assert ch.resources.cmd_bus_free == 500 + RT.tCK


def vsb_channel(timing=RT):
    layout = RowLayout(row_bits=16, plane_count=4, ewlr_bits=3)
    return Channel(timing, BusPolicy.DDB, bank_groups=4,
                   banks_per_group=4,
                   bank_geometry=BankGeometry(subbanks=2, row_bits=16),
                   row_layout=layout, ewlr=True, rap=True,
                   record_commands=True)


def masa_vsb_channel():
    """Two sub-array groups per sub-bank: every scope spans several
    row slots."""
    layout = RowLayout(row_bits=16, plane_count=4, ewlr_bits=3)
    return Channel(RT, BusPolicy.DDB, bank_groups=4, banks_per_group=4,
                   bank_geometry=BankGeometry(subbanks=2,
                                              subarray_groups=2,
                                              row_bits=16),
                   row_layout=layout, ewlr=True, rap=True)


def coords(bg=0, bank=0, subbank=0, row=0):
    return DramCoordinates(channel=0, rank=0, bank_group=bg, bank=bank,
                           subbank=subbank, row=row, column=0)


def act_floors(ch):
    """The ACT floor of every row slot, keyed (bank index, slot key)."""
    out = {}
    per_group = ch.banks_per_group
    for bi, bank in enumerate(ch.banks):
        shift = bank.geometry.group_shift
        for subbank, group in bank.slots:
            c = coords(bi // per_group, bi % per_group, subbank,
                       group << shift)
            out[(bi, (subbank, group))] = ch.act_floor(c)
    return out


def blacked_out(ch, end):
    """The slots whose ACT floor is ``(refresh, end)``; every other
    slot's floor must be untagged and earlier."""
    inside = set()
    for loc, floor in act_floors(ch).items():
        if floor == (FLOOR_REFRESH, end):
            inside.add(loc)
        else:
            assert floor[0] != FLOOR_REFRESH and floor[1] < end, loc
    return inside


class TestChannelRefresh:
    def test_blackout_folds_into_every_earliest_query(self):
        """The reachable sequence: the blackout binds the ACT, and an
        ACT exactly at its end puts the column floor ``tRCD`` and the
        precharge floor ``tRAS`` past it."""
        ch = vsb_channel()
        end = ch.issue_refresh(0)  # all-bank
        c = coords()
        assert ch.act_floor(c) == (FLOOR_REFRESH, end)
        assert ch.earliest_act(c) == end
        ch.issue_act(c, end)
        assert ch.column_floor(c, False) == (FLOOR_BANK, end + RT.tRCD)
        assert ch.earliest_column(c, True) == end + RT.tRCD
        assert ch.earliest_precharge(0, (0, 0)) == end + RT.tRAS

    def test_act_inside_a_blackout_raises(self):
        """The slot FSM holds the blackout itself, so an ACT that
        ignores it fails at issue, whichever scheduler proposed it."""
        ch = vsb_channel()
        end = ch.issue_refresh(0, 2, 1)
        inside = coords(bank=2, subbank=1)
        with pytest.raises(ValueError, match="act_allowed"):
            ch.issue_act(inside, end - 1)
        # The partner sub-bank rides through the blackout.
        ch.issue_act(coords(bank=2, subbank=0), ch.resources.cmd_bus_free)

    def test_refresh_refused_with_open_rows_in_scope(self):
        ch = vsb_channel()
        c = coords(bank=1, row=7)
        ch.issue_act(c, ch.earliest_act(c))
        with pytest.raises(ValueError, match="open rows"):
            ch.issue_refresh(10_000, ch.bank_index(c))
        # A disjoint scope still refreshes fine.
        ch.issue_refresh(ch.earliest_refresh(0), 0)

    def test_scope_durations_shrink_with_scope(self):
        ch = vsb_channel()
        assert ch.refresh_duration() == RT.tRFC
        assert ch.refresh_duration(2) == RT.trfc_pb
        assert ch.refresh_duration(2, 1) == (RT.trfc_pb + 1) // 2
        assert ch.refresh_duration(2, 1) < ch.refresh_duration(2) \
            < ch.refresh_duration()

    def test_refresh_lands_in_the_command_log(self):
        ch = vsb_channel()
        ch.issue_refresh(0)
        ch.issue_refresh(ch.earliest_refresh(3, 1), 3, 1)
        kinds = [rec.kind for rec in ch.command_log]
        assert kinds == ["REF", "REFPB"]
        assert ch.command_log[0].bank == -1       # rank-wide wildcard
        assert ch.command_log[1].slot[0] == 1     # sub-bank scope


class TestValidatorRefreshRules:
    def ref(self, time, bank=-1, subbank=-1):
        return CommandRecord("REF" if bank < 0 else "REFPB", time, bank,
                             -1 if bank < 0 else bank // 4,
                             (subbank, -1))

    def test_refresh_requires_refresh_enabled_timings(self):
        with pytest.raises(TimingViolation, match="disabled"):
            validate_log([self.ref(0)], T, BusPolicy.BANK_GROUPS)

    def test_demand_inside_blackout_rejected(self):
        log = [self.ref(0),
               CommandRecord("ACT", RT.tRFC // 2, 0, 0, (0, 0), 5)]
        with pytest.raises(TimingViolation, match="blackout"):
            validate_log(log, RT, BusPolicy.BANK_GROUPS)

    def test_demand_after_blackout_accepted(self):
        log = [self.ref(0),
               CommandRecord("ACT", RT.tRFC, 0, 0, (0, 0), 5)]
        assert validate_log(log, RT, BusPolicy.BANK_GROUPS) == 2

    def test_disjoint_bank_rides_through_per_bank_blackout(self):
        log = [self.ref(0, bank=3),
               CommandRecord("ACT", RT.tCK, 0, 0, (0, 0), 5)]
        assert validate_log(log, RT, BusPolicy.BANK_GROUPS) == 2

    def test_refresh_into_overlapping_blackout_rejected(self):
        log = [self.ref(0, bank=3), self.ref(RT.tCK, bank=3)]
        with pytest.raises(TimingViolation, match="active blackout"):
            validate_log(log, RT, BusPolicy.BANK_GROUPS)

    def test_starved_bank_trips_the_nine_trefi_rule(self):
        late = 9 * RT.tREFI + RT.tCK
        log = [CommandRecord("ACT", late, 0, 0, (0, 0), 5)]
        with pytest.raises(TimingViolation, match="9 x tREFI"):
            validate_log(log, RT, BusPolicy.BANK_GROUPS)

    def test_covering_refresh_resets_the_interval(self):
        t0 = 8 * RT.tREFI
        log = [self.ref(t0),
               CommandRecord("ACT", t0 + RT.tRFC, 0, 0, (0, 0), 5)]
        assert validate_log(log, RT, BusPolicy.BANK_GROUPS) == 2

    def test_refresh_with_open_row_in_scope_rejected(self):
        log = [CommandRecord("ACT", 0, 0, 0, (0, 0), 5),
               self.ref(RT.tRC)]
        with pytest.raises(TimingViolation, match="open row"):
            validate_log(log, RT, BusPolicy.BANK_GROUPS)


class TestSystemRefresh:
    def test_refresh_ns_zero_is_digest_identical_to_the_preset(self):
        traces = mixed_traffic(cores=2, n=120)
        for preset in (cfgs.ddr4_baseline(), cfgs.vsb(), cfgs.masa(8)):
            off = replace(preset, refresh_ns=0)
            assert run_traces(preset, traces).digest() == \
                run_traces(off, traces).digest(), preset.name

    def test_enabling_refresh_changes_behaviour(self):
        # Long enough that the all-bank baseline's first tREFI deadline
        # (7.8 us) lands inside the run.
        traces = mixed_traffic(cores=4, n=1400)
        base = run_traces(cfgs.vsb(), traces)
        ref = run_traces(refresh_config(), traces)
        assert base.digest() != ref.digest()
        assert ref.stats.refreshes > 0
        assert ref.elapsed_ps > base.elapsed_ps

    @pytest.mark.parametrize("policy", REFRESH_POLICIES)
    def test_policies_satisfy_the_rule_checker(self, policy):
        config = replace(refresh_config(policy=policy),
                         record_commands=True)
        system = MemorySystem(config)
        # 4x1400 puts the first baseline tREFI deadline inside the run;
        # the per-bank policies refresh from ~tREFI/banks on anyway.
        cores = [TraceCore(t, core_id=i)
                 for i, t in enumerate(mixed_traffic(cores=4, n=1400))]
        Simulator(system, cores).run()
        timing = config.timing()
        saw_refresh = 0
        for controller in system.controllers:
            log = controller.channel.command_log
            validate_log(log, timing, config.bus_policy)
            saw_refresh += sum(1 for rec in log
                               if rec.kind in ("REF", "REFPB"))
        assert saw_refresh > 0

    def test_pinned_refresh_grid_satisfies_the_rule_checker(self):
        """Every mix cell of the pinned figref grid, both channels'
        command logs: the checker shares no floor code with the
        scheduler and the accounting, which read one implementation."""
        spec = pinned_spec("figref")
        cells = [c for c in spec.expand() if c.kind == "mix"]
        assert len(cells) == 14
        checked = refreshes = 0
        for cell in cells:
            config = replace(cell.config, record_commands=True)
            system = MemorySystem(config)
            traces = mix_traces(cell.workload, cell.accesses,
                                fragmentation=cell.fragmentation,
                                seed=cell.seed)
            cores = [TraceCore(t, cell.core_config, core_id=i)
                     for i, t in enumerate(traces)]
            Simulator(system, cores).run()
            timing = config.timing()
            assert len(system.controllers) == 2
            for controller in system.controllers:
                log = controller.channel.command_log
                checked += validate_log(log, timing, config.bus_policy)
                refreshes += sum(1 for rec in log
                                 if rec.kind in ("REF", "REFPB"))
        assert checked > 40_000
        assert refreshes > 0

    @pytest.mark.parametrize("policy", REFRESH_POLICIES)
    def test_backends_agree_with_refresh_on(self, policy):
        """The reference and incremental scheduler paths issue the same
        refresh chains: identical command streams and digests."""
        config = refresh_config(policy=policy, density="16Gb")
        # 3x1150 runs past the first all-bank tREFI deadline, so the
        # baseline policy refreshes too, not just the per-bank ones.
        traces = mixed_traffic(cores=3, n=1150)

        def run(incremental):
            system = MemorySystem(replace(config, record_commands=True,
                                          incremental=incremental))
            cores = [TraceCore(t, core_id=i)
                     for i, t in enumerate(traces)]
            result = Simulator(system, cores).run()
            log = [(rec.kind, rec.time, rec.bank, rec.slot, rec.row)
                   for controller in system.controllers
                   for rec in controller.channel.command_log]
            assert result.stats.refreshes > 0
            return result.digest(), log

        assert run(False) == run(True)

    def test_bucket_sum_invariant_over_all_presets(self):
        """Every refresh-capable preset, refresh on: buckets still sum
        to wall time and the REFRESH bucket exists (it may be zero on
        short runs).  Sub-banked presets run ``sarp`` and flat ones
        ``darp`` (``sarp`` needs sub-banks).  Refresh-free backends
        (PCM) reject the overrides outright -- covered in
        tests/dram/test_backends.py."""
        traces = mixed_traffic(cores=2, n=90)
        for preset in cfgs.all_presets():
            if not get_backend(preset.backend).refresh_capable:
                continue
            config = refresh_config(
                preset, policy="sarp" if preset.subbanked else "darp")
            result = run_traces(config, traces, observe=True)
            result.accounting.verify()
            assert StallBucket.REFRESH in result.accounting.totals()

    def test_refresh_precharges_file_under_the_refresh_cause(self):
        # The on-deadline baseline closes whatever rows are open when
        # the REF chain fires, so its closes carry the REFRESH cause
        # (sarp mostly refreshes scopes that are already closed).
        traces = mixed_traffic(cores=4, n=1400)
        result = run_traces(refresh_config(policy="baseline"), traces)
        assert result.precharge_causes[PrechargeCause.REFRESH] > 0

    def test_refresh_off_omits_the_refresh_cause_from_digests(self):
        """The digest's precharge-cause section must keep its pre-refresh
        shape when refresh is off (zero-count REFRESH is filtered)."""
        traces = mixed_traffic(cores=2, n=80)
        result = run_traces(cfgs.vsb(), traces)
        assert PrechargeCause.REFRESH not in result.precharge_causes \
            or result.precharge_causes[PrechargeCause.REFRESH] == 0


def _scan_winner(refresh, now, demand):
    """The DARP/SARP pull-in decision with the scope scan always run:
    the opportunistic candidate wins only if it sorts strictly first."""
    cand = refresh._opportunistic(now)
    if cand is not None and (cand.issue_time, cand.priority) < \
            (demand.issue_time, demand.priority):
        return cand
    return demand


class TestArbitrationEarlyOut:
    """``RefreshScheduler.arbitrate`` answers a DARP/SARP peek without
    scanning the scopes when the demand issues no later than every
    possible refresh candidate; the answer must be the full scan's."""

    @staticmethod
    def pull_in(policy="darp"):
        """Both sub-banks of bank 0 hold demand and bank 1 has just
        closed a row in sub-bank 0, so (a sub-bank of) bank 1 heads the
        idle scopes and its REFpb can issue no earlier than that row's
        ``tRP``/``tRC`` horizon -- strictly after the early-out bound.
        Returns (refresh machine, a bank-0 txn, that horizon)."""
        channel = vsb_channel()
        queues = TransactionQueues(QueueConfig())
        scheduler = Scheduler(channel, queues, refresh_policy=policy)
        closed = coords(bank=1, row=7)
        channel.issue_act(closed, channel.earliest_act(closed))
        slot = channel.bank(closed).slot_key(0, 7)
        channel.issue_precharge(1, slot, channel.earliest_precharge(1, slot),
                                PrechargeCause.ROW_CONFLICT)
        for subbank in (0, 1):
            txn = Transaction(TransactionKind.READ, 0,
                              coords(bank=0, subbank=subbank, row=3))
            queues.enqueue(txn, 0)
            scheduler.note_enqueue(txn)
        t_ref = channel.earliest_refresh(1)
        assert t_ref > channel.resources.cmd_bus_free
        return scheduler.refresh, txn, t_ref

    @staticmethod
    def demand(txn, issue_time):
        return Candidate(issue_time, PRIO_ACT, txn, CommandKind.ACT,
                         seq=txn.seq, arrival=txn.arrival_time)

    @pytest.mark.parametrize("policy", ("darp", "sarp"))
    def test_strictly_earlier_refresh_wins(self, policy):
        refresh, txn, t_ref = self.pull_in(policy)
        winner = refresh.arbitrate(0, self.demand(txn, t_ref + 1))
        assert winner.kind is CommandKind.REFPB
        assert winner.issue_time == t_ref
        assert winner.victim[0] == 1

    @pytest.mark.parametrize("policy", ("darp", "sarp"))
    def test_exact_tie_goes_to_the_demand(self, policy):
        refresh, txn, t_ref = self.pull_in(policy)
        demand = self.demand(txn, t_ref)
        assert refresh.arbitrate(0, demand) is demand
        # The full scan agrees: the candidate exists and ties exactly.
        assert refresh._opportunistic(0).issue_time == t_ref
        assert _scan_winner(refresh, 0, demand) is demand

    @pytest.mark.parametrize("incremental", (False, True),
                             ids=("reference", "incremental"))
    def test_early_out_matches_the_full_scan_on_pinned_cells(
            self, incremental, monkeypatch):
        """Every DARP/SARP peek of the pinned figref cells, on both
        selection paths, also computes the full scan's answer."""
        arbitrate = RefreshScheduler.arbitrate
        opportunistic = RefreshScheduler._opportunistic
        scans = [0]
        seen = {"skipped": 0, "scanned": 0, "refresh": 0}

        def counting(self, now):
            scans[0] += 1
            return opportunistic(self, now)

        def checked(self, now, demand):
            before = scans[0]
            winner = arbitrate(self, now, demand)
            if demand is None or demand.issue_time >= \
                    self.due + self.defer_slack:
                return winner  # forced refresh: no pull-in decision
            seen["scanned" if scans[0] > before else "skipped"] += 1
            assert winner == _scan_winner(self, now, demand)
            seen["refresh"] += winner is not demand
            return winner

        monkeypatch.setattr(RefreshScheduler, "_opportunistic", counting)
        monkeypatch.setattr(RefreshScheduler, "arbitrate", checked)
        spec = pinned_spec("figref")
        cells = [c for c in spec.expand() if c.kind == "mix"
                 and c.config.refresh_policy in ("darp", "sarp")]
        assert len(cells) == 8
        for cell in cells:
            traces = mix_traces(cell.workload, cell.accesses,
                                fragmentation=cell.fragmentation,
                                seed=cell.seed)
            run_traces(replace(cell.config, incremental=incremental),
                       traces, core_config=cell.core_config)
        assert min(seen.values()) > 0, seen


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1 << 30),
       policy=st.sampled_from(REFRESH_POLICIES),
       density=st.sampled_from(sorted(DDR4.refresh_grades_ns)))
def test_no_bank_exceeds_nine_trefi_without_refresh(seed, policy,
                                                    density):
    """Random traffic, any policy/density: the independent checker's
    9 x tREFI rule proves no (sub-)bank ever starves of refresh, and
    the full rule set holds alongside it."""
    config = replace(refresh_config(policy=policy, density=density),
                     record_commands=True)
    rng = random.Random(seed)
    traces = mixed_traffic(cores=rng.randint(1, 3),
                           n=rng.randint(60, 160), seed=seed)
    system = MemorySystem(config)
    cores = [TraceCore(t, core_id=i) for i, t in enumerate(traces)]
    Simulator(system, cores).run()
    timing = config.timing()
    for controller in system.controllers:
        validate_log(controller.channel.command_log, timing,
                     config.bus_policy)
