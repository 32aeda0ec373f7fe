"""DRAM refresh: deadline tracker through policies, end to end.

Unit tests pin the :class:`ChannelResources` deadline/blackout
mechanics and the :class:`Channel` refresh issue path; the validator
tests prove the independent rule checker rejects broken refresh
schedules; the system tests hold every policy to the rule checker, the
bucket-sum invariant, and refresh-off digest identity; the hypothesis
property drives random traffic through random policies and lets the
checker's 9 x tREFI rule prove no bank ever starves.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.mapping import RowLayout
from repro.controller.scheduler import REFRESH_POLICIES
from repro.controller.transaction import DramCoordinates
from repro.cpu.core import TraceCore
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.bank import NEVER, BankGeometry
from repro.dram.commands import PrechargeCause
from repro.dram.device import Channel
from repro.dram.resources import (
    FLOOR_BUS,
    FLOOR_REFRESH,
    BusPolicy,
    ChannelResources,
)
from repro.dram.timing import (
    REFRESH_DENSITY_GRADES_NS,
    TimingParams,
    ddr4_refresh_overrides,
    ddr4_timings,
)
from repro.dram.validation import (
    CommandRecord,
    TimingViolation,
    validate_log,
)
from repro.sim import config as cfgs
from repro.sim.accounting import StallBucket
from repro.sim.simulator import MemorySystem, Simulator, run_traces

T = ddr4_timings()
RT = T.replace(**ddr4_refresh_overrides("8Gb"))


def make(timing=RT):
    return ChannelResources(timing, BusPolicy.BANK_GROUPS,
                            bank_groups=4, banks=16)


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
    def test_refresh_off_has_no_blackout_table(self):
        r = make(T)
        assert not r.refresh_active
        assert r.ref_until is None
        assert r.refresh_floor(0, 0) == NEVER

    def test_schedule_arms_one_period_in(self):
        r = make()
        r.init_refresh_schedule(RT.tREFI)
        assert r.ref_due == RT.tREFI
        r.retire_refresh()
        assert r.ref_due == 2 * RT.tREFI

    def test_all_bank_refresh_blacks_out_every_slot(self):
        r = make()
        end = r.record_refresh(1000, RT.tRFC)
        assert end == 1000 + RT.tRFC
        for bank in range(16):
            for sb in (0, 1):
                assert r.refresh_floor(bank, sb) == end

    def test_per_bank_refresh_blacks_out_one_bank(self):
        r = make()
        end = r.record_refresh(0, RT.trfc_pb, bank=3)
        assert r.refresh_floor(3, 0) == end
        assert r.refresh_floor(3, 1) == end
        assert r.refresh_floor(2, 0) == NEVER

    def test_sub_bank_refresh_blacks_out_one_sub_bank(self):
        r = make()
        end = r.record_refresh(0, RT.trfc_pb // 2, bank=5, subbank=1)
        assert r.refresh_floor(5, 1) == end
        assert r.refresh_floor(5, 0) == NEVER

    def test_refresh_occupies_the_command_bus(self):
        r = make()
        r.record_refresh(500, RT.tRFC)
        assert r.cmd_bus_free == 500 + RT.tCK


def vsb_channel(timing=RT):
    layout = RowLayout(row_bits=16, plane_count=4, ewlr_bits=3)
    return Channel(timing, BusPolicy.DDB, bank_groups=4,
                   banks_per_group=4,
                   bank_geometry=BankGeometry(subbanks=2, row_bits=16),
                   row_layout=layout, ewlr=True, rap=True,
                   record_commands=True)


def coords(bg=0, bank=0, subbank=0, row=0):
    return DramCoordinates(channel=0, rank=0, bank_group=bg, bank=bank,
                           subbank=subbank, row=row, column=0)


class TestChannelRefresh:
    def test_blackout_folds_into_every_earliest_query(self):
        ch = vsb_channel()
        end = ch.issue_refresh(0)  # all-bank
        c = coords()
        assert ch.earliest_act(c) >= end
        floors = dict(ch.explain_act(c))
        assert floors[FLOOR_REFRESH] == end

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

    def test_explain_refresh_matches_earliest(self):
        ch = vsb_channel()
        ch.issue_refresh(0, 0)  # bank 0 in flight
        floors = ch.explain_refresh()  # rank-wide scope overlaps it
        assert max(t for _, t in floors) == ch.earliest_refresh()
        assert FLOOR_BUS in dict(floors)

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
        short runs).  Refresh-free backends (PCM) reject the overrides
        outright -- covered in tests/dram/test_backends.py."""
        from repro.dram.backends import get_backend
        traces = mixed_traffic(cores=2, n=90)
        for preset in cfgs.all_presets():
            if not get_backend(preset.backend).refresh_capable:
                continue
            config = refresh_config(preset, policy="sarp")
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


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1 << 30),
       policy=st.sampled_from(REFRESH_POLICIES),
       density=st.sampled_from(sorted(REFRESH_DENSITY_GRADES_NS)))
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
