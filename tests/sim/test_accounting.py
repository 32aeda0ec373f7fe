"""The cycle-accounting layer: invariants, neutrality, and exports.

Three families of guarantees:

1. **Sum invariant** -- on every configuration preset, each channel's
   stall buckets sum exactly to its accounted wall time (and the issue
   bucket is exactly one ``tCK`` per command).
2. **Observer neutrality** -- observation never changes behaviour: the
   command stream and result digest are bit-identical with the
   observer on or off.
3. **Floor folds** -- each ``(tag, time)`` device floor
   (``Channel.act_floor``/``column_floor``) is the max of its parts on
   live pre-issue state throughout real runs, and on a tie it names the
   most specific constraint.
"""

import io
import json
from dataclasses import replace

import pytest

from repro.core.mechanisms import EruConfig
from repro.cpu.core import CoreConfig, TraceCore
from repro.controller.transaction import DramCoordinates
from repro.dram.backends import get_backend
from repro.dram.commands import CommandKind, PrechargeCause
from repro.dram.resources import (
    FLOOR_BANK,
    FLOOR_BUS,
    FLOOR_DDB_WINDOW,
    FLOOR_REFRESH,
    FLOOR_TFAW,
    FLOOR_TRRD,
    BusPolicy,
    ChannelResources,
)
from repro.sim import config as cfgs
from repro.sim.accounting import (
    AccountingReport,
    ChannelAccounting,
    ObserveOptions,
    StallBucket,
)
from repro.sim.simulator import MemorySystem, Simulator, run_traces
from repro.workloads.mixes import mix_traces

from tests.sim.test_equivalence import PRESETS, command_stream_hash


def observed_run(config, traces, trace=False, record_commands=False):
    if record_commands:
        config = replace(config, record_commands=True)
    system = MemorySystem(config, observe=ObserveOptions(trace=trace))
    cores = [TraceCore(t, CoreConfig(), core_id=i)
             for i, t in enumerate(traces)]
    result = Simulator(system, cores).run()
    return result, system


# -- 1. the sum invariant, on every preset -------------------------------


@pytest.mark.parametrize("config", PRESETS,
                         ids=[c.name for c in PRESETS])
def test_buckets_sum_to_wall_time_on_every_preset(config):
    traces = mix_traces("mix1", 250)
    result, _ = observed_run(config, traces)
    report = result.accounting
    assert report is not None
    report.verify()  # per-channel sum + issue-bucket invariants
    assert sum(report.totals().values()) == report.wall_ps()
    for channel in report.channels:
        assert sum(channel.buckets.values()) == channel.horizon_ps
        assert (channel.buckets[StallBucket.ISSUE]
                == channel.commands * channel.tCK)
        # The horizon covers the run: nothing accounted past the end,
        # except a channel whose last command outlived the cores.
        assert channel.horizon_ps >= 0


#: One refresh-on preset per policy.  On mix0 at 600 accesses/core each
#: one settles owed refreshes at an admission after an idle span, so the
#: idle catch-up's closes and REFs must reach the observer too.
REFRESH_PRESETS = [
    replace(cfgs.vsb(), refresh_density="16Gb", refresh_policy=policy,
            name=f"{cfgs.vsb().name}+ref-{policy}-16Gb")
    for policy in ("baseline", "darp", "sarp")]


@pytest.mark.parametrize("config", PRESETS[:4] + REFRESH_PRESETS,
                         ids=[c.name for c in PRESETS[:4]
                              + REFRESH_PRESETS])
def test_bank_counters_match_controller_stats(config):
    traces = mix_traces("mix0", 600)
    result, _ = observed_run(config, traces)
    merged = result.accounting.merged_bank_stats()
    assert merged.acts == result.stats.acts
    assert merged.ewlr_hits == result.stats.ewlr_hits
    assert merged.columns == result.stats.columns
    assert merged.precharges == result.stats.precharges
    assert merged.partial_precharges == result.energy.partial_precharges
    by_cause = {c.value: n for c, n in result.precharge_causes.items()}
    assert (merged.plane_conflict_precharges
            == by_cause.get("plane_conflict", 0))
    assert (merged.row_conflict_precharges
            == by_cause.get("row_conflict", 0))
    assert merged.refresh_precharges == by_cause.get("refresh", 0)
    assert merged.refreshes == result.stats.refreshes
    assert (result.accounting.commands()
            == result.stats.commands_issued)
    if config.refresh_density is not None:
        assert result.stats.refreshes > 0


def test_fig12_mix_attribution_sums():
    """The ISSUE acceptance criterion: fig12-mix stats add up."""
    for config in (cfgs.ddr4_baseline(), cfgs.vsb(EruConfig.full(4))):
        result = run_traces(config, mix_traces("mix0", 400),
                            observe=True)
        report = result.accounting
        report.verify()
        table = report.format_table()
        assert "stall attribution" in table
        assert f"{report.wall_ps():14d}" in table  # the total row


# -- 2. observer neutrality ----------------------------------------------


@pytest.mark.parametrize("config", PRESETS,
                         ids=[c.name for c in PRESETS])
def test_observation_never_changes_the_command_stream(config):
    traces = mix_traces("mix0", 250)
    plain_result, plain_system = observed_run(
        replace(config, record_commands=True), traces, trace=False)
    # Manual un-observed run with command recording.
    system = MemorySystem(replace(config, record_commands=True))
    cores = [TraceCore(t, CoreConfig(), core_id=i)
             for i, t in enumerate(traces)]
    result = Simulator(system, cores).run()
    assert result.accounting is None and result.trace is None
    assert (command_stream_hash(system)
            == command_stream_hash(plain_system))
    assert result.digest() == plain_result.digest()


def test_digest_excludes_observability():
    traces = mix_traces("mix2", 200)
    observed = run_traces(cfgs.vsb(), traces,
                          observe=ObserveOptions(trace=True))
    plain = run_traces(cfgs.vsb(), traces)
    assert observed.accounting is not None
    assert observed.trace is not None
    assert plain.accounting is None
    assert observed.digest() == plain.digest()


# -- 3. one tagged floor per rule ----------------------------------------


#: The Fig. 12 platform under the per-bank and per-sub-bank refresh
#: policies, whose refreshes start well inside the short runs below
#: (the all-bank one is first due at tREFI), so ACTs commit right at
#: blackout ends.
REFRESH_PRESETS = [replace(cfgs.vsb(), refresh_density="16Gb",
                           refresh_policy=policy,
                           name=f"VSB+ref-{policy}-16Gb")
                   for policy in ("darp", "sarp")]


@pytest.mark.parametrize("config", PRESETS + REFRESH_PRESETS,
                         ids=[c.name for c in PRESETS + REFRESH_PRESETS])
def test_explain_floors_match_earliest_throughout_a_run(config):
    """On live pre-issue state, the folded floor is the max of its parts.

    Patches the controller commit path to check every ACT and RD/WR the
    scheduler actually issues, covering every policy/organisation arm
    of the folds with real traffic: the time is the max of the
    channel-side floor and the slot FSM floor, the tag names a part
    that releases at that time -- ``refresh`` exactly when the slot's
    last blackout ends then -- and the scheduler never issues before
    it.  The FSM floor waits out the blackout, and a column floor lies
    strictly past it.
    """
    system = MemorySystem(config)
    checked = 0
    blackouts = [0]
    for controller in system.controllers:
        channel = controller.channel
        original = controller.commit

        def commit(candidate, channel=channel, original=original):
            nonlocal checked
            txn = candidate.txn
            if candidate.kind is CommandKind.ACT:
                c = txn.coords
                tag, time = channel.act_floor(c)
                channel_tag, channel_time = channel.resources.act_floor()
                bank_time = channel.bank(c).earliest_act(c.subbank, c.row)
                ref_time = channel.bank(c).slot(c.subbank,
                                                c.row).refresh_end
                assert ref_time <= bank_time
                blackouts[0] += ref_time == time
            elif candidate.kind in (CommandKind.RD, CommandKind.WR):
                c = txn.coords
                is_write = candidate.kind is CommandKind.WR
                tag, time = channel.column_floor(c, is_write)
                channel_tag, channel_time = channel.resources.column_floor(
                    is_write, c.bank_group, channel.bank_index(c))
                bank_time = channel.bank(c).earliest_column(c.subbank,
                                                            c.row)
                ref_time = channel.bank(c).slot(c.subbank,
                                                c.row).refresh_end
                assert ref_time < bank_time
            else:
                return original(candidate)
            assert time == max(channel_time, bank_time)
            assert (tag == FLOOR_REFRESH) == (ref_time == time)
            parts = {channel_tag: channel_time, FLOOR_BANK: bank_time,
                     FLOOR_REFRESH: ref_time}
            assert parts[tag] == time
            assert candidate.issue_time >= time
            checked += 1
            return original(candidate)

        controller.commit = commit
    cores = [TraceCore(t, CoreConfig(), core_id=i)
             for i, t in enumerate(mix_traces("mix3", 150))]
    Simulator(system, cores).run()
    assert checked > 100
    # Each refresh run commits ACTs the blackout bound.
    assert (blackouts[0] > 0) == config.timing().refresh_enabled


def coords(bank=0, row=5):
    return DramCoordinates(channel=0, rank=0, bank_group=0, bank=bank,
                           subbank=0, row=row, column=0)


def test_binding_floor_prefers_specific_tags_on_ties():
    """Constructed ties go to the most specific tag."""
    # bus = bank FSM: a fresh channel's ACT floor is 0 on both.
    channel = cfgs.vsb().build_channel()
    assert channel.act_floor(coords()) == (FLOOR_BANK, 0)
    # ... but tRRD = bank FSM stays tRRD: bank 0 reopens exactly one
    # tRRD after an ACT to bank 1.
    channel.issue_act(coords(), 0)
    slot = channel.bank(coords()).slot_key(0, 5)
    channel.issue_precharge(0, slot, 40_000, PrechargeCause.POLICY)
    reopen = channel.bank(coords()).earliest_act(0, 5)
    channel.issue_act(coords(bank=1), reopen - channel.timing.tRRD)
    assert channel.act_floor(coords()) == (FLOOR_TRRD, reopen)
    # tRRD = tFAW: the fifth ACT, one tRRD after the fourth, exactly
    # when the first leaves the window.
    t = get_backend("dram").timings()
    r = ChannelResources(t, BusPolicy.BANK_GROUPS, bank_groups=4,
                         banks=16)
    for time in (0, t.tRRD, 2 * t.tRRD, t.tFAW - t.tRRD):
        r.record_act(time)
    assert r.act_floor() == (FLOOR_TFAW, t.tFAW)
    # tCCD_L = tTCW (both 5 ns at 2.4 GHz): a column back to bank 0
    # after bank 0 then bank 1 of its group.
    t = get_backend("dram").timings(2.4e9).with_ddb_windows()
    assert t.tCCD_L == t.tTCW
    r = ChannelResources(t, BusPolicy.DDB, bank_groups=4, banks=16)
    r.record_column(0, False, 0, 0)
    r.record_column(t.tCCD_S, False, 0, 1)
    assert r.column_floor(False, 0, 0) == (FLOOR_DDB_WINDOW, t.tTCW)
    # A refresh blackout ending with the floor wins whatever it ties:
    # the slot FSM, which holds it, tRRD (after an ACT to bank 1) and
    # the bus (after a PRE there).  Released one ps later, tRRD or the
    # bus binds alone.
    def after_blackout(step, release):
        channel = replace(cfgs.vsb(),
                          refresh_density="16Gb").build_channel()
        t = channel.timing
        end = channel.issue_refresh(0, 0, 0)  # bank 0, sub-bank 0
        if step == "act":
            channel.issue_act(coords(bank=1), end + release - t.tRRD)
        elif step == "pre":
            channel.issue_act(coords(bank=1), t.tCK)
            slot = channel.bank(coords(bank=1)).slot_key(0, 5)
            channel.issue_precharge(1, slot, end + release - t.tCK,
                                    PrechargeCause.POLICY)
        return end, channel.act_floor(coords())

    for step in ("fsm", "act", "pre"):
        end, floor = after_blackout(step, 0)
        assert floor == (FLOOR_REFRESH, end), step
    later = [after_blackout(step, 1) for step in ("act", "pre")]
    assert later == [(end, (FLOOR_TRRD, end + 1)),
                     (end, (FLOOR_BUS, end + 1))]


# -- unit-level accounting behaviour -------------------------------------


def test_channel_accounting_queue_empty_vs_request_gap():
    acc = ChannelAccounting(0, tCK=750, ewlr=False)
    # Queue empty from 0; first txn arrives at 1000; ACT issues at 4000
    # with a device floor releasing at 4000 (bank busy).
    acc.note_nonempty(1000)
    bucket, wait = acc.on_command(
        4000, CommandKind.ACT, None, bank=0, subbank=0,
        floor=("bank_busy", 4000), ewlr_hit=False,
        partial=False, queue_empty_after=False)
    assert bucket is StallBucket.BANK_BUSY
    assert wait == 3000  # past the queue-empty prefix
    assert acc.buckets[StallBucket.QUEUE_EMPTY] == 1000
    assert acc.buckets[StallBucket.BANK_BUSY] == 3000
    acc.finish(10_000)
    acc.verify()
    # Queue stayed non-empty after the command, so the tail past the
    # command end files as request_gap, not queue_empty.
    assert acc.buckets[StallBucket.REQUEST_GAP] == 10_000 - 4750
    assert sum(acc.buckets.values()) == 10_000


def test_channel_accounting_idle_tail_is_queue_empty():
    acc = ChannelAccounting(0, tCK=750, ewlr=False)
    acc.note_nonempty(0)
    acc.on_command(0, CommandKind.ACT, None, 0, 0,
                   floor=("bus", 0), ewlr_hit=False, partial=False,
                   queue_empty_after=True)
    acc.finish(5750)
    acc.verify()
    assert acc.buckets[StallBucket.ISSUE] == 750
    assert acc.buckets[StallBucket.QUEUE_EMPTY] == 5000


def test_channel_accounting_rejects_overlapping_commands():
    acc = ChannelAccounting(0, tCK=750, ewlr=False)
    acc.on_command(1000, CommandKind.ACT, None, 0, 0, ("bus", 0),
                   False, False, False)
    with pytest.raises(ValueError):
        acc.on_command(1200, CommandKind.ACT, None, 0, 0, ("bus", 0),
                       False, False, False)


def test_plane_conflict_files_as_ewlr_miss_only_with_ewlr():
    for ewlr, expected in ((True, StallBucket.EWLR_MISS),
                           (False, StallBucket.PLANE_CONFLICT)):
        acc = ChannelAccounting(0, tCK=750, ewlr=ewlr)
        acc.note_nonempty(0)
        bucket, _ = acc.on_command(
            2000, CommandKind.PRE, PrechargeCause.PLANE_CONFLICT,
            0, 0, None, False, False, False)
        assert bucket is expected
        assert acc.buckets[expected] == 2000


# -- exports -------------------------------------------------------------


def test_report_json_and_csv_roundtrip(tmp_path):
    result = run_traces(cfgs.vsb(), mix_traces("mix0", 200),
                        observe=True)
    report = result.accounting
    payload = io.StringIO()
    report.write_json(payload)
    data = json.loads(payload.getvalue())
    assert data["config"] == result.config_name
    assert sum(data["buckets_ps"].values()) == data["wall_ps"]
    for channel in data["channels"]:
        assert (sum(channel["buckets_ps"].values())
                == channel["horizon_ps"])
    assert data["commands"] == result.stats.commands_issued
    assert data["banks"], "per-bank rows must be present"
    rows = report.bucket_csv_rows()
    assert rows[0] == ["channel", "bucket", "ps"]
    assert sum(r[2] for r in rows[1:]) == report.wall_ps()


def test_reports_pickle_for_the_process_pool():
    import pickle
    result = run_traces(cfgs.vsb(), mix_traces("mix0", 150),
                        observe=ObserveOptions(trace=True,
                                               trace_limit=50))
    clone = pickle.loads(pickle.dumps(result))
    assert clone.accounting.wall_ps() == result.accounting.wall_ps()
    assert len(clone.trace) == len(result.trace)


def _observed_rs(tmp_path, observe):
    from repro.sim.runner import run_spec
    from repro.sim.specs import ConfigSpec, ExperimentSpec
    from repro.sim.store import ResultStore
    spec = ExperimentSpec(
        name="sidecars", mixes=("mix0",), accesses_per_core=150,
        include_alone=False, observe=observe,
        configs=(ConfigSpec("ddr4_baseline"), ConfigSpec("vsb")))
    rs, _ = run_spec(spec, store=ResultStore(str(tmp_path / "store")))
    return rs


def test_emit_stats_sidecars(tmp_path):
    from repro.sim.experiments import emit_stats_sidecars
    rs = _observed_rs(tmp_path, observe=True)
    paths = emit_stats_sidecars(rs, str(tmp_path / "out"), prefix="t__")
    assert len(paths) == 2
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        assert sum(data["buckets_ps"].values()) == data["wall_ps"]


def test_unobserved_context_emits_nothing(tmp_path):
    from repro.sim.experiments import emit_stats_sidecars
    rs = _observed_rs(tmp_path, observe=False)
    assert emit_stats_sidecars(rs, str(tmp_path / "out")) == []


def test_observed_grid_jobs_carry_reports():
    from repro.cpu.core import CoreConfig as CC
    from repro.sim.parallel import SimJob, run_grid
    job = SimJob(config=cfgs.vsb(), accesses=120, fragmentation=0.1,
                 seed=0, core_config=CC(), mix="mix0", observe=True)
    plain = replace(job, observe=False)
    observed_result, plain_result = run_grid([job, plain], workers=2)
    assert observed_result.accounting is not None
    observed_result.accounting.verify()
    assert plain_result.accounting is None
    assert observed_result.digest() == plain_result.digest()
