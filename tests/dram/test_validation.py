"""Cross-validation: the scheduler's output vs an independent rule set.

These are the strongest correctness tests in the suite: every command
schedule the event-driven controller produces is re-checked against a
second, from-the-definitions implementation of the timing rules.
"""

import random
from dataclasses import replace

import pytest

from repro.core.mechanisms import EruConfig
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.backends import get_backend
from repro.dram.resources import BusPolicy
from repro.dram.validation import (
    CommandRecord,
    TimingViolation,
    validate_log,
)
from repro.sim.config import (
    ddr4_baseline,
    half_dram,
    ideal32,
    masa,
    masa_eruca,
    vsb,
)
from repro.sim.simulator import MemorySystem, Simulator, run_traces
from repro.cpu.core import CoreConfig, TraceCore
from repro.workloads.generator import generate_traces
from repro.workloads.mixes import mix_traces
from repro.workloads.profiles import profile
from tests.pins import pinned_spec


def traffic(cores=3, n=300, seed=0):
    rng = random.Random(seed)
    traces = []
    for c in range(cores):
        base = rng.randrange(0, 1 << 30) & ~63
        entries = []
        for i in range(n):
            addr = (base + i * 64 if rng.random() < 0.5
                    else rng.randrange(0, 1 << 34)) & ~63
            entries.append(TraceEntry(rng.randrange(0, 30),
                                      rng.random() < 0.35, addr,
                                      depends=rng.random() < 0.2))
        traces.append(Trace.from_entries(entries, name=f"c{c}"))
    return traces


def run_validated(config, traces, core_config=CoreConfig()):
    config = replace(config, record_commands=True)
    system = MemorySystem(config)
    cores = [TraceCore(t, core_config, core_id=i)
             for i, t in enumerate(traces)]
    Simulator(system, cores).run()
    timing = config.timing()
    total = 0
    for controller in system.controllers:
        log = controller.channel.command_log
        assert log, "recording was enabled but the log is empty"
        total += validate_log(log, timing, config.bus_policy)
    return total


CONFIGS = [
    ddr4_baseline(),
    ideal32(),
    vsb(EruConfig.naive(4)),
    vsb(EruConfig.full(4)),
    vsb(EruConfig.full(4)).at_frequency(2.4e9),
    half_dram(),
    masa(8),
    masa_eruca(8),
    replace(ddr4_baseline(), idle_close_ps=300_000),
]


@pytest.mark.parametrize("config", CONFIGS,
                         ids=[c.name for c in CONFIGS])
def test_schedules_pass_independent_validation(config):
    checked = run_validated(config, traffic(seed=11))
    assert checked > 500  # a real schedule, not a trivial one


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_seeds_validate_on_eruca(seed):
    run_validated(vsb(EruConfig.full(4)), traffic(seed=seed))


def test_pinned_figure_grids_satisfy_the_rule_checker():
    """Every distinct mix0 cell of the pinned Fig. 12-16 and ablation
    grids: each config at each fragmentation, once per store key (an
    arm that differs from another config only by name simulates the
    same).  The checker reads no slot FSM horizon, so it stays
    independent of the floors the scheduler and the accounting share
    (the pinned refresh grid is checked in
    ``tests/dram/test_refresh.py``)."""
    cells = {}
    for name in ("fig12", "fig13", "fig14", "fig15", "fig16", "ablation"):
        for cell in pinned_spec(name).expand():
            if cell.kind == "mix" and cell.workload == "mix0":
                cells.setdefault(cell.store_key(), cell)
    assert len(cells) == 46
    checked = 0
    for cell in cells.values():
        traces = mix_traces(cell.workload, cell.accesses,
                            fragmentation=cell.fragmentation,
                            seed=cell.seed)
        checked += run_validated(cell.config, traces, cell.core_config)
    assert checked > 140_000


def test_pinned_alone_cells_satisfy_the_rule_checker():
    """Every distinct alone cell of the same pinned grids: each
    benchmark of a spec's mixes run by itself on the spec's alone
    baseline (the weighted-speedup denominators), at each fragmentation
    and scaled core clock, once per store key."""
    cells = {}
    for name in ("fig12", "fig13", "fig14", "fig15", "fig16", "ablation"):
        for cell in pinned_spec(name).expand():
            if cell.kind == "alone":
                cells.setdefault(cell.store_key(), cell)
    assert len(cells) == 18
    checked = 0
    for cell in cells.values():
        traces = generate_traces([profile(cell.workload)], cell.accesses,
                                 fragmentation=cell.fragmentation,
                                 seed=cell.seed)
        checked += run_validated(cell.config, traces, cell.core_config)
    assert checked == 13_374


class TestValidatorCatchesViolations:
    """The validator must actually reject broken schedules."""

    T = get_backend("dram").timings()

    def act(self, time, bank=0, slot=(0, 0), row=1, bg=0):
        return CommandRecord("ACT", time, bank, bg, slot, row)

    def test_detects_trcd_violation(self):
        log = [self.act(0),
               CommandRecord("RD", self.T.tRCD - 1, 0, 0, (0, 0))]
        with pytest.raises(TimingViolation, match="tRCD"):
            validate_log(log, self.T, BusPolicy.BANK_GROUPS)

    def test_detects_tras_violation(self):
        log = [self.act(0),
               CommandRecord("PRE", self.T.tRAS - 1, 0, 0, (0, 0))]
        with pytest.raises(TimingViolation, match="tRAS"):
            validate_log(log, self.T, BusPolicy.BANK_GROUPS)

    def test_detects_trrd_violation(self):
        # One tCK apart (so the command-bus rule passes) but well
        # inside tRRD.
        log = [self.act(0, bank=0), self.act(self.T.tCK, bank=1)]
        with pytest.raises(TimingViolation, match="tRRD"):
            validate_log(log, self.T, BusPolicy.BANK_GROUPS)

    def test_detects_command_bus_overlap(self):
        log = [self.act(0, bank=0), self.act(self.T.tCK - 1, bank=1)]
        with pytest.raises(TimingViolation, match="command bus"):
            validate_log(log, self.T, BusPolicy.BANK_GROUPS)

    def test_detects_tfaw_violation(self):
        # Four ACTs at the tRRD cadence, then a fifth still inside the
        # 25 ns window: the per-pair spacing is legal but the rolling
        # four-activate budget is not.
        t = self.T
        log = [self.act(i * t.tRRD, bank=i) for i in range(5)]
        assert 4 * t.tRRD < t.tFAW  # the burst really is inside
        with pytest.raises(TimingViolation, match="tFAW"):
            validate_log(log, t, BusPolicy.BANK_GROUPS)

    def test_tfaw_allows_fifth_act_at_window_edge(self):
        t = self.T
        log = [self.act(i * t.tRRD, bank=i) for i in range(4)]
        log.append(self.act(t.tFAW, bank=4))  # exactly one window later
        assert validate_log(log, t, BusPolicy.BANK_GROUPS) == 5

    def test_tfaw_zero_disables_the_window(self):
        t = self.T.replace(tFAW=0)
        log = [self.act(i * t.tRRD, bank=i) for i in range(5)]
        assert validate_log(log, t, BusPolicy.BANK_GROUPS) == 5

    def test_detects_tccd_l_violation(self):
        t = self.T
        log = [self.act(0, bank=0), self.act(t.tRRD, bank=1),
               CommandRecord("RD", t.tRCD, 0, 0, (0, 0)),
               CommandRecord("RD", t.tRCD + t.tCCD_S, 1, 0, (0, 0))]
        with pytest.raises(TimingViolation, match="tCCD_L"):
            validate_log(log, t, BusPolicy.BANK_GROUPS)

    def test_ideal_allows_tccd_s_in_group(self):
        t = self.T
        log = [self.act(0, bank=0), self.act(t.tRRD, bank=1),
               CommandRecord("RD", t.tRCD, 0, 0, (0, 0)),
               CommandRecord("RD", t.tRCD + t.tCCD_S, 1, 0, (0, 0))]
        assert validate_log(log, t, BusPolicy.NO_GROUPS) == 4

    def test_detects_column_to_closed_row(self):
        log = [CommandRecord("RD", 0, 0, 0, (0, 0))]
        with pytest.raises(TimingViolation, match="closed"):
            validate_log(log, self.T, BusPolicy.BANK_GROUPS)

    def test_detects_double_activation(self):
        log = [self.act(0), self.act(self.T.tRC, row=2)]
        with pytest.raises(TimingViolation, match="open slot"):
            validate_log(log, self.T, BusPolicy.BANK_GROUPS)

    def test_detects_ttcw_violation(self):
        t = get_backend("dram").timings(2.4e9).with_ddb_windows()
        log = [self.act(0, bank=0)]
        base = t.tRCD
        for i, bank in enumerate((0, 1, 2)):
            log.append(self.act(t.tRRD * (i + 1), bank=bank,
                                row=1))
        log = [self.act(t.tRRD * i, bank=b)
               for i, b in enumerate((0, 1, 2))]
        start = 3 * t.tRRD + t.tRCD
        for i, bank in enumerate((0, 1, 2)):
            log.append(CommandRecord(
                "RD", start + i * t.tCCD_S, bank, 0, (0, 0)))
        with pytest.raises(TimingViolation, match="tTCW"):
            validate_log(log, t, BusPolicy.DDB)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            validate_log([CommandRecord("NOP", 0, 0, 0, (0, 0))],
                         self.T, BusPolicy.BANK_GROUPS)

    def test_detects_data_bus_overlap_from_shorter_latency_write(self):
        # A write's data burst starts tCWL after the command -- sooner
        # than a preceding read's tCL -- so a WR placed at the minimum
        # command spacing lands its burst inside the read's burst.  The
        # occupancy horizon must be tracked as a running max so this is
        # caught (regression for the `last_data_end = end` rewind).
        t = self.T
        log = [self.act(0, bank=0, bg=0),
               self.act(t.tRRD, bank=4, bg=1),
               CommandRecord("RD", t.tRCD, 0, 0, (0, 0)),
               CommandRecord("WR", t.tRCD + t.tCCD_S, 4, 1, (0, 0))]
        # The write's burst would start inside the read's.
        assert (t.tRCD + t.tCCD_S + t.tCWL) < (t.tRCD + t.tCL
                                               + t.burst_time)
        with pytest.raises(TimingViolation, match="data-bus overlap"):
            validate_log(log, t, BusPolicy.BANK_GROUPS)

    def test_pre_partial_timing_rules_apply(self):
        log = [self.act(0),
               CommandRecord("PRE_PARTIAL", self.T.tRAS - 1, 0, 0,
                             (0, 0))]
        with pytest.raises(TimingViolation, match="tRAS"):
            validate_log(log, self.T, BusPolicy.BANK_GROUPS)

    def test_pre_partial_needs_open_partner_subbank(self):
        # Section VI-A: a partial precharge preserves a raised MWL for
        # the other sub-bank, so with that sub-bank fully closed the
        # record is structurally impossible.
        t = self.T
        log = [self.act(0, slot=(0, 0)),
               CommandRecord("PRE_PARTIAL", t.tRAS, 0, 0, (0, 0))]
        with pytest.raises(TimingViolation, match="other sub-bank"):
            validate_log(log, t, BusPolicy.BANK_GROUPS)

    def test_pre_partial_accepted_with_open_partner(self):
        t = self.T
        log = [self.act(0, slot=(0, 0), row=1),
               self.act(t.tRRD, slot=(1, 0), row=2),
               CommandRecord("PRE_PARTIAL", t.tRAS, 0, 0, (0, 0))]
        assert validate_log(log, t, BusPolicy.BANK_GROUPS) == 3
