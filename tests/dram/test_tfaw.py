"""The rolling four-activate window (tFAW), tracker through scheduler.

Unit tests pin the :class:`ChannelResources` window mechanics; the
system-level tests prove the scheduler respects the window under
traffic (via the independent rule checker) and that a zero ``tFAW``
reproduces the pre-tFAW activate model bit-for-bit.
"""

import random
from dataclasses import replace

from repro.cpu.trace import Trace, TraceEntry
from repro.dram.resources import (
    FLOOR_BUS,
    FLOOR_TFAW,
    FLOOR_TRRD,
    BusPolicy,
    ChannelResources,
)
from repro.dram.timing import ddr4_timings
from repro.dram.validation import validate_log
from repro.sim import config as cfgs
from repro.sim.simulator import MemorySystem, Simulator, run_traces
from repro.cpu.core import TraceCore

T = ddr4_timings()


def make(timing=T):
    return ChannelResources(timing, BusPolicy.BANK_GROUPS,
                            bank_groups=4, banks=16)


def act_heavy_traffic(cores=4, n=250, seed=7):
    """All-random addresses: nearly every access opens a new row."""
    rng = random.Random(seed)
    traces = []
    for c in range(cores):
        entries = [TraceEntry(rng.randrange(0, 8),
                              rng.random() < 0.3,
                              rng.randrange(0, 1 << 34) & ~63)
                   for _ in range(n)]
        traces.append(Trace.from_entries(entries, name=f"c{c}"))
    return traces


class TestWindowTracker:
    def test_four_acts_are_unconstrained_by_tfaw(self):
        r = make()
        for i in range(4):
            assert r.act_floor()[1] == i * T.tRRD
            r.record_act(i * T.tRRD)

    def test_fifth_act_waits_for_the_window(self):
        r = make()
        for i in range(4):
            r.record_act(i * T.tRRD)
        # tRRD alone would allow 4 * tRRD; the window pushes further.
        assert 4 * T.tRRD < T.tFAW
        assert r.act_floor()[1] == T.tFAW

    def test_window_rolls_forward(self):
        r = make()
        for i in range(4):
            r.record_act(i * T.tRRD)
        r.record_act(T.tFAW)  # the fifth, at the earliest legal time
        # The sixth waits on the *second* ACT leaving the window.
        assert r.act_floor()[1] == T.tRRD + T.tFAW

    def test_zero_tfaw_disables_the_floor(self):
        r = make(T.replace(tFAW=0))
        for i in range(8):
            assert r.act_floor() == (FLOOR_TRRD if i else FLOOR_BUS,
                                     i * T.tRRD)
            r.record_act(i * T.tRRD)

    def test_act_floors_carry_the_tfaw_tag(self):
        r = make()
        for i in range(4):
            r.record_act(i * T.tRRD)
        assert r.act_floor() == (FLOOR_TFAW, T.tFAW)

    def test_no_tfaw_tag_when_disabled(self):
        # The same four ACTs: with the window off, tRRD binds.
        r = make(T.replace(tFAW=0))
        for i in range(4):
            r.record_act(i * T.tRRD)
        assert r.act_floor() == (FLOOR_TRRD, 4 * T.tRRD)

    def test_floors_match_earliest_under_random_acts(self):
        """The floor is the max of the bus, tRRD and tFAW rules, named
        by the most specific rule releasing then."""
        rng = random.Random(3)
        for timing in (T, T.replace(tFAW=0)):
            r = make(timing)
            acts = []
            now = 0
            tags = set()
            for _ in range(200):
                parts = [(FLOOR_BUS, r.cmd_bus_free)]
                if acts:
                    parts.append((FLOOR_TRRD, acts[-1] + timing.tRRD))
                if timing.tFAW and len(acts) >= 4:
                    parts.append((FLOOR_TFAW, acts[-4] + timing.tFAW))
                time = max(t for _, t in parts)
                tag, floor = r.act_floor()
                assert floor == time
                assert tag == [g for g, t in parts if t == time][-1]
                tags.add(tag)
                now = max(now, floor) + rng.randrange(0, 3 * timing.tRRD)
                r.record_act(now)
                acts.append(now)
            assert (FLOOR_TFAW in tags) == bool(timing.tFAW)


class TestSchedulerRespectsTfaw:
    def test_validator_accepts_scheduled_acts_under_tight_tfaw(self):
        """Even a punishing 60 ns window never produces a violation."""
        config = replace(cfgs.ddr4_baseline(), tfaw_ns=60,
                         record_commands=True)
        system = MemorySystem(config)
        cores = [TraceCore(t, core_id=i)
                 for i, t in enumerate(act_heavy_traffic())]
        Simulator(system, cores).run()
        timing = config.timing()
        for controller in system.controllers:
            log = controller.channel.command_log
            assert sum(1 for rec in log if rec.kind == "ACT") > 100
            validate_log(log, timing, config.bus_policy)

    def test_tfaw_binds_on_act_heavy_traffic(self):
        """The window must actually change behaviour, not just exist."""
        traces = act_heavy_traffic()
        with_faw = run_traces(cfgs.ddr4_baseline(), traces)
        without = run_traces(replace(cfgs.ddr4_baseline(), tfaw_ns=0),
                             traces)
        assert with_faw.digest() != without.digest()
        assert with_faw.elapsed_ps > without.elapsed_ps

    def test_zero_tfaw_reproduces_the_legacy_act_model(self, monkeypatch):
        """tfaw_ns=0 is digest-identical to the pre-tFAW formulas."""
        config = replace(cfgs.vsb(), tfaw_ns=0)
        traces = act_heavy_traffic(cores=2, n=150)
        current = run_traces(config, traces).digest()

        def legacy_act_floor(self):
            trrd = self._last_act + self.timing.tRRD
            if trrd >= self.cmd_bus_free:
                return FLOOR_TRRD, trrd
            return FLOOR_BUS, self.cmd_bus_free

        monkeypatch.setattr(ChannelResources, "act_floor",
                            legacy_act_floor)
        legacy = run_traces(config, traces).digest()
        assert current == legacy
