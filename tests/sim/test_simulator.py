"""Integration tests: cores + controllers through the event loop."""

import pytest

from repro.core.mechanisms import EruConfig
from repro.cpu.core import CoreConfig, TraceCore
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.commands import PrechargeCause
from repro.sim.config import ddr4_baseline, ideal32, vsb
from repro.sim.simulator import MemorySystem, Simulator, run_traces


def seq_trace(n, gap=20, stride=64, base=0, write_every=0, name="t"):
    entries = []
    for i in range(n):
        write = write_every > 0 and i % write_every == 0
        entries.append(TraceEntry(gap, write, base + i * stride))
    return Trace.from_entries(entries, name=name)


def rand_trace(n, seed=0, gap=15, name="r"):
    import random
    rng = random.Random(seed)
    return Trace.from_entries(
        [TraceEntry(gap, rng.random() < 0.3,
                    rng.randrange(0, 1 << 30) & ~63) for _ in range(n)],
        name=name)


class TestSingleCore:
    def test_all_reads_complete(self):
        res = run_traces(ddr4_baseline(), [seq_trace(200)])
        assert res.stats.columns == 200
        assert len(res.stats.read_latencies) == 200

    def test_reads_and_writes_complete(self):
        res = run_traces(ddr4_baseline(), [seq_trace(300, write_every=3)])
        assert res.stats.columns == 300
        assert res.energy.writes == 100
        assert res.energy.reads == 200

    def test_sequential_stream_mostly_hits(self):
        res = run_traces(ddr4_baseline(), [seq_trace(2000)])
        assert res.stats.acts < 100  # ~4 KiB rows, 64 B lines

    def test_elapsed_positive_and_ipc_bounded(self):
        res = run_traces(ddr4_baseline(), [seq_trace(100)])
        assert res.elapsed_ps > 0
        assert 0 < res.ipcs[0] <= CoreConfig().issue_width + 1

    def test_latency_at_least_device_minimum(self):
        t = ddr4_baseline().timing()
        res = run_traces(ddr4_baseline(), [seq_trace(50)])
        floor = t.tCL + t.burst_time
        assert min(res.stats.read_latencies) >= floor


class TestMultiCore:
    def test_four_cores_all_finish(self):
        traces = [rand_trace(150, seed=i, name=f"c{i}") for i in range(4)]
        res = run_traces(ddr4_baseline(), traces)
        assert len(res.ipcs) == 4
        assert all(ipc > 0 for ipc in res.ipcs)
        assert res.stats.columns == 600

    def test_contention_lowers_ipc(self):
        alone = run_traces(ddr4_baseline(), [rand_trace(300)])
        shared = run_traces(
            ddr4_baseline(),
            [rand_trace(300, seed=i) for i in range(4)])
        assert shared.ipcs[0] < alone.ipcs[0] * 1.05

    def test_more_banks_help_random_traffic(self):
        traces = [rand_trace(250, seed=i) for i in range(4)]
        base = run_traces(ddr4_baseline(), traces)
        ideal = run_traces(ideal32(), traces)
        assert sum(ideal.ipcs) > sum(base.ipcs)


class TestVsbIntegration:
    def test_vsb_runs_and_uses_subbanks(self):
        traces = [rand_trace(250, seed=i) for i in range(2)]
        res = run_traces(vsb(), traces)
        assert res.stats.columns == 500

    def test_naive_vsb_reports_plane_conflicts(self):
        # Two cores ping-ponging nearby rows in opposite sub-banks.
        a = seq_trace(300, gap=10, stride=64, base=0)
        b = seq_trace(300, gap=10, stride=64, base=(1 << 18) + (1 << 12))
        res = run_traces(vsb(EruConfig.naive(4)), [a, b])
        assert res.precharge_causes[PrechargeCause.PLANE_CONFLICT] >= 0
        assert res.transactions == 600

    def test_result_fractions_well_defined(self):
        res = run_traces(vsb(EruConfig.naive(4)),
                         [rand_trace(100, seed=3)])
        assert 0.0 <= res.plane_conflict_precharge_fraction <= 1.0
        assert 0.0 <= res.ewlr_hit_rate <= 1.0

    def test_empty_core_list(self):
        res = run_traces(ddr4_baseline(), [])
        assert res.elapsed_ps == 0


class TestDeterminism:
    def test_same_input_same_result(self):
        traces = [rand_trace(200, seed=7)]
        a = run_traces(vsb(), traces)
        # Re-generate everything: transactions are stateful objects.
        traces2 = [rand_trace(200, seed=7)]
        b = run_traces(vsb(), traces2)
        assert a.ipcs == b.ipcs
        assert a.stats.commands_issued == b.stats.commands_issued
        assert a.energy.activations == b.energy.activations


class TestBackpressure:
    def test_tiny_queues_still_complete(self):
        from dataclasses import replace
        from repro.controller.queue import QueueConfig
        cfg = replace(ddr4_baseline(),
                      queue=QueueConfig(read_depth=2, write_depth=4,
                                        drain_high=3, drain_low=1))
        traces = [rand_trace(200, seed=i) for i in range(4)]
        res = run_traces(cfg, traces)
        assert res.stats.columns == 800

    def test_write_heavy_workload_drains(self):
        t = seq_trace(400, write_every=1)  # all writes
        res = run_traces(ddr4_baseline(), [t])
        assert res.energy.writes == 400


class TestSimulatorInternals:
    def test_memory_system_builds_channels(self):
        system = MemorySystem(ddr4_baseline())
        assert len(system.controllers) == 2

    def test_controller_for_routes_by_channel_bit(self):
        system = MemorySystem(ddr4_baseline())
        _, coords, idx = system.controller_for(0)
        assert idx == coords.channel

    def test_simulator_reusable_state_is_isolated(self):
        system = MemorySystem(ddr4_baseline())
        cores = [TraceCore(seq_trace(50), CoreConfig(), core_id=0)]
        res = Simulator(system, cores).run()
        assert res.stats.columns == 50
