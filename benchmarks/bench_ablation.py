"""Ablation benches for design choices DESIGN.md calls out.

Not a paper figure: these quantify the modelling decisions --

* plane-ID bit placement (Fig. 9's two mappings) with and without RAP;
* sub-bank ID bit position (low, Fig. 9, vs high);
* write-drain watermarks;
* DDB two-command windows on/off at a fast channel (tTCW pessimism).
"""

from dataclasses import replace

from conftest import print_header

from repro.controller.controller import ChannelController
from repro.controller.mapping import (
    AddressMapping,
    PlanePlacement,
    RowLayout,
)
from repro.controller.queue import QueueConfig
from repro.core.mechanisms import EruConfig
from repro.cpu.core import TraceCore
from repro.dram.bank import BankGeometry
from repro.dram.device import Channel
from repro.dram.resources import BusPolicy
from repro.dram.timing import ddr4_timings
from repro.sim.config import ddr4_baseline, vsb
from repro.sim.simulator import MemorySystem, Simulator, run_traces
from repro.workloads.mixes import mix_traces


def mix0_traces(settings):
    """The mix0 traces every ablation sweep replays."""
    return mix_traces("mix0", settings.accesses_per_core,
                      fragmentation=settings.fragmentation,
                      seed=settings.seed)


def run(config, traces):
    res = run_traces(config, traces)
    return sum(res.ipcs), res


def run_custom_vsb(traces, layout, ewlr, rap, policy=BusPolicy.DDB,
                   timing=None, subbank_low=True):
    """A VSB system built by hand, for knobs the presets do not expose."""
    if timing is None:
        timing = ddr4_timings()
        if policy is BusPolicy.DDB:
            timing = timing.with_ddb_windows()
    base = vsb()
    system = MemorySystem(base)
    mapping_cfg = replace(base.mapping().config, subbank_low=subbank_low)
    system.mapping = AddressMapping(mapping_cfg, layout)
    system.controllers = [
        ChannelController(Channel(
            timing, policy, base.bank_groups, base.banks_per_group,
            BankGeometry(subbanks=2, row_bits=layout.row_bits),
            row_layout=layout, ewlr=ewlr, rap=rap))
        for _ in range(base.channels)
    ]
    cores = [TraceCore(t, core_id=i) for i, t in enumerate(traces)]
    return Simulator(system, cores).run()


def test_ablation_plane_placement(benchmark, sweep_settings):
    """EWLR-alone should collect its hits only with LSB plane bits
    (mapping 2 of Fig. 9); with RAP the MSB placement is the useful one."""
    traces = mix0_traces(sweep_settings)

    def sweep():
        out = {}
        for rap in (False, True):
            for placement in (PlanePlacement.LSB, PlanePlacement.MSB):
                layout = RowLayout(row_bits=16, plane_count=4,
                                   plane_placement=placement,
                                   ewlr_bits=3)
                res = run_custom_vsb(traces, layout, ewlr=True, rap=rap)
                out[f"rap={rap},plane={placement.value}"] = res
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header("Ablation: plane-ID bit placement (mix0)")
    for name, res in results.items():
        print(f"{name:26s} ipc={sum(res.ipcs):6.3f} "
              f"planepre={res.plane_conflict_precharge_fraction:5.3f} "
              f"ewlr_hits={res.ewlr_hit_rate:5.3f}")
    lsb = results["rap=False,plane=lsb"].ewlr_hit_rate
    msb = results["rap=False,plane=msb"].ewlr_hit_rate
    assert lsb >= msb


def test_ablation_subbank_bit_position(benchmark, sweep_settings):
    """Fig. 9 puts the sub-bank ID among low (frequently-changing)
    bits; parking it high starves one sub-bank of traffic."""
    traces = mix0_traces(sweep_settings)
    layout = EruConfig.full(4).row_layout()

    def sweep():
        return {
            f"subbank_low={low}": run_custom_vsb(
                traces, layout, ewlr=True, rap=True, subbank_low=low)
            for low in (True, False)
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header("Ablation: sub-bank ID bit position (mix0)")
    for name, res in results.items():
        print(f"{name:20s} ipc={sum(res.ipcs):6.3f}")
    assert all(sum(r.ipcs) > 0 for r in results.values())


def test_ablation_write_drain_watermarks(benchmark, sweep_settings):
    traces = mix0_traces(sweep_settings)

    def sweep():
        out = {}
        for high, low in ((24, 8), (31, 30), (9, 8)):
            config = replace(
                ddr4_baseline(),
                queue=QueueConfig(drain_high=high, drain_low=low),
                name=f"drain {high}/{low}")
            out[config.name] = run(config, traces)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header("Ablation: write-drain watermarks (DDR4, mix0)")
    for name, (ipc, _) in results.items():
        print(f"{name:16s} ipc={ipc:6.3f}")
    default = results["drain 24/8"][0]
    assert default > 0.8 * max(v for v, _ in results.values())


def test_ablation_page_policy(benchmark, sweep_settings):
    """Pure open page vs adaptive idle-close at several thresholds."""
    traces = mix0_traces(sweep_settings)

    def sweep():
        out = {}
        for label, idle in (("open page", None),
                            ("close@100ns", 100_000),
                            ("close@400ns", 400_000),
                            ("close@1600ns", 1_600_000)):
            config = replace(ddr4_baseline(), idle_close_ps=idle,
                             name=label)
            out[label] = run(config, traces)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header("Ablation: page policy (DDR4, mix0)")
    for name, (ipc, res) in results.items():
        from repro.dram.commands import PrechargeCause
        policy = res.precharge_causes[PrechargeCause.POLICY]
        conflict = res.precharge_causes[PrechargeCause.ROW_CONFLICT]
        print(f"{name:14s} ipc={ipc:6.3f} policy_pre={policy:5d} "
              f"conflict_pre={conflict:5d}")
    values = [v for v, _ in results.values()]
    assert max(values) / min(values) < 1.3  # policies are in one league


def test_ablation_ddb_windows(benchmark, sweep_settings):
    """At 2.4 GHz the tTCW/tTWTRW windows bind; disabling them bounds
    what the DDB hardware could do without the conflict guard."""
    traces = mix0_traces(sweep_settings)
    layout = EruConfig.full(4).row_layout()
    fast = ddr4_timings(2.4e9)

    def sweep():
        return {
            "tTCW on": run_custom_vsb(
                traces, layout, ewlr=True, rap=True,
                timing=fast.with_ddb_windows()),
            "tTCW off": run_custom_vsb(
                traces, layout, ewlr=True, rap=True, timing=fast),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header("Ablation: DDB two-command windows at 2.4 GHz (mix0)")
    for name, res in results.items():
        print(f"{name:10s} ipc={sum(res.ipcs):6.3f}")
    on = sum(results["tTCW on"].ipcs)
    off = sum(results["tTCW off"].ipcs)
    # The guard costs a little but must not be catastrophic.
    assert on <= off * 1.02
    assert on >= off * 0.85
