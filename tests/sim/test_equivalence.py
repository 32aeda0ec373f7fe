"""Golden-digest equivalence of the two scheduler selection paths.

The incremental scheduler must be *bit-identical* to the reference
(rebuild-from-scratch) path on every configuration preset: same command
stream (kind, time, bank, slot of every issued command) and same
architectural results (IPCs, latencies, energy -- everything
:meth:`SimulationResult.digest` hashes).  Any divergence means a stale
cache or a broken tie-break, not a tolerable approximation.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.core.mechanisms import EruConfig
from repro.cpu.core import CoreConfig, TraceCore
from repro.dram.validation import validate_log
from repro.sim import config as cfgs
from repro.sim.simulator import MemorySystem, Simulator
from repro.workloads.mixes import mix_traces

#: The shared preset corpus (every experiment organisation plus stress
#: variants); lives in :mod:`repro.sim.config` so the differential
#: fuzzer (``tools/fuzz_schedules.py``) draws from the same list.
PRESETS = cfgs.all_presets()

#: The ablation arms no preset covers: each sets one ablation field of
#: :class:`EruConfig` away from what every preset uses.
ABLATION_ARMS = {
    "ewlr-plane-msb": cfgs.vsb(EruConfig(rap=False,
                                         plane_placement="msb")),
    "ewlr-rap-plane-lsb": cfgs.vsb(EruConfig(plane_placement="lsb")),
    "subbank-high": cfgs.vsb(EruConfig(subbank_low=False)),
    "ddb-no-windows": cfgs.vsb(
        EruConfig(ddb_windows=False)).at_frequency(2.4e9),
}


def command_stream_hash(system: MemorySystem) -> str:
    """Hash of every issued command across all channels, in issue order."""
    h = hashlib.sha256()
    for controller in system.controllers:
        log = controller.channel.command_log
        assert log is not None, "config must set record_commands"
        for rec in log:
            h.update(f"{rec.kind},{rec.time},{rec.bank},{rec.bank_group},"
                     f"{rec.slot},{rec.row};".encode())
    return h.hexdigest()


def run_with_mode(config, traces, incremental: bool):
    """One full simulation under the given scheduler path, selected by
    ``SystemConfig.incremental`` -- the one switch, which the
    differential fuzzer flips too."""
    system = MemorySystem(replace(config, record_commands=True,
                                  incremental=incremental))
    cores = [TraceCore(t, CoreConfig(), core_id=i)
             for i, t in enumerate(traces)]
    result = Simulator(system, cores).run()
    return result, command_stream_hash(system), system


@pytest.mark.parametrize("config", PRESETS,
                         ids=[c.name for c in PRESETS])
def test_incremental_matches_reference(config):
    traces = mix_traces("mix0", 250)
    ref, ref_cmds, _ = run_with_mode(config, traces, incremental=False)
    inc, inc_cmds, _ = run_with_mode(config, traces, incremental=True)
    assert inc_cmds == ref_cmds, "command streams diverge"
    assert inc.digest() == ref.digest(), "architectural results diverge"


@pytest.mark.parametrize("config", ABLATION_ARMS.values(),
                         ids=ABLATION_ARMS.keys())
def test_ablation_arm_matches_reference_and_validates(config):
    """Both paths agree on each ablation arm, and the schedule passes
    the independent timing validator."""
    traces = mix_traces("mix0", 250)
    ref, ref_cmds, _ = run_with_mode(config, traces, incremental=False)
    inc, inc_cmds, system = run_with_mode(config, traces,
                                          incremental=True)
    assert inc_cmds == ref_cmds, "command streams diverge"
    assert inc.digest() == ref.digest(), "architectural results diverge"
    for controller in system.controllers:
        assert validate_log(controller.channel.command_log,
                            config.timing(), config.bus_policy) > 0


def test_incremental_is_the_default():
    """The optimisation must actually be on in normal runs: every
    preset builds its schedulers on the incremental path."""
    for config in PRESETS:
        system = MemorySystem(config)
        assert all(c.scheduler.incremental is True
                   for c in system.controllers), config.name


def test_perf_counters_show_cache_reuse():
    """peeks should far exceed candidate builds when caching works."""
    traces = mix_traces("mix0", 400)
    inc, _, _ = run_with_mode(cfgs.vsb(), traces, incremental=True)
    ref, _, _ = run_with_mode(cfgs.vsb(), traces, incremental=False)
    assert inc.stats.peeks == ref.stats.peeks
    # The reference path rebuilds every candidate on every peek; the
    # incremental path only rebuilds dirty banks.
    assert inc.stats.candidates_built < ref.stats.candidates_built / 2
