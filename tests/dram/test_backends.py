"""Tests for the pluggable memory-technology backends.

The heart of the refactor's acceptance: the ``dram`` backend's rule
table must resolve *byte-identically* to the hand-written DDR4 model it
replaced (golden digests in ``tests/data/pre_backend_digests.json``,
computed by :func:`tests.pins.pre_backend_digests`, on every ``dram``
preset and both scheduler paths), and the new technologies must survive
the same round-trips (frequency scaling, digest stability, the
reference and incremental scheduler paths) as DDR4.
"""

from dataclasses import replace

import pytest

from repro.dram.backends import (
    MemoryTechBackend,
    backend_names,
    get_backend,
)
from repro.dram.timing import ddr4_timings
from repro.sim import config as cfgs
from repro.sim.simulator import run_traces
from repro.workloads.mixes import mix_traces
from tests import pins

GOLDEN = "pre_backend_digests.json"


class TestRegistry:
    def test_ships_three_backends(self):
        assert set(backend_names()) >= {"dram", "pcm_palp", "gddr5"}

    def test_unknown_backend_raises_with_known_list(self):
        with pytest.raises(ValueError, match="dram"):
            get_backend("sram")

    def test_backends_are_frozen_data(self):
        tech = get_backend("dram")
        assert isinstance(tech, MemoryTechBackend)
        with pytest.raises(AttributeError):
            tech.burst_length = 16


class TestDramTableMatchesHandWrittenModel:
    @pytest.mark.parametrize("freq", [1.333e9, 1.6e9, 2.0e9, 2.4e9,
                                      2.5e9, 1.45e9])
    def test_resolved_timings_identical(self, freq):
        assert get_backend("dram").timings(freq) == ddr4_timings(freq)


class TestGoldenDigests:
    """The `dram` backend is digest-identical to the pre-refactor
    machine on every ``dram`` preset captured before the refactor (all
    but the no-DDB paired bank), plus refresh variants, on both
    scheduler paths."""

    def test_all_presets_match_pre_refactor_digests(self):
        assert pins.drift(pins.load(GOLDEN),
                          pins.pre_backend_digests()) == {}

    @pytest.mark.parametrize("incremental", [False, True],
                             ids=["reference", "incremental"])
    def test_scheduler_paths_match_golden(self, incremental):
        golden = pins.load(GOLDEN)["digests"]
        configs = pins.pre_backend_configs()
        # One flat and one sub-banked config per scheduler path keeps
        # the matrix fast; the full sweep runs above.
        for index in (0, 7):
            config = replace(configs[index], incremental=incremental)
            assert pins.golden_digest(config) == golden[index][1]


NEW_TECH_PRESETS = [c for c in cfgs.all_presets() if c.backend != "dram"]


class TestNewTechnologyRoundTrips:
    @pytest.mark.parametrize("config", NEW_TECH_PRESETS,
                             ids=[c.name for c in NEW_TECH_PRESETS])
    def test_at_frequency_round_trip(self, config):
        scaled = config.at_frequency(1.6e9)
        assert scaled.backend == config.backend
        assert scaled.timing().tCK == 625
        # Back at the native frequency the timings are reproduced.
        back = scaled.at_frequency(config.bus_frequency_hz)
        assert back.timing() == config.timing()

    @pytest.mark.parametrize("config", NEW_TECH_PRESETS,
                             ids=[c.name for c in NEW_TECH_PRESETS])
    def test_digest_serialization(self, config):
        digest = config.digest()
        assert digest == config.digest()  # stable
        assert digest == replace(config, name="renamed").digest()
        assert digest == replace(config, record_commands=True,
                                 incremental=False).digest()
        assert digest != config.at_frequency(1.6e9).digest()
        assert digest != cfgs.ddr4_baseline().digest()

    @pytest.mark.parametrize("config", NEW_TECH_PRESETS,
                             ids=[c.name for c in NEW_TECH_PRESETS])
    def test_scheduler_paths_identical(self, config):
        traces = mix_traces("mix0", 200, seed=11)
        digests = {run_traces(replace(config, incremental=incremental),
                              traces).digest()
                   for incremental in (False, True)}
        assert len(digests) == 1


class TestBackendSemantics:
    def test_pcm_has_no_refresh(self):
        tech = get_backend("pcm_palp")
        assert not tech.refresh_capable
        with pytest.raises(ValueError, match="refresh"):
            tech.refresh_overrides("8Gb")
        with pytest.raises(ValueError, match="refresh"):
            replace(cfgs.pcm_palp(), refresh_density="8Gb")
        with pytest.raises(ValueError, match="refresh"):
            replace(cfgs.pcm_palp(), refresh_ns=350.0)

    def test_pcm_asymmetric_trcd(self):
        t = cfgs.pcm_palp().timing()
        assert t.tRCD == 48_000
        assert t.trcd_wr == 12_000
        assert t.write_pulse_enabled and t.tWRP == 150_000
        assert t.tWCT == 7_500 >= t.tWR

    def test_gddr5_refresh_grade(self):
        tech = get_backend("gddr5")
        assert tech.refresh_capable
        assert tech.refresh_overrides("8Gb") == {
            "tRFC": 110_000, "tREFI": 1_900_000, "tRFCpb": 60_000}
        with pytest.raises(ValueError, match="16Gb"):
            replace(cfgs.gddr5(), refresh_density="16Gb")

    def test_gddr5_native_timings(self):
        t = cfgs.gddr5().timing()
        assert t.tCK == 400
        assert t.tCL == 15_000
        assert t.tCCD_S == 1_600

    def test_dram_presets_have_no_pcm_state(self):
        t = cfgs.ddr4_baseline().timing()
        assert t.tRCD_WR == 0 and t.trcd_wr == t.tRCD
        assert not t.write_pulse_enabled
