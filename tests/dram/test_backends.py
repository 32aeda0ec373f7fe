"""Tests for the pluggable memory-technology backends.

The ``dram`` backend's rule table is the only definition of the DDR4
timings, so two pins hold it: every resolved field, written out by hand
below at six bus frequencies, and the behaviour digests of every
``dram`` preset (``tests/data/pre_backend_digests.json``, computed by
:func:`tests.pins.pre_backend_digests`; all but the no-DDB paired bank
were captured before the backends existed).  GDDR5 must survive the
same round-trips (frequency scaling, digest stability, the reference
and incremental scheduler paths) as DDR4.
"""

from dataclasses import asdict, replace

import pytest

from repro.dram.backends import (
    MemoryTechBackend,
    backend_names,
    get_backend,
)
from repro.sim import config as cfgs
from repro.sim.simulator import run_traces
from repro.workloads.mixes import mix_traces
from tests import pins

GOLDEN = "pre_backend_digests.json"


class TestRegistry:
    def test_ships_dram_and_gddr5(self):
        assert set(backend_names()) == {"dram", "gddr5"}

    def test_unknown_backend_raises_with_known_list(self):
        for name in ("sram", "pcm_palp"):
            with pytest.raises(ValueError, match="dram, gddr5"):
                get_backend(name)
            with pytest.raises(ValueError, match="dram, gddr5"):
                replace(cfgs.ddr4_baseline(), backend=name)

    def test_backends_are_frozen_data(self):
        tech = get_backend("dram")
        assert isinstance(tech, MemoryTechBackend)
        with pytest.raises(AttributeError):
            tech.burst_length = 16


#: Every field of the DDR4 table at 1.333 GHz (Tab. III), in ps.
DDR4_1333 = dict(
    tCK=750, tRCD=13500, tRP=13500, tRAS=32000, tRC=45500, tCL=13500,
    tCWL=10500, tCCD_S=3000, tCCD_L=5000, tWTR_S=2500, tWTR_L=7500,
    tRRD=3000, tWR=15000, tRTP=7500, burst_length=8, tFAW=25000,
    tTCW=0, tTWTRW=0, tRFC=0, tREFI=0, tRFCpb=0)

#: The only fields that move with the bus clock, in ps: tCK, tCWL
#: (CAS minus four clocks), and tCCD_S and tRRD (four clocks each).
DDR4_BUS_FIELDS = {
    1.333e9: (750, 10500, 3000, 3000),
    1.6e9: (625, 11000, 2500, 2500),
    2.0e9: (500, 11500, 2000, 2000),
    2.4e9: (417, 11832, 1668, 1668),
    2.5e9: (400, 11900, 1600, 1600),
    1.45e9: (690, 10740, 2760, 2760),
}


class TestDramTableMatchesHandWrittenModel:
    @pytest.mark.parametrize("freq", list(DDR4_BUS_FIELDS))
    def test_resolved_timings_identical(self, freq):
        expected = dict(DDR4_1333, **dict(zip(
            ("tCK", "tCWL", "tCCD_S", "tRRD"), DDR4_BUS_FIELDS[freq])))
        assert asdict(get_backend("dram").timings(freq)) == expected


class TestGoldenDigests:
    """The `dram` backend is digest-identical to the pre-refactor
    machine on every ``dram`` preset captured before the refactor (all
    but the no-DDB paired bank), plus refresh variants, on both
    scheduler paths."""

    def test_all_presets_match_pre_refactor_digests(self):
        assert pins.drift(pins.load(GOLDEN),
                          pins.pre_backend_digests()) == {}

    # The full sweep above runs the default (incremental) path; this
    # adds the reference path on one flat and one sub-banked config.
    @pytest.mark.parametrize("incremental", [False], ids=["reference"])
    def test_scheduler_paths_match_golden(self, incremental):
        golden = pins.load(GOLDEN)["digests"]
        configs = pins.pre_backend_configs()
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
    def test_gddr5_refresh_grade(self):
        tech = get_backend("gddr5")
        assert tech.refresh_overrides("8Gb") == {
            "tRFC": 110_000, "tREFI": 1_900_000, "tRFCpb": 60_000}
        with pytest.raises(ValueError, match="16Gb"):
            replace(cfgs.gddr5(), refresh_density="16Gb")

    def test_gddr5_native_timings(self):
        t = cfgs.gddr5().timing()
        assert t.tCK == 400
        assert t.tCL == 15_000
        assert t.tCCD_S == 1_600
