"""Tests for the system-configuration presets."""

import pytest

from repro.core.mechanisms import EruConfig
from repro.dram.resources import BusPolicy
from repro.sim.config import (
    Organization,
    SystemConfig,
    bg32,
    ddr4_baseline,
    gddr5,
    half_dram,
    ideal32,
    masa,
    masa_eruca,
    paired_bank,
    pcm_palp,
    vsb,
)


class TestStoreIdentity:
    """Config digests key the result store (with ``CACHE_VERSION``), so
    a digest that moves orphans every stored entry of that config.  One
    preset per memory technology is pinned to a literal value."""

    @pytest.mark.parametrize("factory,digest", [
        (ddr4_baseline,
         "60e66a55a11548b2f56752e375611f55cb640fcd0231756f17cf5a06f6944e7a"),
        (pcm_palp,
         "7d058078c30e0a1a3fd4802a7f4135a5a268066ff00b8993f5b935942e5c7c81"),
        (gddr5,
         "56379c125360d7f858d21e1e4c16fd93c6ef3a6289e759332343cf1c2f142652"),
    ], ids=["dram", "pcm_palp", "gddr5"])
    def test_config_digest_is_pinned(self, factory, digest):
        assert factory().digest() == digest

    def test_cache_version_is_pinned(self):
        from repro.sim.store import CACHE_VERSION
        assert CACHE_VERSION == 4


class TestBaseline:
    def test_tab3_geometry(self):
        c = ddr4_baseline()
        assert c.bank_groups == 4
        assert c.banks_per_group == 4
        assert c.channels == 2
        assert not c.subbanked
        assert c.bus_policy is BusPolicy.BANK_GROUPS

    def test_17_bit_rows(self):
        assert ddr4_baseline().row_bits == 17

    def test_timing_at_default_frequency(self):
        t = ddr4_baseline().timing()
        assert t.tCK == 750
        assert t.tTCW == 0


class TestScaledOrganisations:
    def test_bg32_doubles_groups(self):
        c = bg32()
        assert c.bank_groups == 8
        assert c.bus_policy is BusPolicy.BANK_GROUPS

    def test_ideal32_has_no_groups(self):
        assert ideal32().bus_policy is BusPolicy.NO_GROUPS

    def test_capacity_constant_across_organisations(self):
        configs = [ddr4_baseline(), bg32(), ideal32(), vsb(),
                   paired_bank(), half_dram(), masa(8), masa_eruca(8)]
        capacities = {c.mapping().config.capacity_bytes for c in configs}
        assert len(capacities) == 1


class TestVsb:
    def test_default_is_full_eruca(self):
        c = vsb()
        assert c.eru.ewlr and c.eru.rap and c.eru.ddb
        assert c.bus_policy is BusPolicy.DDB
        assert c.subbanked
        assert c.row_bits == 16

    def test_ddb_windows_in_timing(self):
        t = vsb().timing()
        assert t.tTCW > 0

    def test_naive_uses_bank_groups(self):
        c = vsb(EruConfig.naive(4))
        assert c.bus_policy is BusPolicy.BANK_GROUPS

    def test_geometry_has_two_subbanks(self):
        geo = vsb().bank_geometry()
        assert geo.subbanks == 2
        assert geo.subarray_groups == 1


class TestPairedBank:
    def test_halves_banks(self):
        c = paired_bank()
        assert c.banks_per_group == 2
        assert c.row_bits == 17  # sub-bank ID comes from a bank bit

    def test_eru_layout_follows_row_bits(self):
        c = paired_bank()
        assert c.eru.row_layout().row_bits == 17


class TestPriorWork:
    def test_masa_groups(self):
        c = masa(8)
        assert c.bank_geometry().subarray_groups == 8
        assert c.bank_geometry().tSA > 0
        assert not c.subbanked

    def test_half_dram_is_one_plane_naive(self):
        c = half_dram()
        assert c.eru.planes == 1
        assert not c.eru.ewlr and not c.eru.rap and not c.eru.ddb
        assert c.energy.act_scale == 0.5

    def test_masa_eruca_combines_both(self):
        c = masa_eruca(8)
        geo = c.bank_geometry()
        assert geo.subbanks == 2
        assert geo.subarray_groups == 8
        assert c.bus_policy is BusPolicy.DDB

    def test_masa_eruca_no_ddb_name(self):
        assert "no DDB" in masa_eruca(8, ddb=False).name


class TestFrequencyScaling:
    def test_at_frequency_changes_tck(self):
        c = vsb().at_frequency(2.4e9)
        assert c.timing().tCK < vsb().timing().tCK

    def test_at_frequency_renames(self):
        assert "2.40GHz" in vsb().at_frequency(2.4e9).name

    def test_ddb_windows_activate_at_high_frequency(self):
        from repro.sim.simulator import MemorySystem
        system = MemorySystem(vsb().at_frequency(2.4e9))
        assert system.controllers[0].channel.resources.windows_active

    def test_ddb_windows_inactive_at_baseline(self):
        from repro.sim.simulator import MemorySystem
        system = MemorySystem(vsb())
        assert not system.controllers[0].channel.resources.windows_active


class TestMappingLayouts:
    def test_vsb_mapping_has_subbank_bit(self):
        m = vsb().mapping()
        assert m.config.subbanks == 2

    def test_vsb_plane_layout_attached(self):
        m = vsb().mapping()
        assert m.row_layout.plane_count == 4
        assert m.row_layout.ewlr_bits == 3

    def test_baseline_mapping_flat(self):
        m = ddr4_baseline().mapping()
        assert m.config.subbanks == 1
        assert m.row_layout.plane_count == 1


class TestSarpDegradationSurfaced:
    def test_warns_and_records_on_flat_banks(self):
        import warnings
        from dataclasses import replace

        with pytest.warns(UserWarning, match="degrades"):
            config = replace(ddr4_baseline(), refresh_density="8Gb",
                             refresh_policy="sarp")
        assert config.refresh_policy == "sarp"
        assert config.effective_refresh_policy == "darp"

    def test_subbanked_sarp_is_silent_and_effective(self):
        import warnings
        from dataclasses import replace

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = replace(vsb(), refresh_density="8Gb",
                             refresh_policy="sarp")
        assert config.effective_refresh_policy == "sarp"

    def test_no_warning_without_refresh(self):
        import warnings
        from dataclasses import replace

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = replace(ddr4_baseline(), refresh_policy="sarp")
        # Recorded as degraded either way -- the scheduler would apply
        # darp if refresh were later enabled at this geometry.
        assert config.effective_refresh_policy == "darp"

    def test_sidecar_records_effective_policy(self, tmp_path):
        from dataclasses import replace

        from repro.sim.experiments import (
            ExperimentContext,
            ExperimentSettings,
            emit_stats_sidecars,
        )
        import json as _json

        settings = ExperimentSettings(accesses_per_core=200,
                                      mixes=("mix0",))
        context = ExperimentContext(settings, disk_cache=False,
                                    observe=True)
        with pytest.warns(UserWarning, match="degrades"):
            config = replace(ddr4_baseline(), refresh_density="8Gb",
                             refresh_policy="sarp")
        context.run(config, "mix0")
        (path,) = emit_stats_sidecars(context, str(tmp_path))
        with open(path) as fh:
            payload = _json.load(fh)
        assert payload["system"]["refresh_policy"] == "sarp"
        assert payload["system"]["effective_refresh_policy"] == "darp"
        assert payload["system"]["backend"] == "dram"
