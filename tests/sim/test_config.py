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
    vsb,
)


class TestStoreIdentity:
    """Config digests key the result store (with ``CACHE_VERSION``), so
    a digest that moves orphans every stored entry of that config.  One
    preset per memory technology, plus the two sub-banked organisations
    whose :class:`EruConfig` enters the digest, is pinned to a literal
    value."""

    @pytest.mark.parametrize("factory,digest", [
        (ddr4_baseline,
         "60e66a55a11548b2f56752e375611f55cb640fcd0231756f17cf5a06f6944e7a"),
        (gddr5,
         "56379c125360d7f858d21e1e4c16fd93c6ef3a6289e759332343cf1c2f142652"),
        (vsb,
         "8eaabb00219f0e2c84d392b9407e924d5b00ba54b7a07a0c0dfa234dd4897747"),
        (paired_bank,
         "0f055f6caae34135cb817d357bef8a44afe94fc20a0e6d5550e71400eda73b02"),
    ], ids=["dram", "gddr5", "vsb", "paired_bank"])
    def test_config_digest_is_pinned(self, factory, digest):
        assert factory().digest() == digest

    @pytest.mark.parametrize("field,value", [
        ("plane_placement", "lsb"),
        ("subbank_low", False),
        ("ddb_windows", False),
    ])
    def test_ablation_field_off_default_moves_the_digest(self, field,
                                                         value):
        """An ablation arm must never be served a figure cell's entry."""
        from dataclasses import replace
        base = vsb()
        arm = replace(base, eru=replace(base.eru, **{field: value}))
        assert arm.digest() != base.digest()

    def test_memoised_digest_keeps_equality_and_follows_replace(self):
        """The digest memo is not a field: a digested config equals and
        hashes like a fresh one, and ``replace`` digests its result
        afresh."""
        from dataclasses import replace
        memoised = vsb()
        digest = memoised.digest()
        fresh = vsb()
        assert memoised == fresh and hash(memoised) == hash(fresh)
        changed = replace(memoised, channels=4)
        assert changed.digest() != digest
        assert changed.digest() == replace(fresh, channels=4).digest()
        assert fresh.digest() == digest

    def test_hash_is_the_digest_hash_across_replace_and_spawn(self):
        """Equal configs hash equal however they were made: rebuilt by
        ``replace``, or unpickled (digest memo and all) in a fresh
        ``spawn`` interpreter, whose string hashes differ from this
        one's.  No hash value is stored, so none crosses the pickle."""
        import multiprocessing
        from dataclasses import replace
        config = vsb()
        config.digest()
        rebuilt = replace(config, channels=config.channels)
        assert rebuilt == config and hash(rebuilt) == hash(config)
        assert hash(config) == hash(config.digest())
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            checks = pool.apply_async(_rebuilt_here, (config,)).get(
                timeout=120)
        assert checks == (True, True, True)

    def test_cache_version_is_pinned(self):
        from repro.sim.store import CACHE_VERSION
        assert CACHE_VERSION == 9

    @pytest.mark.parametrize("factory,workload,frag,seed,scale,key", [
        (vsb, dict(mix="mix0"), 0.1, 3, 1.0,
         "0955dba8f9c8543859682011eb361da640d052ea86b7b2912d11a6674b1da184"),
        (ddr4_baseline, dict(benchmark="mcf"), 0.5, 1, 1.8,
         "e9a9da6cd6a4cae142e5bcb410114e7f5d4d8dddf6aa7504244f5c0ce022a6d0"),
    ], ids=["vsb_mix", "baseline_alone_scaled_core"])
    def test_store_key_is_pinned(self, factory, workload, frag, seed,
                                 scale, key):
        """A moved key orphans every stored entry, so the key
        derivation is pinned byte for byte: a fresh config and core
        config, the same pair with its key prefix built, and a fresh
        config with that core config, all give the literal."""
        from repro.cpu.core import CoreConfig
        from repro.sim.store import store_key
        core = CoreConfig().scaled(scale)
        config = factory()
        for candidate in (config, config, factory()):
            assert store_key(candidate, accesses=400, fragmentation=frag,
                             seed=seed, core_config=core,
                             **workload) == key

    def test_core_key_payload_memo_is_not_a_field(self):
        """The memoised core key payload and its text leave equality,
        hashing, ``replace`` and pickling as they were."""
        import pickle
        from dataclasses import replace
        from repro.cpu.core import CoreConfig
        memoised = CoreConfig()
        payload = memoised.key_payload()
        assert payload == {"clock_hz": 4e9, "issue_width": 8,
                           "rob_size": 192}
        assert memoised.key_payload() is payload
        text = memoised.key_text()
        assert text == \
            '{"clock_hz":4000000000.0,"issue_width":8,"rob_size":192}'
        assert memoised.key_text() is text
        fresh = CoreConfig()
        assert memoised == fresh and hash(memoised) == hash(fresh)
        assert replace(memoised, rob_size=64).key_payload()["rob_size"] \
            == 64
        assert pickle.loads(pickle.dumps(memoised)) == fresh


def test_ddr4_energy_is_the_dram_backends(monkeypatch):
    """The ``dram`` backend's power model is the only DDR4 copy: the
    DDR4 presets take it, and Half-DRAM scales its activations."""
    from dataclasses import replace
    from repro.dram.backends import base
    dram = base.get_backend("dram")
    edited = replace(dram, energy=replace(dram.energy, act_nj=12.5))
    monkeypatch.setitem(base._REGISTRY, "dram", edited)
    assert ddr4_baseline().energy == edited.energy
    assert vsb().energy.act_nj == 12.5
    assert half_dram().energy == replace(edited.energy, act_scale=0.5)


def _rebuilt_here(config):
    """(equal, equal hash, equal cell-key hash) against a config built
    in this process."""
    from repro.cpu.core import CoreConfig
    from repro.sim.specs import CellKey
    fresh = vsb()

    def cell(c):
        return CellKey("mix", c, "mix0", 100, 0.1, 0, CoreConfig())

    return (config == fresh, hash(config) == hash(fresh),
            {cell(fresh): 1}.get(cell(config)) == 1)


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


class TestAblationFields:
    """The three :class:`EruConfig` ablation fields reach the system."""

    def test_plane_placement_overrides_fig9(self):
        from repro.controller.mapping import PlanePlacement
        eru = EruConfig(plane_placement="lsb")  # JSON name accepted
        assert eru.plane_placement is PlanePlacement.LSB
        layout = vsb(eru).mapping().row_layout
        assert layout.plane_placement is PlanePlacement.LSB
        with pytest.raises(ValueError):
            EruConfig(plane_placement="middle")

    def test_subbank_low_reaches_the_mapping(self):
        assert vsb().mapping().config.subbank_low
        mapping = vsb(EruConfig(subbank_low=False)).mapping()
        assert not mapping.config.subbank_low

    def test_ddb_windows_off_drops_the_guard(self):
        t = vsb(EruConfig(ddb_windows=False)).timing()
        assert t.tTCW == 0 and t.tTWTRW == 0


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


class TestRefreshPolicyChecked:
    """A misspelt ``refresh_policy`` fails where the config is built.
    With refresh off no scheduler reads the policy, yet it still enters
    the digest, so the typo would take separate store entries."""

    @pytest.mark.parametrize("refresh", [{}, {"refresh_density": "8Gb"}],
                             ids=["refresh_off", "refresh_on"])
    def test_unknown_policy_raises_at_construction(self, refresh):
        from dataclasses import replace
        with pytest.raises(ValueError,
                           match="'darpp'; known: baseline, darp, sarp"):
            replace(vsb(), refresh_policy="darpp", **refresh)


class TestSarpDegradationSurfaced:
    """``sarp`` overlaps a sub-bank's refresh with its partner's
    accesses.  A flat bank has no partner, so instead of running
    ``darp`` under the ``sarp`` name the config refuses to build, with
    refresh on or off (the policy enters the digest either way)."""

    @pytest.mark.parametrize("refresh", [{}, {"refresh_density": "8Gb"}],
                             ids=["refresh_off", "refresh_on"])
    def test_raises_on_flat_banks(self, refresh):
        from dataclasses import replace
        for flat in (ddr4_baseline(), masa(8)):
            with pytest.raises(ValueError, match="'sarp' needs sub-banks"):
                replace(flat, refresh_policy="sarp", **refresh)

    def test_subbanked_sarp_is_silent_and_effective(self):
        import warnings
        from dataclasses import replace

        from repro.sim.simulator import MemorySystem

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = replace(vsb(), refresh_density="8Gb",
                             refresh_policy="sarp")
        refresh = MemorySystem(config).controllers[0].scheduler.refresh
        assert refresh.policy == "sarp"
        assert {sb for _, sb in refresh.scopes} == {0, 1}

    def test_sidecar_records_the_policy(self, tmp_path):
        import json as _json

        from repro.sim.experiments import emit_stats_sidecars
        from repro.sim.runner import run_spec
        from repro.sim.specs import ConfigSpec, ExperimentSpec
        from repro.sim.store import ResultStore

        spec = ExperimentSpec(
            name="sarp", mixes=("mix0",), accesses_per_core=200,
            include_alone=False, observe=True,
            configs=(ConfigSpec("vsb", overrides=(
                ("refresh_density", "8Gb"), ("refresh_policy", "sarp"))),))
        rs, _ = run_spec(spec, store=ResultStore(str(tmp_path)))
        (path,) = emit_stats_sidecars(rs, str(tmp_path / "sidecars"))
        with open(path) as fh:
            payload = _json.load(fh)
        assert payload["system"] == {"backend": "dram",
                                     "refresh_policy": "sarp"}
