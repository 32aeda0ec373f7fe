"""Declarative specs: digests, JSON round-trips, expansion.

A spec's digest must be a function of its *factors*, not of how the
JSON happened to be keyed or which builder produced it, and expansion
must be deterministic and duplicate-free -- the runner's resume
guarantee rests on both.
"""

import json

import pytest

from repro.controller.queue import QueueConfig
from repro.core.mechanisms import EruConfig
from repro.cpu.core import CoreConfig
from repro.sim import config as cfgs
from repro.sim.specs import (
    NAMED_SPECS,
    ConfigSpec,
    ExperimentSettings,
    ExperimentSpec,
    fig12_spec,
    fig13_spec,
    fig14_spec,
    load_spec,
    resolve_spec,
)

SETTINGS = ExperimentSettings(accesses_per_core=300,
                              mixes=("mix0", "mix3"))


def test_digest_stable_across_dict_key_ordering():
    spec = fig12_spec(SETTINGS)
    data = spec.to_dict()
    # Re-serialise with reversed key order at every level: the same
    # factors written differently must parse to the same digest.
    shuffled = json.loads(json.dumps(data, sort_keys=True))
    reversed_text = json.dumps(
        {k: shuffled[k] for k in sorted(shuffled, reverse=True)})
    assert ExperimentSpec.from_json(reversed_text).digest() == \
        spec.digest()


def test_to_config_builds_one_config_per_spec():
    """A spec keeps the config it built: every call, and so every cell
    of every expansion, holds the same object, while an equal spec
    builds its own equal one."""
    cs = ConfigSpec("vsb", mechanism=EruConfig.full(4))
    assert cs.to_config() is cs.to_config()
    twin = ConfigSpec("vsb", mechanism=EruConfig.full(4))
    assert twin == cs and twin.to_config() == cs.to_config()
    spec = fig12_spec(SETTINGS)
    configs = {id(cell.config) for cell in spec.expand() + spec.expand()}
    assert configs == {id(c.to_config())
                       for c in spec.configs + (spec.alone,)}


def test_json_round_trip_preserves_factors_and_cells():
    spec = fig14_spec(SETTINGS, frequencies=(1.333e9, 2.0e9))
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec
    assert again.digest() == spec.digest()
    assert again.expand() == spec.expand()


def test_load_spec_from_file(tmp_path):
    spec = fig12_spec(SETTINGS)
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    assert load_spec(str(path)).digest() == spec.digest()
    assert resolve_spec(str(path)).digest() == spec.digest()


def test_named_specs_resolve():
    for name in NAMED_SPECS:
        spec = resolve_spec(name, SETTINGS)
        assert spec.name == name
        assert spec.expand(), name


def test_expansion_is_deterministic_and_duplicate_free():
    spec = fig13_spec(SETTINGS, fragmentations=(0.1, 0.5),
                      planes=(2, 4))
    cells = spec.expand()
    assert cells == spec.expand()
    assert len(cells) == len(set(cells))
    # Repeated factor combinations collapse: doubling the config list
    # and the mix list adds no cells.
    fat = ExperimentSpec(name="fat", configs=spec.configs * 2,
                         mixes=spec.mixes * 2,
                         accesses_per_core=spec.accesses_per_core,
                         fragmentations=spec.fragmentations)
    assert len(fat.expand()) == len(
        ExperimentSpec(name="thin", configs=spec.configs,
                       mixes=spec.mixes,
                       accesses_per_core=spec.accesses_per_core,
                       fragmentations=spec.fragmentations).expand())


def test_alone_cells_precede_their_mix():
    cells = fig12_spec(SETTINGS).expand()
    first_mix = next(i for i, c in enumerate(cells)
                     if c.kind == "mix")
    assert all(c.kind == "alone" for c in cells[:first_mix])
    assert first_mix > 0


def test_config_spec_materializes_the_preset_exactly():
    assert ConfigSpec("ddr4_baseline").to_config() == \
        cfgs.ddr4_baseline()
    assert ConfigSpec("vsb", mechanism=EruConfig.full(4)).to_config() == \
        cfgs.vsb()
    assert ConfigSpec("masa", args=(8,)).to_config() == cfgs.masa(8)
    assert ConfigSpec("masa_eruca", args=(8,),
                      kwargs=(("ddb", False),)).to_config() == \
        cfgs.masa_eruca(8, ddb=False)


def test_overrides_set_fields_and_update_sub_fields():
    cs = ConfigSpec(overrides=(
        ("idle_close_ps", 400_000),
        ("queue", {"drain_high": 31, "drain_low": 30}),
        ("name", "drain 31/30")))
    config = cs.to_config()
    assert config.idle_close_ps == 400_000
    assert config.name == "drain 31/30"
    # Only the named sub-fields move; the depths keep their defaults.
    assert config.queue == QueueConfig(drain_high=31, drain_low=30)


def test_unknown_override_names_fail_with_one_line():
    for overrides in ((("refresh_densty", "8Gb"),),
                      (("queue", {"drain_hi": 31}),),
                      (("idle_close_ps", {"ps": 1}),),
                      (("queue", 31),),
                      (("organization", "vsbb"),)):
        with pytest.raises(ValueError) as err:
            ConfigSpec(overrides=overrides).to_config()
        assert "\n" not in str(err.value)
    with pytest.raises(ValueError, match="drain_hi"):
        ConfigSpec(overrides=(("queue", {"drain_hi": 31}),)).to_config()


def test_ablation_fields_round_trip_through_json():
    spec = NAMED_SPECS["ablation"](SETTINGS)
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec
    assert again.expand() == spec.expand()
    # Defaults stay out of the JSON, as they stay out of the digest.
    assert "subbank_low" not in json.dumps(fig12_spec(SETTINGS).to_dict())


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        ConfigSpec("no_such_preset").to_config()


def test_core_scale_factors_into_the_cells():
    spec = fig14_spec(SETTINGS, frequencies=(1.333e9, 2.0e9))
    base = CoreConfig()
    clocks = {c.core_config.clock_hz for c in spec.expand(base)
              if c.kind == "mix"}
    assert clocks == {base.clock_hz,
                      base.scaled(2.0e9 / 1.333e9).clock_hz}


# -- spec mistakes fail loudly ------------------------------------------------


def _spec_dict(**overrides):
    data = ExperimentSpec(name="s", configs=(ConfigSpec(),),
                          mixes=("mix0",)).to_dict()
    data.update(overrides)
    return data


def test_unknown_spec_keys_are_named():
    """Singular ``fragmentation``/``seed`` must not silently run at the
    defaults (0.1, seed 0)."""
    data = _spec_dict(fragmentation=[0.5], seed=[3])
    with pytest.raises(ValueError, match="'fragmentation', 'seed'"):
        ExperimentSpec.from_dict(data)


def test_unknown_config_keys_are_named():
    data = _spec_dict(configs=[{"preset": "vsb",
                                "refresh_densty": "16Gb"}])
    with pytest.raises(ValueError, match="refresh_densty"):
        ExperimentSpec.from_dict(data)
    with pytest.raises(ValueError, match="plains"):
        ConfigSpec.from_dict({"preset": "vsb",
                              "mechanism": {"plains": 4}})


def test_unknown_mixes_are_named():
    with pytest.raises(ValueError, match="mix99"):
        ExperimentSpec.from_dict(_spec_dict(mixes=["mix0", "mix99"]))


def test_unresolvable_spec_lists_the_named_specs(tmp_path):
    with pytest.raises(ValueError) as err:
        resolve_spec("fig99")
    assert all(name in str(err.value) for name in NAMED_SPECS)
    with pytest.raises(ValueError, match="neither"):
        resolve_spec(str(tmp_path / "missing.json"))


#: Builds Fig. 12's cells at seed 3, hashes every one (so each keeps
#: its hash memo) and writes them to stdout pickled.
_PICKLE_CELLS = """
import pickle, sys
from repro.sim.specs import ExperimentSettings, fig12_spec
cells = fig12_spec(ExperimentSettings(accesses_per_core=300, seed=3)).expand()
assert len({hash(cell) for cell in cells}) == len(cells)
sys.stdout.buffer.write(pickle.dumps(cells))
"""

#: Reads those cells back, builds the same cells here, and checks that
#: each pair is equal, hashes alike and finds the other in a dict.
_CHECK_CELLS = """
import pickle, sys
from repro.sim.specs import ExperimentSettings, fig12_spec
pickled = pickle.loads(sys.stdin.buffer.read())
cells = fig12_spec(ExperimentSettings(accesses_per_core=300, seed=3)).expand()
index = {cell: i for i, cell in enumerate(cells)}
assert pickled == cells
assert [hash(cell) for cell in pickled] == [hash(cell) for cell in cells]
assert [index[cell] for cell in pickled] == list(range(len(cells)))
print(len(cells))
"""


def test_cell_key_hash_memo_never_crosses_a_pickle():
    """A cell key keeps its hash once computed, but string hashes differ
    between processes: keys pickled by a process with one
    ``PYTHONHASHSEED`` are equal to, hash like, and look up as the same
    keys built by a process with another."""
    import os
    import pickle
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    def python(code, seed, stdin=b""):
        proc = subprocess.run([sys.executable, "-c", code], input=stdin,
                              env=dict(env, PYTHONHASHSEED=seed),
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()[-2000:]
        return proc.stdout

    pickled = python(_PICKLE_CELLS, "1")
    assert python(_CHECK_CELLS, "2", pickled).strip() == b"82"
    cells = pickle.loads(pickled)
    assert all("_hash" not in cell.__dict__ for cell in cells)
    cell = cells[0]
    assert hash(cell) == hash(cell) and "_hash" in cell.__dict__
    assert "_hash" not in pickle.loads(pickle.dumps(cell)).__dict__
