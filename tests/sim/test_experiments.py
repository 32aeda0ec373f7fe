"""Tests for the figure reducers (small scale, shape assertions).

Every reducer is driven the way ``repro run`` and the benchmark drive
it: a spec built by a :data:`NAMED_SPECS` builder (or a hand-made
subset), executed by :func:`run_spec`, reduced through
:data:`FIGURE_REDUCERS` with ``(rs, mixes)``.  The reducers must read
every axis back from the spec, so cut-down grids reduce as built.
"""

import pytest

from repro.cpu.core import CoreConfig
from repro.sim import parallel
from repro.sim.config import ddr4_baseline, vsb
from repro.sim.experiments import FIGURE_REDUCERS, run_figure
from repro.sim.parallel import SimJob
from repro.sim.runner import run_spec
from repro.sim.specs import (
    FIG12_CONFIG_SPECS,
    FIG13_SCHEMES,
    FIG14_CONFIG_SPECS,
    FIG15_CONFIG_SPECS,
    FIG16_CONFIG_SPECS,
    ConfigSpec,
    ExperimentSettings,
    ExperimentSpec,
    fig13_spec,
    fig14_spec,
    fig15_spec,
    fig16_spec,
    figref_spec,
)
from repro.sim.store import ResultStore
from tests.pins import SETTINGS

SMALL = ExperimentSettings(accesses_per_core=400, mixes=("mix0",))
TINY = ExperimentSettings(accesses_per_core=200, mixes=("mix0",))


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """One store per module, so the tests share cells like a user's
    repeated figure runs do."""
    return ResultStore(str(tmp_path_factory.mktemp("store")))


def _reduce(spec, store, core_config=CoreConfig()):
    rs, _ = run_spec(spec, store=store, core_config=core_config)
    return FIGURE_REDUCERS[spec.name](rs, spec.mixes)


def _fig12(configs, store):
    return _reduce(ExperimentSpec(
        name="fig12", configs=tuple(ConfigSpec(c) for c in configs),
        mixes=SMALL.mixes, accesses_per_core=SMALL.accesses_per_core),
        store)


class TestContext:
    """What a figure runs on besides the store: the worker's trace memo
    and the ResultSet's alone-IPC / weighted-speedup lookups."""

    def _job(self, frag=0.1):
        return SimJob(config=ddr4_baseline(), accesses=150,
                      fragmentation=frag, seed=0,
                      core_config=CoreConfig(), mix="mix0")

    def test_traces_cached(self):
        assert parallel._job_traces(self._job()) is \
            parallel._job_traces(self._job())

    def test_traces_differ_by_fragmentation(self):
        assert parallel._job_traces(self._job(0.1)) is not \
            parallel._job_traces(self._job(0.9))

    SPEC = ExperimentSpec(name="baseline", configs=(ConfigSpec(),),
                          mixes=SMALL.mixes,
                          accesses_per_core=SMALL.accesses_per_core)

    def test_alone_ipc_cached_and_positive(self, store):
        rs, _ = run_spec(self.SPEC, store=store)
        again, report = run_spec(self.SPEC, store=store)
        assert rs.alone_ipc("mcf") > 0
        assert again.alone_ipc("mcf") == rs.alone_ipc("mcf")
        assert report.submitted == 0

    def test_mix_ws_positive(self, store):
        rs, _ = run_spec(self.SPEC, store=store)
        ws, result = rs.ws(ddr4_baseline(), "mix0")
        assert ws > 0
        assert result.transactions == 4 * SMALL.accesses_per_core


class TestResultSetAxes:
    """Every lookup of a 2-seed x 2-fragmentation grid, defaults and
    explicit axes alike, answers what the matching :class:`CellKey`
    holds in ``rs.results``."""

    SPEC = ExperimentSpec(
        name="axes", configs=(ConfigSpec(), ConfigSpec("vsb")),
        mixes=("mix0",), accesses_per_core=100,
        fragmentations=(0.5, 0.1), seeds=(4, 2))

    def test_lookups_match_direct_cells(self, store):
        from repro.sim.metrics import weighted_speedup
        from repro.sim.specs import CellKey
        from repro.workloads.mixes import MIXES
        rs, report = run_spec(self.SPEC, store=store)
        assert report.cells == len(rs.results) == 2 * 2 * (2 + 4)
        alone_config = self.SPEC.alone.to_config()
        names = MIXES["mix0"][0]

        def cell(kind, config, workload, frag, seed):
            return rs.results[CellKey(
                kind=kind, config=config, workload=workload,
                accesses=100, fragmentation=frag, seed=seed,
                core_config=CoreConfig())]

        for frag in (0.5, 0.1):
            for seed in (4, 2):
                for cs in self.SPEC.configs:
                    config = cs.to_config()
                    mix = cell("mix", config, "mix0", frag, seed)
                    alone = [cell("alone", alone_config, n, frag,
                                  seed).ipcs[0] for n in names]
                    # An equal core config that is not the spec's own.
                    axes = dict(fragmentation=frag, seed=seed,
                                core_config=CoreConfig())
                    assert rs.mix(config, "mix0", frag, seed) is mix
                    assert rs.mix(cs.to_config(), "mix0", **axes) is mix
                    for name, ipc in zip(names, alone):
                        assert rs.alone_ipc(name, frag, seed) == ipc
                        assert rs.alone_ipc(name, **axes) == ipc
                    ws = (weighted_speedup(mix.ipcs, alone), mix)
                    assert rs.ws(config, "mix0", frag, seed) == ws
                    assert rs.ws(config, "mix0", **axes) == ws
                    if (frag, seed) == (0.5, 4):
                        # The spec's first levels are the defaults.
                        assert rs.mix(config, "mix0") is mix
                        assert rs.ws(config, "mix0") == ws
                        assert [rs.alone_ipc(n) for n in names] == alone

    def test_axes_outside_the_spec_raise_key_error(self, store):
        rs, _ = run_spec(self.SPEC, store=store)
        config = self.SPEC.configs[1].to_config()
        for lookup in (lambda: rs.mix(config, "mix0", seed=3),
                       lambda: rs.alone_ipc("mcf", seed=0),
                       lambda: rs.ws(config, "mix0", seed=0),
                       lambda: rs.ws(config, "mix0", fragmentation=0.9),
                       lambda: rs.mix(config, "mix0", core_config=(
                           CoreConfig().scaled(2.0)))):
            with pytest.raises(KeyError):
                lookup()


class TestFig12:
    def test_table_covers_all_configs(self, store):
        table = _fig12(("ddr4_baseline", "ideal32"), store)
        assert set(table.values) == {"DDR4", "Ideal32"}

    def test_normalised_baseline_is_one(self, store):
        table = _fig12(("ddr4_baseline", "ideal32"), store)
        norm = table.normalized()
        assert all(v == pytest.approx(1.0)
                   for v in norm["DDR4"].values())

    def test_gmeans_exist_per_config(self, store):
        table = _fig12(("ddr4_baseline", "vsb"), store)
        gm = table.gmeans()
        assert gm["DDR4"] == pytest.approx(1.0)
        assert gm[vsb().name] > 0

    def test_default_config_list_shape(self):
        names = [cs.to_config().name for cs in FIG12_CONFIG_SPECS]
        assert names[0] == "DDR4"
        assert any("Ideal32" in n for n in names)
        assert any("Paired-bank" in n for n in names)


class TestFig13:
    def test_points_cover_grid(self, store):
        """A one-level plane axis reduces (the reducer reads the
        planes and scheme labels from the spec, not the defaults)."""
        points = _reduce(fig13_spec(TINY, fragmentations=(0.1,),
                                    planes=(2,)), store)
        assert [p.scheme for p in points] == \
            [label for label, _ in FIG13_SCHEMES]
        assert {p.planes for p in points} == {2}
        assert {p.fragmentation for p in points} == {0.1}
        for p in points:
            assert p.normalized_ws > 0
            assert 0.0 <= p.plane_precharge_fraction <= 1.0


class TestFig14:
    def test_frequency_points(self, store):
        """Two frequencies on a 3 GHz core reduce; the reducer reads
        the frequencies from the spec and the core from the results."""
        spec = fig14_spec(TINY, frequencies=(1.333e9, 2.0e9))
        points = _reduce(spec, store, CoreConfig(clock_hz=3e9))
        configs = {p.config for p in points}
        assert configs == {cs.to_config().name
                           for cs in FIG14_CONFIG_SPECS}
        assert [p.bus_frequency_hz for p in points] == \
            [1.333e9] * len(configs) + [2.0e9] * len(configs)
        assert all(p.normalized_ws > 0 for p in points)

    def test_config_list_contains_bg_and_ddb_variants(self):
        names = [cs.to_config().name for cs in FIG14_CONFIG_SPECS]
        assert any("DDB" in n for n in names)
        assert any("DDB" not in n for n in names)


class TestFig15:
    def test_covers_prior_work(self, store):
        out = _reduce(fig15_spec(SMALL), store)
        assert any("Half-DRAM" in k for k in out)
        assert any("MASA8+ERUCA" in k for k in out)
        assert all(v > 0 for v in out.values())

    def test_config_list(self):
        names = [cs.to_config().name for cs in FIG15_CONFIG_SPECS]
        assert "MASA4" in names and "MASA8" in names


class TestFig16:
    def test_rows_have_latency_and_energy(self, store):
        rows = _reduce(fig16_spec(SMALL), store)
        assert [r.config for r in rows] == [cs.to_config().name
                                            for cs in FIG16_CONFIG_SPECS]
        for row in rows:
            assert set(row.latency_stats_ns) == {
                "mean", "q1", "median", "q3"}
            assert row.total_energy > row.background_energy > 0

    def test_relative_energy(self, store):
        rows = _reduce(fig16_spec(SMALL), store)
        rel = rows[1].relative_to(rows[0])
        assert set(rel) == {"background", "activation", "total"}
        assert all(v > 0 for v in rel.values())


class TestFigref:
    def test_density_subset_reduces(self, store):
        """One density grade reduces to one point per policy."""
        points = _reduce(figref_spec(TINY, densities=("16Gb",)), store)
        assert {p.density for p in points} == {"16Gb"}
        assert len({p.policy for p in points}) == len(points) > 1
        assert all(p.normalized_ws > 0 for p in points)


class TestAblation:
    """The ablation bench's shape claims, held at the pinned scale.

    Measured there: EWLR-alone hit rate 0.0075 (LSB) vs 0.0010 (MSB);
    drain 24/8 at 0.988 of the best watermark; page-policy spread
    1.081; tTCW on/off 0.999.
    """

    @pytest.fixture(scope="class")
    def sweeps(self, tmp_path_factory):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_CACHE_DIR",
                      str(tmp_path_factory.mktemp("ablation")))
            sweeps, _, _ = run_figure("ablation", SETTINGS)
        return sweeps

    @staticmethod
    def _ipc(result) -> float:
        return sum(result.ipcs)

    def test_ewlr_alone_hits_need_lsb_plane_bits(self, sweeps):
        plane = sweeps["plane"]
        assert (plane["rap=False,plane=lsb"].ewlr_hit_rate
                >= plane["rap=False,plane=msb"].ewlr_hit_rate)

    def test_default_drain_watermarks_near_the_best(self, sweeps):
        ipcs = [self._ipc(r) for r in sweeps["drain"].values()]
        assert self._ipc(sweeps["drain"]["drain 24/8"]) > 0.8 * max(ipcs)

    def test_page_policies_in_one_league(self, sweeps):
        ipcs = [self._ipc(r) for r in sweeps["page"].values()]
        assert len(ipcs) == 4
        assert max(ipcs) / min(ipcs) < 1.3

    def test_ddb_guard_costs_little(self, sweeps):
        ratio = (self._ipc(sweeps["ddb"]["tTCW on"])
                 / self._ipc(sweeps["ddb"]["tTCW off"]))
        assert 0.85 <= ratio <= 1.02


class TestRunFigure:
    def test_returns_the_table_and_the_results_it_reduced(self):
        rows, rs, _ = run_figure("fig16", TINY)
        assert rs.spec == fig16_spec(TINY)
        assert rows == FIGURE_REDUCERS["fig16"](rs, TINY.mixes)

    def test_observe_reaches_every_mix_cell(self):
        _, rs, _ = run_figure("fig16", TINY, observe=True)
        assert rs.spec.observe
        assert all(result.accounting is not None
                   for cell, result in rs.results.items()
                   if cell.kind == "mix")


class TestSettings:
    def test_quick_shrinks(self):
        s = ExperimentSettings()
        q = s.quick()
        assert q.accesses_per_core < s.accesses_per_core
        assert len(q.mixes) <= 2
