"""Ablation benches for design choices DESIGN.md calls out.

Not a paper figure: these quantify the modelling decisions --

* plane-ID bit placement (Fig. 9's two mappings) with and without RAP;
* sub-bank ID bit position (low, Fig. 9, vs high);
* write-drain watermarks;
* page policy (open page vs adaptive idle-close);
* DDB two-command windows on/off at a fast channel (tTCW pessimism).

The grid is the ``ablation`` named spec (``repro run ablation``); every
arm replays mix0, so ``REPRO_BENCH_MIXES`` does not apply.
"""

from conftest import bench_figure, print_header

from repro.dram.commands import PrechargeCause


def _ipc(result) -> float:
    return sum(result.ipcs)


def test_ablations(benchmark, sweep_settings):
    sweeps = bench_figure(benchmark, "ablation", sweep_settings)

    # EWLR-alone should collect its hits only with LSB plane bits
    # (mapping 2 of Fig. 9); with RAP the MSB placement is the useful one.
    print_header("Ablation: plane-ID bit placement (mix0)")
    for name, res in sweeps["plane"].items():
        print(f"{name:26s} ipc={_ipc(res):6.3f} "
              f"planepre={res.plane_conflict_precharge_fraction:5.3f} "
              f"ewlr_hits={res.ewlr_hit_rate:5.3f}")
    plane = sweeps["plane"]
    assert (plane["rap=False,plane=lsb"].ewlr_hit_rate
            >= plane["rap=False,plane=msb"].ewlr_hit_rate)

    # Fig. 9 puts the sub-bank ID among low (frequently-changing) bits;
    # parking it high starves one sub-bank of traffic.
    print_header("Ablation: sub-bank ID bit position (mix0)")
    for name, res in sweeps["subbank"].items():
        print(f"{name:20s} ipc={_ipc(res):6.3f}")
    assert all(_ipc(r) > 0 for r in sweeps["subbank"].values())

    print_header("Ablation: write-drain watermarks (DDR4, mix0)")
    for name, res in sweeps["drain"].items():
        print(f"{name:16s} ipc={_ipc(res):6.3f}")
    drain = {name: _ipc(res) for name, res in sweeps["drain"].items()}
    assert drain["drain 24/8"] > 0.8 * max(drain.values())

    print_header("Ablation: page policy (DDR4, mix0)")
    for name, res in sweeps["page"].items():
        policy = res.precharge_causes[PrechargeCause.POLICY]
        conflict = res.precharge_causes[PrechargeCause.ROW_CONFLICT]
        print(f"{name:14s} ipc={_ipc(res):6.3f} policy_pre={policy:5d} "
              f"conflict_pre={conflict:5d}")
    values = [_ipc(res) for res in sweeps["page"].values()]
    assert max(values) / min(values) < 1.3  # policies are in one league

    # At 2.4 GHz the tTCW/tTWTRW windows bind; disabling them bounds
    # what the DDB hardware could do without the conflict guard.
    print_header("Ablation: DDB two-command windows at 2.4 GHz (mix0)")
    for name, res in sweeps["ddb"].items():
        print(f"{name:10s} ipc={_ipc(res):6.3f}")
    on = _ipc(sweeps["ddb"]["tTCW on"])
    off = _ipc(sweeps["ddb"]["tTCW off"])
    # The guard costs a little but must not be catastrophic.
    assert on <= off * 1.02
    assert on >= off * 0.85
