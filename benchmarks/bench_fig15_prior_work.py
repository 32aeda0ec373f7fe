"""Fig. 15: comparison to prior sub-banking work.

Paper (GMEAN, normalised to DDR4): Half-DRAM limited to ~+8% by its
shared row-address latches; 4P-VSB+DDB +15%; MASA4/MASA8 offer more
effective banks but pay tSA serialisation under high intensity;
combining MASA8 with ERUCA gives +26% (no DDB) / +29% (with DDB) --
clear synergy over MASA8 alone (~+20%).
"""

from conftest import bench_figure, print_header


PAPER = {
    "Half-DRAM": 1.08,
    "VSB(EWLR+RAP,4P)+DDB": 1.15,
    "MASA8+ERUCA": 1.29,
    "Ideal32": 1.17,
}


def test_fig15_prior_work(benchmark, sweep_settings):
    out = bench_figure(benchmark, "fig15", sweep_settings)

    print_header("Fig. 15: prior-work comparison "
                 "(GMEAN normalised WS over DDR4)")
    print(f"{'config':36s} {'measured':>9s} {'paper':>7s}")
    for name, value in out.items():
        ref = PAPER.get(name)
        ref_s = f"{ref:.2f}" if ref else ""
        print(f"{name:36s} {value:9.3f} {ref_s:>7s}")

    def get(fragment):
        return next(v for k, v in out.items() if k == fragment)

    half = get("Half-DRAM")
    vsb_ddb = get("VSB(EWLR+RAP,4P)+DDB")
    masa8 = get("MASA8")
    synergy = get("MASA8+ERUCA")
    synergy_noddb = get("MASA8+ERUCA(no DDB)")

    # Who wins: Half-DRAM is the weakest sub-banking scheme; ERUCA's
    # VSB beats it; MASA8+ERUCA beats MASA8 alone (the paper's synergy
    # claim), and everything beats the baseline.
    assert half < vsb_ddb, "Half-DRAM must trail full ERUCA"
    assert synergy > masa8, "ERUCA must add on top of MASA8"
    assert synergy >= synergy_noddb - 0.02, "DDB should not hurt"
    assert all(v > 1.0 for v in out.values())
