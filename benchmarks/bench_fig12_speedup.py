"""Fig. 12: normalised weighted speedup over DDR4, per mix + GMEAN.

Paper (GMEAN over the nine mixes, 4 planes, fragmentation 10%):
naive 4-plane VSB ~ +10%; +DDB ~ +12%; EWLR+RAP+DDB ~ +15%;
Ideal32 ~ +17% (ERUCA within 2% of ideal); paired-bank ERUCA -2%
(EWLR+RAP) / -1% (+DDB) while *saving* 1.1% die area.
"""

from conftest import bench_figure, print_header



def test_fig12_weighted_speedup(benchmark, full_settings):
    table = bench_figure(benchmark, "fig12", full_settings)

    mixes = full_settings.mixes
    norm = table.normalized()
    gmeans = table.gmeans()

    print_header(
        "Fig. 12: normalised weighted speedup over DDR4 "
        f"({full_settings.accesses_per_core}/core, "
        f"frag {full_settings.fragmentation:.0%})")
    print(f"{'config':36s} " + " ".join(f"{m:>6s}" for m in mixes)
          + f" {'GMEAN':>7s}")
    for config, row in norm.items():
        cells = " ".join(f"{row[m]:6.3f}" for m in mixes)
        print(f"{config:36s} {cells} {gmeans[config]:7.3f}")
    print("\npaper GMEANs: naive VSB ~1.10, naive+DDB ~1.12, "
          "VSB(EWLR+RAP)+DDB ~1.15, Ideal32 ~1.17, paired ~0.98-0.99")

    # Shape assertions (who wins).
    naive = next(v for k, v in gmeans.items()
                 if "naive" in k and "DDB" not in k)
    full = next(v for k, v in gmeans.items()
                if "EWLR+RAP" in k and "Paired" not in k)
    ideal = gmeans["Ideal32"]
    paired = [v for k, v in gmeans.items() if "Paired" in k]
    assert full > naive, "EWLR+RAP must beat naive VSB"
    assert ideal >= full - 0.02, "ideal32 should top (or tie) ERUCA"
    assert full > 1.05, "ERUCA must clearly beat the DDR4 baseline"
    assert all(0.9 < p < 1.1 for p in paired), \
        "paired-bank must stay near baseline performance"
