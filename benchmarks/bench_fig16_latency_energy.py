"""Fig. 16: read queueing latency distribution and energy reduction.

Paper: (a) ERUCA's mean read queueing latency is ~15% below DDR4 and
within 1% of ideal; the third quartile stays slightly above ideal
because rare plane conflicts remain.  (b) Energy vs DDR4: background
~93-95% (faster execution), activation ~94% (fewer conflicts + EWLR
hits), total within 1% of ideal.
"""

from conftest import bench_figure, print_header



def test_fig16_latency_energy(benchmark, sweep_settings):
    rows = bench_figure(benchmark, "fig16", sweep_settings)

    base = rows[0]
    print_header("Fig. 16a: read queueing latency (ns)")
    print(f"{'config':26s} {'mean':>7s} {'q1':>7s} {'median':>7s} "
          f"{'q3':>7s}")
    for row in rows:
        s = row.latency_stats_ns
        print(f"{row.config:26s} {s['mean']:7.1f} {s['q1']:7.1f} "
              f"{s['median']:7.1f} {s['q3']:7.1f}")

    print_header("Fig. 16b: energy relative to DDR4")
    print(f"{'config':26s} {'background':>11s} {'activation':>11s} "
          f"{'total':>7s}")
    for row in rows:
        rel = row.relative_to(base)
        print(f"{row.config:26s} {rel['background']:10.1%} "
              f"{rel['activation']:10.1%} {rel['total']:6.1%}")
    print("\npaper: ERUCA mean latency ~ -15% vs DDR4, within ~1% of "
          "ideal; energy ~93-95% of DDR4 in every component")

    eruca = next(r for r in rows if "EWLR+RAP" in r.config)
    ideal = next(r for r in rows if r.config == "Ideal32")

    # Latency ordering: DDR4 > ERUCA >= ideal (mean).
    assert eruca.latency_stats_ns["mean"] < base.latency_stats_ns["mean"]
    assert (ideal.latency_stats_ns["mean"]
            <= eruca.latency_stats_ns["mean"] * 1.05)

    # Energy: ERUCA must not exceed the baseline in any component and
    # land near ideal.
    rel = eruca.relative_to(base)
    assert rel["total"] < 1.0
    assert rel["background"] < 1.0
    rel_ideal = ideal.relative_to(base)
    assert abs(rel["total"] - rel_ideal["total"]) < 0.08
