"""Refresh sweep: speedup per refresh policy across density grades.

Not a paper figure (ERUCA simulates with refresh folded into the
baseline): this quantifies the refresh tax the timing model now charges
(docs/REFRESH.md) and what each refresh-access-parallelism policy buys
back --

* ``baseline``: all-bank REF on the tREFI deadline (the whole rank
  blacks out for tRFC);
* ``darp``: per-bank REFpb deferred behind pending demand (up to the
  JEDEC eight-interval limit);
* ``sarp``: sub-bank refresh, overlapping refresh in one sub-bank with
  demand in its neighbours.

Everything is normalised to the same platform with refresh off, so
1.000 means the policy fully hides the refresh tax.  The tax grows with
density (tRFC: 260 -> 350 -> 550 ns), which is exactly why the paper's
sub-array machinery matters at 16 Gb and beyond.
"""

from conftest import bench_figure, print_header

from repro.sim.specs import REFRESH_SWEEP_DENSITIES


def test_refresh_policy_sweep(benchmark, sweep_settings):
    points = bench_figure(benchmark, "figref", sweep_settings)

    print_header("Refresh sweep: normalised WS vs policy x density "
                 "(refresh-off platform = 1.000)")
    policies = []
    for p in points:
        if p.policy not in policies:
            policies.append(p.policy)
    by_key = {(p.policy, p.density): p for p in points}
    print(f"{'policy':10s} " + " ".join(
        f"{d:>8s}" for d in REFRESH_SWEEP_DENSITIES))
    for policy in policies:
        print(f"{policy:10s} " + "    ".join(
            f"{by_key[(policy, d)].normalized_ws:5.3f}"
            for d in REFRESH_SWEEP_DENSITIES))
    print("\nrefreshes issued per cell:")
    for policy in policies:
        print(f"{policy:10s} " + "    ".join(
            f"{by_key[(policy, d)].refreshes:5d}"
            for d in REFRESH_SWEEP_DENSITIES))

    # Every cell pays at most a modest tax and stays a real slowdown
    # bound: refresh can only cost cycles, never mint them wholesale.
    for p in points:
        assert 0.8 < p.normalized_ws < 1.05, p

    # The headline claim: at the densest grade (largest tRFC) sub-bank
    # refresh recovers a measurable share of the all-bank penalty.
    dense = REFRESH_SWEEP_DENSITIES[-1]
    base = by_key[("baseline", dense)].normalized_ws
    sarp = by_key[("sarp", dense)].normalized_ws
    assert sarp > base, \
        "sarp must beat on-deadline all-bank refresh at 16Gb"

    # Sub-bank overlap must beat pure deferral: darp still blacks out
    # the whole bank per REFpb, sarp only one sub-bank.  (darp vs the
    # all-bank baseline is NOT asserted: darp trails it at every run
    # length measured, and the gap grows with length -- a divergence
    # from Chang et al. whose leads, idle catch-up REFs and the pull-in
    # rule, docs/REFRESH.md records.)
    darp = by_key[("darp", dense)].normalized_ws
    assert sarp > darp, \
        "sub-bank refresh must beat whole-bank deferred refresh"

    # sarp actually refreshes in sub-bank quanta: more, smaller REFs.
    assert by_key[("sarp", dense)].refreshes > \
        by_key[("baseline", dense)].refreshes
