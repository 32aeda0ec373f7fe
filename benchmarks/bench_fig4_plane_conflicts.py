"""Fig. 4: fraction of transactions with plane conflicts per tRC window.

Paper: traces of mcf / lbm / gemsFDTD / omnetpp; 67% of transactions
overlap another access to the same bank; 51% conflict at 2 planes,
declining to 17% at 32768 planes, with the two locality regions (huge-page
high-order bits, spatial low-order bits) shaping the curve.
"""

from conftest import bench_accesses, print_header

from repro.analysis.plane_conflict import (
    FIG4_BENCHMARKS,
    FIG4_PLANE_COUNTS,
    fig4_plane_conflicts,
)

#: Paper's reported points for reference printing.
PAPER = {2: 51.0, 32768: 17.0}


def test_fig4_plane_conflicts(benchmark):
    accesses = max(2000, bench_accesses())
    results, total = benchmark.pedantic(
        fig4_plane_conflicts, args=(accesses,), rounds=1, iterations=1)

    print_header(
        "Fig. 4: transactions with plane conflicts per tRC interval "
        f"({'+'.join(FIG4_BENCHMARKS)}, {accesses}/core)")
    overlap = results[2].overlapping / total
    print(f"overlapping transactions: {overlap * 100:.1f}%  (paper: 67%)")
    print(f"{'planes':>8s} {'PlaneConflict':>14s} "
          f"{'NoPlaneConflict':>16s} {'paper':>8s}")
    for n in FIG4_PLANE_COUNTS:
        c = results[n]
        ref = f"{PAPER[n]:.0f}%" if n in PAPER else ""
        print(f"{n:8d} {c.conflict_fraction(total) * 100:13.1f}% "
              f"{c.no_conflict_fraction(total) * 100:15.1f}% {ref:>8s}")

    # Shape assertions: monotone-ish decline, non-trivial start.
    first = results[2].conflict_fraction(total)
    last = results[32768].conflict_fraction(total)
    assert first > 0.2, "2-plane conflicts should be substantial"
    assert last < first / 2, "conflicts must decline with plane count"
