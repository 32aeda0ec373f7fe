"""Fig. 13: plane-count sensitivity and conflict-triggered precharges.

Paper: (a) all schemes improve with plane count with diminishing
returns; EWLR+RAP is the least sensitive (~4% spread between 2 and 16
planes) and with 2 planes already comes within 4% of ideal; RAP beats
EWLR at 2 planes; at 50% fragmentation RAP-only loses effectiveness.
(b) The fraction of precharges triggered by plane conflicts tracks the
speedup trends.
"""

from conftest import bench_figure, print_header

from repro.sim.specs import FIG13_PLANES, FIG13_SCHEMES


def test_fig13_plane_sensitivity(benchmark, sweep_settings):
    points = bench_figure(benchmark, "fig13", sweep_settings)

    print_header(
        "Fig. 13a: plane-count sensitivity (normalised WS over DDR4) / "
        "Fig. 13b: plane-conflict precharge fraction")
    for frag in (0.1, 0.5):
        print(f"\n-- fragmentation {frag:.0%} --")
        print(f"{'scheme':22s} " + " ".join(
            f"{n:>2d}P ws/pre%" for n in FIG13_PLANES))
        for scheme, _ in FIG13_SCHEMES:
            cells = []
            for n in FIG13_PLANES:
                p = next(x for x in points
                         if (x.scheme, x.planes, x.fragmentation)
                         == (scheme, n, frag))
                cells.append(f"{p.normalized_ws:5.3f}/"
                             f"{p.plane_precharge_fraction * 100:4.1f}")
            print(f"{scheme:22s} " + " ".join(cells))

    by_key = {(p.scheme, p.planes, p.fragmentation): p for p in points}

    # (i) naive VSB suffers the most plane-conflict precharges at any
    #     plane count; EWLR+RAP the least (or tied).
    for n in FIG13_PLANES:
        naive = by_key[("VSB(naive)+DDB", n, 0.1)]
        full = by_key[("VSB(EWLR+RAP)+DDB", n, 0.1)]
        assert (full.plane_precharge_fraction
                <= naive.plane_precharge_fraction + 0.02), n

    # (ii) conflict precharges decline with plane count for every scheme.
    for scheme, _ in FIG13_SCHEMES:
        fracs = [by_key[(scheme, n, 0.1)].plane_precharge_fraction
                 for n in FIG13_PLANES]
        assert fracs[0] >= fracs[-1] - 0.02, scheme

    # (iii) EWLR+RAP is the least plane-count sensitive scheme.
    def spread(scheme, frag=0.1):
        ws = [by_key[(scheme, n, frag)].normalized_ws
              for n in FIG13_PLANES]
        return max(ws) - min(ws)

    assert spread("VSB(EWLR+RAP)+DDB") <= spread("VSB(naive)+DDB") + 0.02

    # (iv) fragmentation hurts RAP's conflict avoidance: more
    #      conflict-precharges remain at 50% than at 10%.
    rap_low = by_key[("VSB(RAP)+DDB", 4, 0.1)].plane_precharge_fraction
    rap_high = by_key[("VSB(RAP)+DDB", 4, 0.5)].plane_precharge_fraction
    assert rap_high >= rap_low - 0.02
