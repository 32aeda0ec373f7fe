"""Tab. I: specifications of DRAM generations.

Static data, but benched so the harness covers every table: the timed
kernel is building the derived DDR4 timing preset across the Fig. 14
frequency range.
"""

from conftest import print_header

from repro.dram.backends import get_backend
from repro.dram.timing import FIG14_BUS_FREQUENCIES_HZ, GENERATIONS


def test_tab1_generations(benchmark):
    ddr4 = get_backend("dram")
    benchmark(lambda: [ddr4.timings(f) for f in FIG14_BUS_FREQUENCIES_HZ])

    print_header("Tab. I: Specifications of DRAM generations")
    header = f"{'':24s}" + "".join(f"{g.name:>12s}" for g in GENERATIONS)
    print(header)
    for field, label in (("bank_count", "Bank count"),
                         ("channel_clock_mhz", "Channel clock (MHz)"),
                         ("core_clock_mhz", "DRAM core clock (MHz)"),
                         ("internal_prefetch", "Internal prefetch")):
        row = f"{label:24s}" + "".join(
            f"{getattr(g, field):>12s}" for g in GENERATIONS)
        print(row)

    assert GENERATIONS[-1].name == "DDR4"
    assert len(GENERATIONS) == 4
