#!/usr/bin/env python
"""Differential schedule fuzzer: scheduler vs. independent rule checker.

Usage::

    PYTHONPATH=src python tools/fuzz_schedules.py --seeds 100
    PYTHONPATH=src python tools/fuzz_schedules.py --start 42 --seeds 1 \
        --accesses 120 --cores 2   # replay one (possibly minimized) case

Each seed deterministically draws a case -- a configuration preset
(round-robin over :func:`repro.sim.config.all_presets`, filtered by
``--backend`` to one memory technology -- the default ``dram`` keeps
the historical seed-to-preset mapping over the 17 DDR4 presets), a
synthetic trace set (core count,
access count, gap/write/locality profile), a channel-frequency grade,
and occasionally a ``tFAW`` override (disabled, or tightened) -- then
runs the simulator with command logging and cross-checks four
independent oracles.  Half the cases additionally draw a DRAM refresh
density grade and policy (``--refresh`` forces refresh on in every
case), so the refresh scheduler rides every oracle below:

1. **Reference vs. incremental scheduling**: the two selection paths
   must produce bit-identical command streams and result digests.
2. **The rule checker**: every channel's command log must pass
   :func:`repro.dram.validation.validate_log`, a second implementation
   of the timing rules written straight from their definitions.
3. **Cycle accounting**: the observed run's stall buckets must sum
   exactly to each channel's wall time
   (:meth:`AccountingReport.verify`).
4. **Observer neutrality**: the observed run's digest must equal the
   unobserved run's.

An exception from the simulator fails its case like a broken oracle.
On failure the case is shrunk (halve accesses, then drop cores) while
it still fails, and a copy-pasteable repro command is printed; the
remaining seeds still run.  Exit status 1 if any seed fails.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

try:
    import repro  # noqa: F401  (probe: is src/ already importable?)
except ImportError:  # direct invocation without PYTHONPATH=src
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cpu.core import CoreConfig, TraceCore
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.backends import backend_names, get_backend
from repro.dram.validation import TimingViolation, validate_log
from repro.sim import config as cfgs
from repro.sim.simulator import MemorySystem, Simulator

#: Channel-frequency grades a case may draw (None = the preset's own).
FREQUENCY_GRADES = (None, 1.6e9, 2.0e9, 2.4e9)

#: tFAW overrides in ns (None = the preset's value, 0 disables the
#: window, 45 tightens it well past DDR4's worst case so the floor
#: actually binds in short runs).
TFAW_GRADES_NS = (None, None, None, 0, 45)

#: DDR4 refresh density grades a case may draw (each fixes tRFC and
#: tRFCpb in the ``dram`` backend's ``refresh_grades_ns``).
REFRESH_DENSITIES = tuple(get_backend("dram").refresh_grades_ns)

#: The refresh draw: half the cases leave refresh off (None), the rest
#: enable one density grade.  ``--refresh`` restricts the draw to the
#: density grades so every case exercises the refresh machinery.
REFRESH_GRADES = (None, None, None) + REFRESH_DENSITIES


@dataclass(frozen=True)
class Case:
    """One fuzz case, fully determined by its draw parameters."""

    seed: int
    config_name: str
    cores: int
    accesses: int
    #: ``--refresh`` was given: the density draw skips the None grades.
    refresh: bool = False
    #: Memory-technology backend of the drawn preset (the ``--backend``
    #: axis; replay must filter the preset list the same way).
    backend: str = "dram"

    def repro_command(self) -> str:
        """A shell command that replays exactly this case."""
        return (f"PYTHONPATH=src python tools/fuzz_schedules.py "
                f"--start {self.seed} --seeds 1 "
                f"--cores {self.cores} --accesses {self.accesses}"
                + (" --refresh" if self.refresh else "")
                + (f" --backend {self.backend}"
                   if self.backend != "dram" else ""))


def draw_case(seed: int, presets: Optional[List] = None,
              cores: Optional[int] = None,
              accesses: Optional[int] = None,
              refresh: bool = False) -> Case:
    """Deterministically draw a case from its seed (plus overrides)."""
    presets = presets if presets is not None else cfgs.all_presets()
    rng = random.Random(seed)
    preset = presets[seed % len(presets)]
    return Case(
        seed=seed,
        config_name=preset.name,
        cores=cores if cores is not None else rng.randint(1, 4),
        accesses=accesses if accesses is not None
        else rng.randint(80, 280),
        refresh=refresh,
        backend=preset.backend,
    )


def build_config(case: Case, presets: Optional[List] = None):
    """The case's SystemConfig: preset + frequency/tFAW grade."""
    presets = presets if presets is not None else cfgs.all_presets()
    by_name = {p.name: p for p in presets}
    config = by_name[case.config_name]
    rng = random.Random(case.seed ^ 0x5EED)
    freq = rng.choice(FREQUENCY_GRADES)
    if freq is not None:
        config = config.at_frequency(freq)
    tfaw = rng.choice(TFAW_GRADES_NS)
    if tfaw is not None:
        config = replace(config, tfaw_ns=tfaw,
                         name=f"{config.name}+tFAW{tfaw:g}ns")
    density = rng.choice(REFRESH_DENSITIES if case.refresh
                         else REFRESH_GRADES)
    from repro.controller.scheduler import REFRESH_POLICIES
    policy = rng.choice(REFRESH_POLICIES)
    if policy == "sarp" and not config.subbanked:
        # A flat preset has no sub-banks for sarp (the config refuses
        # it); draw darp instead, which such a case always ran.
        policy = "darp"
    if density is not None:
        grades = sorted(get_backend(config.backend).refresh_grades_ns)
        if density not in grades:
            # Map a DDR4-only grade onto one the technology ships
            # (deterministically, by the grade's position in the draw
            # tuple -- str hashes are salted per process).
            density = grades[REFRESH_DENSITIES.index(density)
                             % len(grades)]
        config = replace(config, refresh_density=density,
                         refresh_policy=policy,
                         name=f"{config.name}+ref-{policy}-{density}")
    return replace(config, record_commands=True)


def build_traces(case: Case) -> List[Trace]:
    """Synthetic traffic: streaming/random blend, bursts, write mix."""
    rng = random.Random(case.seed ^ 0x7ACE)
    streaming = rng.uniform(0.2, 0.8)
    write_frac = rng.uniform(0.0, 0.6)
    max_gap = rng.choice((4, 16, 40))
    traces = []
    for core in range(case.cores):
        base = rng.randrange(0, 1 << 30) & ~63
        entries = []
        for i in range(case.accesses):
            if rng.random() < streaming:
                addr = (base + i * 64) & ((1 << 34) - 64)
            else:
                addr = rng.randrange(0, 1 << 34) & ~63
            entries.append(TraceEntry(rng.randrange(0, max_gap),
                                      rng.random() < write_frac, addr))
        traces.append(Trace.from_entries(entries, name=f"fuzz{core}"))
    return traces


def command_stream_hash(system: MemorySystem) -> str:
    """Hash of every issued command across all channels, in order."""
    h = hashlib.sha256()
    for controller in system.controllers:
        for rec in controller.channel.command_log:
            h.update(f"{rec.kind},{rec.time},{rec.bank},{rec.bank_group},"
                     f"{rec.slot},{rec.row};".encode())
    return h.hexdigest()


def _run(config, traces, incremental: bool, observe: bool):
    """One simulation; returns (result, command hash, system)."""
    system = MemorySystem(replace(config, incremental=incremental),
                          observe=observe or None)
    cores = [TraceCore(t, CoreConfig(), core_id=i)
             for i, t in enumerate(traces)]
    result = Simulator(system, cores).run()
    return result, command_stream_hash(system), system


def _validate(system) -> Optional[str]:
    """The independent rule checker over every channel's command log."""
    for controller in system.controllers:
        channel = controller.channel
        try:
            validate_log(channel.command_log, channel.timing,
                         channel.resources.policy)
        except TimingViolation as exc:
            return f"rule checker: {exc}"
    return None


def check_case(case: Case, presets: Optional[List] = None) -> Optional[str]:
    """Run all oracles on one case; returns a failure message or None.

    An exception raised by the simulator (an illegal command the device
    FSM refuses, say) is that case's failure, not the run's end.
    """
    config = build_config(case, presets)
    traces = build_traces(case)
    try:
        inc, inc_hash, inc_system = _run(config, traces,
                                         incremental=True, observe=True)
        ref, ref_hash, _ = _run(config, traces,
                                incremental=False, observe=False)
    except Exception as exc:
        return f"simulator raised {type(exc).__name__}: {exc}"
    if inc_hash != ref_hash:
        return "incremental/reference command streams diverge"
    if inc.digest() != ref.digest():
        return ("incremental/reference digests diverge "
                "(or the observer changed behaviour)")
    message = _validate(inc_system)
    if message is not None:
        return message
    try:
        inc.accounting.verify()
    except AssertionError as exc:
        return f"accounting invariant: {exc}"
    return None


def minimize(case: Case,
             fails: Callable[[Case], Optional[str]]) -> Case:
    """Shrink a failing case while it keeps failing.

    First halve the access count, then drop cores; each step keeps the
    shrunk case only if ``fails`` still reports a failure.  ``fails``
    is the oracle (normally :func:`check_case`), injectable for tests.
    """
    while case.accesses > 10:
        smaller = replace(case, accesses=max(10, case.accesses // 2))
        if fails(smaller) is None:
            break
        case = smaller
    while case.cores > 1:
        smaller = replace(case, cores=case.cores - 1)
        if fails(smaller) is None:
            break
        case = smaller
    return case


def run_seeds(start: int, count: int, presets: Optional[List] = None,
              cores: Optional[int] = None,
              accesses: Optional[int] = None,
              refresh: bool = False,
              out=sys.stdout) -> int:
    """Fuzz ``count`` seeds from ``start``; returns the failure count."""
    presets = presets if presets is not None else cfgs.all_presets()
    failures = 0
    for seed in range(start, start + count):
        case = draw_case(seed, presets, cores=cores, accesses=accesses,
                         refresh=refresh)
        message = check_case(case, presets)
        if message is None:
            print(f"seed {seed:4d} ok    {case.config_name:24s} "
                  f"cores={case.cores} accesses={case.accesses}",
                  file=out)
            continue
        failures += 1
        print(f"seed {seed:4d} FAIL  {case.config_name}: {message}",
              file=out)
        small = minimize(case, lambda c: check_case(c, presets))
        print(f"  minimized to cores={small.cores} "
              f"accesses={small.accesses}; reproduce with:", file=out)
        print(f"  {small.repro_command()}", file=out)
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="differential fuzz of the command scheduler")
    parser.add_argument("--seeds", type=int, default=25,
                        help="number of seeds to run (default 25)")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed (default 0)")
    parser.add_argument("--config", default=None,
                        help="restrict to one preset by name")
    parser.add_argument("--cores", type=int, default=None,
                        help="override the drawn core count")
    parser.add_argument("--accesses", type=int, default=None,
                        help="override the drawn access count")
    parser.add_argument("--refresh", action="store_true",
                        help="force DRAM refresh on in every case "
                             "(density grade and policy still drawn "
                             "per seed) instead of the default "
                             "half-on/half-off draw")
    parser.add_argument("--backend", default="dram",
                        choices=(*backend_names(), "all"),
                        help="restrict the preset round-robin to one "
                             "memory-technology backend (default dram, "
                             "which preserves the historical "
                             "seed-to-preset mapping); 'all' cycles "
                             "through every preset")
    args = parser.parse_args(argv)
    presets = cfgs.all_presets()
    if args.backend != "all":
        presets = [p for p in presets if p.backend == args.backend]
    if args.config is not None:
        presets = [p for p in presets if p.name == args.config]
        if not presets:
            parser.error(f"unknown config {args.config!r} for backend "
                         f"{args.backend!r}; known: "
                         + ", ".join(p.name for p in cfgs.all_presets()))
    failures = run_seeds(args.start, args.seeds, presets,
                         cores=args.cores, accesses=args.accesses,
                         refresh=args.refresh)
    if failures:
        print(f"{failures} of {args.seeds} seeds failed")
        return 1
    print(f"all {args.seeds} seeds clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
