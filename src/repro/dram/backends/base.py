"""The pluggable memory-technology backend interface.

A :class:`MemoryTechBackend` declares everything that distinguishes one
memory technology from another **as data** (in the spirit of hazard /
collision tables in classic controller RTL): a timing-rule table
resolving each :class:`~repro.dram.timing.TimingParams` field from
frequency-aware terms, the refresh semantics (density grades and
cadence), and the rank power model.  The rest of the machine -- device
FSMs, channel resources, scheduler, validator, accounting -- is
technology-agnostic and consumes the resolved
:class:`~repro.dram.timing.TimingParams`.

Two backends ship:

``dram``
    The paper's DDR4 model (Tab. III).  A test pins its resolved table
    field by field, and every preset keeps the behaviour digest it had
    before the backends existed.

``gddr5``
    The graphics part promoted from ``examples/gddr5_extension.py``:
    a 2.5 GHz channel, tighter core timings, and a short-tRFC refresh.

Timing-rule terms
-----------------

Each timing parameter is the sum of :class:`TimingTerm` values.  A term
is a number plus a unit:

``ns`` / ``ps``
    Analog core-side latencies, constant across speed grades.
``clk``
    Bus clocks at the *requested* frequency (scales with the channel).
``core_clk``
    DRAM core clocks (fixed 5 ns; the tCCD_L/tTCW scale).
``ref_clk``
    Bus clocks at the backend's *reference* frequency -- how DDR4 keeps
    CAS latency constant in nanoseconds across Fig. 14's sweep.

``subtract_clk`` handles DDR4's write latency idiom
(``tCWL = tCL - 4 clocks``, falling back to ``tCL`` when the subtraction
goes non-positive at low frequencies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.dram.power import EnergyParams
from repro.dram.timing import (
    DRAM_CORE_PERIOD_PS,
    TimingParams,
    clock_period_ps,
    ns,
)


@dataclass(frozen=True)
class TimingTerm:
    """One additive term of a timing rule (see the module docstring)."""

    value: float
    unit: str = "ns"

    def resolve(self, tck: int, ref_clk_ps: int) -> int:
        """This term in integer picoseconds at bus period ``tck``."""
        if self.unit == "ns":
            return ns(self.value)
        if self.unit == "ps":
            return int(round(self.value))
        if self.unit == "clk":
            return int(round(self.value * tck))
        if self.unit == "core_clk":
            return int(round(self.value * DRAM_CORE_PERIOD_PS))
        if self.unit == "ref_clk":
            return int(round(self.value * ref_clk_ps))
        raise ValueError(f"unknown timing-term unit {self.unit!r}")


@dataclass(frozen=True)
class TimingRule:
    """How one ``TimingParams`` field resolves at a given frequency.

    The resolved value is ``sum(terms) - subtract_clk * tCK``; when that
    is non-positive the rule falls back to the plain term sum (DDR4's
    ``tCWL`` idiom).
    """

    terms: Tuple[TimingTerm, ...]
    subtract_clk: int = 0

    def resolve(self, tck: int, ref_clk_ps: int) -> int:
        """The field's integer-picosecond value at bus period ``tck``."""
        total = sum(t.resolve(tck, ref_clk_ps) for t in self.terms)
        if self.subtract_clk:
            adjusted = total - self.subtract_clk * tck
            if adjusted > 0:
                return adjusted
        return total


def rule(*terms, subtract_clk: int = 0) -> TimingRule:
    """Shorthand: ``rule((18, "ref_clk"), (32, "ns"))``."""
    return TimingRule(
        terms=tuple(TimingTerm(value, unit) for value, unit in terms),
        subtract_clk=subtract_clk)


@dataclass(frozen=True)
class MemoryTechBackend:
    """One memory technology, declared as data (module docstring)."""

    #: Registry key (``SystemConfig.backend``) and display name.
    name: str
    description: str
    #: Timing-rule table: one rule per ``TimingParams`` field (``tCK``
    #: and ``burst_length`` are handled separately).
    rules: Mapping[str, TimingRule]
    #: Burst length in beats.
    burst_length: int
    #: Bus period anchoring ``ref_clk`` terms (DDR4: 750 ps = 1.333 GHz).
    reference_clock_ps: int
    #: The frequency presets run at unless overridden.
    default_frequency_hz: float
    #: ``(tRFC, tRFCpb)`` in ns per die-density grade.
    refresh_grades_ns: Mapping[str, Tuple[float, float]]
    #: Average refresh interval in ns (one owed refresh per tREFI).
    trefi_ns: float
    #: Rank power model for this technology.
    energy: EnergyParams = field(default_factory=EnergyParams)

    # -- resolution ------------------------------------------------------

    def timings(self, bus_frequency_hz: float = 0.0) -> TimingParams:
        """Resolve the rule table into :class:`TimingParams`.

        ``bus_frequency_hz`` defaults to the backend's own default
        frequency; refresh stays off (opt-in via
        :meth:`refresh_overrides`, matching the DDR4 presets).
        """
        if not bus_frequency_hz:
            bus_frequency_hz = self.default_frequency_hz
        tck = clock_period_ps(bus_frequency_hz)
        ref = self.reference_clock_ps
        fields: Dict[str, int] = {
            name: r.resolve(tck, ref) for name, r in self.rules.items()}
        return TimingParams(tCK=tck, burst_length=self.burst_length,
                            **fields)

    def refresh_overrides(self, density: str) -> dict:
        """``TimingParams.replace`` keywords enabling refresh at a grade."""
        try:
            trfc_ns, trfcpb_ns = self.refresh_grades_ns[density]
        except KeyError:
            raise ValueError(
                f"backend {self.name!r} knows no density {density!r}; "
                "known: " + ", ".join(sorted(self.refresh_grades_ns))
            ) from None
        return {"tRFC": ns(trfc_ns), "tREFI": ns(self.trefi_ns),
                "tRFCpb": ns(trfcpb_ns)}

    def adhoc_refresh_overrides(self, refresh_ns: float,
                                anchor: str = "8Gb") -> dict:
        """Overrides for a free-form tRFC (the Tab. I ``refresh_ns``
        column): per-bank cost scales from the anchor grade's ratio."""
        if anchor not in self.refresh_grades_ns:
            anchor = sorted(self.refresh_grades_ns)[0]
        trfc, trfcpb = self.refresh_grades_ns[anchor]
        return {"tRFC": ns(refresh_ns), "tREFI": ns(self.trefi_ns),
                "tRFCpb": ns(refresh_ns * trfcpb / trfc)}

#: Populated by the technology modules at import time (see __init__).
_REGISTRY: Dict[str, MemoryTechBackend] = {}


def register_backend(backend: MemoryTechBackend) -> MemoryTechBackend:
    """Add a backend to the registry (idempotent by name)."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> MemoryTechBackend:
    """Look up a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown memory backend {name!r}; known: "
            + ", ".join(sorted(_REGISTRY))) from None


def backend_names() -> Tuple[str, ...]:
    """All registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))
