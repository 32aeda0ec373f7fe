"""Performance metrics: IPC aggregation and weighted speedup.

The paper reports *weighted speedup* [Snavely & Tullsen]:

    WS = sum_i IPC_shared,i / IPC_alone,i

normalised to the DDR4 baseline.  Alone-IPCs are measured by running each
benchmark by itself on the baseline memory system; using one alone-IPC set
for every configuration keeps the normalised comparison exact (the alone
term cancels identically in the ratio of two configurations' WS) while
halving simulation cost.
"""

from __future__ import annotations

import json
import math
import zlib
from collections import Counter
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union


def rate(part: float, whole: float) -> float:
    """``part / whole``, defined as 0.0 when the denominator is zero.

    The cycle-accounting roll-ups (:mod:`repro.sim.accounting`) report
    many ratios over counters that may legitimately be zero -- a bank
    that never saw a column command has no row-hit rate -- so the shared
    helper makes "no events" read as 0 everywhere instead of scattering
    guards.

    >>> rate(3, 4)
    0.75
    >>> rate(1, 0)
    0.0
    """
    if not whole:
        return 0.0
    return part / whole


def weighted_speedup(shared_ipcs: Sequence[float],
                     alone_ipcs: Sequence[float]) -> float:
    """Snavely-Tullsen weighted speedup of one mix run."""
    if len(shared_ipcs) != len(alone_ipcs):
        raise ValueError("shared and alone IPC lists differ in length")
    if not shared_ipcs:
        raise ValueError("empty IPC lists")
    for alone in alone_ipcs:
        if alone <= 0:
            raise ValueError("alone IPC must be positive")
    return sum(s / a for s, a in zip(shared_ipcs, alone_ipcs))


def gmean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's GMEAN column)."""
    vals = list(values)
    if not vals:
        raise ValueError("gmean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("gmean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


class LatencyHistogram:
    """Bounded-memory exact latency accumulator (Fig. 16a inputs).

    Functionally a multiset of integer latencies, stored as
    ``{value: count}`` so memory is O(unique values) instead of O(
    samples): a grid cell serving millions of reads keeps a few
    thousand distinct latencies.  Everything downstream is exact --
    quantiles use the same nearest-rank definition as
    :func:`quartiles`, and iteration yields the *sorted expansion*
    (each value repeated ``count`` times), which is how the result
    digest reproduces the historical sorted-list encoding bit for bit.

    The result store persists a histogram as one compact JSON string
    plus its CRC-32 (:meth:`pack`).  :meth:`unpack` checks the CRC and
    keeps the string; the counts are built on first read (any method
    below, iteration, equality), so a reader that never looks at the
    latencies -- the Fig. 12 reducer -- never pays for decoding them.
    A live histogram holds its counts from the start, so :meth:`add`
    costs the same either way.

    >>> h = LatencyHistogram([3, 1, 3])
    >>> list(h), len(h), h.min()
    ([1, 3, 3], 3, 1)
    >>> h.merge(LatencyHistogram([2])); h.quartiles()["median"]
    2.0
    >>> packed, crc = h.pack()
    >>> packed
    '[[1,2,3],[1,1,2]]'
    >>> restored = LatencyHistogram.unpack(packed, crc)
    >>> restored.decoded
    False
    >>> restored == h, restored.decoded
    (True, True)
    >>> LatencyHistogram.unpack(packed.replace("2", "4"), crc)
    Traceback (most recent call last):
    ...
    ValueError: packed histogram fails its CRC-32
    """

    __slots__ = ("counts", "total", "_packed")

    def __init__(self, values: Iterable[int] = ()) -> None:
        self.counts: Counter = Counter(values)
        self.total = sum(self.counts.values())
        self._packed: Optional[str] = None

    @classmethod
    def unpack(cls, packed: str, crc32: int) -> "LatencyHistogram":
        """The histogram :meth:`pack` returned ``(packed, crc32)`` for.

        The CRC is checked here, so a changed or truncated string raises
        :class:`ValueError` and mistyped arguments raise
        :class:`TypeError`; the string itself is decoded on first read.
        """
        if type(packed) is not str or type(crc32) is not int:
            raise TypeError("a packed histogram is a (str, int) pair")
        if zlib.crc32(packed.encode()) != crc32:
            raise ValueError("packed histogram fails its CRC-32")
        hist = _Restored.__new__(_Restored)
        hist._packed = packed
        return hist

    def pack(self) -> Tuple[str, int]:
        """``(packed, crc32)``: ``[values, counts]`` as compact JSON,
        the distinct latencies ascending, and the CRC-32 of that string.
        """
        values = sorted(self.counts)
        packed = json.dumps([values, [self.counts[v] for v in values]],
                            separators=(",", ":"))
        return packed, zlib.crc32(packed.encode())

    @property
    def decoded(self) -> bool:
        """Whether the counts exist yet (always, unless unpacked and
        not read since)."""
        return self._packed is None

    def add(self, value: int) -> None:
        """Record one sample."""
        self.counts[value] += 1
        self.total += 1

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram in -- O(unique values of ``other``)."""
        self.counts.update(other.counts)
        self.total += other.total

    def min(self) -> int:
        """Smallest recorded sample."""
        if not self.total:
            raise ValueError("empty histogram")
        return min(self.counts)

    def max(self) -> int:
        """Largest recorded sample."""
        if not self.total:
            raise ValueError("empty histogram")
        return max(self.counts)

    def mean(self) -> float:
        """Arithmetic mean of all samples."""
        if not self.total:
            raise ValueError("empty histogram")
        return sum(v * c for v, c in self.counts.items()) / self.total

    def quantile(self, fraction: float) -> float:
        """Nearest-rank quantile: the sample at 1-indexed rank
        ``ceil(fraction * n)``, identical to :func:`quartiles`' pick."""
        if not self.total:
            raise ValueError("empty histogram")
        rank = max(1, math.ceil(fraction * self.total))
        seen = 0
        for value in sorted(self.counts):
            seen += self.counts[value]
            if seen >= rank:
                return float(value)
        raise AssertionError("rank beyond total")  # pragma: no cover

    def quartiles(self) -> Dict[str, float]:
        """Same dict as :func:`quartiles` over the expansion, computed
        from counts without materialising the samples."""
        return {
            "mean": self.mean(),
            "q1": self.quantile(0.25),
            "median": self.quantile(0.5),
            "q3": self.quantile(0.75),
        }

    def __len__(self) -> int:
        return self.total

    def __bool__(self) -> bool:
        return self.total > 0

    def __iter__(self) -> Iterator[int]:
        """Sorted expansion: each value repeated ``count`` times."""
        for value in sorted(self.counts):
            count = self.counts[value]
            for _ in range(count):
                yield value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LatencyHistogram):
            return self.counts == other.counts
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"LatencyHistogram(samples={self.total}, "
                f"unique={len(self.counts)})")


class _Restored(LatencyHistogram):
    """A histogram made by :meth:`LatencyHistogram.unpack`: its counts
    are decoded from the packed string on first read.

    ``__getattr__`` lives here, not on :class:`LatencyHistogram`: a
    class that defines it loses CPython's specialised attribute access,
    which would slow a live histogram's :meth:`~LatencyHistogram.add`
    by about a quarter.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: for ``counts`` and
        # ``total`` that means the first read.
        if name not in ("counts", "total"):
            raise AttributeError(name)
        values, counts = json.loads(self._packed)
        self.counts = Counter(dict(zip(values, counts, strict=True)))
        self.total = sum(counts)
        self._packed = None
        return getattr(self, name)


def quartiles(samples: Union[Sequence[int], LatencyHistogram]
              ) -> Dict[str, float]:
    """Mean and quartiles of a latency sample (Fig. 16a box stats).

    Quartiles use the nearest-rank definition: the p-quantile of n
    sorted samples is element ``ceil(p * n)`` (1-indexed), so e.g.
    ``median([1, 2, 3, 4]) == 2.0`` (the lower middle element, rank 2),
    never an element above the requested fraction.

    A :class:`LatencyHistogram` is answered from its counts directly
    (no expansion); the two routes agree exactly.
    """
    if isinstance(samples, LatencyHistogram):
        if not samples:
            raise ValueError("no samples")
        return samples.quartiles()
    if not samples:
        raise ValueError("no samples")
    s = sorted(samples)
    n = len(s)

    def pick(fraction: float) -> float:
        return float(s[max(0, math.ceil(fraction * n) - 1)])

    return {
        "mean": sum(s) / n,
        "q1": pick(0.25),
        "median": pick(0.5),
        "q3": pick(0.75),
    }
