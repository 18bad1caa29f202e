"""Progression-free sets and perfect hash families derived from packings.

An NTAP set S in Z_v has no three distinct elements with 2z = x + y; this is
exactly a single-block packing, so the two verifiers agree on odd moduli.
The ternary construction here gives 2^n elements inside Z_{3^n}, and any
NTAP over odd v expands into a 3-row perfect hash family of strength 3 with
one column per (element, shift) pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .packing import Nhsdp, Verdict

# Coefficients of the size-bound comparison.  The reference lower bound is
# rho2 = v * 2^(-(2*sqrt(log2(24/7)) + o(1)) * sqrt(log2 v)); with v = 3^n,
# o(1) taken as 0, and the sqrt factored as log2(3) * sqrt(n), the log of
# rho2 / 2^n expands to BOUND_LINEAR * n - BOUND_SQRT * sqrt(n).
LN2 = math.log(2.0)
LN3 = math.log(3.0)
LOG2_3 = math.log2(3.0)
TWO_SQRT_LOG2_24_7 = 2.0 * math.sqrt(math.log2(24.0 / 7.0))
BOUND_LINEAR = LN3 - LN2                        # ~= 0.4055
BOUND_SQRT = TWO_SQRT_LOG2_24_7 * LN2 * LOG2_3  # ~= 2.9293


@dataclass(frozen=True)
class NtapSet:
    """A subset of Z_v with no three-term arithmetic progression."""

    v: int
    elements: tuple[int, ...]

    @classmethod
    def from_elements(cls, v: int, elements: Iterable[int]) -> "NtapSet":
        return cls(v, tuple(sorted({x % v for x in elements})))

    @classmethod
    def from_packing(cls, packing: Nhsdp) -> "NtapSet":
        """View a single-block packing as an NTAP set."""
        if packing.b != 1:
            raise ValueError(f"need a single-block packing, got b={packing.b}")
        return cls(packing.v, packing.blocks[0])

    @property
    def size(self) -> int:
        return len(self.elements)

    def verify(self) -> Verdict:
        return verify_ntap(self.v, self.elements)


def ntap_construct(n: int) -> NtapSet:
    """The 2^n signed ternary sums {sum_i (+-1) * 3^(i-1)} inside Z_{3^n}."""
    if n < 1:
        raise ValueError("n must be positive")
    v = 3**n
    elements = {
        sum(s * 3**i for i, s in enumerate(signs)) % v
        for signs in itertools.product((-1, 1), repeat=n)
    }
    assert len(elements) == 2**n
    return NtapSet(v, tuple(sorted(elements)))


def verify_ntap(v: int, elements: Iterable[int]) -> Verdict:
    """Exhaustive progression check over every pair of distinct elements.

    For each unordered pair {x, y} the candidates z with 2z = x + y (mod v)
    are computed directly (one for odd v, zero or two for even v), which
    covers exactly the ordered-triple space.  A violation reports (x, y, z).
    """
    if v < 1:
        raise ValueError("modulus must be positive")
    elems = sorted(set(elements))
    for x in elems:
        if not (0 <= x < v):
            raise ValueError(f"element {x} outside [0, {v})")
    member = set(elems)
    for x, y in itertools.combinations(elems, 2):
        total = (x + y) % v
        if v % 2 == 1:
            candidates = (total * ((v + 1) // 2) % v,)
        elif total % 2 == 0:
            candidates = (total // 2, (total + v) // 2)
        else:
            candidates = ()
        for z in candidates:
            if z in member and z != x and z != y:
                return Verdict(
                    False,
                    "progression",
                    f"2*{z} = {x} + {y} (mod {v})",
                    {"x": x, "y": y, "z": z},
                )
    return Verdict(
        True, "valid", f"NTAP set of size {len(elems)} in Z_{v}", {"size": len(elems)}
    )


@dataclass(frozen=True)
class NtapBoundReport:
    """Comparison of 2^n against the probabilistic lower bound at v = 3^n.

    ``rho2`` is the reference bound evaluated directly; ``ln_ratio`` is the
    series expansion BOUND_LINEAR * n - BOUND_SQRT * sqrt(n) of
    ln(rho2 / rho1), which is what decides ``rho1_wins``.
    """

    n: int
    rho1: int
    rho2: float
    ln_ratio: float
    rho1_wins: bool


def ntap_bound_report(n: int) -> NtapBoundReport:
    if n < 1:
        raise ValueError("n must be positive")
    log2_v = n * LOG2_3
    rho2 = 2.0 ** (log2_v - TWO_SQRT_LOG2_24_7 * math.sqrt(log2_v))
    ln_ratio = BOUND_LINEAR * n - BOUND_SQRT * math.sqrt(n)
    return NtapBoundReport(
        n=n, rho1=2**n, rho2=rho2, ln_ratio=ln_ratio, rho1_wins=ln_ratio <= 0.0
    )


@dataclass(frozen=True, eq=False)
class PhfArray:
    """An r x m array over [0, q) in which every t columns are separated."""

    q: int
    t: int
    grid: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.int64)
        if grid.ndim != 2 or grid.size == 0:
            raise ValueError("PHF grid must be a non-empty 2-D array")
        if grid.min() < 0 or grid.max() >= self.q:
            raise ValueError(f"entries must lie in [0, {self.q})")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)

    @property
    def r(self) -> int:
        return self.grid.shape[0]

    @property
    def m(self) -> int:
        return self.grid.shape[1]


def phf_columns_from_elements(v: int, elements: Iterable[int]) -> PhfArray:
    """The 3 x (g*v) shift array: column (i, x) holds x + j * b_i in row j.

    This is the raw cell rule; it only yields a strength-3 PHF when the
    elements form an NTAP set over odd v (see :func:`phf_from_ntap`, and the
    negative-control tests that feed it a progression).
    """
    elems = tuple(sorted({x % v for x in elements}))
    if not elems:
        raise ValueError("need at least one element")
    grid = np.empty((3, len(elems) * v), dtype=np.int64)
    x = np.arange(v)
    for i, b in enumerate(elems):
        for j in range(3):
            grid[j, i * v : (i + 1) * v] = (x + j * b) % v
    return PhfArray(q=v, t=3, grid=grid)


def phf_from_ntap(ntap: NtapSet) -> PhfArray:
    """Expand a g-element NTAP set over odd v into a (3; g*v, v, 3) PHF."""
    if ntap.v % 2 == 0:
        raise ValueError("the shift construction needs an odd modulus")
    verdict = verify_ntap(ntap.v, ntap.elements)
    if not verdict.ok:
        raise ValueError(f"input is not an NTAP set: {verdict.detail}")
    return phf_columns_from_elements(ntap.v, ntap.elements)


def verify_phf(phf: PhfArray) -> Verdict:
    """Check that some row separates every t-subset of columns.

    Strength 3 takes the exact pair-class sweep: an unseparated triple has a
    pair colliding in row 0, and its third column collides with that pair in
    every row where the pair itself separates.  The cost is O(r*m) plus, per
    pair colliding in row 0, r set intersections of bucket sizes, rather
    than C(m, 3) triples.  Any other strength sweeps all C(m, t) subsets.
    Either way the witness is the lexicographically first unseparated subset.
    """
    r, m = phf.r, phf.m
    t = phf.t
    if t > m:
        raise ValueError(f"strength t={t} exceeds column count m={m}")
    cols = [tuple(int(v) for v in phf.grid[:, c]) for c in range(m)]

    if t != 3:
        for subset in itertools.combinations(range(m), t):
            if not _separated(cols, subset, r):
                return _unseparated(subset)
        return Verdict(True, "valid", "PHF")

    buckets: list[dict[int, list[int]]] = []
    for j in range(r):
        bucket: dict[int, list[int]] = {}
        for c in range(m):
            bucket.setdefault(cols[c][j], []).append(c)
        buckets.append(bucket)
    first: tuple[int, int, int] | None = None
    for group in buckets[0].values():
        for a, b in itertools.combinations(group, 2):
            candidates: set[int] | None = None  # None: unconstrained so far
            for j in range(1, r):
                if cols[a][j] == cols[b][j]:
                    continue  # row j is non-separating through (a, b) alone
                row_hits = set(buckets[j].get(cols[a][j], ()))
                row_hits.update(buckets[j].get(cols[b][j], ()))
                candidates = row_hits if candidates is None else candidates & row_hits
                if not candidates:
                    break
            # The smallest completing column gives this pair's first triple;
            # with candidates None, (a, b) collide in every row and any
            # third column completes one.
            for c in range(m) if candidates is None else sorted(candidates):
                if c != a and c != b and not _separated(cols, (a, b, c), r):
                    triple = tuple(sorted((a, b, c)))
                    first = triple if first is None else min(first, triple)
                    break
    if first is not None:
        return _unseparated(first)
    return Verdict(True, "valid", f"(3;{m},{phf.q},3) PHF")


def _unseparated(columns: tuple[int, ...]) -> Verdict:
    return Verdict(
        False,
        "unseparated",
        f"no row separates columns {columns}",
        {"columns": columns},
    )


def _separated(cols, subset, r) -> bool:
    for j in range(r):
        values = [cols[c][j] for c in subset]
        if len(set(values)) == len(values):
            return True
    return False


@dataclass(frozen=True)
class PhfColumnComparison:
    """Column counts of the shift PHF versus a projective-geometry family."""

    n: int
    mode: str
    columns_shift: int          # 6^n, from the ternary NTAP construction
    columns_reference: float
    ratio: float                # reference / shift
    ratio_exact: Fraction | None


def phf_column_comparison(n: int, mode: str) -> PhfColumnComparison:
    """Evaluate 6^n against p^2(p+1) with p^2 = 3^n, or p^5 with p^3 = 3^n.

    ``vs_quadrics`` compares against the quadric family (ratio
    (3/4)^(n/2) + 2^-n, below 1 for n > 2); ``vs_hermitian`` against the
    Hermitian family (ratio 3^(2n/3) / 2^n, slowly growing).  Exact
    rationals are attached when the exponents are integral.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    shift = 6**n
    if mode == "vs_quadrics":
        reference = 3.0**n * (3.0 ** (n / 2) + 1.0)
        ratio = 0.75 ** (n / 2) + 0.5**n
        exact = Fraction(3 ** (n // 2) + 1, 2**n) if n % 2 == 0 else None
    elif mode == "vs_hermitian":
        reference = 3.0 ** (5 * n / 3)
        ratio = 3.0 ** (2 * n / 3) / 2.0**n
        exact = Fraction(3 ** (2 * n // 3), 2**n) if n % 3 == 0 else None
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return PhfColumnComparison(n, mode, shift, reference, ratio, exact)
