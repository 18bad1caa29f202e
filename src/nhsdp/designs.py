"""Progression-free sets and perfect hash families derived from packings.

An NTAP set S in Z_v has no three distinct elements with 2z = x + y; this is
exactly a single-block packing, so the two verifiers agree on odd moduli.
The ternary construction here gives 2^n elements inside Z_{3^n}, and any
NTAP over odd v expands into a 3-row perfect hash family of strength 3 with
one column per (element, shift) pair.

The strength-3 PHF check is an array join rather than a triple sweep: every
unseparated triple holds a pair that collides in row 0, so the row-0 pairs
are generated bucket by bucket, in chunks of PHF_CHUNK, and each chunk is
joined against the columns grouped by their values on the rows where the
pair separates.  The working set is bounded by the chunk, not by the
number of pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import pda
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

# Row-0 colliding column pairs that verify_phf joins per array pass.
PHF_CHUNK = 2**10
_PAD = (np.iinfo(np.int64).max,) * 2  # sorted-key padding past the last column


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
    """The 2^n signed ternary sums {sum_i (+-1) * 3^(i-1)} inside Z_{3^n}.

    Built by doubling, e <- (e + 3^i) | (e - 3^i) mod 3^n; refused when
    2^n is over pda.MAX_CELLS.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n >= pda.MAX_CELLS.bit_length():
        raise ValueError(f"2^{n} elements is over the limit of MAX_CELLS = {pda.MAX_CELLS}")
    v = 3**n
    elements = np.zeros(1, dtype=np.int64)
    for i in range(n):
        elements = np.concatenate((elements + 3**i, elements - 3**i))
    return NtapSet(v, tuple(np.sort(elements % v).tolist()))


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
    negative-control tests that feed it a progression).  Refused before
    allocating when 3 * g * v is over pda.MAX_CELLS.
    """
    elems = tuple(sorted({x % v for x in elements}))
    if not elems:
        raise ValueError("need at least one element")
    pda._check_cells("shift PHF", 3, len(elems) * v)
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
    # Built first, so that its cell cap is checked before the O(g^2) scan.
    phf = phf_columns_from_elements(ntap.v, ntap.elements)
    verdict = verify_ntap(ntap.v, ntap.elements)
    if not verdict.ok:
        raise ValueError(f"input is not an NTAP set: {verdict.detail}")
    return phf


def verify_phf(phf: PhfArray) -> Verdict:
    """Check that some row separates every t-subset of columns.

    Strength 3 is a chunked array join.  An unseparated triple has a pair
    (a, b) colliding in row 0, and on each later row where a and b differ
    its third column c equals a or b.  So the columns are grouped by their
    values on each set of separating rows, and for each of the 2^|rows|
    a/b patterns of a pair the first three columns of the matching group
    hold its smallest c not in {a, b}; a pair colliding in every row takes
    the smallest such column outright.  The row-0 pairs come bucket by
    bucket, about PHF_CHUNK at a time, so the working set is O(r*m) per
    set of separating rows met plus O(2^r * PHF_CHUNK), whatever the pair
    count.  Any other strength sweeps all C(m, t) subsets.  Either way the witness is the lexicographically first
    unseparated subset.
    """
    r, m = phf.r, phf.m
    t = phf.t
    if t > m:
        raise ValueError(f"strength t={t} exceeds column count m={m}")

    if t != 3:
        cols = [tuple(int(v) for v in phf.grid[:, c]) for c in range(m)]
        for subset in itertools.combinations(range(m), t):
            if not _separated(cols, subset, r):
                return _unseparated(subset)
        return Verdict(True, "valid", "PHF")

    # Each row's values as dense ranks, so that keys over several rows stay
    # below m * m whatever q is.  Ranks and column orders are int32 where m
    # allows, to keep the working set small.
    ranks = np.empty((r, m), dtype=np.int32 if m < 2**31 else np.int64)
    widths = []
    for j in range(r):
        values, ranks[j] = np.unique(phf.grid[j], return_inverse=True)
        widths.append(len(values))
    groups: dict[tuple[int, ...], tuple[np.ndarray, list[np.ndarray]]] = {}
    first: tuple[int, ...] | None = None
    for a, b in _colliding_pairs(ranks[0]):
        # Sort the pairs by their separating rows, then join run by run.
        differ = ranks[:, a] != ranks[:, b]
        order = np.lexsort(differ)
        a, b, differ = a[order], b[order], differ[:, order]
        starts = np.flatnonzero((differ[:, 1:] != differ[:, :-1]).any(axis=0)) + 1
        third = np.empty(len(a), dtype=np.int64)
        for lo, hi in zip([0, *starts.tolist()], [*starts.tolist(), len(a)]):
            rows = tuple(np.flatnonzero(differ[:, lo]).tolist())
            if rows not in groups:
                groups[rows] = _column_groups(ranks, widths, rows)
            third[lo:hi] = _smallest_third(ranks, widths, rows, *groups[rows], a[lo:hi], b[lo:hi])
        hit = third < m
        if hit.any():
            # Sorted triples: with a < b, c goes first, between or last.
            a, b, c = a[hit], b[hit], third[hit]
            triples = (np.minimum(a, c), np.minimum(np.maximum(a, c), b), np.maximum(b, c))
            i = np.lexsort(triples[::-1])[0]
            least = tuple(int(col[i]) for col in triples)
            first = least if first is None else min(first, least)
    if first is not None:
        return _unseparated(first)
    return Verdict(True, "valid", f"(3;{m},{phf.q},3) PHF")


def _colliding_pairs(row: np.ndarray):
    """Yield (a, b) index arrays, a < b, of every column pair equal in row.

    Pairs are listed bucket by bucket and yielded about PHF_CHUNK at a time
    (more only when one column alone has more partners).
    """
    m = len(row)
    order = np.argsort(row, kind="stable").astype(row.dtype)
    values = row[order]
    # Sorted position p pairs with the later positions of its bucket;
    # upto[p] counts the pairs of the positions before p.
    partners = np.searchsorted(values, values, side="right")
    partners -= np.arange(1, m + 1)
    del values
    upto = np.concatenate(([0], np.cumsum(partners)))
    del partners
    p0 = 0
    while p0 < m:
        p1 = max(p0 + 1, int(np.searchsorted(upto, upto[p0] + PHF_CHUNK, side="right")) - 1)
        counts = np.diff(upto[p0 : p1 + 1])
        total = int(upto[p1] - upto[p0])
        if total:
            # Pair i of sorted position p is (p, p + 1 + i).
            skip = np.arange(p0 + 1, p1 + 1) - (upto[p0:p1] - upto[p0])
            yield (
                np.repeat(order[p0:p1], counts),
                order[np.repeat(skip, counts) + np.arange(total)],
            )
        p0 = p1


def _column_groups(ranks, widths, rows):
    """The columns sorted by their values on rows, ties by column index.

    Returns that order and one nondecreasing key per row of rows: the key of
    row rows[i] is (start of the position's group on rows[:i]) * width +
    rank.  A group is a run of equal keys, so the start that searchsorted
    finds names it.  Both are padded by two entries (column m, key int64
    max), so three reads from any group start stay in range.
    """
    m = ranks.shape[1]
    order = np.lexsort(ranks[list(rows[::-1])]) if rows else np.arange(m)
    start = np.zeros(m, dtype=np.int64)
    levels = []
    for j in rows:
        key = start * widths[j] + ranks[j, order]
        runs = np.flatnonzero(key[1:] != key[:-1]) + 1
        start[:] = 0
        start[runs] = runs
        np.maximum.accumulate(start, out=start)
        levels.append(np.append(key, _PAD))
    return np.append(order, (m, m)).astype(ranks.dtype), levels


def _smallest_third(ranks, widths, rows, order, levels, a, b):
    """Per pair (a, b), the smallest c not in {a, b} that equals a or b on
    every one of rows, or m when there is none."""
    m = ranks.shape[1]
    pair = np.arange(len(a))
    start = np.zeros(len(a), dtype=np.int64)
    for j, level in zip(rows, levels):
        # Each a/b pattern so far branches on row j; unmatched ones drop out.
        base = start * widths[j]
        key = np.concatenate((base + ranks[j, a[pair]], base + ranks[j, b[pair]]))
        pair = np.concatenate((pair, pair))
        start = np.searchsorted(level, key)
        found = level[start] == key
        pair, start = pair[found], start[found]
    # A group lists its columns in ascending order, so the least of its first
    # three not in {a, b}, over every pattern, is the pair's smallest third.
    third = np.full(len(a), m, dtype=order.dtype)
    a, b = a[pair], b[pair]
    for d in range(3):
        cand = order[start + d]
        other = (cand == a) | (cand == b)
        if levels:  # with no rows every column is in the one group
            other |= levels[-1][start + d] != levels[-1][start]
        cand[other] = m
        np.minimum.at(third, pair, cand)
    return third


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
