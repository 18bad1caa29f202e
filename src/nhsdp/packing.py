"""Non-half-sum disjoint packings (NHSDPs) over Z_v.

A (v, g, b) NHSDP is a family of b pairwise-disjoint g-subsets ("blocks") of
Z_v with v odd, such that the half-sum (x + y) / 2 of any two distinct
elements of one block never lands in any block.  These packings generate
placement delivery arrays with as many rows as ring elements (see ``pda``).

The module covers construction and verification of packings, the recursive
block-parameter family behind the main construction, exact and closed-form
solutions of the block-count maximisation problem, and cyclic difference
packings (CDPs), which embed as single-block NHSDPs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .ringmath import OddResidueRing, integer_nth_root, prime_factors, prime_power_parts


@dataclass(frozen=True)
class Verdict:
    """Outcome of a structural check: ``ok`` plus a machine-readable code.

    ``info`` carries structured evidence - offending indices, elements,
    computed half-sums, cell coordinates - so callers can render reports
    without re-deriving the failure.
    """

    ok: bool
    code: str
    detail: str = ""
    info: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Nhsdp:
    """A modulus v plus an ordered family of disjoint blocks of Z_v.

    Blocks are stored canonically: every element reduced into [0, v) and each
    block sorted ascending.  Use :func:`verify_nhsdp` to check the packing
    conditions; the constructors in this module only normalise.
    """

    v: int
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(cls, v: int, blocks: Iterable[Iterable[int]]) -> "Nhsdp":
        """Build from possibly-signed elements, reducing mod v."""
        if v < 1:
            raise ValueError("modulus must be positive")
        normalised = tuple(tuple(sorted({x % v for x in blk})) for blk in blocks)
        return cls(v, normalised)

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def g(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0

    def element_set(self) -> frozenset[int]:
        return frozenset(x for blk in self.blocks for x in blk)

    def verify(self) -> Verdict:
        return verify_nhsdp(self.v, self.blocks)


def _check_residues(v: int, blocks: Sequence[Sequence[int]]) -> None:
    if v % 2 == 0 or v < 3:
        raise ValueError(f"NHSDP modulus must be odd and >= 3, got {v}")
    for i, blk in enumerate(blocks):
        for x in blk:
            if not (0 <= x < v):
                raise ValueError(f"element {x} of block {i} is outside [0, {v})")


def verify_nhsdp(v: int, blocks: Iterable[Iterable[int]]) -> Verdict:
    """Check both packing conditions and the uniform block size.

    Returns a valid verdict carrying (g, b), or a violation naming the
    failed condition:

    * ``disjoint``    two blocks share an element (condition 1);
    * ``half-sum``    a within-block half-sum lands in some block (condition 2);
    * ``cardinality`` blocks do not share one size g.
    """
    block_list = [tuple(sorted(set(blk))) for blk in blocks]
    if not block_list:
        raise ValueError("an NHSDP needs at least one block")
    _check_residues(v, block_list)

    g = len(block_list[0])
    for i, blk in enumerate(block_list):
        if len(blk) != g:
            return Verdict(
                False,
                "cardinality",
                f"block {i} has {len(blk)} elements, block 0 has {g}",
                {"block": i, "size": len(blk), "expected": g},
            )

    membership: dict[int, int] = {}
    for i, blk in enumerate(block_list):
        for x in blk:
            if x in membership:
                return Verdict(
                    False,
                    "disjoint",
                    f"element {x} appears in blocks {membership[x]} and {i}",
                    {"element": x, "blocks": (membership[x], i)},
                )
            membership[x] = i

    ring = OddResidueRing(v)
    for i, blk in enumerate(block_list):
        for x, y in itertools.combinations(blk, 2):
            h = ring.half_sum(x, y)
            if h in membership:
                return Verdict(
                    False,
                    "half-sum",
                    f"half-sum of {x} and {y} in block {i} is {h}, "
                    f"which lies in block {membership[h]}",
                    {
                        "block": i,
                        "elements": (x, y),
                        "half_sum": h,
                        "hit_block": membership[h],
                    },
                )

    b = len(block_list)
    return Verdict(True, "valid", f"({v},{g},{b}) NHSDP", {"v": v, "g": g, "b": b})


def half_sum_set(v: int, blocks: Iterable[Iterable[int]]) -> frozenset[int]:
    """All half-sums of distinct same-block pairs, over every block."""
    block_list = [tuple(set(blk)) for blk in blocks]
    _check_residues(v, block_list)
    ring = OddResidueRing(v)
    out = set()
    for blk in block_list:
        for x, y in itertools.combinations(blk, 2):
            out.add(ring.half_sum(x, y))
    return frozenset(out)


@dataclass(frozen=True)
class BlockParams:
    """The recursive scale family f(i) behind the product construction.

    f(1) = m_1 and f(i) = m_i * (2 * sum_{j<i} f(j) + 1); the base points are
    x_i = f(i) / m_i and phi = sum_i f(i).  Any odd modulus v >= 2*phi + 1
    admits the construction.
    """

    m: tuple[int, ...]
    f: tuple[int, ...]
    x: tuple[int, ...]
    phi: int

    @property
    def n(self) -> int:
        return len(self.m)

    @property
    def min_modulus(self) -> int:
        return 2 * self.phi + 1


def block_params(m: Sequence[int]) -> BlockParams:
    """Evaluate the f recursion, the base points x, and phi for a given m."""
    ms = tuple(int(v) for v in m)
    if not ms or any(mi < 1 for mi in ms):
        raise ValueError("m must be a non-empty sequence of positive integers")
    f: list[int] = []
    total = 0
    for mi in ms:
        fi = mi if not f else mi * (2 * total + 1)
        f.append(fi)
        total += fi
    x = tuple(fi // mi for fi, mi in zip(f, ms))
    assert all(fi % mi == 0 for fi, mi in zip(f, ms))
    return BlockParams(ms, tuple(f), x, total)


def construct_nhsdp(v: int, m: Sequence[int]) -> Nhsdp:
    """Build the (v, 2^n, prod m_i) packing from scale parameters m.

    Block D_a, for a in [m_1] x ... x [m_n], consists of the 2^n signed
    combinations sum_i (+-1) * a_i * x_i reduced mod v.  Requires odd
    v >= 2 * phi(m) + 1 so the signed range [-phi, phi] embeds injectively.
    Blocks are emitted with a_1 varying fastest.
    """
    params = block_params(m)
    if v % 2 == 0:
        raise ValueError(f"modulus must be odd, got {v}")
    if v < params.min_modulus:
        raise ValueError(
            f"modulus {v} is below the admissible minimum {params.min_modulus} "
            f"for m={params.m}"
        )
    n = params.n
    blocks = []
    for rev_a in itertools.product(*(range(1, mi + 1) for mi in reversed(params.m))):
        a = tuple(reversed(rev_a))
        block = {
            sum(s * ai * xi for s, ai, xi in zip(signs, a, params.x)) % v
            for signs in itertools.product((-1, 1), repeat=n)
        }
        blocks.append(tuple(sorted(block)))
    return Nhsdp(v, tuple(blocks))


def choose_params_closed_form(v: int, n: int) -> tuple[int, ...]:
    """The all-equal parameter choice m_i = floor((v^{1/n} - 1) / 2).

    The root is the exact integer n-th root, never a float.  Rejected when
    the floor is zero (v^{1/n} < 3), since every m_i must be positive.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if v < 3 or v % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {v}")
    q0 = integer_nth_root(v, n)
    mi = (q0 - 1) // 2
    if mi < 1:
        raise ValueError(f"(v={v}, n={n}) gives floor((v^(1/n)-1)/2) = 0")
    return (mi,) * n


def solve_problem1_exact(v: int, n: int) -> tuple[tuple[int, ...], int]:
    """Maximise prod m_i subject to phi(m) <= (v - 1) / 2, exactly.

    The constraint is equivalent to prod_i (1 + 2 m_i) <= v.  Objective and
    constraint are both symmetric in m, so only non-decreasing sequences are
    enumerated: a prefix of weight w = prod_j (1 + 2 m_j) is extended by m_i
    only while w * (1 + 2 m_i)^(r + 1) <= v, where r counts the coordinates
    after m_i, since each of them is at least m_i.  The last coordinate is
    set in closed form to the largest feasible value, (v // w - 1) // 2,
    which the bound on the prefix keeps at least as large as the coordinate
    before it.  The product rises with the last coordinate, so no smaller
    value can win or tie.

    Ties break to the lexicographically smallest sequence.  Every
    permutation of a maximiser is one, and the sorted permutation is the
    smallest of them, so the smallest maximiser is sorted.  Sorted
    sequences are visited in ascending order and the incumbent is replaced
    only on a strictly larger product, which returns exactly that sequence.

    prod_i (1 + 2 m_i) is odd, so an even v gives the answer for v - 1.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if 3**n > v:
        raise ValueError(
            f"no feasible m for (v={v}, n={n}): even m=(1,...,1) needs v >= {3**n}"
        )

    best_seq: tuple[int, ...] = ()
    best_prod = 0
    prefix: list[int] = []

    def dfs(lo: int, weight: int, prod: int) -> None:
        nonlocal best_seq, best_prod
        remaining = n - len(prefix) - 1
        if remaining == 0:
            last = (v // weight - 1) // 2
            if prod * last > best_prod:
                best_prod = prod * last
                best_seq = (*prefix, last)
            return
        mi = lo
        while weight * (1 + 2 * mi) ** (remaining + 1) <= v:
            prefix.append(mi)
            dfs(mi, weight * (1 + 2 * mi), prod * mi)
            prefix.pop()
            mi += 1

    dfs(1, 1, 1)
    assert best_prod >= 1
    return best_seq, best_prod


@dataclass(frozen=True)
class Cdp:
    """A cyclic difference packing: distinct pairwise differences in Z_v."""

    v: int
    elements: tuple[int, ...]
    is_difference_set: bool

    @property
    def k(self) -> int:
        return len(self.elements)

    @classmethod
    def from_elements(cls, v: int, elements: Iterable[int]) -> "Cdp":
        """Classify and wrap; raises ValueError if some difference repeats."""
        verdict = verify_cdp(v, elements)
        if not verdict.ok:
            raise ValueError(verdict.detail)
        return cls(v, tuple(sorted(set(elements))), verdict.code == "ds")


def verify_cdp(v: int, elements: Iterable[int]) -> Verdict:
    """Classify a subset of Z_v as a difference set, a CDP, or neither.

    Codes: ``ds`` when every nonzero residue arises exactly once as a
    difference of two distinct elements, ``cdp`` when at most once, and
    ``repeated-difference`` otherwise (info names the repeated residue and
    both representations).
    """
    if v < 1:
        raise ValueError("modulus must be positive")
    elems = sorted(set(elements))
    for x in elems:
        if not (0 <= x < v):
            raise ValueError(f"element {x} outside [0, {v})")
    seen: dict[int, tuple[int, int]] = {}
    for x, y in itertools.permutations(elems, 2):
        d = (x - y) % v
        if d in seen:
            return Verdict(
                False,
                "repeated-difference",
                f"difference {d} has representations "
                f"{seen[d][0]}-{seen[d][1]} and {x}-{y} (mod {v})",
                {"difference": d, "first": seen[d], "second": (x, y)},
            )
        seen[d] = (x, y)
    k = len(elems)
    if len(seen) == v - 1:
        return Verdict(True, "ds", f"({v},{k}) difference set", {"v": v, "k": k})
    return Verdict(True, "cdp", f"({v},{k}) CDP", {"v": v, "k": k})


def cdp_to_nhsdp(cdp: Cdp) -> Nhsdp:
    """Wrap a verified CDP over odd v as the single-block (v, k, 1) packing.

    If three distinct elements satisfied 2z = x + y, the residue z - y = x - z
    would have two difference representations, so a CDP can never contain a
    within-block half-sum.
    """
    if cdp.v % 2 == 0 or cdp.v < 3:
        raise ValueError(f"NHSDP modulus must be odd and >= 3, got {cdp.v}")
    return Nhsdp(cdp.v, (tuple(sorted(cdp.elements)),))


DS_SEARCH_MAX_Q = 16  # Singer's construction takes milliseconds at every prime power up to here


def ds_search(q: int) -> Cdp | None:
    """A (q^2 + q + 1, q + 1) planar difference set, canonicalised.

    The set contains 0 and 1 (every difference set has such a translate,
    since the difference 1 is represented).  For a prime power q it is built
    by Singer's construction and returned as the lexicographically least set
    containing {0, 1} in its Singer orbit: its images t * D + s for every
    multiplier t prime to v and every translate s.  Backtracking finds the
    same set as the least planar difference set containing {0, 1} for every
    prime power q <= 11; for q = 13 and 16 no backtracking reference exists,
    as the search does not end in practice.

    q = 6 is searched by backtracking, which exhausts and returns None.
    Other non-prime-power q (10, 12, 14, 15) are refused: their search does
    not end in practice, and by theorem there is no set to find.
    """
    if not 2 <= q <= DS_SEARCH_MAX_Q:
        raise ValueError(f"q must lie in [2, {DS_SEARCH_MAX_Q}], got {q}")
    parts = prime_power_parts(q)
    if parts is None:
        if q > 6:
            raise ValueError(
                f"q={q} is not a prime power, and no planar difference set of "
                "non-prime-power order below 2,000,000 exists (a theorem: D. M. Gordon, "
                "Electron. J. Combin. 1 (1994) R6)"
            )
        return _ds_backtrack(q)
    v = q * q + q + 1
    return Cdp.from_elements(v, _least_in_orbit(v, _singer_set(q, *parts)))


def _singer_set(q: int, p: int, e: int) -> list[int]:
    """Singer's planar difference set {i mod v : Tr(alpha^i) = 0}, v = q^2 + q + 1.

    GF(q^3) is GF(p)[x] modulo the first monic degree-3e polynomial, in
    ascending order of its coefficients read as base-p digits, in which
    alpha = x has order p^(3e) - 1.  Tr(y) = y + y^q + y^(q^2) maps GF(q^3)
    onto GF(q) and is GF(p)-linear, so it is tabulated on the basis x^j.
    alpha^v lies in GF(q)*, so whether Tr(alpha^i) vanishes depends only on
    i mod v (J. Singer, Trans. Amer. Math. Soc. 43 (1938) 377-385).
    """
    n = 3 * e
    order = p**n - 1
    exponents = [order // r for r in prime_factors(order)]
    one = [1] + [0] * (n - 1)
    x = [0, 1] + [0] * (n - 2)
    for code in range(p**n + 1, 2 * p**n):
        # x^n = -(c_0 + c_1 x + ... + c_{n-1} x^{n-1}) for the base-p digits c_j of code
        red = [-(code // p**j) % p for j in range(n)]
        if red[0] and _gf_pow(x, order, red, p) == one and all(
            _gf_pow(x, k, red, p) != one for k in exponents
        ):
            break
    trace = []
    basis = one
    for _ in range(n):
        terms = (basis, _gf_pow(basis, q, red, p), _gf_pow(basis, q * q, red, p))
        trace.append([sum(col) % p for col in zip(*terms)])
        basis = _gf_mul(basis, x, red, p)
    out = []
    power = one
    for i in range(q * q + q + 1):
        if all(sum(c * t[k] for c, t in zip(power, trace)) % p == 0 for k in range(n)):
            out.append(i)
        power = _gf_mul(power, x, red, p)
    return out


def _gf_mul(a: list[int], b: list[int], red: list[int], p: int) -> list[int]:
    """a * b in GF(p)[x] / (x^n - red(x)), coefficients listed from x^0."""
    n = len(red)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for d in range(2 * n - 2, n - 1, -1):
        c = prod[d] % p
        if c:
            for j, rj in enumerate(red):
                prod[d - n + j] += c * rj
    return [c % p for c in prod[:n]]


def _gf_pow(a: list[int], k: int, red: list[int], p: int) -> list[int]:
    """a^k in GF(p)[x] / (x^n - red(x)) by square-and-multiply, for k >= 1."""
    result = None
    while True:
        if k & 1:
            result = a if result is None else _gf_mul(result, a, red, p)
        k >>= 1
        if not k:
            return result
        a = _gf_mul(a, a, red, p)


def _least_in_orbit(v: int, elements: Iterable[int]) -> tuple[int, ...]:
    """The lexicographically least t * D + s containing {0, 1}, over gcd(t, v) = 1.

    D must be a difference set: each t * D then represents the difference 1
    exactly once, by a pair (a, a + 1), and s = -a is its one translate that
    contains {0, 1}.
    """
    best = None
    for t in range(1, v):
        if math.gcd(t, v) != 1:
            continue
        scaled = {t * d % v for d in elements}
        a = next(a for a in scaled if (a + 1) % v in scaled)
        image = tuple(sorted((x - a) % v for x in scaled))
        if best is None or image < best:
            best = image
    return best


def _ds_backtrack(q: int) -> Cdp | None:
    """Backtracking search for the least (q^2 + q + 1, q + 1) difference set containing {0, 1}.

    Elements are tried in ascending order, so the first set found is the
    lexicographically least one.  Returns None when the search exhausts.
    """
    v = q * q + q + 1
    k = q + 1

    used = [False] * v
    chosen = [0, 1]
    used[1] = True
    used[v - 1] = True

    def place(e: int) -> list[int]:
        diffs = []
        for d in chosen:
            for delta in ((e - d) % v, (d - e) % v):
                if used[delta]:
                    for back in diffs:
                        used[back] = False
                    return []
                used[delta] = True
                diffs.append(delta)
        return diffs

    def extend() -> bool:
        if len(chosen) == k:
            return True
        lo = chosen[-1] + 1
        # Need k - len(chosen) more ascending elements below v.
        for e in range(lo, v - (k - len(chosen) - 1)):
            diffs = place(e)
            if not diffs:
                continue
            chosen.append(e)
            if extend():
                return True
            chosen.pop()
            for delta in diffs:
                used[delta] = False
        return False

    if not extend():
        return None
    return Cdp.from_elements(v, chosen)
