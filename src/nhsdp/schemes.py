"""Closed-form evaluation and comparison of coded-caching schemes.

Every scheme from the comparison tables is evaluated in exact rational
arithmetic (``Fraction`` ratios, arbitrary-precision subpacketization);
decimals only appear when rendering.  The packing-based scheme and its
conjugate are evaluated from either the closed-form parameter choice or the
exact integer-program solution, and a grouping step re-targets any point to
a larger user count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .packing import block_params, choose_params_closed_form, solve_problem1_exact
from .ringmath import binomial, gaussian_binomial, is_prime_power

SCHEME_NAMES = (
    "MN",
    "WCLC",
    "YTCC",
    "WCCLS",
    "CKSM1",
    "CKSM2",
    "ASK1",
    "ASK2",
    "ZCW",
    "WCWL",
    "XXGL",
    "AST",
    "MR",
    "NHSDP",
    "NHSDP_CONJ",
)


class SchemeConstraintError(ValueError):
    """Raised when parameters violate a scheme's constraint column."""


@dataclass(frozen=True)
class SchemePoint:
    """One row of a comparison table: a scheme at concrete parameters."""

    scheme: str
    params: dict
    K: int
    memory_ratio: Fraction
    load: Fraction
    subpacketization: int
    gain: Fraction

    def as_row(self) -> dict:
        return {
            "scheme": self.scheme,
            "params": ";".join(f"{k}={_fmt_param(v)}" for k, v in self.params.items()),
            "K": self.K,
            "memory_ratio_num": self.memory_ratio.numerator,
            "memory_ratio_den": self.memory_ratio.denominator,
            "load_num": self.load.numerator,
            "load_den": self.load.denominator,
            "F": self.subpacketization,
            "gain_num": self.gain.numerator,
            "gain_den": self.gain.denominator,
        }


def _fmt_param(value) -> str:
    if isinstance(value, (tuple, list)):
        return "|".join(str(v) for v in value)
    return str(value)


def _require(cond: bool, constraint: str) -> None:
    if not cond:
        raise SchemeConstraintError(f"constraint violated: {constraint}")


def _point(scheme, params, K, memory, load, F) -> SchemePoint:
    memory = Fraction(memory)
    load = Fraction(load)
    _require(0 <= memory <= 1, "0 <= M/N <= 1")
    _require(load > 0, "load > 0")
    _require(F >= 1, "F >= 1")
    gain = Fraction(K) * (1 - memory) / load
    return SchemePoint(scheme, dict(params), K, memory, load, int(F), gain)


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise SchemeConstraintError(f"{what} is not an integer: {x}")
    return x.numerator


def _mn(p: Mapping) -> SchemePoint:
    K, t = int(p["K"]), int(p["t"])
    _require(1 <= t < K, "1 <= t < K")
    return _point(
        "MN",
        {"K": K, "t": t},
        K,
        Fraction(t, K),
        Fraction(K - t, t + 1),
        binomial(K, t),
    )


def _wclc(p: Mapping) -> SchemePoint:
    k, t, z, m = int(p["k"]), int(p["t"]), int(p["z"]), int(p["m"])
    _require(1 <= t < k, "1 <= t < k")
    _require(1 <= z <= m, "1 <= z <= m")
    q = (k - 1) // (k - t)
    K = binomial(m, z) * k**z
    memory = 1 - Fraction(k - t, k) ** z
    load = Fraction(k - t, q) ** z
    F = q**z * k ** (m - 1)
    return _point("WCLC", {"k": k, "t": t, "z": z, "m": m}, K, memory, load, F)


def _ytcc(p: Mapping) -> SchemePoint:
    H, a, z, r = int(p["H"]), int(p["a"]), int(p["z"]), int(p["r"])
    _require(r < a < H, "r < a < H")
    _require(r < z < H, "r < z < H")
    _require(a + z <= H + r, "a + z <= H + r")
    K = binomial(H, a)
    memory = 1 - Fraction(binomial(a, r) * binomial(H - a, z - r), binomial(H, z))
    load = Fraction(binomial(H, a + z - 2 * r), binomial(H, z)) * min(
        binomial(H - a - z + 2 * r, a - r), binomial(a + z - 2 * r, a - r)
    )
    return _point("YTCC", {"H": H, "a": a, "z": z, "r": r}, K, memory, load, binomial(H, z))


def _wccls(p: Mapping) -> SchemePoint:
    q, m, w = int(p["q"]), int(p["m"]), int(p["w"])
    _require(q >= 2, "q >= 2")
    _require(1 <= w < m, "1 <= w < m")
    K = q**m
    hit = binomial(m, w) * (q - 1) ** w
    memory = 1 - Fraction(hit, q**m)
    load = Fraction(hit, q ** (m - w))
    return _point("WCCLS", {"q": q, "m": m, "w": w}, K, memory, load, q**m)


def _cksm1(p: Mapping) -> SchemePoint:
    q, k, m, t = int(p["q"]), int(p["k"]), int(p["m"]), int(p["t"])
    _require(m + t <= k, "m + t <= k")
    _require(is_prime_power(q), "q is a prime power")

    def u(j: int) -> int:  # number of points of a (j-1)-flat: [j, 1]_q
        return gaussian_binomial(j, 1, q)

    K = Fraction(q ** (t * (t - 1) // 2), math.factorial(t))
    for i in range(t):
        K *= u(k - i)
    memory = 1 - Fraction(q ** (m * t)) * math.prod(
        Fraction(u(k - t - i), u(k - i)) for i in range(m)
    )
    load = Fraction(math.factorial(m) * q ** (m * t), math.factorial(m + t)) * Fraction(
        q ** (t * (t - 1) // 2)
    )
    for i in range(t):
        load *= u(k - m - i)
    F = Fraction(q ** (m * (m - 1) // 2), math.factorial(m))
    for i in range(m):
        F *= u(k - i)
    return _point(
        "CKSM1",
        {"q": q, "k": k, "m": m, "t": t},
        _as_int(K, "K"),
        memory,
        load,
        _as_int(F, "F"),
    )


def _cksm2(p: Mapping) -> SchemePoint:
    q, k, m, t = int(p["q"]), int(p["k"]), int(p["m"]), int(p["t"])
    _require(q >= 2, "q >= 2")
    _require(m + t <= k, "m + t <= k")
    K = gaussian_binomial(k, t, q)
    big = gaussian_binomial(k, m + t, q)
    memory = 1 - Fraction(gaussian_binomial(k - t, m, q), big)
    load = Fraction(gaussian_binomial(k, m, q), big)
    return _point("CKSM2", {"q": q, "k": k, "m": m, "t": t}, K, memory, load, big)


def _ask1(p: Mapping) -> SchemePoint:
    q = int(p["q"])
    _require(is_prime_power(q), "q is a prime power")
    K = q * q + q + 1
    return _point("ASK1", {"q": q}, K, Fraction(q * q, K), Fraction(1), K)


def _ask2(p: Mapping) -> SchemePoint:
    q = int(p["q"])
    _require(q >= 2, "q >= 2")
    return _point(
        "ASK2",
        {"q": q},
        q * q,
        Fraction(q - 1, q),
        Fraction(q, q + 1),
        q * q + q,
    )


def _zcw(p: Mapping) -> SchemePoint:
    # Follows the numeric table rows (K = F = 2^m with gain 2^(w+1)); the
    # formula-table row for this scheme is inconsistent with those numbers.
    m, w = int(p["m"]), int(p["w"])
    _require(1 <= w < m, "1 <= w < m")
    K = 2**m
    memory = 1 - Fraction(binomial(m, w), K)
    load = Fraction(binomial(m, w), 2 ** (w + 1))
    return _point("ZCW", {"m": m, "w": w}, K, memory, load, K)


def _wcwl(p: Mapping) -> SchemePoint:
    K, t = int(p["K"]), int(p["t"])
    _require(1 <= t < K, "1 <= t < K")
    gap = K - t
    half = K // (gap + 1)
    if K % (gap + 1) == 0 or gap == 1:
        load = Fraction(gap * (gap + 1), 2 * K)
        F = K
    elif K % (gap + 1) == gap:
        load = Fraction(gap, 2 * half + 1)
        F = (2 * half + 1) * K
    else:
        load = Fraction(gap, 2 * half)
        F = 2 * half * K
    return _point("WCWL", {"K": K, "t": t}, K, Fraction(t, K), load, F)


def _xxgl(p: Mapping) -> SchemePoint:
    K = int(p["K"])
    _require(K >= 3, "K >= 3")
    return _point(
        "XXGL", {"K": K}, K, Fraction(K - 2, K), Fraction(K - 1, K), K
    )


def _ast(p: Mapping) -> SchemePoint:
    r, k = int(p["r"]), int(p["k"])
    _require(r >= 1 and k >= 1, "r, k >= 1")
    K = 2**r * k
    memory = 1 - Fraction(r + 1, 2**r) + Fraction(r, K)
    load = Fraction(k * (r + 1) - r, 2**r)
    return _point("AST", {"r": r, "k": k}, K, memory, load, K)


def _mr(p: Mapping) -> SchemePoint:
    K, t = int(p["K"]), int(p["t"])
    _require(1 <= t < K, "1 <= t < K")
    denom = 2 + t // (K - t + 1) + (t - 1) // (K - t + 1)
    load = Fraction(math.ceil(Fraction(K * (K - t), denom)), K)
    return _point("MR", {"K": K, "t": t}, K, Fraction(t, K), load, K)


def _nhsdp(p: Mapping) -> SchemePoint:
    return evaluate_nhsdp_scheme(int(p["v"]), int(p["n"]), p.get("solver", "closed_form"))


def _nhsdp_conj(p: Mapping) -> SchemePoint:
    v, n = int(p["v"]), int(p["n"])
    solver = p.get("solver", "closed_form")
    base = evaluate_nhsdp_scheme(v, n, solver)
    b = base.load  # block count
    g = 2**n
    _require(0 < base.memory_ratio < 1, "0 < Z < F on the base point")
    memory = 1 - Fraction(g, v)
    load = 1 / b
    F = _as_int(b * v, "F")
    return _point(
        "NHSDP_CONJ", {"v": v, "n": n, "solver": solver}, v, memory, load, F
    )


_BUILDERS: dict[str, Callable[[Mapping], SchemePoint]] = {
    "MN": _mn,
    "WCLC": _wclc,
    "YTCC": _ytcc,
    "WCCLS": _wccls,
    "CKSM1": _cksm1,
    "CKSM2": _cksm2,
    "ASK1": _ask1,
    "ASK2": _ask2,
    "ZCW": _zcw,
    "WCWL": _wcwl,
    "XXGL": _xxgl,
    "AST": _ast,
    "MR": _mr,
    "NHSDP": _nhsdp,
    "NHSDP_CONJ": _nhsdp_conj,
}


def evaluate_scheme(scheme: str, params: Mapping) -> SchemePoint:
    """Evaluate one scheme row at concrete parameters, exactly.

    Raises :class:`SchemeConstraintError` (naming the constraint) when the
    parameters fall outside the scheme's stated range.
    """
    try:
        builder = _BUILDERS[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}; known: {', '.join(SCHEME_NAMES)}")
    return builder(params)


def evaluate_nhsdp_scheme(v: int, n: int, solver: str = "closed_form") -> SchemePoint:
    """The packing-based scheme at (v, n): K = F = v, load prod(m), gain 2^n.

    ``closed_form`` uses the all-equal parameter choice; ``exact`` solves the
    block-count maximisation by exhaustion, which can beat the closed form
    when v is not an odd n-th power.
    """
    if solver == "closed_form":
        m = choose_params_closed_form(v, n)
        product = math.prod(m)
    elif solver == "exact":
        m, product = solve_problem1_exact(v, n)
    else:
        raise ValueError(f"solver must be 'closed_form' or 'exact', not {solver!r}")
    params = block_params(m)
    _require(params.phi <= (v - 1) // 2, "phi(m) <= (v - 1) / 2")
    memory = 1 - Fraction(2**n * product, v)
    return _point(
        "NHSDP",
        {"v": v, "n": n, "m": m, "solver": solver},
        v,
        memory,
        Fraction(product),
        v,
    )


def apply_grouping_formula(base: SchemePoint, target_K: int) -> SchemePoint:
    """Re-target a point to K > K1 users: F' = h1*F, R' = (K/K1)*R.

    With h1 = K1/gcd(K1, K) and h = K/gcd(K1, K) the grouped array is
    (K, h1*F, h1*Z, h*S), so the memory ratio and the gain are unchanged
    while the load scales by K/K1.
    """
    K1 = base.K
    if target_K <= K1:
        raise ValueError(f"target K={target_K} must exceed the base K1={K1}")
    h1 = K1 // math.gcd(K1, target_K)
    new_params = dict(base.params)
    new_params["grouped_from_K"] = K1
    return SchemePoint(
        scheme=base.scheme,
        params=new_params,
        K=target_K,
        memory_ratio=base.memory_ratio,
        load=base.load * Fraction(target_K, K1),
        subpacketization=h1 * base.subpacketization,
        gain=base.gain,
    )


@dataclass(frozen=True)
class RatioReport:
    """Exact ratios between two scheme points (a relative to b)."""

    f_ratio: Fraction
    r_ratio: Fraction
    memory_delta: Fraction


def ratio_report(point_a: SchemePoint, point_b: SchemePoint) -> RatioReport:
    return RatioReport(
        f_ratio=Fraction(point_a.subpacketization, point_b.subpacketization),
        r_ratio=point_a.load / point_b.load,
        memory_delta=point_a.memory_ratio - point_b.memory_ratio,
    )


def _default_grid(scheme: str, K: int, slack: int) -> Iterable[dict]:
    lo, hi = max(1, K - slack), K + slack
    if scheme in ("NHSDP", "NHSDP_CONJ"):
        for v in range(lo | 1, hi + 1, 2):
            if v < 3:
                continue
            n = 1
            while True:
                try:
                    choose_params_closed_form(v, n)
                except ValueError:
                    break
                yield {"v": v, "n": n}
                n += 1
    elif scheme in ("MN", "WCWL", "MR"):
        for t in range(1, K):
            yield {"K": K, "t": t}
    elif scheme == "XXGL":
        yield {"K": K}
    elif scheme == "ZCW":
        m = 1
        while 2**m <= hi:
            if 2**m >= lo:
                for w in range(1, m):
                    yield {"m": m, "w": w}
            m += 1
    elif scheme == "WCCLS":
        for q in range(2, 12):
            m = 2
            while q**m <= hi:
                if q**m >= lo:
                    for w in range(1, m):
                        yield {"q": q, "m": m, "w": w}
                m += 1
    elif scheme == "AST":
        for r in range(1, 12):
            for k in range(max(1, lo // 2**r), hi // 2**r + 1):
                if lo <= 2**r * k <= hi:
                    yield {"r": r, "k": k}
    elif scheme == "ASK1":
        for q in range(2, K + 2):
            if lo <= q * q + q + 1 <= hi and is_prime_power(q):
                yield {"q": q}
    elif scheme == "ASK2":
        for q in range(2, K + 2):
            if lo <= q * q <= hi:
                yield {"q": q}
    elif scheme == "WCLC":
        for k in range(2, 13):
            for m in range(1, 7):
                for z in range(1, m + 1):
                    for t in range(1, k):
                        if lo <= binomial(m, z) * k**z <= hi:
                            yield {"k": k, "t": t, "z": z, "m": m}
    elif scheme == "YTCC":
        for H in range(3, 27):
            for a in range(1, H):
                if not lo <= binomial(H, a) <= hi:
                    continue
                for z in range(1, H):
                    for r in range(0, min(a, z)):
                        if a + z <= H + r and r < a and r < z:
                            yield {"H": H, "a": a, "z": z, "r": r}
    elif scheme in ("CKSM1", "CKSM2"):
        for q in (2, 3, 4, 5, 7, 8, 9):
            for k in range(2, 10):
                for m in range(1, k):
                    for t in range(1, k - m + 1):
                        yield {"q": q, "k": k, "m": m, "t": t}
    else:
        raise ValueError(f"no default parameter grid for scheme {scheme!r}")


def tradeoff_sweep(K: int, schemes: Sequence[str], slack: int = 8) -> list[SchemePoint]:
    """Enumerate scheme points near a target user count, sorted by memory.

    Each scheme's built-in parameter grid is evaluated; points whose user
    count differs from K by more than ``slack`` are dropped, as are
    parameter combinations violating the scheme's constraints.  K must be
    at least 1 and slack non-negative.
    """
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    if slack < 0:
        raise ValueError(f"slack must be non-negative, got {slack}")
    points: list[SchemePoint] = []
    for scheme in schemes:
        for params in _default_grid(scheme, K, slack):
            try:
                point = evaluate_scheme(scheme, params)
            except (SchemeConstraintError, ValueError):
                continue
            if abs(point.K - K) <= slack:
                points.append(point)
    points.sort(key=lambda pt: (pt.memory_ratio, pt.load, pt.scheme))
    return points
