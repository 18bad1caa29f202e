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

from .packing import choose_params_closed_form, solve_problem1_exact
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


# Column names of a table row (CSV header, JSON keys), in as_fields order.
ROW_FIELDS = (
    "scheme",
    "params",
    "K",
    "memory_ratio_num",
    "memory_ratio_den",
    "load_num",
    "load_den",
    "F",
    "gain_num",
    "gain_den",
)


class SchemeConstraintError(ValueError):
    """Raised when parameters violate a scheme's constraint column."""


@dataclass(frozen=True, slots=True)
class SchemePoint:
    """One row of a comparison table: a scheme at concrete parameters."""

    scheme: str
    params: dict
    K: int
    memory_ratio: Fraction
    load: Fraction
    subpacketization: int
    gain: Fraction

    def as_fields(self) -> tuple:
        """The table row as a tuple, one value per name in ROW_FIELDS."""
        return (
            self.scheme,
            ";".join(f"{k}={_fmt_param(v)}" for k, v in self.params.items()),
            self.K,
            self.memory_ratio.numerator,
            self.memory_ratio.denominator,
            self.load.numerator,
            self.load.denominator,
            self.subpacketization,
            self.gain.numerator,
            self.gain.denominator,
        )

    def as_row(self) -> dict:
        return dict(zip(ROW_FIELDS, self.as_fields()))


def _fmt_param(value) -> str:
    if isinstance(value, (tuple, list)):
        return "|".join(str(v) for v in value)
    return str(value)


def _require(cond: bool, constraint: str) -> None:
    if not cond:
        raise SchemeConstraintError(f"constraint violated: {constraint}")


# Under uncoded placement and N >= K, no load lies below the lower convex
# envelope of MN's points (t/K, (K - t)/(t + 1)), t = 0..K; a PDA places
# uncoded and serves any N.  A formula's point under it is refused.
_CONVERSE = (
    "the uncoded-placement converse (Yu, Maddah-Ali, Avestimehr, IEEE Trans. IT 64(2), 2018)"
)


def _point(scheme, params: dict, K, memory: Fraction, load: Fraction, F) -> SchemePoint:
    """The checked point; params is a fresh dict the point keeps."""
    # Fraction denominators are positive, so the bounds read off numerators.
    mem_num, mem_den = memory.numerator, memory.denominator
    load_num, load_den = load.numerator, load.denominator
    _require(0 <= mem_num <= mem_den, "0 <= M/N <= 1")
    _require(load_num > 0, "load > 0")
    _require(F >= 1, "F >= 1")
    gain = Fraction(K * (mem_den - mem_num) * load_den, mem_den * load_num)
    return SchemePoint(scheme, params, K, memory, load, int(F), gain)


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise SchemeConstraintError(f"{what} is not an integer: {x}")
    return x.numerator


def _users_and_t(p: Mapping) -> tuple[int, int]:
    K, t = int(p["K"]), int(p["t"])
    _require(1 <= t < K, "1 <= t < K")
    return K, t


def _mn(p: Mapping) -> SchemePoint:
    K, t = _users_and_t(p)
    return _mn_at(K, t, binomial(K, t))


def _mn_at(K: int, t: int, F: int) -> SchemePoint:
    """MN at 1 <= t < K, given its subpacketization F = C(K, t)."""
    return _point("MN", {"K": K, "t": t}, K, Fraction(t, K), Fraction(K - t, t + 1), F)


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


def _cksm1_users(q: int, k: int, t: int) -> Fraction:
    """CKSM1's K: q^(t(t-1)/2) / t! * prod_{i<t} [k - i, 1]_q, exactly."""
    K = Fraction(q ** (t * (t - 1) // 2), math.factorial(t))
    for i in range(t):
        K *= gaussian_binomial(k - i, 1, q)
    return K


def _cksm2_users(q: int, k: int, t: int) -> int:
    """CKSM2's K: the Gaussian binomial [k, t]_q."""
    return gaussian_binomial(k, t, q)


def _cksm1(p: Mapping) -> SchemePoint:
    q, k, m, t = int(p["q"]), int(p["k"]), int(p["m"]), int(p["t"])
    _require(m + t <= k, "m + t <= k")
    _require(is_prime_power(q), "q is a prime power")

    def u(j: int) -> int:  # number of points of a (j-1)-flat: [j, 1]_q
        return gaussian_binomial(j, 1, q)

    K = _cksm1_users(q, k, t)
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
    K = _cksm2_users(q, k, t)
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
    _require(w != m - 1, f"w != m - 1, whose load m / 2^m lies under {_CONVERSE}")
    K = 2**m
    memory = 1 - Fraction(binomial(m, w), K)
    load = Fraction(binomial(m, w), 2 ** (w + 1))
    return _point("ZCW", {"m": m, "w": w}, K, memory, load, K)


def _wcwl(p: Mapping) -> SchemePoint:
    return _wcwl_at(*_users_and_t(p))


def _wcwl_at(K: int, t: int) -> SchemePoint:
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
    _require(K != 3, f"K != 3, whose load 2/3 lies under {_CONVERSE}")
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
    return _mr_at(*_users_and_t(p))


def _mr_at(K: int, t: int) -> SchemePoint:
    denom = 2 + t // (K - t + 1) + (t - 1) // (K - t + 1)
    load = Fraction(-(K * (t - K) // denom), K)  # ceil(K(K - t) / denom) / K
    return _point("MR", {"K": K, "t": t}, K, Fraction(t, K), load, K)


def _nhsdp_blocks(v: int, n: int, solver: str) -> tuple[tuple[int, ...], int]:
    """The scale parameters m and the block count prod(m) of the packing at (v, n).

    An even v or v < 3 has no packing and is refused before either solver
    runs.  prod(1 + 2 m_i) = 2 phi(m) + 1, so the bound reads off m directly.
    """
    if solver not in ("closed_form", "exact"):
        raise ValueError(f"solver must be 'closed_form' or 'exact', not {solver!r}")
    if v % 2 == 0 or v < 3:
        raise ValueError(f"modulus must be odd and >= 3, got {v}")
    if solver == "closed_form":
        m = choose_params_closed_form(v, n)
        product = math.prod(m)
    else:
        m, product = solve_problem1_exact(v, n)
    _require(math.prod(1 + 2 * mi for mi in m) <= v, "phi(m) <= (v - 1) / 2")
    return m, product


def _nhsdp(p: Mapping) -> SchemePoint:
    return evaluate_nhsdp_scheme(int(p["v"]), int(p["n"]), p.get("solver", "closed_form"))


def _nhsdp_conj(p: Mapping) -> SchemePoint:
    v, n = int(p["v"]), int(p["n"])
    solver = p.get("solver", "closed_form")
    _, b = _nhsdp_blocks(v, n, solver)
    _require(2**n * b < v, "0 < Z < F on the base point")
    memory = 1 - Fraction(2**n, v)
    return _point(
        "NHSDP_CONJ", {"v": v, "n": n, "solver": solver}, v, memory, Fraction(1, b), b * v
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
    when v is not an odd n-th power.  Either refuses an even v or v < 3.
    """
    m, product = _nhsdp_blocks(v, n, solver)
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


def _t_row(scheme: str, K: int) -> list[SchemePoint]:
    """MN, WCWL or MR at K users, one point for each t = 1, ..., K - 1."""
    if scheme != "MN":
        at = _wcwl_at if scheme == "WCWL" else _mr_at
        return [at(K, t) for t in range(1, K)]
    row = []
    F = K  # C(K, 1); C(K, t + 1) = C(K, t) (K - t) / (t + 1) is exact
    for t in range(1, K):
        row.append(_mn_at(K, t, F))
        F = F * (K - t) // (t + 1)
    return row


def _default_grid(scheme: str, K: int, slack: int) -> Iterable[dict]:
    """Parameters of a scheme whose user count may lie within slack of K.

    MN, WCWL and MR have every point at K itself and are walked by _t_row.
    """
    lo, hi = max(1, K - slack), K + slack
    if scheme in ("NHSDP", "NHSDP_CONJ"):
        for v in range(lo | 1, hi + 1, 2):
            n = 1
            while 3**n <= v:  # m = (1, ..., 1) fits: every n both solvers accept
                yield {"v": v, "n": n}
                n += 1
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
        # K depends on (q, k, t) alone: keep the t whose K lands in range.
        users = _cksm1_users if scheme == "CKSM1" else _cksm2_users
        for q in (2, 3, 4, 5, 7, 8, 9):
            for k in range(2, 10):
                near = {t for t in range(1, k) if lo <= users(q, k, t) <= hi}
                for m in range(1, k):
                    for t in range(1, k - m + 1):
                        if t in near:
                            yield {"q": q, "k": k, "m": m, "t": t}
    else:
        raise ValueError(f"no default parameter grid for scheme {scheme!r}")


# Largest K + slack tradeoff_sweep accepts.  Over all 15 schemes, on one core
# of a 2-vCPU x86-64 VM, the widest sweep within it, K = slack = 2048, took
# 0.65-0.9 s (0.33-0.54 s of it NHSDP and NHSDP_CONJ at every odd v up to
# 4096), and K = 4096 with slack 0 or 8 took 0.10-0.17 s.
SWEEP_MAX_K = 4096


def _sweep_key(point: SchemePoint) -> tuple:
    """Sort key ordering as (memory_ratio, load, scheme) does, comparing floats first.

    Correct rounding is monotone, so float(a) < float(b) implies a < b and
    the exact values only break float ties; a load past the float range
    keys as inf and ties on its exact value.
    """
    memory, load = point.memory_ratio, point.load
    try:
        load_key = load.numerator / load.denominator  # float(load), without its dispatch
    except OverflowError:
        load_key = math.inf
    return (memory.numerator / memory.denominator, memory, load_key, load, point.scheme)


def tradeoff_sweep(K: int, schemes: Sequence[str], slack: int = 8) -> list[SchemePoint]:
    """Enumerate scheme points near a target user count, sorted by memory.

    Each scheme's built-in parameter grid is pruned to the parameters whose
    user count differs from K by at most ``slack`` and evaluated exactly;
    combinations violating the scheme's constraints are dropped.  Points
    are ordered by (memory ratio, load, scheme name), grid order breaking
    ties.  K must be at least 1, slack non-negative, K + slack at most
    SWEEP_MAX_K and no scheme named twice.  MN, WCWL and MR put one point
    at K itself for each t < K; the MN walk carries C(K, t) from one t to
    the next with a small-integer multiply and divide, so no point
    evaluates a binomial of its own.
    """
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    if slack < 0:
        raise ValueError(f"slack must be non-negative, got {slack}")
    if K > SWEEP_MAX_K:
        raise ValueError(f"K={K} is over the limit of SWEEP_MAX_K = {SWEEP_MAX_K}")
    if K + slack > SWEEP_MAX_K:
        raise ValueError(
            f"slack={slack} puts K + slack = {K + slack} over the limit of "
            f"SWEEP_MAX_K = {SWEEP_MAX_K}"
        )
    for i, scheme in enumerate(schemes):
        if scheme not in _BUILDERS:
            raise ValueError(f"no default parameter grid for scheme {scheme!r}")
        if scheme in schemes[:i]:
            raise ValueError(f"scheme {scheme!r} is named twice")
    points: list[SchemePoint] = []
    for scheme in schemes:
        if scheme in ("MN", "WCWL", "MR"):
            points += _t_row(scheme, K)
            continue
        for params in _default_grid(scheme, K, slack):
            try:
                point = evaluate_scheme(scheme, params)
            except SchemeConstraintError:
                continue
            if abs(point.K - K) <= slack:
                points.append(point)
    points.sort(key=_sweep_key)
    return points
