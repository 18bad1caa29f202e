"""Exact modular and counting arithmetic shared by the whole package.

Everything here is integer-exact: residues live in Z_v for odd v, counts use
Python's arbitrary-precision integers, and n-th roots come from an integer
binary search so values sitting next to perfect powers never mis-floor.
"""

from __future__ import annotations

import math


class OddResidueRing:
    """Z_v for an odd modulus v >= 3, where 2 is invertible.

    Carries ``inv2``, the residue with ``2 * inv2 == 1 (mod v)``, so half-sums
    (x + y) / 2 are single multiplications.
    """

    def __init__(self, v: int):
        if v < 3 or v % 2 == 0:
            raise ValueError(f"modulus must be an odd integer >= 3, got {v}")
        self.v = v
        # (v+1)/2 is exact for odd v: 2*(v+1)/2 = v+1 = 1 (mod v)
        self.inv2 = (v + 1) // 2

    def reduce(self, x: int) -> int:
        """Canonicalize x into [0, v); accepts signed input."""
        return x % self.v

    def half_sum(self, x: int, y: int) -> int:
        """(x + y) / 2 in Z_v."""
        return ((x + y) * self.inv2) % self.v


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 for k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires non-negative arguments")
    return math.comb(n, k)


def gaussian_binomial(k: int, t: int, q: int) -> int:
    """Gaussian binomial coefficient [k, t]_q, evaluated exactly.

    [k, t]_q = (q^k - 1)(q^{k-1} - 1)...(q^{k-t+1} - 1)
             / ((q^t - 1)(q^{t-1} - 1)...(q - 1))
    """
    if t < 0 or k < 0:
        raise ValueError("gaussian_binomial requires non-negative k and t")
    if t > k:
        raise ValueError(f"gaussian_binomial requires t <= k, got t={t}, k={k}")
    if q < 2:
        raise ValueError(f"gaussian_binomial requires q >= 2, got q={q}")
    num = 1
    den = 1
    for i in range(t):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    quotient, remainder = divmod(num, den)
    assert remainder == 0, "Gaussian binomial is always an integer"
    return quotient


def integer_nth_root(v: int, n: int) -> int:
    """Largest r >= 0 with r**n <= v, by integer binary search.

    Floating point roots mis-floor next to perfect powers (for example
    2199 ** (1/3) rounding past 13), so no floats are used here.
    """
    if v < 0:
        raise ValueError("integer_nth_root requires v >= 0")
    if n < 1:
        raise ValueError("integer_nth_root requires n >= 1")
    if v in (0, 1) or n == 1:
        return v
    lo, hi = 0, 1
    while hi**n <= v:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**n <= v:
            lo = mid
        else:
            hi = mid
    return lo


def prime_power_parts(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e for a prime p and e >= 1, or None if q is no prime power."""
    if q < 2:
        return None
    for e in range(1, q.bit_length()):
        p = integer_nth_root(q, e)
        if p**e == q and _is_prime(p):
            return p, e
    return None


def is_prime_power(q: int) -> bool:
    """True when q = p^e for some prime p and e >= 1."""
    return prime_power_parts(q) is not None


def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    if n < 1:
        raise ValueError(f"prime_factors requires n >= 1, got {n}")
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True
