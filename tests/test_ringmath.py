import pytest
from hypothesis import given
from hypothesis import strategies as st

from nhsdp import (
    OddResidueRing,
    binomial,
    gaussian_binomial,
    integer_nth_root,
    is_prime_power,
)
from nhsdp.ringmath import prime_factors, prime_power_parts

odd_moduli = st.integers(min_value=1, max_value=400).map(lambda k: 2 * k + 1)


class TestOddResidueRing:
    def test_half_sum_worked_example(self):
        assert OddResidueRing(125).half_sum(31, 21) == 26

    def test_half_sum_of_equal_elements_is_identity(self):
        ring = OddResidueRing(15)
        for x in range(15):
            assert ring.half_sum(x, x) == x

    def test_half_sum_wraps(self):
        assert OddResidueRing(15).half_sum(14, 1) == 0

    def test_inv2_invariant(self):
        for v in (3, 15, 125, 2199):
            ring = OddResidueRing(v)
            assert (2 * ring.inv2) % v == 1

    @pytest.mark.parametrize("v", [0, 1, 2, 4, 100])
    def test_rejects_bad_modulus(self, v):
        with pytest.raises(ValueError):
            OddResidueRing(v)

    def test_reduce_accepts_signed(self):
        assert OddResidueRing(15).reduce(-1) == 14

    @given(odd_moduli, st.integers(), st.integers())
    def test_half_sum_doubles_back(self, v, a, b):
        ring = OddResidueRing(v)
        x, y = a % v, b % v
        h = ring.half_sum(x, y)
        assert (2 * h) % v == (x + y) % v
        assert h == ring.half_sum(y, x)


class TestCounting:
    def test_binomial(self):
        assert binomial(4, 2) == 6
        assert binomial(10, 5) == 252
        assert binomial(3, 7) == 0
        for n in range(20):
            assert binomial(n, 0) == 1
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_gaussian_binomial_small(self):
        # Direct evaluations of the defining product, frozen:
        # (2^7-1)/(2-1) = 127, (2^5-1)(2^4-1)/((2^2-1)(2-1)) = 465/3 = 155.
        assert gaussian_binomial(7, 1, 2) == 127
        assert gaussian_binomial(5, 2, 2) == 155
        for k in range(8):
            for q in (2, 3, 5):
                assert gaussian_binomial(k, 0, q) == 1

    def test_gaussian_binomial_rejects(self):
        with pytest.raises(ValueError):
            gaussian_binomial(3, 4, 2)
        with pytest.raises(ValueError):
            gaussian_binomial(3, 1, 1)

    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=2, max_value=7),
    )
    def test_gaussian_symmetry(self, k, t, q):
        if t <= k:
            assert gaussian_binomial(k, t, q) == gaussian_binomial(k, k - t, q)


class TestIntegerRoot:
    def test_near_perfect_powers(self):
        assert integer_nth_root(2199, 3) == 13  # 13^3 = 2197
        assert integer_nth_root(2196, 3) == 12
        assert integer_nth_root(125, 3) == 5
        assert integer_nth_root(124, 3) == 4

    @given(st.integers(min_value=0, max_value=10**18), st.integers(min_value=1, max_value=9))
    def test_definition(self, v, n):
        r = integer_nth_root(v, n)
        assert r**n <= v
        assert (r + 1) ** n > v

    def test_rejects(self):
        with pytest.raises(ValueError):
            integer_nth_root(-1, 2)
        with pytest.raises(ValueError):
            integer_nth_root(4, 0)


def test_is_prime_power():
    assert all(is_prime_power(q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27))
    assert not any(is_prime_power(q) for q in (1, 6, 10, 12, 15, 100))


def test_prime_power_parts():
    assert [prime_power_parts(q) for q in (2, 9, 16, 27, 13)] == [
        (2, 1), (3, 2), (2, 4), (3, 3), (13, 1)
    ]
    assert all(prime_power_parts(q) is None for q in (1, 6, 10, 12, 100))


def test_prime_factors():
    assert prime_factors(1) == ()
    assert prime_factors(4095) == (3, 5, 7, 13)
    assert prime_factors(2196) == (2, 3, 61)
    assert prime_factors(97) == (97,)
    with pytest.raises(ValueError):
        prime_factors(0)
