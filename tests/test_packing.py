import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhsdp import (
    Cdp,
    Nhsdp,
    block_params,
    cdp_to_nhsdp,
    choose_params_closed_form,
    construct_nhsdp,
    ds_search,
    half_sum_set,
    solve_problem1_exact,
    verify_cdp,
    verify_nhsdp,
)
from nhsdp.packing import _ds_backtrack, _least_in_orbit
from conftest import EX15_BLOCKS

def reference_problem1(v, n):
    """Every ordered m with prod (1 + 2 m_i) <= v, visited in lexicographic
    order; the first largest product wins.  Reference for the exact solver."""
    best_seq, best_prod = (), 0
    prefix = []

    def dfs(depth, weight, prod):
        nonlocal best_seq, best_prod
        if depth == n:
            if prod > best_prod:
                best_seq, best_prod = tuple(prefix), prod
            return
        mi = 1
        while weight * (1 + 2 * mi) * 3 ** (n - depth - 1) <= v:
            prefix.append(mi)
            dfs(depth + 1, weight * (1 + 2 * mi), prod * mi)
            prefix.pop()
            mi += 1

    dfs(0, 1, 1)
    return best_seq, best_prod


# Signed block lists of the worked v=125 construction, as published; the
# constructor must reproduce them after mod-125 normalisation.
EX125_SIGNED_BLOCKS = [
    [31, 21, 29, 19, -19, -29, -21, -31],
    [32, 22, 28, 18, -18, -28, -22, -32],
    [36, 16, 34, 14, -14, -34, -16, -36],
    [37, 17, 33, 13, -13, -33, -17, -37],
    [56, 46, 54, 44, -44, -54, -46, -56],
    [57, 47, 53, 43, -43, -53, -47, -57],
    [61, 41, 59, 39, -39, -59, -41, -61],
    [62, 42, 58, 38, -38, -58, -42, -62],
]


class TestVerifyNhsdp:
    def test_worked_example_valid(self):
        verdict = verify_nhsdp(15, [{14, 1, 13, 2}, {11, 4, 10, 5}])
        assert verdict.ok
        assert verdict.info["g"] == 4 and verdict.info["b"] == 2

    def test_single_block_from_difference_set(self):
        assert verify_nhsdp(7, [{0, 1, 3}]).ok

    def test_half_sum_violation(self):
        verdict = verify_nhsdp(15, [{1, 2, 3}])
        assert not verdict.ok
        assert verdict.code == "half-sum"
        assert verdict.info["elements"] == (1, 3)
        assert verdict.info["half_sum"] == 2

    def test_disjointness_violation(self):
        verdict = verify_nhsdp(15, [{1, 2}, {2, 11}])
        assert not verdict.ok and verdict.code == "disjoint"
        assert verdict.info["element"] == 2

    def test_cardinality_violation(self):
        verdict = verify_nhsdp(15, [{1, 2}, {4, 5, 11}])
        assert not verdict.ok and verdict.code == "cardinality"

    def test_rejects_even_modulus_and_bad_elements(self):
        with pytest.raises(ValueError):
            verify_nhsdp(14, [{1, 2}])
        with pytest.raises(ValueError):
            verify_nhsdp(15, [{1, 20}])
        with pytest.raises(ValueError):
            verify_nhsdp(15, [])

    def test_half_sum_set_of_worked_example(self):
        assert half_sum_set(15, EX15_BLOCKS_NORMALISED) == frozenset(
            {0, 3, 6, 7, 8, 9, 12}
        )


EX15_BLOCKS_NORMALISED = [{x % 15 for x in blk} for blk in EX15_BLOCKS]


class TestBlockParams:
    def test_worked_values(self):
        params = block_params((2, 2, 2))
        assert params.f == (2, 10, 50)
        assert params.x == (1, 5, 25)
        assert params.phi == 62
        assert params.min_modulus == 125

    def test_single_term(self):
        for m in range(1, 9):
            params = block_params((m,))
            assert params.f == (m,) and params.phi == m

    def test_all_ones(self):
        assert block_params((1, 1, 1)).phi == 13  # (3^3 - 1) / 2

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5))
    def test_phi_closed_form(self, m):
        # phi telescopes: 2*phi + 1 = prod (1 + 2 m_i).
        assert 2 * block_params(m).phi + 1 == math.prod(2 * mi + 1 for mi in m)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            block_params(())
        with pytest.raises(ValueError):
            block_params((2, 0))


class TestConstruct:
    def test_reproduces_published_blocks(self):
        packing = construct_nhsdp(125, (2, 2, 2))
        assert packing.b == 8 and packing.g == 8
        expected = [tuple(sorted({x % 125 for x in blk})) for blk in EX125_SIGNED_BLOCKS]
        assert list(packing.blocks) == expected

    def test_smallest_case(self):
        packing = construct_nhsdp(3, (1,))
        assert packing.blocks == ((1, 2),)
        assert verify_nhsdp(3, packing.blocks).ok

    def test_two_level_case(self):
        # f = (1, 3), block {+-1 +-3} mod 9 = {2,4,5,7}; its six pairwise
        # half-sums (computed with inv2 = 5) are {0,1,3,6,8}, disjoint.
        packing = construct_nhsdp(9, (1, 1))
        assert packing.blocks == ((2, 4, 5, 7),)
        assert half_sum_set(9, packing.blocks) == frozenset({0, 1, 3, 6, 8})
        assert packing.verify().ok

    def test_rejects_small_or_even_modulus(self):
        with pytest.raises(ValueError):
            construct_nhsdp(123, (2, 2, 2))  # below 2*phi + 1 = 125
        with pytest.raises(ValueError):
            construct_nhsdp(126, (2, 2, 2))

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=25),
    )
    def test_round_trip_property(self, m, offset):
        v = block_params(m).min_modulus + 2 * offset
        packing = construct_nhsdp(v, m)
        assert packing.verify().ok
        assert packing.b == math.prod(m)
        assert packing.g == 2 ** len(m)


class TestParameterChoice:
    def test_closed_form_worked_examples(self):
        assert choose_params_closed_form(125, 3) == (2, 2, 2)
        assert choose_params_closed_form(33, 3) == (1, 1, 1)
        assert choose_params_closed_form(49, 2) == (3, 3)

    def test_closed_form_rejects_zero_floor(self):
        with pytest.raises(ValueError):
            choose_params_closed_form(7, 2)  # 7^(1/2) < 3

    def test_closed_form_always_feasible(self):
        rng = random.Random(20240)
        for _ in range(1000):
            n = rng.randint(1, 5)
            v = 2 * rng.randint(3**n // 2 + 1, 5000) + 1
            try:
                m = choose_params_closed_form(v, n)
            except ValueError:
                continue
            assert block_params(m).phi <= (v - 1) // 2

    def test_exact_solver_worked_examples(self):
        assert solve_problem1_exact(125, 3) == ((2, 2, 2), 8)
        assert solve_problem1_exact(33, 3) == ((1, 1, 1), 1)
        # Both (3,4) and (4,3) reach product 12; the lexicographically
        # smaller maximiser must be returned.
        assert solve_problem1_exact(63, 2) == ((3, 4), 12)

    def test_exact_solver_brute_force_oracle(self):
        # Independent oracle: enumerate every m-vector with each coordinate
        # bounded by (v-1)/2 and keep the feasible maximisers.
        for v, n in [(33, 2), (45, 2), (63, 2), (105, 3), (121, 2), (135, 3)]:
            best = (0, None)
            bound = (v - 1) // 2
            for m in itertools.product(range(1, bound + 1), repeat=n):
                if 2 * block_params(m).phi + 1 <= v:
                    prod = math.prod(m)
                    if prod > best[0] or (prod == best[0] and m < best[1]):
                        best = (prod, m)
            seq, prod = solve_problem1_exact(v, n)
            assert (prod, seq) == best

    def test_exact_dominates_closed_form(self):
        for v in range(27, 350, 2):
            for n in (1, 2, 3):
                try:
                    closed = choose_params_closed_form(v, n)
                except ValueError:
                    continue
                _, best = solve_problem1_exact(v, n)
                assert best >= math.prod(closed)

    def test_exact_infeasible(self):
        with pytest.raises(ValueError):
            solve_problem1_exact(7, 2)

    def test_exact_matches_reference_search(self):
        for v in range(3, 1500, 2):
            for n in range(1, 7):
                if 3**n <= v:
                    assert solve_problem1_exact(v, n) == reference_problem1(v, n), (v, n)

    @pytest.mark.parametrize(
        "v, n, expected",
        [
            (10**6, 4, ((14, 14, 14, 20), 54880)),
            (3**12, 6, ((4,) * 6, 4096)),
            (10**6, 6, ((3, 4, 4, 4, 6, 7), 8064)),
            (10**6 + 1, 1, ((500000,), 500000)),
        ],
    )
    def test_exact_large_goldens(self, v, n, expected):
        assert solve_problem1_exact(v, n) == expected

    def test_exact_even_modulus_answers_for_the_odd_one_below(self):
        # prod (1 + 2 m_i) is odd, so it fits under an even v iff under v - 1.
        for v in range(4, 400, 2):
            for n in (1, 2, 3, 4):
                if 3**n < v:
                    assert solve_problem1_exact(v, n) == solve_problem1_exact(v - 1, n)

    def test_both_solvers_reject_n_below_one(self):
        for solve in (solve_problem1_exact, choose_params_closed_form):
            with pytest.raises(ValueError, match="n must be positive, got 0"):
                solve(63, 0)


def brute_difference_classification(v: int, elements) -> str:
    counts = Counter(
        (x - y) % v for x, y in itertools.permutations(sorted(set(elements)), 2)
    )
    if any(c > 1 for c in counts.values()):
        return "violation"
    return "ds" if len(counts) == v - 1 else "cdp"


class TestCdp:
    def test_worked_examples(self):
        assert verify_cdp(7, {0, 1, 3}).code == "ds"
        verdict = verify_cdp(5, {0, 1, 2})
        assert not verdict.ok and verdict.info["difference"] in (1, 4)
        assert verify_cdp(13, {0, 1, 3, 9}).code == "ds"
        assert verify_cdp(13, {0, 1, 3}).code == "cdp"

    @given(
        st.integers(min_value=3, max_value=60),
        st.sets(st.integers(min_value=0, max_value=59), min_size=2, max_size=6),
    )
    def test_against_brute_oracle(self, v, elements):
        elements = {x % v for x in elements}
        if len(elements) < 2:
            return
        verdict = verify_cdp(v, elements)
        expected = brute_difference_classification(v, elements)
        assert (verdict.code if verdict.ok else "violation") == expected

    def test_cdp_to_nhsdp(self):
        for v, elements in [(7, {0, 1, 3}), (3, {0, 1}), (13, {0, 1, 3, 9})]:
            packing = cdp_to_nhsdp(Cdp.from_elements(v, elements))
            assert packing.b == 1 and packing.g == len(elements)
            assert packing.verify().ok

    def test_cdp_to_nhsdp_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            cdp_to_nhsdp(Cdp.from_elements(4, {0, 1}))

    @given(
        st.integers(min_value=1, max_value=40),
        st.sets(st.integers(min_value=0, max_value=100), min_size=2, max_size=6),
    )
    def test_every_odd_cdp_is_a_packing(self, half, elements):
        v = 2 * half + 1
        elements = {x % v for x in elements}
        if len(elements) < 2 or v < 3:
            return
        verdict = verify_cdp(v, elements)
        if not verdict.ok:
            return
        packing = cdp_to_nhsdp(Cdp.from_elements(v, elements))
        assert verify_nhsdp(v, packing.blocks).ok


class TestDsSearch:
    def test_small_orders(self):
        assert ds_search(2).elements == (0, 1, 3)
        assert ds_search(3).elements == (0, 1, 3, 9)
        for q in (2, 3, 4, 5):
            cdp = ds_search(q)
            assert cdp is not None
            assert cdp.is_difference_set
            assert cdp.elements[:2] == (0, 1)
            assert verify_cdp(cdp.v, cdp.elements).code == "ds"

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_singer_matches_backtracking_reference(self, q):
        assert ds_search(q).elements == _ds_backtrack(q).elements

    @pytest.mark.parametrize("q", [11, 13, 16])
    def test_orders_beyond_the_reference(self, q):
        cdp = ds_search(q)
        assert cdp.v == q * q + q + 1 and cdp.k == q + 1
        assert cdp.elements[:2] == (0, 1)
        assert verify_cdp(cdp.v, cdp.elements).code == "ds"
        assert _least_in_orbit(cdp.v, cdp.elements) == cdp.elements

    def test_non_prime_power_exhausts(self):
        assert ds_search(6) is None

    def test_bound(self):
        with pytest.raises(ValueError):
            ds_search(17)
        with pytest.raises(ValueError):
            ds_search(1)


def test_nhsdp_json_orderings():
    packing = Nhsdp.from_blocks(15, [(-4, 4, -5, 5), (-1, 1, -2, 2)])
    assert packing.blocks == ((4, 5, 10, 11), (1, 2, 13, 14))
