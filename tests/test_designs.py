import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhsdp import (
    NtapSet,
    PhfArray,
    Verdict,
    cdp_to_nhsdp,
    ds_search,
    ntap_bound_report,
    ntap_construct,
    phf_column_comparison,
    phf_columns_from_elements,
    phf_from_ntap,
    verify_nhsdp,
    verify_ntap,
    verify_phf,
)
from nhsdp import designs
from nhsdp import pda as pda_mod


def brute_has_progression(v, elements) -> bool:
    """Oracle: literal sweep of all ordered triples of distinct elements."""
    elems = sorted(set(elements))
    for x, y, z in itertools.permutations(elems, 3):
        if (2 * z) % v == (x + y) % v:
            return True
    return False


def brute_phf_ok(grid, t) -> bool:
    """Oracle: check every t-subset of columns by hand."""
    rows, m = len(grid), len(grid[0])
    for cols in itertools.combinations(range(m), t):
        if not any(
            len({grid[j][c] for c in cols}) == t for j in range(rows)
        ):
            return False
    return True


def reference_verify_phf(phf) -> Verdict:
    """Reference for the strength-3 branch of verify_phf: the pair-class sweep.

    An unseparated triple has a pair colliding in row 0, and its third
    column collides with that pair in every row where the pair itself
    separates.  One Python pass per row-0 colliding pair, r set
    intersections each; the witness is the least sorted triple found.
    """
    r, m = phf.r, phf.m
    cols = [tuple(int(v) for v in phf.grid[:, c]) for c in range(m)]

    def separated(subset):
        return any(len({cols[c][j] for c in subset}) == len(subset) for j in range(r))

    buckets: list[dict[int, list[int]]] = []
    for j in range(r):
        bucket: dict[int, list[int]] = {}
        for c in range(m):
            bucket.setdefault(cols[c][j], []).append(c)
        buckets.append(bucket)
    first = None
    for group in buckets[0].values():
        for a, b in itertools.combinations(group, 2):
            candidates = None  # None: unconstrained so far
            for j in range(1, r):
                if cols[a][j] == cols[b][j]:
                    continue
                row_hits = set(buckets[j].get(cols[a][j], ()))
                row_hits.update(buckets[j].get(cols[b][j], ()))
                candidates = row_hits if candidates is None else candidates & row_hits
                if not candidates:
                    break
            for c in range(m) if candidates is None else sorted(candidates):
                if c != a and c != b and not separated((a, b, c)):
                    triple = tuple(sorted((a, b, c)))
                    first = triple if first is None else min(first, triple)
                    break
    if first is not None:
        return Verdict(
            False, "unseparated", f"no row separates columns {first}", {"columns": first}
        )
    return Verdict(True, "valid", f"(3;{m},{phf.q},3) PHF")


def assert_same_verdict(phf):
    got, want = verify_phf(phf), reference_verify_phf(phf)
    assert (got.ok, got.code, got.detail, got.info) == (want.ok, want.code, want.detail, want.info)
    for column in got.info.get("columns", ()):
        assert type(column) is int


class TestNtapConstruct:
    def test_smallest(self):
        assert ntap_construct(1).elements == (1, 2)

    def test_two_digits(self):
        assert ntap_construct(2).elements == (2, 4, 5, 7)

    def test_sizes(self):
        for n in range(1, 11):
            ntap = ntap_construct(n)
            assert ntap.v == 3**n
            assert ntap.size == 2**n

    def test_doubling_matches_signed_sums(self):
        for n in range(1, 9):
            sums = {
                sum(s * 3**i for i, s in enumerate(signs)) % 3**n
                for signs in itertools.product((-1, 1), repeat=n)
            }
            elements = ntap_construct(n).elements
            assert elements == tuple(sorted(sums))
            assert all(type(x) is int for x in elements)

    def test_size_over_cell_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(pda_mod, "MAX_CELLS", 15)
        assert ntap_construct(3).size == 8
        with pytest.raises(ValueError, match=r"2\^4 elements is over the limit of MAX_CELLS = 15"):
            ntap_construct(4)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="MAX_CELLS"):
            ntap_construct(40)

    def test_progression_free_up_to_n4_by_oracle(self):
        for n in range(1, 5):
            ntap = ntap_construct(n)
            assert not brute_has_progression(ntap.v, ntap.elements)
            assert verify_ntap(ntap.v, ntap.elements).ok


class TestVerifyNtap:
    def test_difference_set_is_progression_free(self):
        assert verify_ntap(7, {0, 1, 3}).ok

    def test_arithmetic_progression_rejected(self):
        for v in (5, 7, 9, 15):
            verdict = verify_ntap(v, {0, 1, 2})
            assert not verdict.ok
            assert verdict.info == {"x": 0, "y": 2, "z": 1}

    def test_single_block_of_worked_packing(self):
        assert verify_ntap(15, {14, 1, 13, 2}).ok

    @given(
        st.integers(min_value=3, max_value=40),
        st.sets(st.integers(min_value=0, max_value=39), min_size=1, max_size=6),
    )
    def test_matches_brute_oracle(self, v, elements):
        elements = {x % v for x in elements}
        assert verify_ntap(v, elements).ok == (not brute_has_progression(v, elements))

    @given(
        st.integers(min_value=1, max_value=30),
        st.sets(st.integers(min_value=0, max_value=60), min_size=2, max_size=7),
    )
    def test_equivalence_with_single_block_packing(self, half, elements):
        v = 2 * half + 1
        elements = {x % v for x in elements}
        if v < 3 or len(elements) < 2:
            return
        as_ntap = verify_ntap(v, elements).ok
        as_packing = verify_nhsdp(v, [elements]).ok
        assert as_ntap == as_packing


class TestBoundReport:
    def test_crossover(self):
        assert ntap_bound_report(52).rho1_wins
        assert not ntap_bound_report(53).rho1_wins
        assert ntap_bound_report(1).rho1_wins

    def test_monotone_flip_once(self):
        wins = [ntap_bound_report(n).rho1_wins for n in range(1, 80)]
        assert wins == [n <= 52 for n in range(1, 80)]

    def test_reference_constants(self):
        # Four-digit published values; the composite sqrt coefficient was
        # printed from already-rounded factors, hence its looser tolerance.
        assert math.isclose(designs.LN3, 1.0986, abs_tol=5e-5)
        assert math.isclose(designs.LN2, 0.6931, abs_tol=5e-5)
        assert math.isclose(designs.BOUND_LINEAR, 0.4055, abs_tol=5e-5)
        assert math.isclose(designs.LOG2_3, 1.5850, abs_tol=5e-5)
        assert math.isclose(designs.TWO_SQRT_LOG2_24_7, 2.6665, abs_tol=5e-5)
        assert math.isclose(designs.BOUND_SQRT, 2.9293, abs_tol=2.5e-4)

    def test_rho2_direct_value(self):
        report = ntap_bound_report(4)
        expected = 81.0 * 2.0 ** (-designs.TWO_SQRT_LOG2_24_7 * math.sqrt(4 * designs.LOG2_3))
        assert math.isclose(report.rho2, expected)
        assert report.rho1 == 16


class TestPhf:
    def test_tiny_shift_family(self):
        phf = phf_from_ntap(NtapSet.from_elements(3, (1, 2)))
        assert (phf.r, phf.m, phf.q, phf.t) == (3, 6, 3, 3)
        assert verify_phf(phf).ok
        assert brute_phf_ok(phf.grid.tolist(), 3)

    def test_ternary_family(self):
        phf = phf_from_ntap(ntap_construct(2))
        assert (phf.m, phf.q) == (36, 9)
        assert verify_phf(phf).ok

    def test_difference_set_family(self):
        packing = cdp_to_nhsdp(ds_search(2))
        phf = phf_from_ntap(NtapSet.from_packing(packing))
        assert (phf.m, phf.q) == (21, 7)
        assert verify_phf(phf).ok
        assert brute_phf_ok(phf.grid.tolist(), 3)

    def test_largest_corpus_family(self):
        # g = 8 elements over Z_27: the widest case the corpus exercises.
        phf = phf_from_ntap(ntap_construct(3))
        assert (phf.m, phf.q) == (216, 27)
        assert verify_phf(phf).ok

    def test_shift_array_over_cell_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(pda_mod, "MAX_CELLS", 3 * 2 * 9 - 1)
        with pytest.raises(ValueError, match="3 x 18 = 54 cells"):
            phf_columns_from_elements(9, (1, 2))
        with pytest.raises(ValueError, match="MAX_CELLS = 53"):
            phf_from_ntap(NtapSet.from_elements(9, (1, 2)))
        assert phf_columns_from_elements(9, (1,)).m == 9

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            phf_from_ntap(NtapSet.from_elements(8, (1, 2)))

    def test_rejects_progression_input(self):
        with pytest.raises(ValueError):
            phf_from_ntap(NtapSet.from_elements(7, (0, 1, 2)))

    def test_negative_control_breaks_separation(self):
        bad = phf_columns_from_elements(7, (0, 1, 2))
        verdict = verify_phf(bad)
        assert not verdict.ok and verdict.code == "unseparated"
        assert not brute_phf_ok(bad.grid.tolist(), 3)

    def test_identical_columns_rejected(self):
        from nhsdp import PhfArray

        grid = [[0, 0, 1, 2], [1, 1, 0, 2], [2, 2, 1, 0]]
        verdict = verify_phf(PhfArray(q=3, t=3, grid=grid))
        assert not verdict.ok
        assert 0 in verdict.info["columns"] and 1 in verdict.info["columns"]

    def test_single_row_all_distinct(self):
        from nhsdp import PhfArray

        phf = PhfArray(q=5, t=5, grid=[[0, 1, 2, 3, 4]])
        assert verify_phf(phf).ok

    def test_strength_exceeding_columns_rejected(self):
        from nhsdp import PhfArray

        with pytest.raises(ValueError):
            verify_phf(PhfArray(q=3, t=4, grid=[[0, 1, 2]]))

    def test_pair_class_sweep_agrees_with_triple_sweep(self):
        from nhsdp import PhfArray

        cases = [
            phf_from_ntap(ntap_construct(2)),
            phf_columns_from_elements(7, (0, 1, 2)),
            phf_columns_from_elements(9, (1, 2, 4)),
            # Duplicated column: the pair collides in every row, so the
            # third column of the violating triple is unconstrained.
            PhfArray(q=3, t=3, grid=[[0, 0, 1, 2], [1, 1, 0, 2], [2, 2, 1, 0]]),
        ]
        expected = [brute_phf_ok(phf.grid.tolist(), 3) for phf in cases]
        assert expected == [True, False, True, False]
        assert [verify_phf(phf).ok for phf in cases] == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_pair_class_sweep_matches_oracle_on_random_arrays(self, seed):
        import random as _random

        from nhsdp import PhfArray

        rng = _random.Random(seed)
        m, q = rng.randint(3, 8), rng.randint(2, 4)
        grid = [[rng.randrange(q) for _ in range(m)] for _ in range(3)]
        phf = PhfArray(q=q, t=3, grid=grid)
        assert verify_phf(phf).ok == brute_phf_ok(grid, 3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_witness_is_first_unseparated_subset(self, seed):
        import random as _random

        from nhsdp import PhfArray

        rng = _random.Random(seed)
        r, m, q, t = rng.randint(1, 4), rng.randint(4, 8), rng.randint(2, 4), rng.choice((2, 3, 4))
        grid = [[rng.randrange(q) for _ in range(m)] for _ in range(r)]
        first = next(
            (
                cols
                for cols in itertools.combinations(range(m), t)
                if not any(len({grid[j][c] for c in cols}) == t for j in range(r))
            ),
            None,
        )
        verdict = verify_phf(PhfArray(q=q, t=t, grid=grid))
        assert verdict.ok == (first is None)
        if first is not None:
            assert verdict.info["columns"] == first
            assert verdict.detail == f"no row separates columns {first}"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=13).map(lambda k: 2 * k + 1))
    def test_every_valid_odd_ntap_expands(self, v):
        # Greedy progression-free subset of Z_v, then expand and verify.
        elements: list[int] = []
        for x in range(v):
            if verify_ntap(v, elements + [x]).ok:
                elements.append(x)
            if len(elements) == 5:
                break
        phf = phf_from_ntap(NtapSet.from_elements(v, elements))
        assert verify_phf(phf).ok


class TestPhfJoin:
    """verify_phf at t=3 against the pair-class sweep, the triple oracle and
    its own size bounds."""

    def test_agrees_with_reference_on_random_grids(self):
        rng = np.random.default_rng(20240607)
        for _ in range(20_000):
            r, m, q = rng.integers(1, 5), rng.integers(3, 13), rng.integers(2, 6)
            assert_same_verdict(PhfArray(q=int(q), t=3, grid=rng.integers(0, q, size=(r, m))))

    @pytest.mark.parametrize(
        "phf",
        [
            PhfArray(q=4, t=3, grid=np.full((3, 7), 3)),
            PhfArray(q=9, t=3, grid=np.tile(np.arange(9), (3, 2))),
            PhfArray(q=5, t=3, grid=[[0, 1, 1, 2, 3, 3, 4]]),
            PhfArray(q=5, t=3, grid=[[0, 1, 2, 3, 4]]),
            PhfArray(q=3, t=3, grid=[[0, 0, 1], [1, 1, 1]]),
            PhfArray(q=3, t=3, grid=[[0, 1, 2], [0, 0, 0]]),
            PhfArray(q=2, t=3, grid=[[0, 0, 0], [0, 1, 0], [1, 0, 0]]),
            phf_columns_from_elements(7, (0, 1, 2)),
            phf_columns_from_elements(9, (1, 2, 4)),
            phf_from_ntap(ntap_construct(2)),
        ],
        ids=[
            "all_equal", "duplicated_columns", "single_row_collisions",
            "single_row_distinct", "m3_unseparated", "m3_separated", "m3_binary",
            "progression_7", "shift_9", "ternary_n2",
        ],
    )
    def test_agrees_with_reference_on_degenerate_grids(self, phf):
        assert_same_verdict(phf)
        assert verify_phf(phf).ok == brute_phf_ok(phf.grid.tolist(), 3)

    def test_n6_shift_family_is_valid(self):
        verdict = verify_phf(phf_from_ntap(ntap_construct(6)))
        assert verdict.ok and verdict.detail == "(3;46656,729,3) PHF"

    def test_working_set_is_bounded_by_the_chunk(self):
        # 3 x 4000 constant grid: C(4000, 2), about 8 M, row-0 pairs.
        phf = PhfArray(q=1, t=3, grid=np.zeros((3, 4000), dtype=np.int64))
        tracemalloc.start()
        try:
            verdict = verify_phf(phf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.info == {"columns": (0, 1, 2)}
        assert peak < 16 * 2**20


class TestColumnComparison:
    def test_quadrics_at_n4(self):
        report = phf_column_comparison(4, "vs_quadrics")
        assert report.ratio == pytest.approx(0.625)
        assert report.ratio_exact == Fraction(5, 8)
        assert report.columns_shift == 1296

    def test_quadrics_boundary(self):
        assert phf_column_comparison(2, "vs_quadrics").ratio == pytest.approx(1.0)

    def test_hermitian_at_n6(self):
        report = phf_column_comparison(6, "vs_hermitian")
        assert report.ratio_exact == Fraction(81, 64)
        assert report.ratio == pytest.approx(81 / 64)

    def test_rejects(self):
        with pytest.raises(ValueError):
            phf_column_comparison(1, "vs_quadrics")
        with pytest.raises(ValueError):
            phf_column_comparison(4, "nope")
