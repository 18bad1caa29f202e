import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhsdp import pda as pda_mod
from nhsdp import (
    Nhsdp,
    Pda,
    STAR,
    binomial,
    conjugate_pda,
    construct_nhsdp,
    drop_columns,
    group_pda_divisible,
    mn_pda,
    pda_from_nhsdp,
    pda_stats,
    symbol_groups,
    verify_pda,
)
from conftest import EX4_GRID, EX15_BLOCKS, naive_verify_pda, peak_mib


def make_pda(rows, Z=None, S=None):
    grid = np.array(rows, dtype=np.int64)
    if Z is None or S is None:
        return Pda.from_grid(grid)
    return Pda(grid, Z=Z, S=S)


def first_c3_violation(pda):
    """Reference witness: C3a, else C3b, at the first pair of equal-symbol
    cells by (symbol, first cell, second cell), cells in row-major order."""
    grid = pda.grid
    cells = sorted(
        (int(grid[j, k]), j, k) for j in range(pda.F) for k in range(pda.K) if grid[j, k] != STAR
    )
    pairs = [
        (s, (j1, k1), (j2, k2))
        for (s, j1, k1), (t, j2, k2) in itertools.combinations(cells, 2)
        if s == t
    ]
    for s, (j1, k1), (j2, k2) in pairs:
        if j1 == j2 or k1 == k2:
            return "C3a", s, ((j1, k1), (j2, k2))
    for s, (j1, k1), (j2, k2) in pairs:
        if grid[j1, k2] != STAR or grid[j2, k1] != STAR:
            return "C3b", s, ((j1, k1), (j2, k2))
    return None


def assert_matches_references(arr):
    verdict = verify_pda(arr)
    assert verdict.ok == naive_verify_pda(arr)
    expected = first_c3_violation(arr)
    if expected is None:
        assert verdict.code in ("valid", "C1", "C2")
    else:
        assert (verdict.code, verdict.info["symbol"], verdict.info["cells"]) == expected


class TestSymbolGroups:
    def test_order_is_symbol_user_row(self, ex15_packing):
        for arr in (pda_from_nhsdp(ex15_packing), make_pda(EX4_GRID, Z=2, S=4)):
            groups = symbol_groups(arr)
            listed = list(zip(groups.symbol.tolist(), groups.user.tolist(), groups.row.tolist()))
            grid = arr.grid
            assert listed == sorted(
                (int(grid[j, k]), k, j) for j in range(arr.F) for k in range(arr.K) if grid[j, k]
            )
            present, sizes = np.unique(grid[grid != STAR], return_counts=True)
            assert groups.symbol[groups.start[:-1]].tolist() == present.tolist()
            assert groups.start.tolist() == [0, *np.cumsum(sizes).tolist()]

    def test_absent_symbols_have_no_group(self):  # symbol 3 has one; 1, 2 and 4 have none
        groups = symbol_groups(make_pda([[STAR, 3], [3, STAR]], Z=1, S=4))
        assert groups.start.tolist() == [0, 2]
        assert groups.symbol.tolist() == [3, 3]
        assert groups.row.tolist() == [1, 0] and groups.user.tolist() == [0, 1]
        groups = symbol_groups(make_pda([[STAR, STAR]], Z=1, S=0))
        assert groups.start.tolist() == [0] and groups.symbol.size == 0

    @pytest.mark.parametrize("S", [2**40, 10**30])
    def test_huge_declared_s_is_not_allocated(self, S):
        top = min(S, 2**40)
        groups = symbol_groups(Pda([[top, STAR], [STAR, top]], Z=1, S=S))
        assert groups.start.tolist() == [0, 2] and groups.symbol.tolist() == [top, top]
        assert groups.row.tolist() == [0, 1] and groups.user.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "top, ranked", [(5, False), (2**61 - 1, False), (2**61, True), (2**63 - 1, True)]
    )
    def test_ranks_only_past_the_int64_key(self, monkeypatch, top, ranked):
        # On a 2 x 2 grid the key symbol * 4 + cell fits int64 while (top + 1) * 4 <= 2**63.
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(a) or unique(*a, **kw))
        groups = symbol_groups(Pda([[top, top - 1], [top - 2, top]], Z=0, S=top))
        assert bool(calls) == ranked
        assert groups.symbol.tolist() == [top - 2, top - 1, top, top]
        assert groups.user.tolist() == [0, 1, 0, 1] and groups.row.tolist() == [1, 0, 0, 1]
        assert groups.start.tolist() == [0, 1, 2, 4]

    @pytest.mark.parametrize(
        "arr, sizes",
        [
            (drop_columns(pda_from_nhsdp(Nhsdp.from_blocks(15, EX15_BLOCKS)), range(14)), {3, 4}),
            (make_pda([[1, 4, STAR], [4, STAR, 2], [STAR, 3, 4]], Z=1, S=4), {1, 3}),
            (make_pda([[STAR, STAR]], Z=1, S=0), set()),
        ],
        ids=["dropped_column", "singletons", "all_star"],
    )
    def test_pairs_list_each_pair_of_a_group_once(self, arr, sizes):
        groups = symbol_groups(arr)
        assert set(np.diff(groups.start).tolist()) == sizes
        walked = []
        for c, o in groups.pairs():
            assert (c < o).all() and (groups.symbol[c] == groups.symbol[o]).all()
            walked += zip(c.tolist(), o.tolist())
        bounds = groups.start.tolist()
        expected = [
            pair for a, b in zip(bounds, bounds[1:]) for pair in itertools.combinations(range(a, b), 2)
        ]
        assert len(walked) == len(set(walked)) and sorted(walked) == expected


class TestVerify:
    def test_worked_4x4(self, ex4_pda):
        verdict = verify_pda(ex4_pda)
        assert verdict.ok
        assert pda_stats(ex4_pda).regular_g == 2
        assert naive_verify_pda(ex4_pda)

    def test_star_to_symbol_mutation(self, ex4_pda):
        grid = np.array(ex4_pda.grid)
        grid[0, 0] = 1  # symbol 1 now repeats in row 0
        verdict = verify_pda(make_pda(grid, Z=2, S=4))
        assert not verdict.ok and verdict.code in ("C3a", "C3b")
        assert not naive_verify_pda(make_pda(grid, Z=2, S=4))

    def test_cross_cell_mutation_reports_c3b(self, ex4_pda):
        grid = np.array(ex4_pda.grid)
        grid[1, 1] = 3  # breaks the cross star of symbol 1
        verdict = verify_pda(make_pda(grid, Z=2, S=4))
        assert verdict.code == "C3b"
        assert verdict.info["cells"] == ((0, 1), (1, 0))

    def test_c1_and_c2(self, ex4_pda):
        short = np.array(ex4_pda.grid)
        short[0, 1] = STAR  # column 1 gains a star
        assert verify_pda(make_pda(short, Z=2, S=4)).code == "C1"
        assert verify_pda(Pda(ex4_pda.grid, Z=2, S=5)).code == "C2"

    def test_c2_counts_absent_symbols_without_sizing_by_s(self, ex4_pda):
        huge = 10**30  # no array of this length can exist
        verdict = verify_pda(Pda([[1]], Z=0, S=huge))
        assert verdict.code == "C2"
        assert verdict.detail == (
            f"{huge - 1} of S={huge} symbols never occur, first missing 2"
        )
        assert verdict.info["missing"] == list(range(2, 18))
        verdict = verify_pda(Pda(ex4_pda.grid * 2, Z=2, S=9))  # symbols 2, 4, 6, 8
        assert verdict.code == "C2" and verdict.info["missing"] == [1, 3, 5, 7, 9]

    def test_symbols_near_int64_limit(self):
        big = 2**62
        verdict = verify_pda(Pda([[big, 1], [1, big]], Z=0, S=big))
        assert verdict.code == "C3b"
        assert verdict.info == {"symbol": 1, "cells": ((0, 1), (1, 0))}
        verdict = verify_pda(Pda([[big, STAR], [STAR, big]], Z=1, S=big))
        assert verdict.code == "C2" and verdict.info["missing"] == list(range(1, 17))
        assert verdict.detail == f"{big - 1} of S={big} symbols never occur, first missing 1"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_references_on_symbols_near_int64_limit(self, seed):
        rng = np.random.default_rng(seed)
        F, K, S = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 5))
        values = [1, 2, 3, 2**62 - 1, 2**62, 2**62 + 1, 2**63 - 2, 2**63 - 1]
        table = np.array([STAR, *rng.choice(values, size=S, replace=False).tolist()])
        grid = table[rng.integers(0, S + 1, size=(F, K))]
        arr = Pda(grid, Z=int((grid[:, 0] == STAR).sum()), S=int(table.max()))
        assert_matches_references(arr)

    def test_all_star_degenerate(self):
        arr = make_pda(np.zeros((3, 5), dtype=np.int64), Z=3, S=0)
        assert verify_pda(arr).ok
        stats = pda_stats(arr)
        assert stats.memory_ratio == 1 and stats.load == 0 and stats.gain is None

    def test_singleton_symbols_accepted(self):
        arr = make_pda([[1, STAR], [STAR, 2]], Z=1, S=2)
        assert verify_pda(arr).ok

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_naive_checker_on_random_grids(self, seed):
        rng = np.random.default_rng(seed)
        F, K, S = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 5))
        grid = rng.integers(0, S + 1, size=(F, K))
        arr = Pda(grid, Z=int((grid[:, 0] == STAR).sum()), S=S)
        assert_matches_references(arr)


    def test_c3a_is_reported_before_c3b(self, ex4_pda):
        grid = np.array(ex4_pda.grid)
        grid[1, 1] = 3  # symbol 1 loses its cross star: C3b
        grid[2, 0] = 4  # symbol 4 repeats in column 0: C3a, at a later symbol
        verdict = verify_pda(make_pda(grid, Z=2, S=4))
        assert verdict.code == "C3a" and verdict.info["symbol"] == 4
        assert verdict.info["cells"] == ((2, 0), (3, 0))

    def test_matches_references_on_dropped_columns(self, ex15_packing):
        arr = pda_from_nhsdp(ex15_packing)
        for keep in (range(14), range(1, 15), (0, 2, 3, 5, 7, 8, 11, 13), (4, 9)):
            sub = drop_columns(arr, keep)
            assert len(set(np.diff(symbol_groups(sub).start).tolist())) > 1
            assert_matches_references(sub)

    def test_matches_references_on_small_conjugates(self, ex15_packing):
        arr = pda_from_nhsdp(ex15_packing)
        for base in (arr, drop_columns(arr, range(14))):
            conj = conjugate_pda(base)
            assert conj.F == base.S and conj.S == base.F
            assert verify_pda(conj).ok
            assert_matches_references(conj)
            grid = np.array(conj.grid)
            j, k = np.argwhere(grid == STAR)[0]
            grid[j, k] = 1
            assert_matches_references(Pda(grid, Z=conj.Z, S=conj.S))

    def test_matches_references_on_single_cell_mutations(self, ex15_packing):
        arr = pda_from_nhsdp(ex15_packing)
        rng = np.random.default_rng(15)
        codes = set()
        for j, k in itertools.product(range(arr.F), range(arr.K)):
            grid = np.array(arr.grid)
            grid[j, k] = STAR if grid[j, k] else int(rng.integers(1, arr.S + 1))
            mutated = Pda(grid, Z=arr.Z, S=arr.S)
            assert_matches_references(mutated)
            codes.add(verify_pda(mutated).code)
        assert {"C3a", "C3b", "C1"} <= codes


def walk(groups):
    """The pairs of ``groups.pairs()`` in the order listed, and the size of each step."""
    pairs, steps = [], []
    for c, o in groups.pairs():
        assert c.size == o.size
        steps.append(c.size)
        pairs += zip(c.tolist(), o.tolist())
    return pairs, steps


def walk_positions(arr, verdict):
    """Positions in the walk of the first pair that breaks verdict.code and
    of the witness pair verify_pda reports."""
    groups = symbol_groups(arr)
    grid, row, user = arr.grid, groups.row.tolist(), groups.user.tolist()
    bad, cells = [], []
    for c, o in walk(groups)[0]:
        (r1, u1), (r2, u2) = (row[c], user[c]), (row[o], user[o])
        if verdict.code == "C3a":
            bad.append(r1 == r2 or u1 == u2)
        else:
            bad.append(grid[r1, u2] != STAR or grid[r2, u1] != STAR)
        cells.append(tuple(sorted(((r1, u1), (r2, u2)))))
    return bad.index(True), cells.index(verdict.info["cells"])


class TestPairChunks:
    """The pair walk cut into chunks of 1, 2 and 7 pairs gives exactly what
    the default chunk, one whole offset per step at these sizes, gives."""

    CHUNKS = (1, 2, 7)

    @pytest.fixture
    def arrays(self, ex15_packing):
        lift = pda_from_nhsdp(ex15_packing)
        return {"lift": lift, "conjugate": conjugate_pda(lift), "dropped": drop_columns(lift, range(14))}

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_pairs_keep_their_order_in_chunks(self, arrays, monkeypatch, chunk):
        groups = [symbol_groups(arr) for arr in arrays.values()]
        whole = [walk(g) for g in groups]
        assert all(max(steps) > max(self.CHUNKS) for _, steps in whole)
        monkeypatch.setattr(pda_mod, "_PAIR_CHUNK", chunk)
        for g, (pairs, _) in zip(groups, whole):
            chunked, steps = walk(g)
            assert max(steps) == chunk and chunked == pairs
            assert len(set(chunked)) == len(chunked)

    def test_verify_pda_is_chunk_invariant(self, arrays, monkeypatch):
        # Star-to-symbol mutations of 40 cells each of the lift and of its conjugate.
        rng = np.random.default_rng(15)
        mutated = []
        for arr in (arrays["lift"], arrays["conjugate"]):
            stars = np.argwhere(arr.grid == STAR)
            for j, k in stars[rng.choice(len(stars), size=40, replace=False)]:
                grid = np.array(arr.grid)
                grid[j, k] = int(rng.integers(1, arr.S + 1))
                mutated.append(Pda(grid, Z=arr.Z, S=arr.S))
        expected = [verify_pda(arr) for arr in mutated]
        assert {v.code for v in expected} == {"C3a", "C3b"}
        later = {(code, chunk): False for code in ("C3a", "C3b") for chunk in self.CHUNKS}
        for arr, verdict in zip(mutated, expected):
            first, witness = walk_positions(arr, verdict)
            for chunk in self.CHUNKS:
                later[verdict.code, chunk] |= first // chunk < witness // chunk
        assert all(later.values())  # some witness comes after a chunk holding another bad pair
        for chunk in self.CHUNKS:
            monkeypatch.setattr(pda_mod, "_PAIR_CHUNK", chunk)
            for arr, verdict in zip(mutated, expected):
                got = verify_pda(arr)
                assert (got.ok, got.code, got.detail, got.info) == (
                    verdict.ok, verdict.code, verdict.detail, verdict.info
                )


class TestPairWalkMemory:
    """tracemalloc peaks of the symbol index and of verify_pda on the v=1331
    lift, its grid already built."""

    def test_index_and_verify_peaks(self, golden_arrays):
        arr = golden_arrays["a1331"]
        assert peak_mib(symbol_groups, arr) <= 56  # MiB; 74 before the key was built in place
        assert peak_mib(verify_pda, arr) <= 80  # MiB; 127 when each offset was walked whole


class TestLift:
    def test_worked_example_cells(self, ex15_packing):
        arr = pda_from_nhsdp(ex15_packing)
        assert arr.params() == (15, 15, 7, 30)
        assert verify_pda(arr).ok
        sym_1_1 = 0 * 15 + 1 + 1  # pair (c=1, block 1)
        assert arr.grid[1, 0] == sym_1_1 and arr.grid[0, 1] == sym_1_1
        assert arr.grid[0, 0] == STAR and arr.grid[1, 1] == STAR
        assert pda_stats(arr).regular_g == 4

    def test_star_positions_are_shift_classes(self, ex15_packing):
        arr = pda_from_nhsdp(ex15_packing)
        outside = set(range(15)) - ex15_packing.element_set()
        expected = {(i, (i + h) % 15) for i in range(15) for h in outside}
        stars = {
            (j, k) for j in range(15) for k in range(15) if arr.grid[j, k] == STAR
        }
        assert stars == expected

    def test_tiny_lift(self):
        arr = pda_from_nhsdp(construct_nhsdp(3, (1,)))
        assert arr.params() == (3, 3, 1, 3)
        assert pda_stats(arr).regular_g == 2
        assert naive_verify_pda(arr)

    def test_rejects_output_over_cell_limit(self, ex15_packing, monkeypatch):
        monkeypatch.setattr(pda_mod, "MAX_CELLS", 15 * 15 - 1)
        with pytest.raises(ValueError, match=r"15 x 15 = 225 cells"):
            pda_from_nhsdp(ex15_packing)

    def test_rejects_invalid_packing(self):
        with pytest.raises(ValueError):
            pda_from_nhsdp(Nhsdp.from_blocks(15, [(1, 2, 3)]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=10),
    )
    def test_lift_parameters_property(self, m, offset):
        import math

        from nhsdp import block_params

        v = block_params(m).min_modulus + 2 * offset
        packing = construct_nhsdp(v, m)
        arr = pda_from_nhsdp(packing)
        b, g = math.prod(m), 2 ** len(m)
        assert arr.params() == (v, v, v - b * g, b * v)
        assert verify_pda(arr).ok
        assert pda_stats(arr).regular_g == g


class TestConjugate:
    def test_worked_4x4(self, ex4_pda):
        conj = conjugate_pda(ex4_pda)
        assert conj.params() == (4, 4, 2, 4)
        assert verify_pda(conj).ok

    def test_conjugate_of_lifted_array(self, ex15_packing):
        arr = pda_from_nhsdp(ex15_packing)
        conj = conjugate_pda(arr)
        assert conj.params() == (15, 30, 22, 15)
        assert verify_pda(conj).ok

    def test_parameter_identity_and_duality(self, ex15_packing):
        for arr in (pda_from_nhsdp(ex15_packing), mn_pda(5, 2), mn_pda(4, 2)):
            K, F, Z, S = arr.params()
            conj = conjugate_pda(arr)
            assert conj.params() == (K, S, S - (F - Z), F)
            stats = pda_stats(conj)
            assert stats.memory_ratio == 1 - Fraction(F - Z, S)
            assert stats.load == Fraction(F, S)

    def test_rejects_all_star_row(self):
        arr = make_pda([[STAR, STAR], [1, 2]], Z=1, S=2)
        assert verify_pda(arr).ok
        with pytest.raises(ValueError, match="all stars"):
            conjugate_pda(arr)

    def test_rejects_degenerate_z(self):
        arr = make_pda([[1, 2]], Z=0, S=2)
        with pytest.raises(ValueError, match="0 < Z < F"):
            conjugate_pda(arr)

    def test_rejects_output_over_cell_limit(self):
        arr = pda_from_nhsdp(construct_nhsdp(1331, (5, 5, 5)))
        assert arr.S * arr.K > pda_mod.MAX_CELLS
        with pytest.raises(ValueError, match=r"166375 x 1331 = 221445125 cells.*MAX_CELLS"):
            conjugate_pda(arr)


class TestGrouping:
    def test_doubling_smallest(self):
        base = make_pda([[STAR, 1], [1, STAR]], Z=1, S=1)
        grouped = group_pda_divisible(base, 4)
        assert grouped.params() == (4, 2, 1, 2)
        assert verify_pda(grouped).ok and naive_verify_pda(grouped)

    def test_identity(self, ex4_pda):
        grouped = group_pda_divisible(ex4_pda, 4)
        assert grouped.same_as(ex4_pda)

    def test_triple(self, ex4_pda):
        grouped = group_pda_divisible(ex4_pda, 12)
        assert grouped.params() == (12, 4, 2, 12)
        assert verify_pda(grouped).ok

    def test_rejects_non_multiple(self, ex4_pda):
        with pytest.raises(ValueError):
            group_pda_divisible(ex4_pda, 6)

    def test_rejects_output_over_cell_limit(self, ex4_pda, monkeypatch):
        monkeypatch.setattr(pda_mod, "MAX_CELLS", 4 * 12)
        assert group_pda_divisible(ex4_pda, 12).params() == (12, 4, 2, 12)
        with pytest.raises(ValueError, match=r"4 x 16 = 64 cells.*MAX_CELLS = 48"):
            group_pda_divisible(ex4_pda, 16)


class TestMnPda:
    def test_rejects_output_over_cell_limit(self, monkeypatch):
        monkeypatch.setattr(pda_mod, "MAX_CELLS", 6 * 4)
        assert mn_pda(4, 2).params() == (4, 6, 3, 4)
        with pytest.raises(ValueError, match=r"10 x 5 = 50 cells"):
            mn_pda(5, 2)

    def test_small(self):
        arr = mn_pda(4, 2)
        assert arr.params() == (4, 6, 3, 4)
        assert verify_pda(arr).ok and naive_verify_pda(arr)
        assert pda_stats(arr).regular_g == 3

    def test_smallest(self):
        arr = mn_pda(2, 1)
        assert arr.params() == (2, 2, 1, 1)
        assert verify_pda(arr).ok

    def test_subpacketization_at_k10(self):
        arr = mn_pda(10, 5)
        assert arr.F == 252
        assert arr.params() == (10, 252, binomial(9, 4), binomial(10, 6))
        assert verify_pda(arr).ok

    def test_rejects_bad_t(self):
        for K, t in [(4, 0), (4, 4), (4, 5)]:
            with pytest.raises(ValueError):
                mn_pda(K, t)

    def test_stats_follow_counting_identities(self):
        for K, t in [(4, 2), (5, 1), (5, 3), (6, 2)]:
            stats = pda_stats(mn_pda(K, t))
            assert stats.memory_ratio == Fraction(t, K)
            assert stats.load == Fraction(K - t, t + 1)
            assert stats.regular_g == t + 1


class TestDropColumns:
    def test_virtual_user_removal(self, ex15_packing):
        arr = pda_from_nhsdp(ex15_packing)
        # Independent count: symbols surviving in the kept columns.
        survivors = {int(s) for s in arr.grid[:, :14].ravel() if s != STAR}
        dropped = drop_columns(arr, range(14))
        assert dropped.params() == (14, 15, 7, len(survivors))
        assert dropped.S == 30
        assert verify_pda(dropped).ok

    def test_keep_everything(self, ex4_pda):
        assert drop_columns(ex4_pda, range(4)).same_as(ex4_pda)

    def test_single_column(self):
        arr = pda_from_nhsdp(construct_nhsdp(3, (1,)))
        single = drop_columns(arr, {0})
        assert single.params() == (1, 3, 1, 2)
        assert verify_pda(single).ok

    def test_every_subset_of_4x4(self, ex4_pda):
        for r in range(1, 5):
            for keep in itertools.combinations(range(4), r):
                sub = drop_columns(ex4_pda, keep)
                assert verify_pda(sub).ok, keep
                assert naive_verify_pda(sub)

    def test_rejects_empty(self, ex4_pda):
        with pytest.raises(ValueError):
            drop_columns(ex4_pda, ())

    def test_huge_declared_s_needs_no_dense_remap(self):
        sub = drop_columns(Pda([[1, 0]], Z=0, S=10**30), [0])
        assert sub.params() == (1, 1, 0, 1) and sub.grid.tolist() == [[1]]

    def test_ranks_keep_symbol_order(self):
        big = 2**62
        arr = Pda([[big, 5, 0], [0, big - 1, 7]], Z=0, S=big)
        sub = drop_columns(arr, [0, 1])
        assert sub.S == 3 and sub.grid.tolist() == [[3, 1], [0, 2]]


class TestStats:
    def test_worked_values(self, ex15_packing, ex4_pda):
        stats = pda_stats(pda_from_nhsdp(ex15_packing))
        assert stats.memory_ratio == Fraction(7, 15)
        assert stats.load == 2
        assert stats.regular_g == 4
        stats4 = pda_stats(ex4_pda)
        assert stats4.memory_ratio == Fraction(1, 2) and stats4.load == 1

    def test_huge_declared_s_is_not_regular(self):
        stats = pda_stats(Pda([[1]], Z=0, S=10**30))
        assert stats.regular_g is None and stats.load == 10**30

    def test_regularity_matches_symbol_group_sizes(self, ex15_packing):
        def by_groups(arr):  # regular: all S symbols present, in groups of one size
            sizes = np.diff(symbol_groups(arr).start)
            return int(sizes[0]) if arr.S == sizes.size > 0 and (sizes == sizes[0]).all() else None

        lifts = [pda_from_nhsdp(ex15_packing), pda_from_nhsdp(construct_nhsdp(125, (2, 2, 2)))]
        arrays = [
            *lifts,
            *(drop_columns(arr, range(arr.K - 1)) for arr in lifts),
            *(conjugate_pda(arr) for arr in lifts),
            mn_pda(6, 2),
            Pda([[1, 0], [0, 1]], Z=1, S=2),  # symbol 2 never occurs
            Pda([[0]], Z=1, S=0),
        ]
        got = [pda_stats(arr).regular_g for arr in arrays]
        assert got == [by_groups(arr) for arr in arrays]
        assert got[:2] == [4, 8] and None in got

    def test_gain_identity(self, ex4_pda, ex15_packing):
        for arr in (ex4_pda, pda_from_nhsdp(ex15_packing), mn_pda(5, 2)):
            stats = pda_stats(arr)
            assert stats.gain * stats.load == arr.K * (1 - stats.memory_ratio)
