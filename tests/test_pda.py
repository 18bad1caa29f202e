import dataclasses
import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhsdp import pda as pda_mod
from nhsdp import (
    CheckedPda,
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
from nhsdp.serialize import pda_to_text
from conftest import EX4_GRID, EX15_BLOCKS, naive_verify_pda, peak_mib, same_pda


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


def assert_matches_references_on_every_cell(arr, rng):
    """assert_matches_references, and assert_matches_mutation_reference
    too, on each array that differs from arr, a valid PDA, in one cell: a
    symbol made a star, a star made a random symbol.  The codes."""
    codes = set()
    for j, k in itertools.product(range(arr.F), range(arr.K)):
        grid = np.array(arr.grid)
        grid[j, k] = STAR if grid[j, k] else int(rng.integers(1, arr.S + 1))
        mutated = Pda(grid, Z=arr.Z, S=arr.S)
        assert_matches_references(mutated)
        codes.add(assert_matches_mutation_reference(mutated, j, k))
    return codes


def c3_violation_near(arr, j, k):
    """first_c3_violation of arr, a valid PDA with cell (j, k) changed.

    A pair that breaks C3 in arr and not before holds that cell, or has it
    as a cross cell, one of its cells in row j and the other in column k.
    So only those pairs are listed: O(F + K + occ) of them, not O(occ^2).
    """
    grid = arr.grid
    s = int(grid[j, k])
    if s == STAR:
        return None
    pairs = []
    for r, u in zip(*(x.tolist() for x in np.divmod(np.flatnonzero(grid == s), arr.K))):
        if (r, u) != (j, k):
            code = "C3a" if r == j or u == k else "C3b" if grid[j, u] or grid[r, k] else None
            pairs.append((code, s, tuple(sorted(((j, k), (r, u))))))
    for u in np.flatnonzero(grid[j]).tolist():
        for r in np.flatnonzero(grid[:, k] == grid[j, u]).tolist():
            if u != k and r != j:
                pairs.append(("C3b", int(grid[j, u]), ((j, u), (r, k)) if j < r else ((r, k), (j, u))))
    for code in ("C3a", "C3b"):
        found = [pair for pair in pairs if pair[0] == code]
        if found:
            return min(found)
    return None


def assert_matches_mutation_reference(arr, j, k):
    """assert_matches_references for arr, a valid PDA with cell (j, k)
    changed, through c3_violation_near: the verdict, and the code and
    witness of a C3 fault.  The code."""
    verdict = verify_pda(arr)
    expected = c3_violation_near(arr, j, k)
    stars = np.count_nonzero(arr.grid == STAR, axis=0)
    symbols = np.unique(arr.grid[arr.grid != STAR]).size
    assert verdict.ok == (expected is None and (stars == arr.Z).all() and symbols == arr.S)
    if expected is None:
        assert verdict.code in ("valid", "C1", "C2")
    else:
        assert (verdict.code, verdict.info["symbol"], verdict.info["cells"]) == expected
    return verdict.code


class TestCellRange:
    """Every cell is the star or a symbol in [1, S], checked in one scan."""

    @pytest.mark.parametrize(
        "rows, S",
        [
            ([[STAR, -1]], 1),  # a negative cell
            ([[STAR, 3], [3, STAR]], 2),  # a cell above S
            ([[-1]], 2**63 - 1),  # -1 reads as 2^64 - 1 in the scan
            ([[-1]], 10**30),  # and an S past int64 does not admit it
            ([[STAR, STAR]], -1),  # no cell can reach a negative S
            (np.array([[STAR, 1], [-5, STAR]]).T, 1),  # a strided grid
        ],
    )
    def test_refused(self, rows, S):
        with pytest.raises(ValueError, match=r"^cells must be the star \(0\) or symbols in \[1, S\]$"):
            Pda(rows, Z=0, S=S)

    @pytest.mark.parametrize("top, S", [(2, 2), (2**63 - 1, 2**63 - 1), (5, 10**30)])
    def test_accepted_up_to_S(self, top, S):
        assert Pda([[STAR, top], [top, STAR]], Z=1, S=S).grid.max() == top


class TestSymbolGroups:
    def test_order_is_symbol_user_row(self, ex15_packing):
        for arr in (pda_from_nhsdp(ex15_packing), make_pda(EX4_GRID, Z=2, S=4)):
            groups = symbol_groups(arr)
            symbol = np.repeat(groups.present, np.diff(groups.start))
            listed = list(zip(symbol.tolist(), groups.user.tolist(), groups.row.tolist()))
            grid = arr.grid
            assert listed == sorted(
                (int(grid[j, k]), k, j) for j in range(arr.F) for k in range(arr.K) if grid[j, k]
            )
            present, sizes = np.unique(grid[grid != STAR], return_counts=True)
            assert groups.present.tolist() == present.tolist()
            assert groups.start.tolist() == [0, *np.cumsum(sizes).tolist()]

    def test_symbols_of_any_run_of_cells(self, ex15_packing):
        arr = drop_columns(pda_from_nhsdp(ex15_packing), range(14))  # groups of 3 and 4
        groups = symbol_groups(arr)
        symbol = arr.grid[groups.row, groups.user]
        n = len(symbol)
        for lo, hi in itertools.combinations_with_replacement(range(n + 1), 2):
            assert groups.symbols(lo, hi).tolist() == symbol[lo:hi].tolist()

    def test_index_holds_two_words_per_cell_and_per_group(self, golden_arrays):
        # row and user per cell; present and start per group, and one more
        # bound.  A symbol per cell took the v=1331 lift's index to 31.7 MiB.
        groups = symbol_groups(golden_arrays["a1331"])
        cells, P = len(groups.row), len(groups.present)
        assert (cells, P) == (1331 * 1000, 166375)
        assert sum(part.nbytes for part in groups) == 8 * (2 * cells + 2 * P + 1) == 23_958_008

    def test_absent_symbols_have_no_group(self):  # symbol 3 has one; 1, 2 and 4 have none
        groups = symbol_groups(make_pda([[STAR, 3], [3, STAR]], Z=1, S=4))
        assert groups.start.tolist() == [0, 2]
        assert groups.present.tolist() == [3]
        assert groups.row.tolist() == [1, 0] and groups.user.tolist() == [0, 1]
        groups = symbol_groups(make_pda([[STAR, STAR]], Z=1, S=0))
        assert groups.start.tolist() == [0] and groups.present.size == 0 == groups.row.size

    @pytest.mark.parametrize("S", [2**40, 10**30])
    def test_huge_declared_s_is_not_allocated(self, S):
        top = min(S, 2**40)
        groups = symbol_groups(Pda([[top, STAR], [STAR, top]], Z=1, S=S))
        assert groups.start.tolist() == [0, 2] and groups.present.tolist() == [top]
        assert groups.row.tolist() == [0, 1] and groups.user.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "top, ranked", [(5, False), (2**61 - 1, False), (2**61, True), (2**63 - 1, True)]
    )
    def test_ranks_only_past_the_int64_key(self, monkeypatch, top, ranked):
        # On a 2 x 2 grid the key is the symbol above a row bit and a user bit:
        # it fits int64 while (top + 1) << 2 <= 2**63.
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(a) or unique(*a, **kw))
        groups = symbol_groups(Pda([[top, top - 1], [top - 2, top]], Z=0, S=top))
        assert bool(calls) == ranked
        assert groups.present.tolist() == [top - 2, top - 1, top]
        assert groups.user.tolist() == [0, 1, 0, 1] and groups.row.tolist() == [1, 0, 0, 1]
        assert groups.start.tolist() == [0, 1, 2, 4]

    @pytest.mark.parametrize("budget", [1, 2, 7, 16, 50, pda_mod._TILE])
    @pytest.mark.parametrize(
        "arr, sizes",
        [
            (drop_columns(pda_from_nhsdp(Nhsdp.from_blocks(15, EX15_BLOCKS)), range(14)), {3, 4}),
            (make_pda([[1, 4, STAR], [4, STAR, 2], [STAR, 3, 4]], Z=1, S=4), {1, 3}),
            (make_pda([[STAR, STAR]], Z=1, S=0), set()),
            (make_pda(np.repeat(np.arange(1, 10), np.arange(1, 10)).reshape(5, 9)), set(range(1, 10))),
        ],
        ids=["dropped_column", "singletons", "all_star", "sizes_1_to_9"],
    )
    def test_tiles_cross_each_ordered_pair_of_a_group_once(self, monkeypatch, arr, sizes, budget):
        groups = symbol_groups(arr)
        size = np.diff(groups.start)
        assert set(size.tolist()) == sizes
        monkeypatch.setattr(pda_mod, "_TILE", budget)
        walked, steps = walk(groups)
        bounds = groups.start.tolist()
        expected = [
            pair for a, b in zip(bounds, bounds[1:]) for pair in itertools.permutations(range(a, b), 2)
        ]
        assert len(walked) == len(set(walked)) and sorted(walked) == expected
        assert max(steps, default=0) <= budget
        # Whole rows of a rectangle fill at least half of the budget, so
        # the walk takes at most one step per size class plus 2 sum g^2 / budget.
        classes, squares = len(set(size[size > 1].tolist())), int((size[size > 1] ** 2).sum())
        assert len(steps) <= classes + 2 * squares / budget
        if squares <= budget:  # each size class in one tile
            assert len(steps) == classes


def reference_symbol_groups(arr):
    """The symbol index by np.lexsort of (symbol, user, row) over the non-star cells."""
    row, user = np.nonzero(arr.grid)
    symbol = arr.grid[row, user]
    order = np.lexsort((row, user, symbol))
    present, sizes = np.unique(symbol, return_counts=True)
    return row[order], user[order], present, np.r_[0, np.cumsum(sizes)]


def index_grid(rng, F, K, top):
    """An F x K grid, about a third stars, of symbols drawn from the
    smallest of top - F*K/3 .. top, so groups of many sizes form."""
    alphabet = max(1, F * K // 3)
    grid = rng.integers(max(1, top - alphabet + 1), top, size=(F, K), endpoint=True)
    grid[rng.random((F, K)) < 0.35] = STAR
    return grid


class TestSymbolIndexReference:
    """symbol_groups against np.lexsort, its bit-field key at every width."""

    def assert_matches(self, arr):
        got = symbol_groups(arr)
        for part, want in zip(got, reference_symbol_groups(arr)):
            assert part.dtype == np.int64 and part.tolist() == want.tolist()

    @pytest.mark.parametrize("tile", [3, 64, pda_mod._TILE])
    @pytest.mark.parametrize("shape", ["grid", "one_row", "one_column", "one_cell"])
    def test_random_grids(self, monkeypatch, shape, tile):
        # F = 1 gives the row no bits, K = 1 the user; pieces of 3 and 64
        # cells split the positions as a large grid does.
        monkeypatch.setattr(pda_mod, "_TILE", tile)
        rng = np.random.default_rng([14, len(shape), tile])
        for _ in range(40):
            F, K = {
                "grid": rng.integers(2, 40, size=2),
                "one_row": (1, rng.integers(1, 80)),
                "one_column": (rng.integers(1, 80), 1),
                "one_cell": (1, 1),
            }[shape]
            top = int(rng.choice([1, 9, 10**6, 2**40, 2**63 - 1]))
            self.assert_matches(Pda.from_grid(index_grid(rng, int(F), int(K), top)))

    @pytest.mark.parametrize("F, K", [(1, 1), (1, 7), (7, 1), (5, 9), (64, 64), (65, 3)])
    def test_ranks_only_past_the_bit_fields(self, monkeypatch, F, K):
        # The key holds (top + 1) << (rb + ub) <= 2**63: the largest top
        # that fits is sorted by value, the next by rank.
        calls, unique = [], np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(a) or unique(*a, **kw))
        shift = (F - 1).bit_length() + (K - 1).bit_length()
        rng = np.random.default_rng([15, F, K])
        for top, ranked in ((2**63 >> shift) - 1, False), (2**63 >> shift, True):
            if top >= 2**63:  # F = K = 1: no field bits, so every int64 symbol fits
                continue
            grid = index_grid(rng, F, K, top)
            grid.flat[0] = top
            arr = Pda.from_grid(grid)
            calls.clear()
            symbol_groups(arr)
            assert bool(calls) == ranked
            self.assert_matches(arr)

    def test_mixed_group_sizes(self):
        # The (2,1) lift at v=15 with users 8..14 dropped: groups of 1 to 4 cells.
        arr = drop_columns(pda_from_nhsdp(construct_nhsdp(15, (2, 1))), range(8))
        assert set(np.diff(symbol_groups(arr).start).tolist()) == {1, 2, 3, 4}
        self.assert_matches(arr)

    def test_golden_arrays(self, golden_arrays):
        for arr in golden_arrays.values():
            self.assert_matches(arr)


class TestCheckedPda:
    def test_holds_the_verified_grid_buffer(self, ex15_packing):
        arr = pda_from_nhsdp(ex15_packing)
        checked = verify_pda(arr).info["checked"]
        assert isinstance(checked, CheckedPda) and isinstance(checked, Pda)
        assert checked.grid is arr.grid and checked.params() == arr.params()
        assert same_pda(conjugate_pda(checked), conjugate_pda(arr))
        assert pda_stats(checked) == pda_stats(arr)

    @pytest.mark.parametrize("how", ["call", "replace", "from_grid"])
    def test_only_verify_pda_makes_one(self, ex4_pda, how):
        checked = verify_pda(ex4_pda).info["checked"]
        make = {
            "call": lambda: CheckedPda(ex4_pda.grid, ex4_pda.Z, ex4_pda.S, checked.groups),
            "replace": lambda: dataclasses.replace(checked, grid=ex4_pda.grid[::-1]),
            "from_grid": lambda: CheckedPda.from_grid(ex4_pda.grid),
        }[how]
        with pytest.raises(TypeError, match="^only verify_pda makes a CheckedPda$"):
            make()


class TestVerify:
    def test_worked_4x4(self, ex4_pda):
        verdict = verify_pda(ex4_pda)
        assert verdict.ok
        assert pda_stats(ex4_pda).regular_g == 2
        assert naive_verify_pda(ex4_pda)

    def test_valid_verdict_holds_the_index_it_checked(self, ex15_packing):
        arr = pda_from_nhsdp(ex15_packing)
        verdict = verify_pda(arr)
        assert verdict.ok and verdict.info["params"] == arr.params()
        for got, want in zip(verdict.info["checked"].groups, symbol_groups(arr)):
            assert np.array_equal(got, want)
        assert "checked" not in verify_pda(Pda(arr.grid, Z=arr.Z, S=arr.S + 1)).info  # C2

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
        # Both take the row orientation: 480 + 225 < 960 cross entries for ex15's.
        arr = pda_from_nhsdp(ex15_packing)
        for base in (arr, drop_columns(arr, range(14))):
            conj = conjugate_pda(base)
            assert conj.F == base.S and conj.S == base.F
            assert verify_pda(conj).ok
            assert_matches_references(conj)
            assert_matches_references_on_every_cell(conj, np.random.default_rng(conj.K))
        conj = conjugate_pda(mn_pda(6, 2))
        assert verify_pda(conj).ok
        assert_matches_references(conj)

    def test_matches_references_on_single_cell_mutations(self, ex15_packing):
        codes = assert_matches_references_on_every_cell(pda_from_nhsdp(ex15_packing), np.random.default_rng(15))
        assert {"C3a", "C3b", "C1"} <= codes


def walk(groups):
    """The ordered (receiver, other) cell pairs of the tile walk, the
    receivers' entries with themselves left out, and the entries of each tile."""
    pairs, steps = [], []
    for rec, oth, shift in groups.tiles(1, groups.size_classes()):
        n, a, b = rec.shape + oth.shape[1:]
        own = np.zeros((n, a, b), dtype=bool)
        if shift is not None:
            own[:, np.arange(a), np.arange(a) + shift] = True
        c, o = np.broadcast_arrays(rec[:, :, None], oth[:, None, :])
        assert (c[own] == o[own]).all() and (c[~own] != o[~own]).all()
        pairs += zip(c[~own].tolist(), o[~own].tolist())
        steps.append(c.size)
    return pairs, steps


def tile_positions(arr, verdict):
    """Indices in the walk of the first tile holding a pair that breaks
    verdict.code and of the first tile holding the witness pair broken."""
    groups = symbol_groups(arr)
    grid, row, user = arr.grid, groups.row.tolist(), groups.user.tolist()
    first = None
    for t, (rec, oth, _) in enumerate(groups.tiles(1, groups.size_classes())):
        for cs, os in zip(rec.tolist(), oth.tolist()):
            for c, o in itertools.product(cs, os):
                (r1, u1), (r2, u2) = (row[c], user[c]), (row[o], user[o])
                if c == o or not (
                    r1 == r2 or u1 == u2 if verdict.code == "C3a" else grid[r1, u2] != STAR
                ):
                    continue
                first = t if first is None else first
                if tuple(sorted(((r1, u1), (r2, u2)))) == verdict.info["cells"]:
                    return first, t
    return first, None


class TestTileBudgets:
    """The tile walk cut to budgets of 1, 2 and 7 entries gives exactly what
    the default budget, one tile per size class at these sizes, gives."""

    BUDGETS = (1, 2, 7)

    @pytest.fixture
    def arrays(self, ex15_packing):
        lift = pda_from_nhsdp(ex15_packing)
        return {"lift": lift, "conjugate": conjugate_pda(lift), "dropped": drop_columns(lift, range(14))}

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_tiles_cross_the_same_pairs_at_any_budget(self, arrays, monkeypatch, budget):
        groups = [symbol_groups(arr) for arr in arrays.values()]
        whole = [walk(g) for g in groups]
        assert all(max(steps) > max(self.BUDGETS) for _, steps in whole)
        monkeypatch.setattr(pda_mod, "_TILE", budget)
        for g, (pairs, _) in zip(groups, whole):
            tiled, steps = walk(g)
            assert budget / 2 < max(steps) <= budget and sorted(tiled) == sorted(pairs)
            assert len(set(tiled)) == len(tiled)

    def test_verify_pda_is_budget_invariant(self, arrays, monkeypatch):
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
        later = {(code, budget): False for code in ("C3a", "C3b") for budget in self.BUDGETS}
        for budget in self.BUDGETS:
            monkeypatch.setattr(pda_mod, "_TILE", budget)
            for arr, verdict in zip(mutated, expected):
                first, witness = tile_positions(arr, verdict)
                later[verdict.code, budget] |= first < witness
        assert all(later.values())  # some witness comes after a tile holding another bad pair
        for budget in self.BUDGETS:
            monkeypatch.setattr(pda_mod, "_TILE", budget)
            for arr, verdict in zip(mutated, expected):
                got = verify_pda(arr)
                assert (got.ok, got.code, got.detail, got.info) == (
                    verdict.ok, verdict.code, verdict.detail, verdict.info
                )

    def test_group_over_the_budget_is_tiled_within(self):
        # One symbol in all 4096 cells: 4096^2 cross entries, 64 times the budget.
        arr = Pda(np.ones((64, 64), dtype=np.int64), Z=0, S=1)
        verdict = verify_pda(arr)
        assert (verdict.code, verdict.detail) == ("C3a", "symbol 1 repeats at cells (0,0) and (0,1)")
        assert verdict.info == {"symbol": 1, "cells": ((0, 0), (0, 1))}
        assert peak_mib(verify_pda, arr) <= 8  # MiB; the whole group would take 128


def bad_tiles(arr):
    """Indices in the walk of the tiles holding a pair whose cross cell is
    a symbol, and the entries of every tile."""
    groups = symbol_groups(arr)
    bad, steps = [], []
    for t, (rec, oth, _) in enumerate(groups.tiles(1, groups.size_classes())):
        c, o = np.broadcast_arrays(rec[:, :, None], oth[:, None, :])
        pair = c != o
        if (arr.grid[groups.row[c[pair]], groups.user[o[pair]]] != STAR).any():
            bad.append(t)
        steps.append(c.size)
    return bad, steps


def c3_faults(arr, code):
    """Arrays with one C3a or C3b fault in arr's groups, last groups first,
    each with the group sizes of arr.

    C3a moves a cell of a group into the row of another of its cells; C3b
    writes a new symbol, a group of one, into a cross cell of a group.
    """
    groups = symbol_groups(arr)
    row, user = groups.row.tolist(), groups.user.tolist()
    bounds = groups.start.tolist()
    for a, b in reversed(list(zip(bounds, bounds[1:]))):
        for x, y in itertools.permutations(range(a, b), 2):
            grid = np.array(arr.grid)
            if code == "C3a":
                for u in np.flatnonzero(grid[row[x]] == STAR).tolist():
                    moved = np.array(grid)
                    moved[row[x], u], moved[row[y], user[y]] = moved[row[y], user[y]], STAR
                    yield Pda(moved, Z=arr.Z, S=arr.S)
            elif grid[row[x], user[y]] == STAR:
                grid[row[x], user[y]] = arr.S + 1
                yield Pda(grid, Z=arr.Z, S=arr.S + 1)


class TestWalkBuffers:
    """verify_pda writes each tile into leading slices of two buffers made
    once per call, so a short tile after a longer one that passed must read
    nothing of the longer one's entries."""

    @pytest.fixture
    def arrays(self, ex15_packing):
        lift = pda_from_nhsdp(ex15_packing)
        return {"lift": lift, "dropped": drop_columns(lift, range(14))}

    # 3: single receivers against other cells 0-2, then 3; 12: receivers
    # 0-2, then 3; 64: whole groups, four of size 4 (or seven of size 3) a tile.
    @pytest.mark.parametrize("budget", [3, 12, 64])
    @pytest.mark.parametrize("code", ["C3a", "C3b"])
    @pytest.mark.parametrize("kind", ["lift", "dropped"])
    def test_fault_in_a_short_tile_after_a_passing_one(self, arrays, monkeypatch, kind, code, budget):
        monkeypatch.setattr(pda_mod, "_TILE", budget)
        for arr in c3_faults(arrays[kind], code):
            bad, steps = bad_tiles(arr)
            t = bad[0]
            if t > 0 and steps[t] < steps[t - 1] and first_c3_violation(arr)[0] == code:
                break
        else:
            pytest.fail("no fault lands first in a tile shorter than the one before it")
        verdict = verify_pda(arr)
        code, s, ((r1, c1), (r2, c2)) = first_c3_violation(arr)
        assert not verdict.ok and not naive_verify_pda(arr)
        assert verdict.code == code and verdict.info == {"symbol": s, "cells": ((r1, c1), (r2, c2))}
        assert verdict.detail == (
            f"symbol {s} repeats at cells ({r1},{c1}) and ({r2},{c2})"
            if code == "C3a"
            else f"cells ({r1},{c1}) and ({r2},{c2}) share symbol {s} but a cross cell is not a star"
        )


class TestC3Orientation:
    """verify_pda checks C3 along the rows only when there are no more
    symbols than rows and the row walk has fewer cross entries."""

    @pytest.fixture
    def row_walks(self, monkeypatch):
        calls = []
        row_faults = pda_mod._row_faults

        def spy(pda, *args):
            calls.append(pda.params())
            return row_faults(pda, *args)

        monkeypatch.setattr(pda_mod, "_row_faults", spy)
        return calls

    def test_only_star_dense_arrays_take_the_rows(self, row_walks, golden_arrays, lift343, ex15_packing):
        lift = pda_from_nhsdp(ex15_packing)
        for arr in (golden_arrays["a1331"], golden_arrays["e1330"], lift343, lift, group_pda_divisible(lift, 30)):
            assert verify_pda(arr).ok
        assert row_walks == []
        for arr in (golden_arrays["c343"], conjugate_pda(lift)):
            assert verify_pda(arr).ok
        assert row_walks == [(343, 9261, 9045, 343), (15, 30, 22, 15)]

    def test_star_dense_mutations(self, row_walks, golden_arrays):
        # 40 stars made symbols and 40 symbols made stars of the v=343 conjugate.
        arr = golden_arrays["c343"]
        rng = np.random.default_rng(343)
        codes = set()
        for star in (True, False):
            cells = np.flatnonzero((arr.grid == STAR).ravel() == star)
            for cell in rng.choice(cells, size=40, replace=False).tolist():
                j, k = divmod(cell, arr.K)
                grid = np.array(arr.grid)
                grid[j, k] = int(rng.integers(1, arr.S + 1)) if star else STAR
                codes.add(assert_matches_mutation_reference(Pda(grid, Z=arr.Z, S=arr.S), j, k))
        assert codes == {"C3a", "C3b", "C1"} and len(row_walks) == 80


class TestPairWalkMemory:
    """tracemalloc peaks of the symbol index and of verify_pda on the v=1331
    lift, its grid already built."""

    def test_index_and_verify_peaks(self, golden_arrays):
        arr = golden_arrays["a1331"]
        assert peak_mib(symbol_groups, arr) <= 26  # MiB; 30.5 with a row array for every cell
        assert peak_mib(verify_pda, arr) <= 80  # MiB; 127 when each offset was walked whole

    def test_star_dense_grid_is_never_copied(self, golden_arrays):
        # The (343,9261,9045,343) conjugate: a 24 MiB grid, 2.3 % of its cells symbols.
        arr = golden_arrays["c343"]
        grid_mib = arr.grid.nbytes / 2**20
        assert peak_mib(symbol_groups, arr) <= grid_mib / 8  # a transposed copy took 1
        assert peak_mib(pda_stats, arr) <= grid_mib / 8  # one bincount copied it whole
        assert peak_mib(verify_pda, arr) <= grid_mib / 2


def reference_lift(v, blocks):
    """The lift difference by difference: for each d of block i, cells
    (f, (f + d) mod v) carry i*v + (f + k) mod v + 1; elements may be any
    integers, reduced here."""
    grid = np.zeros((v, v), dtype=np.int64)
    f = np.arange(v)
    for i, block in enumerate(blocks):
        for d in block:
            k = (f + d) % v
            grid[f, k] = i * v + (f + k) % v + 1
    return grid


class TestLift:
    def test_matches_reference(self, ex15_packing, golden_arrays):
        assert np.array_equal(pda_from_nhsdp(ex15_packing).grid, reference_lift(15, EX15_BLOCKS))
        a343 = construct_nhsdp(343, (3, 3, 3))
        assert np.array_equal(pda_from_nhsdp(a343).grid, reference_lift(343, a343.blocks))
        a1331 = construct_nhsdp(1331, (5, 5, 5))
        assert np.array_equal(golden_arrays["a1331"].grid, reference_lift(1331, a1331.blocks))

    @pytest.mark.parametrize("v, m", [(15, (2,)), (27, (1, 2)), (125, (2, 2, 2))])
    def test_unreduced_elements_match_reference(self, v, m):
        # The elements moved by turns -2v, v, -v and 3v: negative or past v.
        turns = itertools.cycle((-2, 1, -1, 3))
        blocks = [[d + v * next(turns) for d in block] for block in construct_nhsdp(v, m).blocks]
        assert any(d < 0 for block in blocks for d in block)
        assert any(d >= v for block in blocks for d in block)
        arr = pda_from_nhsdp(Nhsdp.from_blocks(v, blocks))
        assert np.array_equal(arr.grid, reference_lift(v, blocks))

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

    def test_rejects_invalid_packing(self, monkeypatch):
        # The packing is checked before the size: an invalid one is named as
        # such even where the lift would be refused for its size.
        monkeypatch.setattr(pda_mod, "MAX_CELLS", 1)
        with pytest.raises(pda_mod.InvalidNhsdpError) as caught:
            pda_from_nhsdp(Nhsdp.from_blocks(15, [(1, 2, 3)]))
        assert isinstance(caught.value, ValueError)
        assert caught.value.verdict.code == "half-sum"
        assert str(caught.value) == f"input is not a valid NHSDP: {caught.value.verdict.detail}"

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
        assert np.array_equal(arr.grid, reference_lift(v, packing.blocks))
        assert verify_pda(arr).ok
        assert pda_stats(arr).regular_g == g


def reference_conjugate(arr):
    """The conjugate grid cell by cell, in row-major order: symbol s at
    (j, k) puts j + 1 at (s - 1, k)."""
    out = np.zeros((arr.S, arr.K), dtype=np.int64)
    for (j, k), s in np.ndenumerate(arr.grid):
        if s != STAR:
            out[s - 1, k] = j + 1
    return out


class TestConjugate:
    def test_matches_reference(self, ex4_pda, ex15_packing):
        lift = pda_from_nhsdp(ex15_packing)
        for arr in (ex4_pda, lift, drop_columns(lift, range(8)), mn_pda(6, 2)):
            assert np.array_equal(conjugate_pda(arr).grid, reference_conjugate(arr))

    def test_matches_reference_on_random_grids(self):
        # Unchecked grids, symbols repeating in a column too: the last row
        # of a repeat wins, as in a row-major scatter.
        rng = np.random.default_rng(34)
        for _ in range(60):
            F, K = (int(x) for x in rng.integers(2, 12, size=2))
            grid = index_grid(rng, F, K, int(rng.integers(1, F * K)))
            grid[np.arange(F), rng.integers(0, K, size=F)] = rng.integers(1, grid.max() + 1, size=F)
            arr = Pda(grid, Z=1, S=int(grid.max()) + F)  # S >= F: the conjugate's Z >= 0
            assert np.array_equal(conjugate_pda(arr).grid, reference_conjugate(arr))

    def test_reads_the_checked_index(self, ex15_packing, monkeypatch):
        arr = pda_from_nhsdp(ex15_packing)
        checked, plain = verify_pda(arr).info["checked"], conjugate_pda(arr)
        monkeypatch.setattr(pda_mod, "symbol_groups", lambda pda: pytest.fail("indexed again"))
        assert same_pda(conjugate_pda(checked), plain)

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
        assert same_pda(grouped, ex4_pda)

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


def reference_mn_pda(K, t):
    """The t-subset PDA cell by cell: row colex(T), cell k a star when k is
    in T, else colex(T + {k}) + 1."""

    def colex(subset):
        return sum(binomial(e, i + 1) for i, e in enumerate(subset))

    grid = np.zeros((binomial(K, t), K), dtype=np.int64)
    for T in itertools.combinations(range(K), t):
        for k in set(range(K)) - set(T):
            grid[colex(T), k] = colex(sorted({*T, k})) + 1
    return grid


# sha256 of pda_to_text(mn_pda(20, 5)), pinned from the per-cell constructor.
MN_20_5_SHA256 = "484ecab1fd4bfa4462f5373e46055ac7bc7e4c5ad755f2cb513227c93b51cad9"


class TestMnPda:
    @pytest.mark.parametrize(
        "K, t", [(K, t) for K in range(2, 10) for t in range(1, K)] + [(12, 4)]
    )
    def test_grid_matches_reference(self, K, t):
        arr = mn_pda(K, t)
        assert np.array_equal(arr.grid, reference_mn_pda(K, t))
        assert arr.params() == (K, binomial(K, t), binomial(K - 1, t - 1), binomial(K, t + 1))

    def test_text_of_k20_t5_is_pinned(self):
        text = pda_to_text(mn_pda(20, 5))
        assert hashlib.sha256(text.encode()).hexdigest() == MN_20_5_SHA256

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
        assert same_pda(drop_columns(ex4_pda, range(4)), ex4_pda)

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

    def test_symbols_are_the_ranks_of_those_kept(self):
        arr = pda_from_nhsdp(construct_nhsdp(15, (2, 1)))
        rng = np.random.default_rng(7)
        for _ in range(40):
            keep = sorted(rng.choice(15, size=int(rng.integers(1, 16)), replace=False).tolist())
            sub = arr.grid[:, keep]
            kept = np.unique(sub[sub != STAR])  # sorted: symbol kept[i] becomes i + 1
            expected = np.where(sub == STAR, STAR, np.searchsorted(kept, sub) + 1)
            dropped = drop_columns(arr, keep)
            assert dropped.grid.tolist() == expected.tolist(), keep
            assert (dropped.Z, dropped.S) == (arr.Z, kept.size)

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

    @pytest.mark.parametrize("budget", [1, 7, 1000])
    def test_regularity_is_band_invariant(self, monkeypatch, ex15_packing, budget):
        # Read off the symbol index, which symbol_groups builds a piece of
        # _TILE cells at a time; 1 gives one-cell pieces.
        lift = pda_from_nhsdp(ex15_packing)
        arrays = [
            lift,
            drop_columns(lift, range(lift.K - 1)),
            conjugate_pda(lift),
            mn_pda(6, 2),
            Pda([[1, 2, 0], [2, 0, 1], [0, 1, 1]], Z=1, S=2),  # sizes 4 and 2
        ]
        expected = [pda_stats(arr).regular_g for arr in arrays]
        assert expected[0] == 4 and expected[4] is None
        monkeypatch.setattr(pda_mod, "_TILE", budget)
        assert [pda_stats(arr).regular_g for arr in arrays] == expected

    def test_gain_identity(self, ex4_pda, ex15_packing):
        for arr in (ex4_pda, pda_from_nhsdp(ex15_packing), mn_pda(5, 2)):
            stats = pda_stats(arr)
            assert stats.gain * stats.load == arr.K * (1 - stats.memory_ratio)
