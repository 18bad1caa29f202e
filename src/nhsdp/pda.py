"""Placement delivery arrays (PDAs).

A (K, F, Z, S) PDA is an F x K array whose cells are either a star or a
symbol from [1, S], such that

* C1:  every column holds exactly Z stars;
* C2:  every symbol in [1, S] occurs at least once;
* C3a: no symbol repeats within a row or within a column;
* C3b: whenever two cells share a symbol, both cross cells are stars.

Stars encode cached packets, symbols encode multicast rounds; the simulator
in ``simulate`` executes the resulting scheme.  Grids are numpy arrays with
0 for the star and positive integers for symbols.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .packing import Nhsdp, Verdict, verify_nhsdp
from .ringmath import binomial

STAR = 0

# The largest grid, in int64 cells (1 GiB), that the constructors in this
# module (lift, conjugate, grouping, subset PDA) will allocate.
MAX_CELLS = 2**27

# The most cross entries, times their width, one tile of
# ``SymbolGroups.tiles`` holds.
_TILE = 1 << 18


@dataclass(frozen=True, eq=False)
class Pda:
    """An F x K grid plus its declared star count Z and symbol count S."""

    grid: np.ndarray
    Z: int
    S: int

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.int64)
        if grid.ndim != 2 or grid.size == 0:
            raise ValueError("PDA grid must be a non-empty 2-D array")
        # One scan: as uint64, a negative cell reads above any int64 symbol.
        if int(grid.view(np.uint64).max()) > min(self.S, 2**63 - 1):
            raise ValueError("cells must be the star (0) or symbols in [1, S]")
        if not (0 <= self.Z <= grid.shape[0]):
            raise ValueError("Z must lie in [0, F]")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)

    @property
    def F(self) -> int:
        return self.grid.shape[0]

    @property
    def K(self) -> int:
        return self.grid.shape[1]

    @classmethod
    def from_grid(cls, grid) -> "Pda":
        """Infer Z from column 0 and S from the largest symbol present."""
        arr = np.asarray(grid, dtype=np.int64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("PDA grid must be a non-empty 2-D array")
        z = int((arr[:, 0] == STAR).sum())
        s = int(arr.max(initial=0))
        return cls(arr, z, max(s, 0))

    def params(self) -> tuple[int, int, int, int]:
        """(K, F, Z, S)."""
        return self.K, self.F, self.Z, self.S


class SymbolGroups(NamedTuple):
    """The non-star cells of a PDA, sorted by (symbol, user, row).

    Only the P symbols present have a group: group g owns cells
    ``start[g]:start[g+1]``, all of symbol ``present[g]``, and ``start[P]``
    is the number of non-star cells.  So ``start`` rises strictly from 0
    and ``present`` strictly from 1.  ``size_classes`` lists the groups of
    each size, for the payload kernel, ``verify_pda`` and the decoder
    alike, and ``tiles`` walks the ordered pairs of cells of the groups
    it lists.
    """

    row: np.ndarray
    user: np.ndarray
    present: np.ndarray
    start: np.ndarray

    def symbols(self, lo: int, hi: int) -> np.ndarray:
        """The symbol of each of cells lo:hi, its group's ``present``.

        Groups g0 - 1 .. g1 - 1 hold them, their bounds cut to lo and hi at
        the ends; array methods, since a sweep calls this once a chunk.
        """
        g0, g1 = self.start.searchsorted((lo + 1, hi))
        bounds = self.start[g0 - 1 : g1 + 1].copy()
        bounds[0], bounds[-1] = lo, hi
        return self.present[g0 - 1 : g1].repeat(bounds[1:] - bounds[:-1])

    def size_classes(self) -> list[tuple[int, np.ndarray]]:
        """(g, groups) for each group size g, ascending: the indices of the
        groups of that size, ascending."""
        size = np.diff(self.start)
        order = np.argsort(size, kind="stable")
        cut = np.flatnonzero(np.diff(size[order], prepend=-1, append=-1)).tolist()
        return [(int(size[order[lo]]), order[lo:hi]) for lo, hi in zip(cut, cut[1:])]

    def tiles(self, width: int, classes: list[tuple[int, np.ndarray]]):
        """Yield (rec, oth, shift) tiles of at most ``_TILE // width`` cross
        entries, and at least one: width is what one entry costs its user.

        ``classes`` is ``size_classes()`` of these groups, worked out once
        by a caller that walks the tiles more than once.  Groups of equal
        size g form a (G, g) table of cell indices, taken in order of size
        and then of start; groups of one cell yield nothing.  In a tile,
        receiver ``rec[x, i]`` meets each other cell ``oth[x, j]`` of the
        same group x: (n, a) and (n, b) arrays, n*a*b entries.  Whole groups
        go into a tile while g*g fits the budget; a larger group is cut by
        receivers, and by other cells too once g alone exceeds it.  Receiver
        i is other cell i + shift, or none of them when shift is None.  Over
        all tiles every ordered pair of distinct cells of a group comes
        exactly once.
        """
        budget = max(1, _TILE // width)
        for g, groups in classes:
            if g < 2:
                continue
            first, col = self.start[groups][:, None], np.arange(g)
            n, r, b = max(1, budget // (g * g)), min(g, max(1, budget // g)), min(g, budget)
            for x in range(0, len(first), n):
                for i in range(0, g, r):
                    rec = first[x : x + n] + col[i : i + r]
                    for j in range(0, g, b):
                        oth = rec if b == r == g else first[x : x + n] + col[j : j + b]
                        yield rec, oth, i - j if j <= i < j + b else None


@dataclass(frozen=True, eq=False)
class CheckedPda(Pda):
    """A Pda that ``verify_pda`` found valid, with the symbol index it
    checked, ``symbol_groups`` of the same grid.

    Only ``verify_pda`` makes one, on the grid buffer of the array it
    verified: a direct call, ``dataclasses.replace`` and ``from_grid`` all
    raise.  So ``symbol_index`` hands out ``groups`` as it is, and anything
    that takes a Pda takes this one.
    """

    groups: SymbolGroups

    def __init__(self, *args, **kwargs):
        raise TypeError("only verify_pda makes a CheckedPda")

    @classmethod
    def _of(cls, pda: Pda, groups: SymbolGroups) -> "CheckedPda":
        checked = object.__new__(cls)  # past __init__: no copy, no second scan
        for name, value in (("grid", pda.grid), ("Z", pda.Z), ("S", pda.S), ("groups", groups)):
            object.__setattr__(checked, name, value)
        return checked


def symbol_groups(pda: Pda) -> SymbolGroups:
    """Index the cells of each symbol present with one scan and one sort.

    The sort key packs (symbol, user, row) into one int64 as bit fields:
    the row r in the low rb = (F-1).bit_length() bits, the user u in the
    next (K-1).bit_length() and the symbol above them, so every array is
    one entry per non-star cell and the grid is never copied.  A piece of
    ``_TILE`` cells at a time, the non-star cells are found from a bool mask
    of the piece, their symbols gathered, and one division by the scalar K
    turns a cell's row-major position p into its fields: r = p // K and
    u = p - r*K, so (u << rb) + r = (p << rb) - r*((K << rb) - 1).  Both
    arrays are sized by one count of the non-stars.  Shifts and masks split the
    sorted key.  When the largest symbol would push the key past int64,
    the sort runs on each symbol's rank among those present and maps back
    after.  The key is built, sorted and split in place; once the groups
    are cut, the users overwrite its symbols.
    """
    F, K = pda.F, pda.K
    rb = (F - 1).bit_length()
    shift = rb + (K - 1).bit_length()
    flat = pda.grid.ravel()
    cell = np.empty(np.count_nonzero(flat), dtype=np.int64)
    key = np.empty_like(cell)
    end = 0
    for lo in range(0, flat.size, _TILE):  # one piece's mask and rows at a time, not the grid's
        at = np.flatnonzero(flat[lo : lo + _TILE] != STAR)
        at += lo
        flat.take(at, out=key[end : end + at.size], mode="clip")
        piece = np.floor_divide(at, K, out=cell[end : end + at.size])  # its rows, first
        piece *= (K << rb) - 1
        at <<= rb
        np.subtract(at, piece, out=piece)
        end += at.size
    rank = (int(key.max(initial=0)) + 1) << shift > 2**63
    if rank:
        ranked, key = np.unique(key, return_inverse=True)
    key <<= shift
    key |= cell
    key.sort()
    np.bitwise_and(key, (1 << shift) - 1, out=cell)
    symbol = np.right_shift(key, shift, out=key)
    edge = np.ones(symbol.size + 1, dtype=bool)
    np.not_equal(symbol[1:], symbol[:-1], out=edge[1:-1])
    start = np.flatnonzero(edge)
    del edge
    present = symbol[start[:-1]]
    if rank:
        present = ranked[present]
    user = np.right_shift(cell, rb, out=symbol)
    row = np.bitwise_and(cell, (1 << rb) - 1, out=cell)
    return SymbolGroups(row, user, present, start)


def symbol_index(pda: Pda) -> SymbolGroups:
    """``pda.groups`` of a ``CheckedPda``, else ``symbol_groups(pda)``;
    ``verify_pda`` builds its own, so a verdict never trusts a carried one."""
    return pda.groups if isinstance(pda, CheckedPda) else symbol_groups(pda)


def verify_pda(pda: Pda) -> Verdict:
    """Exhaustively check C1, C2, C3a, and C3b.

    Each cell of a symbol group meets every other cell of it in the tiles
    of ``SymbolGroups.tiles``: the cross cell (row of one, user of the
    other) must be a star, which also rules out a shared row or column.
    A tile passes when its only non-stars are its receivers' own cells.
    That walk costs sum_s occ(s)^2 cross entries.  When the G symbols
    present are at most F and sum_r n_r^2 + G*K is less, ``_row_faults``
    checks C3 along the rows instead, and this walk runs over the groups
    it flags only.  So the cost is O(F*K + min(sum_s occ(s)^2,
    sum_r n_r^2 + G*K)) time for any group sizes, and the memory is the
    symbol index plus one tile: every tile writes its cross cells and their
    test into leading slices of an int64 and a bool buffer of ``_TILE``
    entries, made once per call.
    Only the symbols present are indexed, so no work follows the declared
    S, and C1 counts each column's non-stars among the index's users.
    C3a is reported before C3b; either witness is the first violating
    pair by (symbol, cells in row-major order), the least over all tiles.
    A valid verdict's info holds, as "checked", the array as a
    ``CheckedPda``: the same grid buffer with the symbol index it was
    checked with, for a caller that goes on to deliver it.
    """
    groups = symbol_groups(pda)
    row, user, present, start = groups
    grid, F, K = pda.grid, pda.F, pda.K
    symbolic = (grid != STAR).ravel()
    cell = None
    first: dict[str, tuple[int, int, int]] = {}
    index = np.empty(_TILE, dtype=np.int64)
    hits = np.empty(_TILE, dtype=bool)
    classes = groups.size_classes()
    if present.size <= F:
        occ, per_row = np.diff(start), np.bincount(row, minlength=F)
        if per_row @ per_row + present.size * K < occ @ occ:
            flagged = _row_faults(pda, groups, symbolic, per_row, index, hits)
            classes = [(g, x[flagged[x]]) for g, x in classes]
    for rec, oth, bad in _cross_tiles(groups, classes, symbolic, K, index, hits):
        cell = row * K + user if cell is None else cell
        clash = (row[rec] == row[oth].T[:, :, None]) | (user[rec] == user[oth].T[:, :, None])
        for code, hit in (("C3a", bad & clash), ("C3b", bad)):
            if hit.any():
                key = _least_pair(cell, groups, rec, oth, hit)
                first[code] = min(first.get(code, key), key)
    for code in ("C3a", "C3b"):
        if code in first:
            s, a, b = first[code]
            cells = (divmod(a, K), divmod(b, K))
            (r1, c1), (r2, c2) = cells
            detail = (
                f"symbol {s} repeats at cells ({r1},{c1}) and ({r2},{c2})"
                if code == "C3a"
                else f"cells ({r1},{c1}) and ({r2},{c2}) share symbol {s} "
                "but a cross cell is not a star"
            )
            return Verdict(False, code, detail, {"symbol": s, "cells": cells})

    star_counts = F - np.bincount(user, minlength=K)
    bad = np.nonzero(star_counts != pda.Z)[0]
    if bad.size:
        k = int(bad[0])
        return Verdict(
            False,
            "C1",
            f"column {k} has {int(star_counts[k])} stars, declared Z={pda.Z}",
            {"column": k, "stars": int(star_counts[k]), "Z": pda.Z},
        )
    missing = pda.S - present.size
    if missing:
        # The j-th absent symbol is j plus the number of present symbols
        # below it; present[i] - (i + 1) counts the absent ones below present[i].
        j = np.arange(1, min(missing, 16) + 1)
        listed = (j + np.searchsorted(present - np.arange(1, present.size + 1), j)).tolist()
        return Verdict(
            False,
            "C2",
            f"{missing} of S={pda.S} symbols never occur, first missing {listed[0]}",
            {"missing": listed},
        )
    K, F, Z, S = pda.params()
    info = {"params": pda.params(), "checked": CheckedPda._of(pda, groups)}
    return Verdict(True, "valid", f"({K},{F},{Z},{S}) PDA", info)


def _cross_tiles(groups, classes, held, K, index, hits):
    """Yield (rec, oth, bad) for each tile of ``groups.tiles(1, classes)``
    in which ``held`` has a cross entry (row field of a receiver, user of
    another cell) set beyond the receivers' own: ``bad`` is the (b, n, a)
    test of those entries with the own ones cleared, written into the
    buffers ``index`` and ``hits`` and so good until the next tile.
    """
    row, user = groups.row, groups.user
    # take writes into out= unbuffered with mode="clip", and every cross
    # entry is in range, since row * K + user < held.size.
    for rec, oth, shift in groups.tiles(1, classes):
        shape, size = (oth.shape[1], *rec.shape), oth.shape[1] * rec.size
        cross = np.add(row[rec] * K, user[oth].T[:, :, None], out=index[:size].reshape(shape))
        bad = held.take(cross, out=hits[:size].reshape(shape), mode="clip")
        if np.count_nonzero(bad) == (0 if shift is None else rec.size):
            continue
        if shift is not None:
            own = np.arange(rec.shape[1])
            bad[own + shift, :, own] = False
        yield rec, oth, bad


def _row_faults(pda, groups, symbolic, per_row, index, hits) -> np.ndarray:
    """Per symbol group, whether C3 may fail in it, from a walk of the rows.

    This is the conjugate's symbol walk: each row's cells, in row-major
    order, form one group (empty for a row of stars, which ``tiles``
    skips), whose row field is the rank of a cell's symbol
    in ``present``, and a cross entry (symbol of a receiver, user of
    another cell of its row) is tested against a (rank, user) bitmap of the
    cells.  Such an entry is set exactly when the receiver's symbol repeats
    in its row or meets another cell of it at a non-star cross cell, so
    the walk finds every pair that breaks C3 but a repeat within a column.
    The index shows those as two adjacent equal (symbol, user) entries.
    The receiver's symbol of each set entry and each symbol repeated in a
    column are flagged; every violating pair lies in their groups.
    """
    G, K = groups.present.size, pda.K
    fill = np.repeat(np.arange(G) * K, np.diff(groups.start))
    fill += groups.user  # nondecreasing: the index is sorted by (symbol, user)
    held = np.zeros(G * K, dtype=bool)
    held[fill] = True
    flagged = np.zeros(G, dtype=bool)
    flagged[fill[1:][fill[1:] == fill[:-1]] // K] = True
    del fill
    cell = np.flatnonzero(symbolic)
    rank = groups.present.searchsorted(pda.grid.ravel()[cell])
    by_row = SymbolGroups(rank, cell % K, np.arange(pda.F), np.concatenate(([0], per_row.cumsum())))
    del cell
    for rec, _, bad in _cross_tiles(by_row, by_row.size_classes(), held, K, index, hits):
        flagged[rank[rec][bad.any(axis=0)]] = True
    return flagged


def _least_pair(cell, groups, rec, oth, hit) -> tuple[int, int, int]:
    """(symbol, a, b) of the first group of a tile with a hit, a < b the
    row-major positions of the least hit pair of it."""
    x = int(hit.any(axis=(0, 2)).argmax())
    o, r = cell[oth[x]], cell[rec[x]]
    lo, big = np.minimum.outer(o, r), np.iinfo(np.int64).max
    lo[~hit[:, x]] = big
    least = lo.min()
    hi = np.maximum.outer(o, r)
    hi[lo != least] = big
    c = int(rec[x, 0])
    return int(groups.symbols(c, c + 1)[0]), int(least), int(hi.min())


class InvalidNhsdpError(ValueError):
    """The packing handed to ``pda_from_nhsdp`` fails ``verify_nhsdp``;
    ``verdict`` is the failing verdict."""

    def __init__(self, verdict: Verdict):
        super().__init__(f"input is not a valid NHSDP: {verdict.detail}")
        self.verdict = verdict


def pda_from_nhsdp(nhsdp: Nhsdp) -> Pda:
    """Lift a (v, g, b) packing to the (v, v, v - b*g, b*v) PDA.

    Cell (f, k) carries the pair (c, i) with c = (f + k) mod v whenever
    (k - f) mod v lies in block i, and a star otherwise; pairs are encoded
    as symbols s = (i - 1) * v + c + 1 so that [1, b*v] stays contiguous.
    So row f is row 0 rotated by f, its symbols shifted by f: one add over
    windows of row 0's labels (i - 1) * v + 1, written twice, and of f + k.
    The packing is verified first, since the lift is only sound for true
    packings: one that fails raises InvalidNhsdpError.  Needs v*v <= MAX_CELLS.
    """
    verdict = verify_nhsdp(nhsdp.v, nhsdp.blocks)
    if not verdict.ok:
        raise InvalidNhsdpError(verdict)
    _check_cells("lifted", nhsdp.v, nhsdp.v)
    v, window = nhsdp.v, sliding_window_view
    label = np.zeros(2 * v, dtype=np.int64)  # row f reads its window v - f .. 2v - f
    for i, block in enumerate(nhsdp.blocks):
        label[[*block, *(d + v for d in block)]] = i * v + 1
    grid, sums = np.zeros((v, v), dtype=np.int64), window(np.arange(2 * v) % v, v)[:v]
    np.add(window(label, v)[v:0:-1], sums, out=grid, where=window(label != STAR, v)[v:0:-1])
    return Pda(grid, Z=v - nhsdp.b * nhsdp.g, S=nhsdp.b * v)


def _check_cells(what: str, rows: int, cols: int) -> None:
    if rows * cols > MAX_CELLS:
        raise ValueError(
            f"{what} array would be {rows} x {cols} = {rows * cols} cells, "
            f"over the limit of MAX_CELLS = {MAX_CELLS}"
        )


def conjugate_pda(pda: Pda) -> Pda:
    """Swap the roles of rows and symbols: a (K, S, S-(F-Z), F) PDA.

    Cell (s, k) of the output holds the row index (plus one) at which symbol
    s + 1 appears in column k of the input, star if it does not appear.
    Requires 0 < Z < F and that every input row contains at least one symbol,
    otherwise the output would miss a symbol, and S * K <= MAX_CELLS.  The
    cells come from ``symbol_index(pda)``.
    """
    F, K, Z, S = pda.F, pda.K, pda.Z, pda.S
    if not (0 < Z < F):
        raise ValueError(f"conjugate needs 0 < Z < F, got Z={Z}, F={F}")
    _check_cells("conjugate", S, K)
    row, user, present, start = symbol_index(pda)
    empty = np.flatnonzero(np.bincount(row, minlength=F) == 0)
    if empty.size:
        raise ValueError(
            f"row {int(empty[0])} is all stars; compact rows before conjugating"
        )
    out = np.zeros((S, K), dtype=np.int64)
    out[(present - 1).repeat(np.diff(start)), user] = row + 1
    return Pda(out, Z=S - (F - Z), S=F)


def group_pda_divisible(pda: Pda, K: int) -> Pda:
    """Serve K = h * K1 users by tiling h copies with disjoint symbols.

    Copy j (0-based) renames symbol s to s + j * S, giving a valid
    (K, F, Z, h*S) PDA.  Only the divisible case is constructive here, and
    only up to F * K <= MAX_CELLS.
    """
    if K % pda.K != 0 or K < pda.K:
        raise ValueError(f"target K={K} is not a positive multiple of K1={pda.K}")
    _check_cells("grouped", pda.F, K)
    h = K // pda.K
    mask = pda.grid != STAR
    copies = [np.where(mask, pda.grid + j * pda.S, STAR) for j in range(h)]
    return Pda(np.hstack(copies), Z=pda.Z, S=h * pda.S)


# Cells per (rows, t, users) working array of mn_pda: 512 KiB of int64.
_MN_PIECE = 1 << 16


def mn_pda(K: int, t: int) -> Pda:
    """The classic t-subset PDA: (K, C(K,t), C(K-1,t-1), C(K,t+1)).

    Rows are indexed by t-subsets of {0..K-1} in colex order; cell (T, k) is
    a star when k is in T, otherwise the colex rank of T + {k} among the
    (t+1)-subsets.  Each symbol occurs exactly t + 1 times.  Requires
    C(K,t) * K <= MAX_CELLS.

    The colex rank of T = {e_0 < e_1 < ...} is the sum of C(e_i, i+1); in
    T + {k} the e_i above k take C(e_i, i+2), and k adds C(k, p+1), p the
    count below it.  Rows go a piece at a time, so the work stays near 1 MiB.
    """
    if not (1 <= t < K):
        raise ValueError(f"require 1 <= t < K, got t={t}, K={K}")
    F = binomial(K, t)
    _check_cells("subset", F, K)
    C = np.array([[binomial(e, j) for j in range(t + 2)] for e in range(K)], dtype=np.int64)
    users, place = np.arange(K), np.arange(t)
    grid = np.zeros((F, K), dtype=np.int64)
    subsets = itertools.chain.from_iterable(itertools.combinations(range(K), t))
    piece = max(1, _MN_PIECE // (t * K)) * t
    while (T := np.fromiter(itertools.islice(subsets, piece), np.int64)).size:
        T = T.reshape(-1, t)
        keep, move = C[T, place + 1], C[T, place + 2]
        below = T[:, :, None] < users  # (rows, t, K)
        rank = np.where(below, keep[..., None], move[..., None]).sum(axis=1)
        rank += C[users, below.sum(axis=1) + 1] + 1
        rank[np.arange(len(T))[:, None], T] = STAR
        grid[keep.sum(axis=1)] = rank
    return Pda(grid, Z=binomial(K - 1, t - 1), S=binomial(K, t + 1))


def drop_columns(pda: Pda, keep: Iterable[int]) -> Pda:
    """Restrict to a column subset, compacting symbols back to [1, S'].

    Z is unchanged (stars per column are a column property).  Used to realise
    even user counts: build for v = K + 1 and drop the virtual column.
    """
    cols = sorted(set(int(c) for c in keep))
    if not cols:
        raise ValueError("keep must name at least one column")
    if cols[0] < 0 or cols[-1] >= pda.K:
        raise ValueError(f"column index out of range for K={pda.K}")
    sub = pda.grid[:, cols]
    if int(sub.max()) > sub.size:
        # Symbols sparser than the cells: relabel their ranks instead, star first.
        values, rank = np.unique(sub, return_inverse=True)
        sub = rank.reshape(sub.shape) + int(values[0] != STAR)
    kept = np.zeros(int(sub.max()) + 1, dtype=bool)
    kept[sub] = True
    kept[STAR] = False
    label = np.cumsum(kept)  # the symbols kept, numbered 1, 2, ... in order
    return Pda(label[sub], Z=pda.Z, S=int(label[-1]))


@dataclass(frozen=True)
class PdaStats:
    """Exact-rational performance figures read off a PDA."""

    K: int
    F: int
    Z: int
    S: int
    memory_ratio: Fraction
    load: Fraction
    gain: Fraction | None
    regular_g: int | None


def pda_stats(pda: Pda) -> PdaStats:
    """Memory ratio Z/F, load S/F, gain K(1-Z/F)/(S/F), and g-regularity.

    All ratios are exact ``Fraction`` values; gain is None for the all-star
    array (S = 0).  The group sizes come from ``symbol_index(pda)``.
    """
    K, F, Z, S = pda.params()
    memory = Fraction(Z, F)
    load = Fraction(S, F)
    gain = Fraction(K * (F - Z), S) if S else None
    sizes = np.diff(symbol_index(pda).start)
    regular: int | None = None
    if 0 < S == sizes.size and (sizes == sizes[0]).all():  # else some symbol is missing
        regular = int(sizes[0])
    return PdaStats(K, F, Z, S, memory, load, gain, regular)
