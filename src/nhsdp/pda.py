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

from .packing import Nhsdp, Verdict, verify_nhsdp
from .ringmath import binomial

STAR = 0

# The largest grid, in int64 cells (1 GiB), that the constructors in this
# module (lift, conjugate, grouping, subset PDA) will allocate.
MAX_CELLS = 2**27

# The most pairs ``SymbolGroups.pairs`` yields in one step.
_PAIR_CHUNK = 1 << 18


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
        if grid.min() < 0 or grid.max() > self.S:
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

    def same_as(self, other: "Pda") -> bool:
        return (
            self.Z == other.Z
            and self.S == other.S
            and self.grid.shape == other.grid.shape
            and bool(np.array_equal(self.grid, other.grid))
        )

    def params(self) -> tuple[int, int, int, int]:
        """(K, F, Z, S)."""
        return self.K, self.F, self.Z, self.S


class SymbolGroups(NamedTuple):
    """The non-star cells of a PDA, sorted by (symbol, user, row).

    Only the P symbols present have a group: group g owns cells
    ``start[g]:start[g+1]``, all of symbol ``symbol[start[g]]``, and
    ``start[P]`` is the number of non-star cells.
    """

    row: np.ndarray
    user: np.ndarray
    symbol: np.ndarray
    start: np.ndarray

    def pairs(self):
        """Yield (c, o) index arrays, offset t = 1, 2, ... in turn: the cells
        c and o = c + t of every group that holds both, in chunks of at most
        ``_PAIR_CHUNK`` pairs.  Each unordered pair of a group's cells comes
        exactly once, with c < o."""
        # At offset t a group [a, b) holds c = a .. b-1-t: one run of
        # consecutive indices per group, the runs more than one apart, so
        # dropping the last cell of each run gives offset t + 1.
        c, t = np.flatnonzero(self.symbol[1:] == self.symbol[:-1]), 1
        while c.size:
            for i in range(0, c.size, _PAIR_CHUNK):
                part = c[i : i + _PAIR_CHUNK]
                yield part, part + t
            t += 1
            c = c[:-1][c[1:] - c[:-1] == 1]


def symbol_groups(pda: Pda) -> SymbolGroups:
    """Index the cells of each symbol present with one scan and one sort.

    The sort key is symbol * F*K plus the cell's position in the transposed
    grid.  When the largest symbol would push the key past int64, the sort
    runs on each symbol's rank among those present and maps back after.
    The transposed copy is dropped once its symbols are read, and the key is
    built, sorted and split back in place.
    """
    gT = np.ascontiguousarray(pda.grid.T)
    size = gT.size
    cell = np.flatnonzero(gT)
    key = gT.ravel()[cell]
    del gT
    rank = (int(key.max(initial=0)) + 1) * size > 2**63
    if rank:
        present, key = np.unique(key, return_inverse=True)
    key *= size
    key += cell
    key.sort()
    symbol, cell = np.divmod(key, size, out=(key, cell))
    if rank:
        symbol = present[symbol]
    user, row = np.divmod(cell, pda.F, out=(None, cell))
    edge = np.ones(symbol.size + 1, dtype=bool)
    np.not_equal(symbol[1:], symbol[:-1], out=edge[1:-1])
    start = np.flatnonzero(edge)
    return SymbolGroups(row, user, symbol, start)


def verify_pda(pda: Pda) -> Verdict:
    """Exhaustively check C1, C2, C3a, and C3b.

    Each pair of cells in a symbol group is compared once, in the chunks
    ``SymbolGroups.pairs`` yields, so the cost is O(F*K + sum_s occ(s)^2)
    time for any group sizes, and the memory is the symbol index plus one
    chunk of pairs.  Only the symbols present are indexed, so no work
    follows the declared S.  C3a is reported before C3b; either witness is
    the first violating pair by (symbol, cells in row-major order), the
    least over all chunks.
    """
    groups = symbol_groups(pda)
    row, user, symbol, start = groups
    grid, K = pda.grid, pda.K
    star = (grid == STAR).ravel()
    first: dict[str, tuple[int, int, int]] = {}
    for c, o in groups.pairs():
        rc, ro, uc, uo = row[c], row[o], user[c], user[o]
        clash = (rc == ro) | (uc == uo)
        cross = ~(star[rc * K + uo] & star[ro * K + uc])
        for code, bad in (("C3a", clash), ("C3b", cross)):
            if bad.any():
                a, b = rc[bad] * K + uc[bad], ro[bad] * K + uo[bad]
                a, b = np.minimum(a, b), np.maximum(a, b)
                sym = symbol[c[bad]]
                i = np.lexsort((b, a, sym))[0]
                key = (int(sym[i]), int(a[i]), int(b[i]))
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

    star_counts = star.reshape(grid.shape).sum(axis=0)
    bad = np.nonzero(star_counts != pda.Z)[0]
    if bad.size:
        k = int(bad[0])
        return Verdict(
            False,
            "C1",
            f"column {k} has {int(star_counts[k])} stars, declared Z={pda.Z}",
            {"column": k, "stars": int(star_counts[k]), "Z": pda.Z},
        )
    present = symbol[start[:-1]]
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
    return Verdict(True, "valid", f"({K},{F},{Z},{S}) PDA", {"params": pda.params()})


def pda_from_nhsdp(nhsdp: Nhsdp) -> Pda:
    """Lift a (v, g, b) packing to the (v, v, v - b*g, b*v) PDA.

    Cell (f, k) carries the pair (c, i) with c = (f + k) mod v whenever
    (k - f) mod v lies in block i, and a star otherwise; pairs are encoded
    as symbols s = (i - 1) * v + c + 1 so that [1, b*v] stays contiguous.
    The input is re-verified, since the lift is only sound for true packings.
    Requires v * v <= MAX_CELLS.
    """
    _check_cells("lifted", nhsdp.v, nhsdp.v)
    verdict = verify_nhsdp(nhsdp.v, nhsdp.blocks)
    if not verdict.ok:
        raise ValueError(f"input is not a valid NHSDP: {verdict.detail}")
    v = nhsdp.v
    grid = np.zeros((v, v), dtype=np.int64)
    f = np.arange(v)
    for i, block in enumerate(nhsdp.blocks):
        for d in block:
            k = (f + d) % v
            grid[f, k] = i * v + (f + k) % v + 1
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
    otherwise the output would miss a symbol, and S * K <= MAX_CELLS.
    """
    F, K, Z, S = pda.F, pda.K, pda.Z, pda.S
    if not (0 < Z < F):
        raise ValueError(f"conjugate needs 0 < Z < F, got Z={Z}, F={F}")
    _check_cells("conjugate", S, K)
    groups = symbol_groups(pda)
    empty = np.flatnonzero(np.bincount(groups.row, minlength=F) == 0)
    if empty.size:
        raise ValueError(
            f"row {int(empty[0])} is all stars; compact rows before conjugating"
        )
    out = np.zeros((S, K), dtype=np.int64)
    out[groups.symbol - 1, groups.user] = groups.row + 1
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


def _colex_rank(subset: tuple[int, ...]) -> int:
    """Rank of an ascending subset in colexicographic order (0-based)."""
    return sum(binomial(e, i + 1) for i, e in enumerate(subset))


def mn_pda(K: int, t: int) -> Pda:
    """The classic t-subset PDA: (K, C(K,t), C(K-1,t-1), C(K,t+1)).

    Rows are indexed by t-subsets of {0..K-1} in colex order; cell (T, k) is
    a star when k is in T, otherwise the colex rank of T + {k} among the
    (t+1)-subsets.  Each symbol occurs exactly t + 1 times.  Requires
    C(K,t) * K <= MAX_CELLS.
    """
    if not (1 <= t < K):
        raise ValueError(f"require 1 <= t < K, got t={t}, K={K}")
    F = binomial(K, t)
    _check_cells("subset", F, K)
    grid = np.zeros((F, K), dtype=np.int64)
    for T in itertools.combinations(range(K), t):
        row = _colex_rank(T)
        members = set(T)
        for k in range(K):
            if k in members:
                continue
            union = tuple(sorted(members | {k}))
            grid[row, k] = _colex_rank(union) + 1
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
    groups = symbol_groups(Pda(pda.grid[:, cols], Z=pda.Z, S=pda.S))
    out = np.zeros((pda.F, len(cols)), dtype=np.int64)
    out[groups.row, groups.user] = np.repeat(np.arange(1, groups.start.size), np.diff(groups.start))
    return Pda(out, Z=pda.Z, S=groups.start.size - 1)


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

    All ratios are exact ``Fraction`` values; gain is None for the
    degenerate all-star array (S = 0).
    """
    K, F, Z, S = pda.params()
    memory = Fraction(Z, F)
    load = Fraction(S, F)
    gain = Fraction(K * (F - Z), S) if S else None
    regular: int | None = None
    if 0 < S <= np.count_nonzero(pda.grid):  # else some symbol is missing
        sizes = np.bincount(pda.grid.ravel(), minlength=S + 1)[1:]
        if sizes[0] and (sizes == sizes[0]).all():
            regular = int(sizes[0])
    return PdaStats(K, F, Z, S, memory, load, gain, regular)
