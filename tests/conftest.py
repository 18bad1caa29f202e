import itertools
import tracemalloc

import numpy as np
import pytest

from nhsdp import Nhsdp, Pda, STAR, conjugate_pda, construct_nhsdp, drop_columns, pda_from_nhsdp

# The worked 4x4 example array: 2-regular (4,4,2,4).
EX4_GRID = [
    [STAR, 1, STAR, 4],
    [1, STAR, 2, STAR],
    [STAR, 2, STAR, 3],
    [4, STAR, 3, STAR],
]

# The worked (15,4,2) packing: blocks {+-1,+-2} and {+-4,+-5} mod 15.
EX15_BLOCKS = [{-1, 1, -2, 2}, {-4, 4, -5, 5}]


@pytest.fixture
def ex4_pda() -> Pda:
    return Pda(np.array(EX4_GRID, dtype=np.int64), Z=2, S=4)


@pytest.fixture
def ex15_packing() -> Nhsdp:
    return Nhsdp.from_blocks(15, EX15_BLOCKS)


def _lift(v, m):
    return pda_from_nhsdp(construct_nhsdp(v, m))


@pytest.fixture(scope="session")
def golden_arrays():
    a1331 = _lift(1331, (5, 5, 5))
    return {
        "a125": _lift(125, (2, 2, 2)),
        "a1331": a1331,
        "e1330": drop_columns(a1331, range(1330)),
        "c343": conjugate_pda(_lift(343, (3, 3, 3))),
    }


@pytest.fixture(scope="session")
def lift343() -> Pda:
    """The (3,3,3) lift at v=343, the array of the benchmark's one-shot case."""
    return _lift(343, (3, 3, 3))


def peak_mib(call, *args):
    """The tracemalloc peak of call(*args), in MiB above what was held before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def naive_verify_pda(pda: Pda) -> bool:
    """Reference checker: literal quadratic sweep of the four conditions.

    Deliberately independent of nhsdp.verify_pda so the two can be compared
    on small arrays.
    """
    grid = pda.grid
    F, K = grid.shape
    for k in range(K):
        if sum(1 for j in range(F) if grid[j, k] == STAR) != pda.Z:
            return False
    seen = set(int(s) for s in grid.ravel() if s != STAR)
    if len(seen) != pda.S or not all(1 <= s <= pda.S for s in seen):
        return False
    cells = [(j, k) for j in range(F) for k in range(K) if grid[j, k] != STAR]
    for (j1, k1), (j2, k2) in itertools.combinations(cells, 2):
        if grid[j1, k1] != grid[j2, k2]:
            continue
        if j1 == j2 or k1 == k2:
            return False
        if grid[j1, k2] != STAR or grid[j2, k1] != STAR:
            return False
    return True
