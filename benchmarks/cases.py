"""The three workloads: their set-up, the CLI chains they time, and the checks.

Each workload has three cases; a case is a chain of ``nhsdp`` CLI calls whose
summed wall time is one sample of ``caseN_s``.  Every call carries the exact
stdout it must print (a regex only where a later, equally valid algorithm
may print a different witness) and a predicted dense allocation, which the
size guard checks before the call is made.  Output checks read what the
calls wrote with loaders of their own, so they do not trust the code under
test.

The workload seed sets file contents, the demand sample and the one-shot
demand vector; every other input is a fixed construction.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

N_FILES = 2
PACKET_LEN = 16          # the CLI's default --packet-len
V125_SAMPLE = 15         # sampled demand vectors per v125 call, plus the all-equal corner
DS_QS = range(2, 10)     # q = 6 exhausts the space; q >= 10 is excluded (README)

# Size guard: no call may be predicted to materialise more dense int64 cells
# than this.  The cut keeps every case below 1 GB of RSS on an 8 GB machine
# and excludes the sizes listed in the README (v = 2401 and 4913 in
# verify_pda, the conjugate at v >= 1331).
DENSE_LIMIT_BYTES = 512 * 2**20
CELL_BYTES = 8


# Predicted dense cells per kind of call.  verify_pda materialises the grid
# plus six int64 arrays over the symbol pairs (r1, c1, r2, c2, symbol, flags).
def _grid(F: int, K: int) -> int:
    return F * K


def _verify(F: int, K: int, pairs: int) -> int:
    return F * K + 6 * pairs


def _simulate(F: int, K: int, Z: int, S: int, g: int) -> int:
    # grid, per-user caches of N*Z packets, and (user, packet) per contributor
    return F * K + N_FILES * Z * K + 2 * S * g


@dataclass(frozen=True)
class Op:
    """One CLI call, the stdout it must print, and its predicted dense cells."""

    argv: tuple[str, ...]
    expect: str  # a regex matched against the whole stdout
    cells: int

    @classmethod
    def exact(cls, argv, line: str, cells: int) -> "Op":
        return cls(tuple(argv), re.escape(line + "\n"), cells)


@dataclass(frozen=True)
class Case:
    name: str
    ops: tuple[Op, ...]
    check: Callable[[], list[tuple[str, bool]]]  # output checks, run after each sample
    work: tuple[int, str] | None = None           # items per call, for a rate


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    setup_check: Callable[[], list[tuple[str, bool]]]


# -- independent loaders and checks -----------------------------------------

def load_grid(path: Path) -> np.ndarray:
    """Read a text PDA ('*' for stars) without the package's parser."""
    text = path.read_text()
    rows = sum(1 for line in text.splitlines() if line.strip())
    flat = np.fromstring(text.replace("*", "0"), dtype=np.int64, sep=" ")
    return flat.reshape(rows, -1)


def grid_params(grid: np.ndarray) -> tuple[int, int, int, int]:
    """(K, F, Z, S); Z is -1 when columns disagree on their star count."""
    stars = (grid == 0).sum(axis=0)
    z = int(stars[0]) if (stars == stars[0]).all() else -1
    return grid.shape[1], grid.shape[0], z, int(grid.max())


def check_params(path: Path, expected: tuple[int, int, int, int]) -> tuple[str, bool]:
    return f"{path.name} has (K,F,Z,S)={expected}", grid_params(load_grid(path)) == expected


def check_transcript(path: Path, grid: np.ndarray, demand: tuple[int, ...], seed: int):
    """Re-decode a one-shot transcript for every user from cached packets only.

    Each transmission must come from the cells of its symbol; user k recovers
    cell (j, k) as the payload XOR the other contributors' packets, and those
    must sit in k's cache (a star at their row in column k).
    """
    from nhsdp.simulate import FileLibrary

    doc = json.loads(path.read_text())
    S = int(grid.max())
    payloads = [bytes.fromhex(t["payload"]) for t in doc["transmissions"]]
    results = [
        ("transcript holds S payloads", len(payloads) == S),
        ("every payload is packet_len bytes", all(len(p) == PACKET_LEN for p in payloads)),
        ("transcript records the demand", tuple(doc["demands"]) == demand),
    ]
    if not all(ok for _, ok in results):
        return results

    library = FileLibrary.random(N_FILES, grid.shape[0], PACKET_LEN, seed)
    files = np.frombuffer(
        b"".join(library.file_bytes(n) for n in range(N_FILES)), dtype=np.uint8
    ).reshape(N_FILES, grid.shape[0], PACKET_LEN)
    wire = np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(S, PACKET_LEN)
    contrib = np.array(
        [[t["symbol"], u, p] for t in doc["transmissions"] for u, p in t["contributors"]],
        dtype=np.int64,
    )
    sym, user, row = contrib[:, 0], contrib[:, 1], contrib[:, 2]
    d = np.asarray(demand, dtype=np.int64)
    packets = files[d[user], row]                                   # (cells, L)
    total = np.zeros((S + 1, PACKET_LEN), dtype=np.uint8)
    np.bitwise_xor.at(total, sym, packets)
    others = total[sym] ^ packets                                   # all but own
    recovered = wire[sym - 1] ^ others

    rows_nz, cols_nz = np.nonzero(grid)
    cells_from_grid = sorted(
        zip(cols_nz.tolist(), rows_nz.tolist(), grid[rows_nz, cols_nz].tolist())
    )
    cells_from_wire = sorted(zip(user.tolist(), row.tolist(), sym.tolist()))
    # Cross cells: for contributors (u, p) and (u2, p2) of one symbol, user u
    # must have cached row p2, i.e. grid[p2, u] is a star.  The one-shot
    # array is g-regular, so the contributors reshape to (S, g).
    by_sym = np.argsort(sym, kind="stable")
    us = user[by_sym].reshape(S, -1)
    ps = row[by_sym].reshape(S, -1)
    others_mask = ~np.eye(us.shape[1], dtype=bool)
    cached = bool((grid[ps[:, None, :], us[:, :, None]][:, others_mask] == 0).all())
    results += [
        ("transmissions follow the array's symbol cells", cells_from_grid == cells_from_wire),
        ("interfering packets are cached by each receiver", cached),
        ("every user decodes its file byte-exactly", bool((recovered == packets).all())),
    ]
    return results


# -- workloads ----------------------------------------------------------------

def one_shot_demand(seed: int, K: int = 343) -> tuple[int, ...]:
    rng = random.Random(seed)
    return tuple(rng.randrange(N_FILES) for _ in range(K))


def setup(name: str, workdir: Path, seed: int) -> None:
    """Write the workload's input files (the timed part of set-up besides import)."""
    from nhsdp import packing, pda, serialize

    workdir.mkdir(parents=True, exist_ok=True)
    if name == "sweep":
        worked = packing.Nhsdp.from_blocks(15, [{-1, 1, -2, 2}, {-4, 4, -5, 5}])
        for fname, arr in (
            ("ex15.txt", pda.pda_from_nhsdp(worked)),
            ("a125.txt", pda.pda_from_nhsdp(packing.construct_nhsdp(125, (2, 2, 2)))),
            ("a343.txt", pda.pda_from_nhsdp(packing.construct_nhsdp(343, (3, 3, 3)))),
        ):
            (workdir / fname).write_text(serialize.pda_to_text(arr))
    elif name == "design":
        odd = pda.pda_from_nhsdp(packing.construct_nhsdp(1331, (5, 5, 5)))
        even = pda.drop_columns(odd, range(odd.K - 1))   # the even-K virtual-user trick
        (workdir / "e1330.txt").write_text(serialize.pda_to_text(even))
        (workdir / "p343.json").write_text(
            serialize.nhsdp_to_json(packing.construct_nhsdp(343, (3, 3, 3)))
        )
    elif name != "search":
        raise ValueError(f"unknown workload {name!r}")


def build(name: str, workdir: Path, seed: int) -> Workload:
    w = lambda fname: str(workdir / fname)  # noqa: E731
    if name == "sweep":
        demand = one_shot_demand(seed)
        vec = ",".join(map(str, demand))
        tiny = Case(
            "tiny",
            (Op.exact(["simulate", w("ex15.txt"), "--N", "2", "--demands", "all"],
                      "32768/32768 demands decoded, load = 2", _simulate(15, 15, 7, 30, 4)),),
            lambda: [],
            (32768, "demands"),
        )
        v125 = Case(
            "v125",
            (Op.exact(["simulate", w("a125.txt"), "--N", "2", "--demands",
                       f"sample:{V125_SAMPLE}", "--seed", str(seed)],
                      f"{V125_SAMPLE + 1}/{N_FILES ** 125} demands decoded, load = 8",
                      _simulate(125, 125, 61, 1000, 8)),),
            lambda: [],
            (V125_SAMPLE + 1, "demands"),
        )
        one_shot = Case(
            "one_shot",
            (Op.exact(["simulate", w("a343.txt"), "--N", "2", "--demands", vec,
                       "--seed", str(seed), "--out", w("transcript.json")],
                      f"demand {vec}: 343/343 users decoded, load = 27",
                      _simulate(343, 343, 127, 9261, 8)),),
            lambda: check_transcript(workdir / "transcript.json",
                                     load_grid(workdir / "a343.txt"), demand, seed),
            (343, "users"),
        )
        return Workload(name, (tiny, v125, one_shot), lambda: [])

    if name == "design":
        pairs_odd = 166375 * math.comb(8, 2)
        odd = Case(
            "odd",
            (
                Op.exact(["construct-nhsdp", "--v", "1331", "--m", "5,5,5",
                          "--out", w("p1331.json")],
                         "(1331,8,125) NHSDP: valid", 0),
                Op.exact(["verify-nhsdp", w("p1331.json")], "(1331,8,125) NHSDP: valid", 0),
                Op.exact(["build-pda", w("p1331.json"), "--out", w("a1331.txt")],
                         "built (1331,1331,331,166375) PDA", _grid(1331, 1331)),
                Op.exact(["verify-pda", w("a1331.txt")],
                         "(1331,1331,331,166375) PDA: valid, 8-regular",
                         _verify(1331, 1331, pairs_odd)),
            ),
            lambda: [check_params(workdir / "a1331.txt", (1331, 1331, 331, 166375))],
        )
        even = Case(
            "even",
            (Op.exact(["verify-pda", w("e1330.txt")], "(1330,1331,331,166375) PDA: valid",
                      _verify(1331, 1330, pairs_odd)),),
            lambda: [],
        )
        dual = Case(
            "dual",
            (
                Op.exact(["build-pda", w("p343.json"), "--out", w("a343.txt")],
                         "built (343,343,127,9261) PDA", _grid(343, 343)),
                Op.exact(["conjugate", w("a343.txt"), "--out", w("c343.txt")],
                         "conjugate is a (343,9261,9045,343) PDA",
                         _grid(343, 343) + _grid(9261, 343)),
                Op.exact(["verify-pda", w("c343.txt")],
                         "(343,9261,9045,343) PDA: valid, 216-regular",
                         _verify(9261, 343, 343 * math.comb(216, 2))),
                Op.exact(["group", w("a343.txt"), "--K", "1029", "--out", w("g1029.txt")],
                         # mask, three shifted copies and the stacked output
                         "grouped to a (1029,343,127,27783) PDA", _grid(343, 343) * 7),
                Op.exact(["verify-pda", w("g1029.txt")],
                         "(1029,343,127,27783) PDA: valid, 8-regular",
                         _verify(343, 1029, 27783 * math.comb(8, 2))),
            ),
            lambda: [
                check_params(workdir / "c343.txt", (343, 9261, 9045, 343)),
                check_params(workdir / "g1029.txt", (1029, 343, 127, 27783)),
            ],
        )
        return Workload(
            name,
            (odd, even, dual),
            lambda: [check_params(workdir / "e1330.txt", (1330, 1331, 331, 166375))],
        )

    if name == "search":
        from nhsdp.schemes import SCHEME_NAMES

        params = Case(
            "params",
            (
                Op.exact(["solve-params", "--v", str(10**6), "--n", "4", "--exact"],
                         "v=1000000 n=4 m=14,14,14,20 product=54880 phi=499974", 0),
                Op.exact(["solve-params", "--v", str(3**12), "--n", "6", "--exact"],
                         "v=531441 n=6 m=4,4,4,4,4,4 product=4096 phi=265720", 0),
                Op.exact(["compare", "--schemes", ",".join(SCHEME_NAMES), "--K", "1000",
                          "--out", w("points.csv")],
                         "3191 scheme points within |K - 1000| <= 8", 0),
            ),
            lambda: [("points.csv holds 3191 rows",
                      len((workdir / "points.csv").read_text().splitlines()) == 3192)],
        )
        ds_ops = []
        for q in DS_QS:
            v, k = q * q + q + 1, q + 1
            argv = ["ds-search", "--q", str(q), "--out", w(f"ds{q}.json")]
            if q == 6:
                ds_ops.append(
                    Op.exact(argv, f"no ({v},{k}) difference set: search space exhausted", 0)
                )
            else:
                ds_ops.append(Op(tuple(argv), rf"\({v},{k}\) DS: \{{[0-9,]+\}}\n", 0))
        ds = Case("ds", tuple(ds_ops), lambda: _check_ds(workdir))
        phf = Case(
            "phf",
            (
                Op.exact(["ntap", "--n", "3", "--out", w("n3.json")],
                         "NTAP set of size 8 in Z_27", 0),
                Op.exact(["phf", w("n3.json"), "--out", w("phf3.json")],
                         "(3;216,27,3) PHF: valid", 3 * 216),
                Op.exact(["ntap", "--n", "5", "--out", w("n5.json")],
                         "NTAP set of size 32 in Z_243", 0),
                Op.exact(["phf", w("n5.json"), "--out", w("phf5.json")],
                         "(3;7776,243,3) PHF: valid", 3 * 7776),
            ),
            lambda: [_check_phf_shape(workdir / "phf3.json", 216, 27),
                     _check_phf_shape(workdir / "phf5.json", 7776, 243)],
        )
        return Workload(name, (params, ds, phf), lambda: [])

    raise ValueError(f"unknown workload {name!r}")


def _check_ds(workdir: Path) -> list[tuple[str, bool]]:
    from nhsdp.packing import verify_cdp

    out = []
    for q in DS_QS:
        path = workdir / f"ds{q}.json"
        if q == 6:
            out.append(("q=6 writes no set", not path.exists()))
            continue
        doc = json.loads(path.read_text())
        verdict = verify_cdp(doc["v"], doc["elements"])
        out.append((f"ds-search q={q} passes verify_cdp as a difference set",
                     doc["v"] == q * q + q + 1 and len(doc["elements"]) == q + 1
                     and verdict.ok and verdict.code == "ds"))
    return out


def _check_phf_shape(path: Path, m: int, q: int) -> tuple[str, bool]:
    grid = np.array(json.loads(path.read_text())["grid"])
    return (f"{path.name} is a 3 x {m} array over [0, {q})",
            grid.shape == (3, m) and int(grid.min()) >= 0 and int(grid.max()) < q)
