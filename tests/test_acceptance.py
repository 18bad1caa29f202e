"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable: reference decimals are
matched at their printed precision, memory ratios at 5e-3 absolute (1.5e-3
for the one K=1331 row), and everything labelled exact is compared with
exact integer or rational equality.
"""

import math
import time
from fractions import Fraction

import numpy as np

from nhsdp import (
    Cdp,
    Nhsdp,
    Pda,
    block_params,
    cdp_to_nhsdp,
    conjugate_pda,
    construct_nhsdp,
    evaluate_nhsdp_scheme,
    evaluate_scheme,
    exhaustive_demand_check,
    half_sum_set,
    ntap_bound_report,
    ntap_construct,
    pda_from_nhsdp,
    pda_stats,
    phf_from_ntap,
    ratio_report,
    solve_problem1_exact,
    verify_cdp,
    verify_nhsdp,
    verify_ntap,
    verify_pda,
    verify_phf,
)
from nhsdp.designs import NtapSet
from nhsdp.serialize import pda_to_text
from conftest import EX4_GRID

EX15 = Nhsdp.from_blocks(15, [{-1, 1, -2, 2}, {-4, 4, -5, 5}])


def _ok(name: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def assert_printed(value, printed: str) -> None:
    """Exact rational ``value`` must round to the reference decimal."""
    if "." not in printed and "e" not in printed.lower():
        assert value == int(printed), f"{value} != {printed}"
        return
    places = len(printed.split(".")[1]) if "." in printed else 0
    assert math.isclose(
        float(value), float(printed), abs_tol=0.5 * 10.0 ** (-places) + 1e-12
    ), f"{float(value)} !~ {printed}"


def test_criterion_01_worked_packing_golden():
    verify_nhsdp(EX15.v, EX15.blocks)  # warm-up outside the timed window
    start = time.perf_counter()
    verdict = verify_nhsdp(15, [{14, 1, 13, 2}, {11, 4, 10, 5}])
    elapsed = time.perf_counter() - start
    assert verdict.ok
    assert (verdict.info["g"], verdict.info["b"]) == (4, 2)
    assert half_sum_set(15, EX15.blocks) == frozenset({0, 3, 6, 7, 8, 9, 12})
    assert elapsed < 1e-3
    _ok("1", f"(15,4,2) packing verified in {elapsed * 1e6:.0f} us")


def test_criterion_02_worked_pda_golden():
    arr = pda_from_nhsdp(EX15)
    assert verify_pda(arr).ok
    assert arr.params() == (15, 15, 7, 30)
    first_row = pda_to_text(arr).splitlines()[0]
    assert first_row == "* 2 3 * 20 21 * * * * 26 27 * 14 15"
    sym_1_1 = 2  # pair (c=1, block 1) under s = (i-1)*v + c + 1
    assert arr.grid[1, 0] == sym_1_1 and arr.grid[0, 1] == sym_1_1
    assert arr.grid[0, 0] == 0 and arr.grid[1, 1] == 0
    _ok("2", "(15,15,7,30) PDA matches the published first row")


def test_criterion_03_v125_construction_golden():
    start = time.perf_counter()
    params = block_params((2, 2, 2))
    assert params.f == (2, 10, 50) and params.phi == 62
    packing = construct_nhsdp(125, (2, 2, 2))
    published = [
        [31, 21, 29, 19, -19, -29, -21, -31],
        [32, 22, 28, 18, -18, -28, -22, -32],
        [36, 16, 34, 14, -14, -34, -16, -36],
        [37, 17, 33, 13, -13, -33, -17, -37],
        [56, 46, 54, 44, -44, -54, -46, -56],
        [57, 47, 53, 43, -43, -53, -47, -57],
        [61, 41, 59, 39, -39, -59, -41, -61],
        [62, 42, 58, 38, -38, -58, -42, -62],
    ]
    assert list(packing.blocks) == [
        tuple(sorted({x % 125 for x in blk})) for blk in published
    ]
    arr = pda_from_nhsdp(packing)
    assert verify_pda(arr).ok
    assert arr.params() == (125, 125, 61, 1000)
    stats = pda_stats(arr)
    assert stats.memory_ratio == Fraction(61, 125)
    assert stats.load == 8 and stats.gain == 8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _ok("3", f"(125,125,61,1000) PDA rebuilt and verified in {elapsed:.2f} s")


def test_criterion_04_lift_property_suite():
    import itertools

    checked = 0
    for n in (1, 2, 3):
        for m in itertools.product((1, 2, 3), repeat=n):
            base = 2 * block_params(m).phi + 1
            for v in range(base, base + 22, 2):
                packing = construct_nhsdp(v, m)
                arr = pda_from_nhsdp(packing)
                b, g = packing.b, packing.g
                assert arr.params() == (v, v, v - b * g, b * v)
                assert verify_pda(arr).ok
                assert pda_stats(arr).regular_g == g
                checked += 1
    assert checked >= 200
    _ok("4", f"{checked} lifted arrays verified with exact parameters")


def test_criterion_05_simulator_correctness():
    start = time.perf_counter()
    ex4 = Pda(np.array(EX4_GRID, dtype=np.int64), Z=2, S=4)
    sweeps = [
        (ex4, 4, 10**6, 256, Fraction(1)),
        (pda_from_nhsdp(Nhsdp.from_blocks(3, [(1, 2)])), 3, 10**6, 27, Fraction(1)),
        (pda_from_nhsdp(EX15), 2, 10**5, 32768, Fraction(2)),
    ]
    for arr, n_files, budget, expect_checked, expect_load in sweeps:
        report = exhaustive_demand_check(arr, n_files, demand_budget=budget)
        assert report.exhaustive and report.checked == expect_checked
        assert not report.failures
        assert report.nominal_load == expect_load
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok("5", f"256 + 27 + 32768 demand vectors decoded in {elapsed:.1f} s")


def test_criterion_06_exact_optimiser_agreement():
    for q in (3, 5, 7, 9, 11):
        for n in (1, 2, 3):
            seq, product = solve_problem1_exact(q**n, n)
            assert seq == ((q - 1) // 2,) * n, (q, n, seq)
            assert product == ((q - 1) // 2) ** n
    assert solve_problem1_exact(63, 2) == ((3, 4), 12)
    closed_product = math.prod((3, 3))  # all-equal choice at v = 63, n = 2
    assert 12 > closed_product
    _ok("6", "exhaustion matches the closed form on odd powers, beats it at 63")


# Reference rows: (v, n, memory, load, F, tolerance override).
PACKING_ROWS = [
    (33, 3, "0.7576", "1", 33, None),
    (129, 4, "0.876", "1", 129, None),
    (257, 5, "0.8755", "1", 257, None),
    (513, 5, "0.9376", "1", 513, None),
    (49, 2, "0.26531", "9", 49, None),
    (1331, 3, "0.2498", "125", 1331, 1.5e-3),
    (2199, 3, "0.2142", "216", 2199, None),
    (2401, 4, "0.460", "81", 2401, None),
    (25, 2, "0.36", "4", 25, None),
    (81, 4, "0.802", "1", 81, None),
    (125, 3, "0.488", "8", 125, None),
    (343, 3, "0.370", "27", 343, None),
    (243, 5, "0.8683", "1", 243, None),
    (27, 3, "0.7037", "1", 27, None),
    (81, 2, "0.210", "16", 81, None),
    (121, 2, "0.1736", "25", 121, None),
    (169, 2, "0.1479", "36", 169, None),
    (225, 2, "0.1289", "49", 225, None),
]

# Competitor rows whose published loads follow from their formulas.
COMPETITOR_ROWS = [
    ("ZCW", {"m": 5, "w": 2}, 32, "0.6875", "1.25", 32),
    ("ZCW", {"m": 7, "w": 2}, 128, "0.836", "2.625", 128),
    ("AST", {"r": 2, "k": 13}, 52, "0.28846", "9.25", 52),
    ("AST", {"r": 2, "k": 333}, 1332, "0.2515", "249.25", 1332),
    ("AST", {"r": 2, "k": 548}, 2192, "0.2509", "410.5", 2192),
    ("AST", {"r": 3, "k": 300}, 2400, "0.50125", "149.625", 2400),
    ("YTCC", {"H": 15, "a": 2, "z": 9, "r": 1}, 105, "0.486", "6", 5005),
    ("CKSM1", {"q": 2, "k": 7, "m": 6, "t": 1}, 127, "0.496", "9.143", 3555772416),
    ("CKSM2", {"q": 2, "k": 8, "m": 4, "t": 1}, 255, "0.8784", "2.0667", 97155),
    ("CKSM2", {"q": 2, "k": 5, "m": 2, "t": 1}, 31, "0.7742", "1", 155),
    ("CKSM1", {"q": 4, "k": 4, "m": 3, "t": 1}, 85, "0.247", "16", 95200),
    ("CKSM1", {"q": 5, "k": 4, "m": 3, "t": 1}, 156, "0.19872", "31.25", 604500),
    ("CKSM1", {"q": 2, "k": 8, "m": 5, "t": 1}, 255, "0.12157", "37.333", 8095731840),
    ("CKSM1", {"q": 3, "k": 6, "m": 5, "t": 1}, 364, "0.332", "40.5", 45079738704),
]

# Rows whose published load column does not follow from any formula the
# source states (see the project notes); the derivable cells still must
# match: users, memory ratio, and subpacketization.
COMPETITOR_ROWS_PARTIAL = [
    ("ZCW", {"m": 8, "w": 2}, 256, "0.8906", 256),
    ("ZCW", {"m": 9, "w": 2}, 512, "0.9297", 512),
    ("YTCC", {"H": 22, "a": 1, "z": 8, "r": 0}, 22, "0.364", 319770),
    ("YTCC", {"H": 13, "a": 2, "z": 7, "r": 0}, 78, "0.81", 1716),
    ("YTCC", {"H": 26, "a": 2, "z": 5, "r": 0}, 325, "0.354", 65780),
    ("YTCC", {"H": 22, "a": 2, "z": 12, "r": 0}, 231, "0.805", 646646),
]


def test_criterion_07_reference_table_rows():
    for v, n, memory, load, f_val, tol in PACKING_ROWS:
        point = evaluate_nhsdp_scheme(v, n)
        assert point.K == v and point.subpacketization == f_val
        assert math.isclose(float(point.memory_ratio), float(memory), abs_tol=tol or 5e-3)
        assert point.load == int(load)
    for scheme, params, k_val, memory, load, f_val in COMPETITOR_ROWS:
        point = evaluate_scheme(scheme, params)
        assert point.K == k_val, (scheme, params)
        assert math.isclose(float(point.memory_ratio), float(memory), abs_tol=5e-3)
        assert_printed(point.load, load)
        assert point.subpacketization == f_val
    for scheme, params, k_val, memory, f_val in COMPETITOR_ROWS_PARTIAL:
        point = evaluate_scheme(scheme, params)
        assert point.K == k_val
        assert math.isclose(float(point.memory_ratio), float(memory), abs_tol=5e-3)
        assert point.subpacketization == f_val
    # Large-K subpacketization gaps, spot-checked as exact finite ratios:
    # F_MN / F strictly increases over matched memory points.
    previous = Fraction(0)
    for v, n in [(25, 2), (27, 3), (33, 3), (49, 2)]:
        ours = evaluate_nhsdp_scheme(v, n)
        t = v - int(v * (1 - ours.memory_ratio))
        mn = evaluate_scheme("MN", {"K": v, "t": t})
        assert mn.memory_ratio == ours.memory_ratio
        ratio = ratio_report(mn, ours).f_ratio
        assert ratio > previous
        previous = ratio
    rows = len(PACKING_ROWS) + len(COMPETITOR_ROWS) + len(COMPETITOR_ROWS_PARTIAL)
    _ok("7", f"{rows} reference table rows reproduced at pinned tolerances")


def test_criterion_08_conjugate_identity():
    for packing, expected in [
        (EX15, (15, 30, 22, 15)),
        (construct_nhsdp(125, (2, 2, 2)), (125, 1000, 936, 125)),
    ]:
        arr = pda_from_nhsdp(packing)
        conj = conjugate_pda(arr)
        K, F, Z, S = arr.params()
        assert conj.params() == (K, S, S - (F - Z), F) == expected
        assert verify_pda(conj).ok
    # The 125-case equals the closed-form conjugate family at q=5, n=3:
    # F = ((q-1)/2)^n * q^n = 1000 and Z = ((q-1)/2)^n * (q^n - 2^n) = 936.
    assert ((5 - 1) // 2) ** 3 * 5**3 == 1000
    assert ((5 - 1) // 2) ** 3 * (5**3 - 2**3) == 936
    _ok("8", "conjugates land exactly on (K, S, S-(F-Z), F)")


def test_criterion_09_derived_design_suite():
    start = time.perf_counter()
    verdict = verify_cdp(7, {0, 1, 3})
    assert verdict.code == "ds"
    packing = cdp_to_nhsdp(Cdp.from_elements(7, {0, 1, 3}))
    assert (packing.v, packing.g, packing.b) == (7, 3, 1)
    assert verify_nhsdp(packing.v, packing.blocks).ok

    for n in range(1, 9):
        ntap = ntap_construct(n)
        assert ntap.size == 2**n
        assert verify_ntap(ntap.v, ntap.elements).ok

    assert ntap_bound_report(52).rho1_wins
    assert not ntap_bound_report(53).rho1_wins

    families = [
        NtapSet.from_elements(3, (1, 2)),
        ntap_construct(2),
        NtapSet.from_packing(packing),
    ]
    expected_shapes = [(6, 3), (36, 9), (21, 7)]
    for ntap, (m, q) in zip(families, expected_shapes):
        phf = phf_from_ntap(ntap)
        assert (phf.m, phf.q) == (m, q)
        assert verify_phf(phf).ok

    negative = verify_ntap(7, {0, 1, 2})
    assert not negative.ok and negative.info["z"] == 1

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok("9", f"difference set, NTAP, bound crossover, PHFs in {elapsed:.1f} s")


def test_criterion_10_grouping_formula_golden():
    from nhsdp import SchemePoint, apply_grouping_formula

    replicated_base = SchemePoint(
        "CWZW", {"q": 2, "m": 7}, 16, Fraction(1, 2), Fraction(1), 128, Fraction(8)
    )
    grouped = apply_grouping_formula(replicated_base, 125)
    assert grouped.subpacketization == 2048
    assert grouped.load == Fraction(125, 16)
    assert grouped.memory_ratio == Fraction(1, 2)

    grouped_mn = apply_grouping_formula(evaluate_scheme("MN", {"K": 10, "t": 5}), 125)
    assert grouped_mn.load == Fraction(125, 12)
    assert grouped_mn.subpacketization == 504
    assert grouped_mn.gain == 6
    _ok("10", "grouped subpacketization 2048 and loads 125/16, 125/12 exact")
