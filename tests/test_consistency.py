"""Closed-form scheme points against the arrays the package builds.

Wherever ``schemes`` evaluates a point by formula and the package can also
construct its array, ``pda_stats`` of that array must give the point's K,
F, M/N, R and gain, and the load measured from the payloads ``deliver``
emits must equal R.
"""

from fractions import Fraction
from functools import partial

import pytest

from nhsdp import (
    FileLibrary,
    apply_grouping_formula,
    cdp_to_nhsdp,
    conjugate_pda,
    construct_nhsdp,
    deliver,
    ds_search,
    evaluate_nhsdp_scheme,
    evaluate_scheme,
    group_pda_divisible,
    mn_pda,
    pda_from_nhsdp,
    pda_stats,
    verify_pda,
)


def _lift(v, n, solver):
    point = evaluate_nhsdp_scheme(v, n, solver)
    return point, pda_from_nhsdp(construct_nhsdp(v, point.params["m"]))


def _conjugate(v, n, solver):
    point = evaluate_scheme("NHSDP_CONJ", {"v": v, "n": n, "solver": solver})
    return point, conjugate_pda(_lift(v, n, solver)[1])


def _mn(K, t):
    return evaluate_scheme("MN", {"K": K, "t": t}), mn_pda(K, t)


def _ask1(q):
    return evaluate_scheme("ASK1", {"q": q}), pda_from_nhsdp(cdp_to_nhsdp(ds_search(q)))


def _grouped(base, h):
    point, arr = base
    return apply_grouping_formula(point, h * point.K), group_pda_divisible(arr, h * arr.K)


# Each case builds (scheme point, array).  (45, 2), (63, 3) and (99, 2) are
# sizes where the exact solver finds more blocks than the closed form.
CASES = {
    "nhsdp_27_1": lambda: _lift(27, 1, "closed_form"),
    "nhsdp_45_2_closed": lambda: _lift(45, 2, "closed_form"),
    "nhsdp_45_2_exact": lambda: _lift(45, 2, "exact"),
    "nhsdp_63_3_closed": lambda: _lift(63, 3, "closed_form"),
    "nhsdp_63_3_exact": lambda: _lift(63, 3, "exact"),
    "nhsdp_99_2_exact": lambda: _lift(99, 2, "exact"),
    "nhsdp_125_3_exact": lambda: _lift(125, 3, "exact"),
    "conj_27_3": lambda: _conjugate(27, 3, "closed_form"),
    "conj_45_2_exact": lambda: _conjugate(45, 2, "exact"),
    "conj_343_3": lambda: _conjugate(343, 3, "closed_form"),
    "mn_4_2": lambda: _mn(4, 2),
    "mn_5_2": lambda: _mn(5, 2),
    "mn_7_3": lambda: _mn(7, 3),
    "grouped_nhsdp_45_2_x2": lambda: _grouped(_lift(45, 2, "exact"), 2),
    "grouped_nhsdp_63_3_x3": lambda: _grouped(_lift(63, 3, "closed_form"), 3),
    "grouped_conj_27_3_x2": lambda: _grouped(_conjugate(27, 3, "closed_form"), 2),
    "grouped_mn_5_2_x3": lambda: _grouped(_mn(5, 2), 3),
    # ASK1 is the lift of the planar difference set of order q.
    **{f"ask1_{q}": partial(_ask1, q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)},
}


def test_exact_solver_beats_the_closed_form_somewhere():
    for v, n in ((45, 2), (63, 3), (99, 2)):
        assert evaluate_nhsdp_scheme(v, n, "exact").load > evaluate_nhsdp_scheme(v, n).load


@pytest.mark.parametrize("name", CASES)
def test_built_array_matches_scheme_point(name):
    point, arr = CASES[name]()
    assert verify_pda(arr).ok
    stats = pda_stats(arr)
    assert (stats.K, stats.F, stats.memory_ratio, stats.load, stats.gain) == (
        point.K,
        point.subpacketization,
        point.memory_ratio,
        point.load,
        point.gain,
    )
    # The payload count does not depend on the demands, so one file
    # (N = 1) keeps the libraries of the larger arrays small.
    packet_len = 3
    library = FileLibrary.random(1, arr.F, packet_len, seed=0)
    transcript = deliver(arr, library, (0,) * arr.K)
    assert Fraction(transcript.bytes_on_wire, arr.F * packet_len) == point.load
