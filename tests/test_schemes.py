import functools
import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nhsdp import (
    SCHEME_NAMES,
    SchemeConstraintError,
    SchemePoint,
    apply_grouping_formula,
    binomial,
    block_params,
    choose_params_closed_form,
    evaluate_nhsdp_scheme,
    evaluate_scheme,
    ratio_report,
    solve_problem1_exact,
    tradeoff_sweep,
)
from nhsdp import packing, schemes
from nhsdp.cli import main


def F(a, b=1):
    return Fraction(a, b)


class TestEvaluateScheme:
    def test_zcw_reference_row(self):
        point = evaluate_scheme("ZCW", {"m": 5, "w": 2})
        assert (point.K, point.subpacketization) == (32, 32)
        assert point.memory_ratio == F(11, 16)  # 0.6875
        assert point.load == F(5, 4)  # 1.25

    def test_ast_reference_row(self):
        point = evaluate_scheme("AST", {"r": 2, "k": 13})
        assert (point.K, point.subpacketization) == (52, 52)
        assert float(point.memory_ratio) == pytest.approx(0.28846, abs=5e-6)
        assert point.load == F(37, 4)  # 9.25

    def test_xxgl_direct_substitution(self):
        point = evaluate_scheme("XXGL", {"K": 125})
        assert point.memory_ratio == F(123, 125)
        assert point.load == F(124, 125)
        assert point.subpacketization == 125

    def test_mn(self):
        point = evaluate_scheme("MN", {"K": 10, "t": 5})
        assert point.memory_ratio == F(1, 2)
        assert point.load == F(5, 6)
        assert point.subpacketization == 252
        assert point.gain == 6

    def test_wcwl_three_cases(self):
        divisible = evaluate_scheme("WCWL", {"K": 6, "t": 4})
        assert divisible.load == F(1, 2) and divisible.subpacketization == 6
        gap_one = evaluate_scheme("WCWL", {"K": 5, "t": 4})
        assert gap_one.load == F(1, 5) and gap_one.subpacketization == 5
        residue = evaluate_scheme("WCWL", {"K": 8, "t": 6})
        assert residue.load == F(2, 5) and residue.subpacketization == 40
        other = evaluate_scheme("WCWL", {"K": 729, "t": 217})
        assert other.load == 256 and other.subpacketization == 2 * 729

    def test_mr(self):
        point = evaluate_scheme("MR", {"K": 8, "t": 6})
        # ceil(8*2 / (2 + 2 + 1)) / 8 = ceil(16/5)/8 = 4/8
        assert point.load == F(4, 8)
        assert point.subpacketization == 8

    def test_wccls(self):
        point = evaluate_scheme("WCCLS", {"q": 2, "m": 5, "w": 2})
        assert point.K == 32 and point.subpacketization == 32
        assert point.memory_ratio == 1 - F(10, 32)
        assert point.load == F(10, 8)

    def test_ask_pair(self):
        ask1 = evaluate_scheme("ASK1", {"q": 3})
        assert (ask1.K, ask1.subpacketization) == (13, 13)
        assert ask1.memory_ratio == F(9, 13) and ask1.load == 1
        ask2 = evaluate_scheme("ASK2", {"q": 3})
        assert (ask2.K, ask2.subpacketization) == (9, 12)
        assert ask2.memory_ratio == F(2, 3) and ask2.load == F(3, 4)

    def test_ytcc_consistent_row(self):
        point = evaluate_scheme("YTCC", {"H": 15, "a": 2, "z": 9, "r": 1})
        assert point.K == 105
        assert float(point.memory_ratio) == pytest.approx(0.486, abs=5e-4)
        assert point.load == 6
        assert point.subpacketization == 5005

    def test_cksm_pair(self):
        flats = evaluate_scheme("CKSM1", {"q": 2, "k": 7, "m": 6, "t": 1})
        assert flats.K == 127
        assert flats.load == F(64, 7)
        assert flats.subpacketization == 3555772416
        subspaces = evaluate_scheme("CKSM2", {"q": 2, "k": 5, "m": 2, "t": 1})
        assert subspaces.K == 31
        assert subspaces.memory_ratio == F(24, 31)
        assert subspaces.load == 1 and subspaces.subpacketization == 155

    def test_wclc(self):
        point = evaluate_scheme("WCLC", {"k": 5, "t": 1, "z": 2, "m": 2})
        assert point.K == 25
        assert point.memory_ratio == 1 - F(16, 25)
        assert point.load == 16
        assert point.subpacketization == 5

    def test_wclc_matches_specialised_form_for_odd_alphabet(self):
        # With m = z = n, k = q odd, t = 1 the row reduces to
        # F = q^(n-1) and R = (q - 1)^n (floor term equal to one).
        for q in (5, 7, 9):
            for n in (2, 3):
                point = evaluate_scheme("WCLC", {"k": q, "t": 1, "z": n, "m": n})
                assert point.subpacketization == q ** (n - 1)
                assert point.load == (q - 1) ** n
                assert point.memory_ratio == 1 - F((q - 1) ** n, q**n)

    def test_constraints_raise_with_name(self):
        cases = [
            ("MN", {"K": 4, "t": 4}),
            ("WCLC", {"k": 3, "t": 3, "z": 1, "m": 1}),
            ("YTCC", {"H": 10, "a": 4, "z": 8, "r": 1}),
            ("WCCLS", {"q": 2, "m": 3, "w": 3}),
            ("CKSM1", {"q": 6, "k": 7, "m": 2, "t": 1}),
            ("CKSM2", {"q": 2, "k": 3, "m": 2, "t": 2}),
            ("ASK1", {"q": 6}),
            ("ZCW", {"m": 4, "w": 4}),
            ("WCWL", {"K": 5, "t": 0}),
            ("AST", {"r": 0, "k": 3}),
            ("MR", {"K": 5, "t": 5}),
        ]
        for scheme, params in cases:
            with pytest.raises(SchemeConstraintError):
                evaluate_scheme(scheme, params)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            evaluate_scheme("NOPE", {})

    def test_gain_identity_everywhere(self):
        points = [
            evaluate_scheme("ZCW", {"m": 7, "w": 2}),
            evaluate_scheme("AST", {"r": 3, "k": 300}),
            evaluate_scheme("MN", {"K": 12, "t": 4}),
            evaluate_scheme("WCWL", {"K": 85, "t": 40}),
            evaluate_nhsdp_scheme(125, 3),
            evaluate_scheme("NHSDP_CONJ", {"v": 125, "n": 3}),
        ]
        for point in points:
            assert point.gain * point.load == point.K * (1 - point.memory_ratio)


def mn_envelope(K, memory):
    """The lower convex envelope of MN's points (t/K, (K - t)/(t + 1)),
    t = 0..K, at memory: (K + 1)/(t + 1) - 1 is convex in t, so the
    envelope joins consecutive points."""
    x = memory * K
    t = math.floor(x)
    if t == K:
        return F(0)
    return F(K - t, t + 1) + (x - t) * (F(K - t - 1, t + 2) - F(K - t, t + 1))


class TestConverse:
    @pytest.mark.parametrize(
        "scheme, params, K, memory, load, bound",
        [
            ("ZCW", {"m": 2, "w": 1}, 4, F(1, 2), F(1, 2), F(2, 3)),
            ("ZCW", {"m": 7, "w": 6}, 128, F(121, 128), F(7, 128), F(7, 122)),
            ("XXGL", {"K": 3}, 3, F(1, 3), F(2, 3), F(1)),
        ],
    )
    def test_points_under_the_envelope_are_refused(self, scheme, params, K, memory, load, bound):
        # The formula's (memory, load) at these parameters, and MN's envelope there.
        assert mn_envelope(K, memory) == bound > load
        with pytest.raises(SchemeConstraintError, match=r"uncoded-placement converse \(Yu"):
            evaluate_scheme(scheme, params)

    @pytest.mark.parametrize("scheme", ["ZCW", "XXGL"])
    def test_sweep_points_lie_on_or_above_the_envelope(self, scheme):
        for K in range(1, schemes.SWEEP_MAX_K + 1):
            for point in tradeoff_sweep(K, [scheme], slack=0):
                assert point.load >= mn_envelope(K, point.memory_ratio), point


class TestNhsdpScheme:
    def test_closed_form_reference_rows(self):
        point = evaluate_nhsdp_scheme(125, 3)
        assert point.memory_ratio == F(61, 125)
        assert point.load == 8 and point.subpacketization == 125
        assert point.gain == 8
        big = evaluate_nhsdp_scheme(2199, 3)
        assert big.load == 216
        assert float(big.memory_ratio) == pytest.approx(0.2142, abs=5e-5)

    def test_exact_beats_closed_form_off_powers(self):
        closed = evaluate_nhsdp_scheme(63, 2, "closed_form")
        exact = evaluate_nhsdp_scheme(63, 2, "exact")
        assert closed.load == 9 and closed.memory_ratio == 1 - F(36, 63)
        assert exact.load == 12 and exact.memory_ratio == F(5, 21)
        assert exact.memory_ratio < closed.memory_ratio

    def test_odd_power_closed_form_identities(self):
        for q in (3, 5, 7, 9, 11):
            for n in (1, 2, 3):
                point = evaluate_nhsdp_scheme(q**n, n)
                assert point.memory_ratio == 1 - F(q - 1, q) ** n
                assert point.load == F(q - 1, 2) ** n
                assert point.gain == 2**n

    def test_conjugate_scheme_row(self):
        point = evaluate_scheme("NHSDP_CONJ", {"v": 125, "n": 3})
        assert point.memory_ratio == 1 - F(2, 5) ** 3
        assert point.load == F(1, 8)
        assert point.subpacketization == 1000

    def test_bad_solver(self):
        with pytest.raises(ValueError):
            evaluate_nhsdp_scheme(125, 3, "guess")

    @pytest.mark.parametrize("v", [16, 2, 1, 0, -3])
    @pytest.mark.parametrize("solver", ["closed_form", "exact"])
    @pytest.mark.parametrize("scheme", ["NHSDP", "NHSDP_CONJ"])
    def test_no_point_over_an_even_or_small_modulus(self, monkeypatch, scheme, solver, v):
        # No packing exists there, so neither solver is asked.
        def unasked(*args):
            raise AssertionError("a solver ran")

        monkeypatch.setattr(schemes, "choose_params_closed_form", unasked)
        monkeypatch.setattr(schemes, "solve_problem1_exact", unasked)
        with pytest.raises(ValueError, match=f"^modulus must be odd and >= 3, got {v}$"):
            evaluate_scheme(scheme, {"v": v, "n": 1, "solver": solver})

    def test_points_match_the_derivation_from_the_base_point(self):
        expected = [(v, n) for v in range(1, 401, 2) for n in _reference_n_range(v)]
        for scheme in ("NHSDP", "NHSDP_CONJ"):
            grid = schemes._default_grid(scheme, 200, 200)
            assert [(p["v"], p["n"]) for p in grid] == expected
        for v, n in expected:
            for solver in ("closed_form", "exact"):
                base, conj = _reference_nhsdp_points(v, n, solver)
                params = {"v": v, "n": n, "solver": solver}
                assert evaluate_scheme("NHSDP", params) == base
                assert evaluate_scheme("NHSDP_CONJ", params) == conj

    def test_sweep_derives_no_block_params(self, monkeypatch):
        calls = []
        closed_form = schemes.choose_params_closed_form
        monkeypatch.setattr(packing, "block_params", lambda m: calls.append(("block_params", m)))
        monkeypatch.setattr(
            schemes,
            "choose_params_closed_form",
            lambda v, n: calls.append(("closed_form", v, n)) or closed_form(v, n),
        )
        points = tradeoff_sweep(255, ["NHSDP", "NHSDP_CONJ"], slack=255)
        assert {pt.scheme for pt in points} == {"NHSDP", "NHSDP_CONJ"}
        assert not hasattr(schemes, "block_params")
        assert all(call[0] == "closed_form" for call in calls)
        assert len(calls) <= len(points)


def _reference_n_range(v):
    """Every n the closed form accepts at v, found by asking it until it refuses."""
    n = 1
    while True:
        try:
            choose_params_closed_form(v, n)
        except ValueError:
            return range(1, n)
        n += 1


def _reference_nhsdp_points(v, n, solver):
    """NHSDP at (v, n), its m checked through block_params' phi, and NHSDP_CONJ
    read off that point's load and memory ratio."""
    if solver == "closed_form":
        m = choose_params_closed_form(v, n)
        product = math.prod(m)
    else:
        m, product = solve_problem1_exact(v, n)
    assert block_params(m).phi <= (v - 1) // 2

    def point(scheme, params, memory, load, subpacketization):
        gain = v * (1 - memory) / load
        return SchemePoint(scheme, params, v, memory, load, subpacketization, gain)

    params = {"v": v, "n": n, "m": m, "solver": solver}
    base = point("NHSDP", params, 1 - F(2**n * product, v), F(product), v)
    assert 0 < base.memory_ratio < 1
    params = {"v": v, "n": n, "solver": solver}
    conj = point("NHSDP_CONJ", params, 1 - F(2**n, v), 1 / base.load, int(base.load * v))
    return base, conj


class TestGrouping:
    def test_replication_reference_values(self):
        base = SchemePoint("CWZW", {"q": 2, "m": 7}, 16, F(1, 2), F(1), 128, F(8))
        grouped = apply_grouping_formula(base, 125)
        assert grouped.subpacketization == 2048
        assert grouped.load == F(125, 16)
        assert grouped.memory_ratio == F(1, 2)
        assert grouped.gain == base.gain

    def test_grouped_mn_load(self):
        grouped = apply_grouping_formula(evaluate_scheme("MN", {"K": 10, "t": 5}), 125)
        assert grouped.load == F(125, 12)
        assert grouped.subpacketization == 504

    def test_doubling(self):
        base = evaluate_scheme("MN", {"K": 6, "t": 2})
        grouped = apply_grouping_formula(base, 12)
        assert grouped.subpacketization == base.subpacketization
        assert grouped.load == 2 * base.load
        assert grouped.gain == base.gain

    def test_rejects_smaller_target(self):
        base = evaluate_scheme("MN", {"K": 6, "t": 2})
        with pytest.raises(ValueError):
            apply_grouping_formula(base, 6)


class TestSweepAndRatios:
    def test_sweep_contains_reference_points(self):
        points = tradeoff_sweep(85, ["NHSDP"], slack=0)
        by_n = {pt.params["n"]: pt for pt in points}
        assert by_n[2].memory_ratio == 1 - F(64, 85)
        assert by_n[2].load == 16
        assert by_n[4].memory_ratio == 1 - F(16, 85)
        assert by_n[4].load == 1
        assert [pt.memory_ratio for pt in points] == sorted(
            pt.memory_ratio for pt in points
        )

    def test_adjacent_user_count_pairing(self):
        # Sweeping near K = 33 pairs this package's 33-user point with the
        # 32-user power-of-two competitor row.
        points = tradeoff_sweep(33, ["NHSDP", "ZCW"], slack=8)
        zcw = [pt for pt in points if pt.scheme == "ZCW" and pt.params == {"m": 5, "w": 2}]
        ours = [
            pt
            for pt in points
            if pt.scheme == "NHSDP" and pt.params.get("v") == 33 and pt.params.get("n") == 3
        ]
        assert zcw and zcw[0].K == 32 and zcw[0].load == Fraction(5, 4)
        assert ours and ours[0].K == 33 and ours[0].load == 1

    def test_empty_scheme_list(self):
        assert tradeoff_sweep(85, []) == []

    def test_ratio_report_identity(self):
        point = evaluate_nhsdp_scheme(125, 3)
        report = ratio_report(point, point)
        assert report.f_ratio == 1 and report.r_ratio == 1
        assert report.memory_delta == 0

    def test_mn_versus_packing_at_125(self):
        ours = evaluate_nhsdp_scheme(125, 3)
        mn = evaluate_scheme("MN", {"K": 125, "t": 125 - 64})
        assert mn.memory_ratio == ours.memory_ratio
        report = ratio_report(mn, ours)
        assert report.r_ratio < 1
        assert report.f_ratio == F(binomial(125, 61), 125)
        assert report.f_ratio > 10**30

    def test_wcwl_versus_packing_at_729(self):
        ratios = {}
        for n in (1, 2, 3, 4):
            ours = evaluate_nhsdp_scheme(729, n)
            assert ours.memory_ratio <= F(4, 5)
            t = ours.K - int(ours.K * (1 - ours.memory_ratio))
            wcwl = evaluate_scheme("WCWL", {"K": 729, "t": t})
            assert wcwl.memory_ratio == ours.memory_ratio
            ratios[n] = ratio_report(wcwl, ours).r_ratio
        assert ratios[1] == 1  # both schemes degenerate to the same point
        assert all(ratios[n] > 1 for n in (2, 3, 4))

    def test_mn_subpacketization_ratio_monotone(self):
        # Reference pairs (K, n) with matching memory ratios.
        previous = 0
        for v, n in [(25, 2), (27, 3), (33, 3), (49, 2)]:
            ours = evaluate_nhsdp_scheme(v, n)
            t = v - int(v * (1 - ours.memory_ratio))
            mn = evaluate_scheme("MN", {"K": v, "t": t})
            ratio = ratio_report(mn, ours).f_ratio
            assert ratio > previous
            previous = ratio


@functools.cache
def _raw_cksm_points():
    """CKSM1/CKSM2 at every point of their grid, unpruned by K, in grid order."""
    points = []
    for scheme in ("CKSM1", "CKSM2"):
        for q in (2, 3, 4, 5, 7, 8, 9):
            for k in range(2, 10):
                for m in range(1, k):
                    for t in range(1, k - m + 1):
                        try:
                            points.append(evaluate_scheme(scheme, {"q": q, "k": k, "m": m, "t": t}))
                        except SchemeConstraintError:
                            pass
    return points


def _reference_sweep(K, names, slack):
    """The sweep as plain as it gets: evaluate every raw grid point, keep those
    within slack of K, sort stably by the exact (memory, load, scheme) key."""
    points = []
    for scheme in names:
        if scheme in ("CKSM1", "CKSM2"):
            raw = [pt for pt in _raw_cksm_points() if pt.scheme == scheme]
        elif scheme in ("MN", "WCWL", "MR"):
            raw = [evaluate_scheme(scheme, {"K": K, "t": t}) for t in range(1, K)]
        else:
            raw = []
            for params in schemes._default_grid(scheme, K, slack):
                try:
                    raw.append(evaluate_scheme(scheme, params))
                except SchemeConstraintError:
                    pass
        points += [pt for pt in raw if abs(pt.K - K) <= slack]
    points.sort(key=lambda pt: (pt.memory_ratio, pt.load, pt.scheme))
    return points


# sha256 of the `compare` tables over all 15 schemes at K = 1000 (3191 points).
COMPARE_1000_SHA256 = {
    "t.csv": "624fc66e75f9e2971019fcd545aa8692d3b0c53890145a526a712754ca5a1bce",
    "t.json": "45772f862b877b06d77a3afbbe3222082527986b81b22a7620dd70b4661d58c6",
}

# A Fraction with numerator and denominator up to 400 digits, so loads run
# past the float range and memory ratios get more bits than a float holds.
_big = st.integers(min_value=1, max_value=10**400)
_fractions = st.builds(Fraction, _big, _big)


@st.composite
def _fraction_pairs(draw):
    """(a, b): independent, equal in value (unreduced b), or within 1e-30."""
    a = draw(_fractions)
    kind = draw(st.sampled_from(["any", "equal", "near"]))
    if kind == "any":
        return a, draw(_fractions)
    if kind == "equal":
        scale = draw(st.integers(min_value=1, max_value=10**6))
        return a, Fraction(a.numerator * scale, a.denominator * scale)
    step = Fraction(1, 10**30 * draw(st.integers(min_value=1, max_value=10**9)))
    return a, max(a + draw(st.sampled_from([-1, 1])) * step, step)


def _ratio(x):
    """x folded into (0, 1] to stand for a memory ratio."""
    return x if x <= 1 else 1 / x


class TestSweepPruning:
    def test_out_of_range_grid_point_raises(self, monkeypatch):
        # A grid that yields an even modulus is a bug in the grid, not a
        # constraint violation, so the sweep does not drop the point.
        monkeypatch.setattr(schemes, "_default_grid", lambda scheme, K, slack: [{"v": 16, "n": 1}])
        with pytest.raises(ValueError, match="^modulus must be odd and >= 3, got 16$") as caught:
            tradeoff_sweep(15, ["NHSDP"], slack=1)
        assert caught.type is ValueError

    @pytest.mark.parametrize("slack", [0, 8])
    @pytest.mark.parametrize("K", [31, 85, 127, 156, 255, 364])
    def test_sweep_matches_unpruned_reference(self, K, slack):
        expected = _reference_sweep(K, SCHEME_NAMES, slack)
        assert tradeoff_sweep(K, SCHEME_NAMES, slack=slack) == expected
        assert {"CKSM1", "CKSM2"} & {pt.scheme for pt in expected}

    @pytest.mark.parametrize("name", sorted(COMPARE_1000_SHA256))
    def test_compare_1000_bytes_are_pinned(self, tmp_path, capsys, name):
        out = tmp_path / name
        code = main(["compare", "--schemes", ",".join(SCHEME_NAMES), "--K", "1000", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == "3191 scheme points within |K - 1000| <= 8\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == COMPARE_1000_SHA256[name]

    @given(st.lists(_fraction_pairs(), min_size=1, max_size=6))
    def test_float_first_key_orders_as_the_exact_key(self, pairs):
        values = [x for pair in pairs for x in pair]
        points = [
            SchemePoint(name, {}, 1, _ratio(m), load, 1, Fraction(1))
            for name in ("A", "B")
            for m, load in zip(values, reversed(values))
        ]
        order = sorted(range(len(points)), key=lambda i: schemes._sweep_key(points[i]))
        exact = sorted(
            range(len(points)),
            key=lambda i: (points[i].memory_ratio, points[i].load, points[i].scheme),
        )
        assert order == exact

    def test_k_over_the_bound_is_refused(self):
        top = schemes.SWEEP_MAX_K
        with pytest.raises(ValueError, match=f"K={top + 1} is over the limit of SWEEP_MAX_K"):
            tradeoff_sweep(top + 1, ["MN"], slack=0)
        assert tradeoff_sweep(top, ["XXGL"], slack=0)[0].K == top

    def test_slack_over_the_bound_is_refused_before_any_grid(self):
        # The bound is checked before any grid is walked, so an unknown
        # scheme name is never reached.
        with pytest.raises(ValueError, match="slack=1000000000 puts K \\+ slack"):
            tradeoff_sweep(1, ["BOGUS"], slack=10**9)
        top = schemes.SWEEP_MAX_K
        assert tradeoff_sweep(top - 8, ["XXGL"], slack=8)[0].K == top - 8


class TestTRows:
    """MN, WCWL and MR, walked along t by the sweep, against evaluate_scheme."""

    @pytest.mark.parametrize("K", [1, 2, 3, 1000])
    @pytest.mark.parametrize("scheme", ["MN", "WCWL", "MR"])
    def test_each_point_equals_evaluate_scheme(self, scheme, K):
        row = tradeoff_sweep(K, [scheme], slack=0)
        assert row == [evaluate_scheme(scheme, {"K": K, "t": t}) for t in range(1, K)]
        for pt in row:
            assert type(pt.memory_ratio) is type(pt.load) is type(pt.gain) is Fraction
            assert type(pt.K) is type(pt.subpacketization) is int

    def test_mn_walk_calls_no_binomial_per_t(self, monkeypatch):
        calls = []
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda n, k: calls.append((n, k)) or comb(n, k))
        row = tradeoff_sweep(1000, ["MN"], slack=0)
        assert len(row) == 999 and len(calls) <= 1
        walked = len(calls)
        # The spy sees the binomial that one evaluate_scheme asks for.
        assert evaluate_scheme("MN", {"K": 1000, "t": 500}) == row[499]
        assert calls[walked:] == [(1000, 500)]

    def test_mn_is_exact_at_the_top(self):
        top = schemes.SWEEP_MAX_K
        row = {pt.params["t"]: pt for pt in tradeoff_sweep(top, ["MN"], slack=0)}
        assert sorted(row) == list(range(1, top))
        for t in (1, top // 2, top - 1):
            assert row[t].subpacketization == math.comb(top, t)
            assert row[t] == evaluate_scheme("MN", {"K": top, "t": t})

    def test_mr_load_is_the_rational_ceiling(self):
        for K in range(2, 60):
            for t in range(1, K):
                denom = 2 + t // (K - t + 1) + (t - 1) // (K - t + 1)
                ceiling = math.ceil(Fraction(K * (K - t), denom))
                assert evaluate_scheme("MR", {"K": K, "t": t}).load == Fraction(ceiling, K)

    def test_repeated_scheme_is_refused_before_any_grid(self, monkeypatch):
        monkeypatch.setattr(schemes, "_t_row", None)  # any walk would raise TypeError
        with pytest.raises(ValueError, match="scheme 'MN' is named twice"):
            tradeoff_sweep(5, ["MN", "XXGL", "MN"], slack=0)
        with pytest.raises(ValueError, match="no default parameter grid for scheme 'BOGUS'"):
            tradeoff_sweep(5, ["MN", "BOGUS", "BOGUS"], slack=0)
