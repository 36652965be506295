import itertools
import json
import math
import os
import re
import timeit
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plrs import (
    COMPLETE,
    INCOMPLETE,
    UNKNOWN,
    CharPoly,
    CostCap,
    analytic,
    brown,
    char_poly_eval,
    check_completeness,
    families,
    compare_roots,
    denseness_scan,
    exact_threshold_search,
    lambda_threshold,
    principal_root,
    recheck,
    root_order_gap,
    triage,
    validate,
)
from plrs.analytic import least_root
from plrs.core import generate_terms
from helpers import (
    quadratic_root,
    reference_bisect,
    reference_denseness_scan,
    reference_gap_shrink,
    reference_lambda_root,
    reference_min_root_in_pls,
    reference_root,
    reference_sign,
    reference_terms,
    reference_threshold_search,
    reference_triage,
    replace,
    vectors_by_sum,
)

vectors = st.one_of(
    st.tuples(st.integers(1, 50)),
    st.builds(
        lambda first, middle, last: (first, *middle, last),
        st.integers(1, 50),
        st.lists(st.integers(0, 50), max_size=6),
        st.integers(1, 50),
    ),
)
tolerances = st.floats(1e-15, 1e-3).map(Fraction)


class TestCharPolyEval:
    @pytest.mark.parametrize(
        "coeffs,t,expected",
        [
            ([1, 1, 1, 0, 4], 2, 0),
            ([2], 2, 0),
            ([1, 3], 2, -1),
            ([1, 1], 2, 1),
        ],
    )
    def test_integer_points(self, coeffs, t, expected):
        assert char_poly_eval(validate(coeffs), t) == expected

    def test_rational_point_is_exact(self):
        val = char_poly_eval(validate([1, 3]), Fraction(5, 2))
        assert val == Fraction(25, 4) - Fraction(5, 2) - 3
        assert isinstance(val, Fraction)

    def test_rejects_negative_point(self):
        with pytest.raises(ValueError):
            char_poly_eval(validate([1, 1]), -1)

    def test_integer_sign_matches_fraction_eval(self):
        poly = CharPoly(validate([2, 0, 3]))
        for num, den in ((5, 2), (9, 4), (23, 8), (3, 1)):
            exact = poly.eval(Fraction(num, den))
            sign = (exact > 0) - (exact < 0)
            assert poly.sign_at(num, den) == sign

    @settings(deadline=None)
    @given(
        values=st.lists(st.integers(0, 2**70), min_size=1, max_size=70).filter(
            lambda v: v[0] and v[-1]),
        num=st.integers(0, 2**80),
        den=st.one_of(st.integers(0, 60).map(lambda e: 1 << e), st.integers(2, 2**50)),
    )
    def test_eval_matches_the_plain_polynomial(self, values, num, den):
        # At dyadic and other t, and at an int t, which gives an int back.
        poly, L = CharPoly(validate(values)), len(values)
        for t in (Fraction(num, den), num):
            plain = t**L - sum(ci * t ** (L - i) for i, ci in enumerate(values, start=1))
            got = poly.eval(t)
            assert got == plain and type(got) is type(t)


def _with_runs(first, runs):
    # [first] followed by each run of zeros and the nonzero entry that ends it.
    values = [first]
    for zeros, ci in runs:
        values += [0] * zeros + [ci]
    return tuple(values)


# Long runs of zeros (L up to about 1100), short runs past the dense cut-off
# of sign_at (L up to 49), or short vectors.
tap_vectors = st.one_of(
    st.builds(_with_runs, st.integers(1, 2**70),
              st.lists(st.tuples(st.integers(200, 550), st.integers(1, 2**70)),
                       min_size=1, max_size=2)),
    st.builds(_with_runs, st.integers(1, 50),
              st.lists(st.tuples(st.integers(0, 3), st.integers(1, 50)),
                       min_size=3, max_size=12)),
    vectors,
)
numerators = st.one_of(
    st.just(0), st.integers(-(2**48), -1), st.integers(1, 2**48), st.integers(2**60, 2**64)
)
denominators = st.one_of(st.integers(1, 2**40), st.integers(0, 40).map(lambda k: 1 << k))


@st.composite
def points(draw):
    # (num, den): anywhere, or within 2.5 of 0, where the sign of p changes.
    den = draw(denominators)
    near = st.floats(-2.5, 2.5).map(lambda x: round(x * den))
    return draw(st.one_of(numerators, near)), den


class TestTapKernel:
    """``sign_at`` over the nonzero taps against the dense evaluations."""

    def test_taps_skip_zeros(self):
        assert CharPoly(validate([3, 0, 0, 5, 0, 7])).taps == (1, 3, 3, 5, 2, 7)
        assert CharPoly(validate([4])).taps == (1, 4)

    @settings(deadline=None, max_examples=200)
    @given(tap_vectors, points())
    @example((1, *[0] * 1022, 2**512 + 1), (-(2**40) - 1, 2**40))  # odd power of a negative
    @example((2, 0, 0, 1), (-3, 7))
    @example((1, *[0] * 511, 5), (0, 3))
    def test_sign_matches_fraction_eval(self, values, point):
        (num, den), poly = point, CharPoly(validate(values))
        exact = poly.eval(Fraction(num, den))
        assert poly.sign_at(num, den) == (exact > 0) - (exact < 0)

    @pytest.mark.parametrize("L", [513, 1024])
    def test_long_roots_match_reference(self, L):
        lam = lambda_threshold(L)
        assert (lam.root.lo, lam.root.hi) == reference_root(lam.root.poly.coefficients,
                                                            analytic.DEFAULT_TOL)
        c = validate([1] + [0] * (L - 2) + [(1 << (L // 2)) + 2 * L + 1])
        tol = Fraction(1, 10**15)
        b = principal_root(c, tol)
        assert (b.lo, b.hi) == reference_root(c, tol)

    @pytest.mark.parametrize("N", [2**512 + 2049, 2**1000 + 7], ids=["2^512+2049", "2^1000+7"])
    def test_one_dominant_tap_seeds_in_a_few_steps(self, monkeypatch, N):
        # Newton starts at N^(1/L), below the root; from the lower end of
        # the unit cell it gained a factor of about 1 + 1/L per step, ran
        # out of steps, and left all 40 levels to bisection (44 signs).
        c = validate([1] + [0] * 1022 + [N])
        calls = []
        sign_at = CharPoly.sign_at

        def counted(self, *args):
            calls.append(args)
            return sign_at(self, *args)

        monkeypatch.setattr(CharPoly, "sign_at", counted)
        b = principal_root(c)
        assert len(calls) <= 6
        monkeypatch.undo()
        assert (b.lo, b.hi) == reference_root(c, analytic.DEFAULT_TOL)

    @pytest.mark.parametrize("N", [300, 262401])
    def test_long_triage_costs_less_than_two_dense_evaluations(self, monkeypatch, N):
        # Triage (p(2), an uncached threshold root and one sign at it) and a
        # 40-bit root of [1, 0^1022, N] take about half as long as one sign
        # evaluation over all L coefficients at a 40-bit point; evaluating
        # over all coefficients, they took about seven times as long.  The
        # budget is measured in this process, so it scales with the machine.
        c = validate([1] + [0] * 1022 + [N])
        poly, num = CharPoly(c), (3 << 40) // 2 + 12345

        def run():
            monkeypatch.setattr(analytic, "_lambda_cache", {})
            triage(c)
            principal_root(c)

        dense = min(timeit.repeat(lambda: reference_sign(poly, num, 1 << 40), number=1, repeat=5))
        cost = min(timeit.repeat(run, number=1, repeat=5))
        assert cost < 2 * dense


class TestPrincipalRoot:
    def test_bracket_is_sign_certified(self):
        for coeffs in ([1, 1], [2, 2], [1, 0, 0, 6], [3, 0, 1], [1, 1, 0, 3]):
            b = principal_root(validate(coeffs), Fraction(1, 10**15))
            assert b.exact_root is None
            assert b.poly.eval(b.lo) < 0 < b.poly.eval(b.hi)
            assert b.width <= Fraction(1, 10**15)

    @pytest.mark.parametrize(
        "coeffs,b,c",
        [([2, 1], 2, 1), ([2, 2], 2, 2), ([1, 3], 1, 3), ([3, 1], 3, 1)],
    )
    def test_quadratic_roots_match_closed_form(self, coeffs, b, c):
        bracket = principal_root(validate(coeffs), Fraction(1, 10**12))
        assert abs(bracket.approx - float(quadratic_root(b, c))) < 1e-9

    @pytest.mark.parametrize("L", range(2, 11))
    def test_powers_of_two_vector_has_exact_root_two(self, L):
        b = principal_root(validate([1] * (L - 1) + [2]))
        assert b.exact_root == 2

    def test_trivial_vectors(self):
        assert principal_root(validate([1])).exact_root == 1
        assert principal_root(validate([2])).exact_root == 2
        assert principal_root(validate([7])).exact_root == 7

    def test_refined_narrows_without_losing_the_root(self):
        b = principal_root(validate([1, 3]), Fraction(1, 100))
        fine = b.refined(Fraction(1, 10**9))
        assert b.lo <= fine.lo < fine.hi <= b.hi
        assert fine.width <= Fraction(1, 10**9)

    def test_growth_rate_converges_to_bracket(self):
        for coeffs in ([1, 1], [1, 3], [2, 1], [1, 0, 3], [1, 1, 2], [3, 1]):
            c = validate(coeffs)
            t = generate_terms(c, 201)
            ratio = t.term(201) / t.term(200)
            root = principal_root(c, Fraction(1, 10**9)).approx
            assert abs(ratio - root) / root < 1e-6, coeffs


class TestCompareRoots:
    def test_orders_distinct_roots(self):
        a = principal_root(validate([1, 1]))
        b = principal_root(validate([1, 3]))
        assert compare_roots(a, b) == -1
        assert compare_roots(b, a) == 1

    def test_detects_equal_exact_roots(self):
        a = principal_root(validate([1, 0, 4]))  # root exactly 2
        b = principal_root(validate([1, 1, 2]))  # root exactly 2
        assert a.exact_root == b.exact_root == 2
        assert compare_roots(a, b) == 0

    def test_same_polynomial_compares_equal(self):
        a = principal_root(validate([2, 2]), Fraction(1, 10**6))
        b = principal_root(validate([2, 2]), Fraction(1, 10**8))
        assert compare_roots(a, b) == 0

    @settings(deadline=None)
    @given(vectors, tolerances, st.integers(0, 6))
    @example((1, 0, 4), Fraction(1, 10), 3)  # the exact root 2: every bracket is exact
    def test_one_polynomial_compares_equal_without_evaluation(self, values, tol, extra):
        # Brackets of one polynomial at different depths: its unit cell, the
        # cell of tol and a finer one.  It has one positive root, so they are
        # equal as they stand.
        c = validate(values)
        unit = analytic._integer_bracket(CharPoly(c))
        cell = principal_root(c, tol)
        finer = cell._at(cell.bits + extra)

        def no_sign(*args):
            raise AssertionError("sign_at called")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CharPoly, "sign_at", no_sign)
            for a, b in itertools.permutations((unit, cell, finer), 2):
                assert compare_roots(a, b) == 0
                s, a_out, b_out = analytic._separate(a, b)
                assert (s, a_out is a, b_out is b) == (0, True, True)

    def test_mixed_exact_and_bracket(self):
        two = principal_root(validate([2]))
        golden = principal_root(validate([1, 1]))
        assert compare_roots(two, golden) == 1
        assert compare_roots(golden, two) == -1


class TestLambdaThreshold:
    def test_length_three_is_exactly_two(self):
        lam = lambda_threshold(3)
        assert lam.max_complete_n == 3
        assert lam.root.exact_root == 2

    def test_length_two_value(self):
        lam = lambda_threshold(2)
        assert lam.max_complete_n == 2
        # root of x^2 - x - 3
        assert abs(lam.root.approx - float(quadratic_root(1, 3))) < 1e-9

    def test_length_four_sits_below_two(self):
        lam = lambda_threshold(4)
        assert lam.max_complete_n == 5
        assert lam.root.poly.sign_at(2) > 0  # p(2) = 2 > 0 forces root < 2
        assert lam.root.hi < 2

    def test_rejects_length_one(self):
        with pytest.raises(ValueError):
            lambda_threshold(1)

    @pytest.mark.parametrize("L", [*range(2, 65), 100, 257, 448, 737, 1024])
    def test_brackets_are_principal_roots_in_any_order(self, monkeypatch, L):
        # One cell per length serves every tol: a coarser one is a shift of
        # it, a finer one is bisected inside it.
        tols = [analytic.DEFAULT_TOL, Fraction(1, 10), Fraction(1, 10**30), Fraction(1, 3)]
        expected = [reference_lambda_root(L, tol) for tol in tols]
        for order in (tols, tols[::-1]):
            monkeypatch.setattr(analytic, "_lambda_cache", {})
            for tol in order:
                lam = lambda_threshold(L, tol)
                assert lam.root == expected[tols.index(tol)]
                assert lam.max_complete_n == -(-L * (L + 1) // 4)

    @pytest.mark.parametrize("L", range(2, 25))
    def test_strictly_decreasing_in_length(self, L):
        lam = lambda_threshold(L).root
        nxt = lambda_threshold(L + 1).root
        assert compare_roots(nxt, lam) == -1

    @pytest.mark.parametrize("L", range(2, 25))
    def test_stays_above_rational_lower_bound(self, L):
        # p_L(1 + (L+2)/(L^2+L+4)) <= 0 certifies lambda_L - 1 >= that bound.
        lam = lambda_threshold(L)
        point = 1 + Fraction(L + 2, L * L + L + 4)
        assert lam.root.poly.eval(point) <= 0

    def test_thresholds_approach_one(self):
        # Exact sign evaluation finds a length with lambda_L < 1.1.
        point = Fraction(11, 10)
        found = None
        for L in range(2, 200):
            n_l = (L * (L + 1) + 3) // 4
            poly = CharPoly(analytic.sparse_vector(L, n_l + 1))
            if poly.eval(point) > 0:
                found = L
                break
        assert found is not None
        assert lambda_threshold(found).root.hi < Fraction(11, 10)


@st.composite
def sparse_triage_vectors(draw):
    """[1, 0^(L-2), N] with N = n_L (the largest complete N), n_L + 1
    (lambda_L's own vector) or any N up to 2^L."""
    L = draw(st.integers(2, 700))
    n_l = -(-L * (L + 1) // 4)
    N = draw(st.one_of(st.sampled_from([n_l, n_l + 1]), st.integers(1, 2**L)))
    return (1, *[0] * (L - 2), N)


short_triage_vectors = st.builds(
    lambda c1, mid, cL: (c1, *mid, cL),
    st.integers(1, 3),
    st.lists(st.sampled_from([0, 0, 0, 1, 2, 5]), max_size=10),
    st.integers(1, 60),
)


class TestTriage:
    # triage settles on the coarsest grid what the sign at the lower end of
    # lambda_L's 40-bit cell decides; the reference reads that sign alone.
    @settings(deadline=None, max_examples=150)
    @example((1, *[0] * 298, 22575), True)
    @example((1, *[0] * 298, 22576), False)
    @example((1, 0, 4), True)  # lambda_3 = 2 is an integer
    @given(st.one_of(short_triage_vectors, sparse_triage_vectors()), st.booleans())
    def test_agrees_with_the_sign_at_the_lower_end(self, values, uncached):
        c = validate(values)
        if uncached:
            analytic._lambda_cache.clear()
        assert triage(c).certificate.rule == reference_triage(c)

    def test_far_roots_stay_shallow(self, monkeypatch):
        # Roots far from lambda_L are placed on a coarse grid: no sign of
        # either polynomial (each walks its taps at this length) is taken
        # at depth 40, and lambda_L's cell is left coarse.  lambda_L's own
        # vector needs depth 40.
        L = 1024
        monkeypatch.setattr(analytic, "_lambda_cache", {})
        dens = []
        taps_sign = analytic._taps_sign

        def counted(taps, num, den):
            dens.append(den)
            return taps_sign(taps, num, den)

        monkeypatch.setattr(analytic, "_taps_sign", counted)
        for N in (2**600 + 1, 2**1000 + 7, 3):
            assert triage(validate([1] + [0] * (L - 2) + [N])).kind in (UNKNOWN, COMPLETE)
        assert 1 << 40 not in dens
        assert analytic._lambda_cache[L].root.bits < 40
        lam = analytic.sparse_vector(L, -(-L * (L + 1) // 4) + 1)
        dens.clear()
        assert triage(lam).kind == UNKNOWN
        assert 1 << 40 in dens

    def test_fast_growth_is_incomplete(self):
        v = triage(validate([1, 3]))
        assert v.kind == INCOMPLETE
        assert not v.conjectural
        assert v.certificate.tag() == "root:p2_negative"

    def test_root_two_lands_in_band(self):
        v = triage(validate([1, 1, 1, 0, 4]))
        assert v.kind == UNKNOWN
        assert v.certificate.tag() == "root:indeterminate"
        assert "indeterminate" in v.note

    def test_an_indeterminate_report_carries_its_note(self):
        v = triage(validate([1, 0, 0, 0, 0, 0, 15]))
        assert v.to_json_dict()["note"] == "principal root in indeterminate region [lambda_L, 2]"

    def test_slow_growth_is_conjecturally_complete(self):
        v = triage(validate([1, 1]))
        assert v.kind == COMPLETE
        assert v.conjectural
        assert v.certificate.tag() == "root:below_lambda"

    def test_rejects_length_one(self):
        with pytest.raises(ValueError):
            triage(validate([2]))


@pytest.mark.parametrize("call,message", [
    (lambda: principal_root(validate([1, 1]), 0), "tolerance must be positive, got 0"),
    (lambda: analytic.min_root_in_pls(0, 1), "need L >= 1 and S >= 1, got L=0, S=1"),
    (lambda: analytic.least_incomplete_root(1, 5, analytic.DEFAULT_TOL),
     "need L >= 2 and cap >= 2, got L=1, cap=5"),
    (lambda: exact_threshold_search(1), "need L >= 2, got 1"),
    (lambda: denseness_scan(1), "need L >= 2, got 1"),
], ids=["principal_root", "min_root_in_pls", "least_incomplete_root",
        "exact_threshold_search", "denseness_scan"])
def test_rejects_inputs_below_the_least(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestMinRootInPls:
    def test_length_two_sum_four(self):
        c, bracket = reference_min_root_in_pls(2, 3)
        assert c == validate([1, 3])
        assert abs(bracket.approx - float(quadratic_root(1, 3))) < 1e-9

    def test_length_three_sum_three(self):
        c, _ = reference_min_root_in_pls(3, 2)
        assert c == validate([1, 0, 2])

    def test_smallest_case(self):
        c, _ = reference_min_root_in_pls(2, 1)
        assert c == validate([1, 1])

    def test_larger_case_verifies(self):
        c, _ = reference_min_root_in_pls(4, 5)
        assert c == validate([1, 0, 0, 5])

    @pytest.mark.parametrize("L,S", [(1, 4), (2, 5), (3, 6), (4, 5), (5, 3)])
    def test_verify_offers_the_sum_class_in_order(self, monkeypatch, L, S):
        offered = []

        def recorded(vectors, tol):
            offered.extend(vectors)
            return least_root(offered, tol)

        monkeypatch.setattr(analytic, "least_root", recorded)
        reference_min_root_in_pls(L, S)
        box = itertools.product(range(S + 2), repeat=L)
        expected = [v for v in box if v[0] and v[-1] and sum(v) == S + 1]
        assert [c.values for c in offered] == expected


class TestExactThresholdSearch:
    def test_length_two_has_empty_frontier(self):
        r = exact_threshold_search(2)
        assert r.frontier_coefficients is None
        assert r.agrees_with_lambda
        assert not r.undecided

    def test_length_three_has_empty_frontier(self):
        # lambda_3 = 2 exactly: no incomplete root strictly below 2.
        r = exact_threshold_search(3)
        assert r.frontier_coefficients is None
        assert r.agrees_with_lambda

    def test_length_four_frontier_is_conjectured_vector(self):
        r = exact_threshold_search(4)
        assert r.frontier_coefficients == validate([1, 0, 0, 6])
        assert r.agrees_with_lambda
        assert compare_roots(r.frontier, r.lam.root) == 0
        assert not r.undecided

    @pytest.mark.parametrize("L", range(2, 6))
    def test_gap_engine_decides_every_candidate(self, L):
        assert exact_threshold_search(L).undecided == ()

    @pytest.mark.parametrize("L", range(2, 6))
    @pytest.mark.parametrize("tol", [Fraction(1, 10**12), Fraction(1, 10), Fraction(1, 10**30)])
    def test_matches_the_box_search(self, L, tol):
        # Everything but `candidates`, which counts prefixes here and
        # vectors of the box there.
        r, expected = exact_threshold_search(L, tol), reference_threshold_search(L, tol)
        assert r.candidates < expected.candidates
        assert replace(r, candidates=expected.candidates) == expected

    @pytest.mark.parametrize("L", [6, 7, 8])
    def test_finds_the_conjectured_vector_past_the_box(self, L):
        r = exact_threshold_search(L)
        assert r.frontier_coefficients == analytic.sparse_vector(L, r.lam.max_complete_n + 1)
        assert r.agrees_with_lambda
        assert r.undecided == ()

    def test_a_root_equal_to_lambda_is_not_pruned(self, monkeypatch):
        # With lambda moved down to the root of [1, 0, 0, 1], the least of
        # length 4, only the prefix (1, 0, 0) ties it, and it is searched.
        tied = analytic.LambdaThreshold(4, 5, principal_root(validate([1, 0, 0, 1])))
        monkeypatch.setattr(analytic, "lambda_threshold", lambda L, tol: tied)
        r = exact_threshold_search(4)
        assert r.candidates == 1
        assert r.frontier_coefficients == validate([1, 0, 0, 6])

    def test_a_prefix_the_engine_leaves_open_is_listed(self, monkeypatch):
        # The read of prefix (1, 0, 2) at L = 4 leaves c_L = 3 open, the one
        # engine run of the search; made unknown, it lists the prefix, which
        # then offers least_root nothing.
        check, least, offered = brown.check_completeness, analytic.least_root, []

        def unsure(c, *args, **kwargs):
            if c == validate([1, 0, 2, 3]):
                return brown.Verdict(c, UNKNOWN, brown.horizon_exhausted(1), False, 1)
            return check(c, *args, **kwargs)

        def recorded(vectors, tol):
            offered.extend(vectors)
            return least(offered, tol)

        monkeypatch.setattr(brown, "check_completeness", unsure)
        monkeypatch.setattr(analytic, "least_root", recorded)
        monkeypatch.setattr(families, "max_last", None)  # the audit reads each prefix itself
        r = exact_threshold_search(4)
        assert r.undecided == ((1, 0, 2),)
        assert offered and all(c.values[:-1] != (1, 0, 2) for c in offered)
        assert r.frontier_coefficients == least(offered)[0] == validate([1, 0, 0, 6])
        assert r.agrees_with_lambda

    # Full prefixes P with L <= 5 and c_i <= 4, and tails of completions.
    prefixes = st.builds(lambda first, rest: (first, *rest),
                         st.integers(1, 4), st.lists(st.integers(0, 4), max_size=3))

    def test_the_per_prefix_step_is_a_reduction_of_the_level_step(self):
        # brown._first_incomplete reads no level, builds no vector and runs
        # no engine itself: brown._settle_level does all three.
        names = set(brown._first_incomplete.__code__.co_names)
        assert "_settle_level" in names
        assert not names & {"_read_level", "Coefficients", "check_completeness"}

    def test_an_engine_failure_inside_the_pass_interval_is_the_first(self, monkeypatch):
        # Prefix (1, 0, 2) passes B_1..B_7 for c_L in 1..3, the strict
        # window proves 1 and 2, and 4 is the first failure.  An engine
        # failure of the open c_L = 3 past 2L-1, a 2L-1 counterexample,
        # must be reported as the first incomplete c_L, not counted.
        check = brown.check_completeness
        head = [*reference_terms([1, 0, 2, 0], 4)]
        assert brown._first_incomplete([1, 0, 2], head, math.inf) == (4, 3, [])

        def failing(c, *args, **kwargs):
            if c == validate([1, 0, 2, 3]):
                return brown.Verdict(c, INCOMPLETE, brown.failure(9, -1), False, 9)
            return check(c, *args, **kwargs)

        monkeypatch.setattr(brown, "check_completeness", failing)
        assert brown._first_incomplete([1, 0, 2], head, math.inf) == (3, 2, [])

    def test_open_members_run_at_the_given_horizon(self):
        # [1, 1, N]: B_4 fails from N = 3, and the strict window proves none
        # of 1 and 2, whose runs at horizon 5 stop short of any window.
        assert brown._first_incomplete([1, 1], [1, 2, 4], math.inf, 5) == (
            3, 0, [validate([1, 1, 1]), validate([1, 1, 2])])
        # L = 1 is bounded by B_2 = 2 - N, and [1] and [2] are complete.
        assert brown._first_incomplete([], [1], math.inf) == (3, 2, [])

    @settings(deadline=None, max_examples=60)
    @given(prefixes)
    def test_least_incomplete_completion_is_max_last_plus_one(self, prefix):
        m = families.max_last(prefix)
        assume(m is not None)
        # The audit's per-prefix step, with no bound on c_L, finds m + 1 too.
        head = [*reference_terms([*prefix, 0], len(prefix) + 1)]
        assert brown._first_incomplete(prefix, head, math.inf)[0] == m + 1
        least = principal_root(validate([*prefix, m + 1]))
        kinds = {n: check_completeness(validate([*prefix, n])).kind for n in range(1, m + 7)}
        assert kinds[m + 1] == INCOMPLETE
        for n, kind in kinds.items():
            if kind == INCOMPLETE:
                assert n > m
                assert compare_roots(least, principal_root(validate([*prefix, n]))) <= 0

    @settings(deadline=None, max_examples=60)
    @given(prefixes, st.lists(st.integers(0, 4), max_size=3), st.integers(1, 4))
    def test_zeros_and_a_one_complete_with_the_least_root(self, prefix, middle, last):
        sparse = validate([*prefix, *[0] * len(middle), 1])
        drawn = validate([*prefix, *middle, last])
        assert compare_roots(principal_root(sparse), principal_root(drawn)) <= 0


class TestLeastRoot:
    def test_equal_roots_keep_the_earlier_vector(self):
        # x^4 - x^3 - x - 1 = (x^2 - x - 1)(x^2 + 1): both roots are phi.
        a, b = validate([1, 0, 1, 1]), validate([1, 1])
        assert least_root([a, b])[0] == a
        assert least_root([b, a])[0] == b
        assert compare_roots(least_root([a])[1], least_root([b])[1]) == 0

    def test_picks_the_least_root(self):
        vs = [validate(v) for v in ([3], [1, 3], [1, 1], [2, 1])]
        c, bracket = least_root(vs)
        assert c == validate([1, 1])
        assert Fraction(1618033, 10**6) < bracket.lo < bracket.hi < Fraction(1618034, 10**6)

    def test_no_vectors(self):
        assert least_root([]) is None

    @settings(deadline=None)
    @given(
        st.lists(st.one_of(vectors, st.sampled_from(
            [(1, 0, 4), (1, 1, 2), (2,), (1, 1), (1, 0, 1, 1), (1, 0, 0, 6)])), max_size=8),
        tolerances,
    )
    @example([(1, 0, 4), (1, 1, 2), (2,), (1, 0, 4)], Fraction(1, 10**12))  # root 2 thrice
    @example([(1, 1), (3,), (1, 0, 1, 1), (1, 1)], Fraction(1, 10**15))  # phi thrice
    def test_matches_refining_every_root(self, drawn, tol):
        # The reference refines every root to tol, then keeps the first minimum.
        cs = [validate(v) for v in drawn]
        expected = None
        for c in cs:
            bracket = principal_root(c, tol)
            if expected is None or compare_roots(bracket, expected[1]) < 0:
                expected = c, bracket
        assert least_root(cs, tol) == expected

    @pytest.mark.parametrize("order", [1, -1])
    def test_winner_refined_past_tol_is_widened_back(self, order):
        # phi and the root of [1, 1, 0^20, 1] differ by about 2e-5, so the
        # comparison refines phi's cell far past a tol of 1/2.
        phi = validate([1, 1])
        cs = [phi, validate([1, 1, *[0] * 20, 1])][::order]
        tol = Fraction(1, 2)
        assert least_root(cs, tol) == (phi, principal_root(phi, tol))

    def test_separate_returns_the_refined_cells(self):
        a = analytic._integer_bracket(CharPoly(validate([1, 1])))
        b = analytic._integer_bracket(CharPoly(validate([1, 1, *[0] * 20, 1])))
        s, a2, b2 = analytic._separate(a, b)
        assert s == compare_roots(a, b) == -1
        assert a2.bits > 10 and a2.hi <= b2.lo
        assert a2 == a._at(a2.bits) and b2 == b._at(b2.bits)

    def test_refines_only_the_winner(self, monkeypatch):
        # Seeds below depth 0 (den > 1) refine a cell past its unit cell.
        dens = []
        seed_cell = analytic._seed_cell

        def recorded(poly, lo, hi, den, w):
            dens.append(den)
            return seed_cell(poly, lo, hi, den, w)

        monkeypatch.setattr(analytic, "_seed_cell", recorded)
        c, bracket = least_root(vectors_by_sum(4, 10))
        assert len([den for den in dens if den > 1]) <= 1
        assert (c, bracket) == (validate([1, 0, 0, 1]), principal_root(c))


class TestRootOrderGap:
    @pytest.mark.parametrize("L,k", [(3, 3), (4, 5), (10, 30), (3, 10**30)])
    def test_gaps_shrink(self, L, k):
        gap1, gap2 = root_order_gap(L, k)
        assert gap1 > gap2 > 0

    def test_equal_gaps_are_not_certified_as_shrinking(self, monkeypatch):
        # The exact roots 1, 2, 3 have equal gaps; deeper grids change
        # nothing, so _sparse_decide gives up after 200 depths.
        depths = []

        def exact_roots(L, ks, d):
            depths.append(d)
            return [1 << d, 2 << d, 3 << d], [1 << d, 2 << d, 3 << d]

        monkeypatch.setattr(analytic, "_sparse_roots", exact_roots)
        assert analytic._sparse_decide(5, 1, 3, 7, analytic._shrinks) is None
        assert depths == list(range(7, 407, 2))
        with pytest.raises(RuntimeError):
            root_order_gap(5, 1)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(3, 13), st.integers(1, 10**6),
           st.sampled_from([Fraction(1, 10), Fraction(1, 10**12), Fraction(1, 2**60), Fraction(4)]))
    @example(3, 1, Fraction(4))
    @example(13, 10**6, Fraction(1, 2**60))
    def test_matches_refined_principal_root_brackets(self, L, k, tol):
        # Three principal_root brackets, refined two levels at a time until
        # their ends certify the shrinking gap, give the same midpoints.
        brackets = [principal_root(analytic.sparse_vector(L, t), tol) for t in (k, k + 1, k + 2)]
        q, r, s = ((b.lo + b.hi) / 2 for b in reference_gap_shrink(*brackets))
        assert root_order_gap(L, k, tol) == (r - q, s - r)

    @pytest.mark.parametrize("L,k", [(5, 10**400), (7, 2**1100)], ids=["5-10^400", "7-2^1100"])
    def test_huge_k_starts_where_the_cells_can_certify(self, monkeypatch, L, k):
        # The second difference of the roots is about 2^-2330 and 2^-2020
        # here, far past 400 levels below the tol's depth; the search starts
        # at the first depth whose cells could certify it.
        depths = []
        sparse_roots = analytic._sparse_roots

        def counted(L, ks, d):
            depths.append(d)
            return sparse_roots(L, ks, d)

        monkeypatch.setattr(analytic, "_sparse_roots", counted)
        gap1, gap2 = root_order_gap(L, k)
        assert gap1 > gap2 > 0
        assert len(depths) <= 8

    def test_matches_pinned_values(self):
        # (L, k, tol, r - q, s - r) as returned when every search started at
        # the tol's depth; a skipped depth can only have answered None.
        with open(os.path.join(os.path.dirname(__file__), "data",
                               "root_order_gap_pins.json")) as fh:
            pins = json.load(fh)
        assert len(pins) == 180
        for L, k, tol, gap1, gap2 in pins:
            assert root_order_gap(L, k, Fraction(tol)) == (Fraction(gap1), Fraction(gap2))

    def test_builds_no_polynomial(self, monkeypatch):
        # The floor of the first root, which picks the first depth, is read
        # from its depth-0 cell, as every root here is.
        def raising(*args):
            raise AssertionError("root_order_gap read a polynomial")

        monkeypatch.setattr(analytic.CharPoly, "sign_at", raising)
        monkeypatch.setattr(analytic, "_integer_bracket", raising)
        for L, k in ((3, 3), (10, 30), (5, 10**400)):
            gap1, gap2 = root_order_gap(L, k)
            assert gap1 > gap2 > 0

    def test_rejects_small_parameters(self):
        with pytest.raises(ValueError):
            root_order_gap(2, 3)
        with pytest.raises(ValueError):
            root_order_gap(3, 0)


class TestDensenessScan:
    def test_length_eight_sweep(self):
        r = denseness_scan(8)
        assert r.k_min == 19 and r.k_max == 128
        assert r.increasing_certified
        assert r.gaps_decreasing_certified
        assert r.terminal_root_exact_two
        assert r.covered[1] == 2.0

    def test_epsilon_report(self):
        # The max gap at L=8 is ~0.0087.
        assert denseness_scan(8, epsilon=0.005).epsilon_met is False
        assert denseness_scan(8, epsilon=0.01).epsilon_met is True

    def test_budget_cap(self):
        with pytest.raises(CostCap):
            denseness_scan(18, budget=1 << 10)

    @pytest.mark.parametrize("L", [6, 9, 11])
    @pytest.mark.parametrize("tol", [Fraction(1, 10), Fraction(1, 10**12)])
    def test_epsilon_is_decided_by_exact_gaps(self, L, tol):
        # The largest gap is the first; epsilon just above or below it is
        # decided the same way at any tol.
        k_min = analytic.lambda_threshold(L).max_complete_n + 1
        (q_lo, _), (_, r_hi) = (reference_root(analytic.sparse_vector(L, k), Fraction(1, 10**30))
                                for k in (k_min, k_min + 1))
        gap = float(r_hi - q_lo)
        for epsilon, met in ((gap * (1 + 1e-9), True), (gap * (1 - 1e-9), False)):
            r = denseness_scan(L, epsilon=epsilon, tol=tol)
            assert r.max_gap_at == k_min
            assert r.epsilon_met is met

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            denseness_scan(5, epsilon=float("nan"))
        assert denseness_scan(5, epsilon=float("inf")).epsilon_met is True

    @pytest.mark.parametrize("tol", [Fraction(1, 10), Fraction(1, 10**12)])
    @pytest.mark.parametrize("L", range(2, 12))
    def test_roots_are_principal_roots(self, L, tol):
        # Each root is proposed next to the previous one and still ends in
        # the cell principal_root isolates, at the same depth, and the exact
        # root 2 is a point; k = 1 starts below the scanned range.
        ks = range(1, 2 ** (L - 1) + 1)
        expected = [principal_root(analytic.sparse_vector(L, k), tol) for k in ks]
        d = analytic._depth(tol)
        los, his = analytic._sparse_roots(L, ks, d)
        assert len(los) == len(his) == len(ks)
        for b, lo, hi in zip(expected, los, his):
            if b.exact_root is None:
                assert (lo, hi, d) == (b.num, b.num + 1, b.bits)
            else:
                assert (lo, hi, b.bits) == (b.exact_root << d, b.exact_root << d, 0)
        assert expected[-1].exact_root == 2
        r = denseness_scan(L, tol=tol)
        assert r.roots == tuple((k, expected[k - 1].approx) for k in range(r.k_min, r.k_max + 1))

    @settings(deadline=None, max_examples=20)
    @given(
        st.integers(2, 12),
        st.none() | st.floats(1e-6, 0.1),
        st.one_of(
            st.integers(1, 8).map(Fraction),  # one unit cell holds every root below 2
            st.just(Fraction(1, 10)),
            st.integers(1, 80).map(lambda e: Fraction(1, 2**e)),
            st.integers(1, 25).map(lambda e: Fraction(1, 10**e)),
        ),
    )
    @example(11, 0.01, Fraction(1, 10))
    @example(9, None, Fraction(4))
    @example(9, 0.5, Fraction(4))
    def test_matches_reference_sweep(self, L, epsilon, tol):
        # The reference refines principal_root brackets: compare_roots on
        # each pair, and its own shrink and epsilon loops; the sweep reads
        # cells of a grid at least 2^-40 fine and shows them at tol.
        assert denseness_scan(L, epsilon, tol) == reference_denseness_scan(L, epsilon, tol)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(2, 9), st.integers(0, 12), st.integers(0, 40), st.integers(1, 300))
    def test_deeper_cells_shifted_back_are_the_cells(self, L, d, s, k):
        # A cell at depth d + s lies inside one cell at depth d, the one
        # that holds the root there; an exact root stays a point.
        ks = range(k, k + 3)
        fine, coarse = analytic._sparse_roots(L, ks, d + s), analytic._sparse_roots(L, ks, d)
        shifted = ([lo >> s for lo in fine[0]],
                   [(lo >> s) + (lo != hi) for lo, hi in zip(*fine)])
        assert shifted == coarse

    @pytest.mark.parametrize("L", [8, 12])
    def test_open_pairs_and_triples_are_decided_deeper(self, monkeypatch, L):
        # With the certification grid as coarse as tol 1/10, the grid
        # leaves pairs and triples open, and _sparse_decide certifies them.
        tol = Fraction(1, 10)
        expected = denseness_scan(L, 0.01, tol)
        calls = []
        decide = analytic._sparse_decide

        def counted(L, k, count, depth, test):
            calls.append((count, depth))
            return decide(L, k, count, depth, test)

        monkeypatch.setattr(analytic, "DEFAULT_TOL", tol)
        monkeypatch.setattr(analytic, "_sparse_decide", counted)
        r = denseness_scan(L, 0.01, tol)
        assert r == expected
        assert r.increasing_certified and r.gaps_decreasing_certified
        d = analytic._depth(tol)
        assert (2, d + 2) in calls and (3, d + 2) in calls

    @pytest.mark.parametrize("epsilon", [None, 0.01])
    @pytest.mark.parametrize("tol", [Fraction(4), Fraction(1, 10), Fraction(1, 2**14),
                                     analytic.DEFAULT_TOL, Fraction(1, 10**20)])
    def test_no_brackets_at_any_tol(self, monkeypatch, tol, epsilon):
        # Every root is a grid cell at every tol, and the grid of depth 40
        # separates every pair and triple at L = 8: no sign evaluation,
        # root comparison, principal root or deeper grid.
        calls = []
        for name in ("compare_roots", "principal_root", "_sparse_decide"):
            def counted(*args, name=name, fn=getattr(analytic, name)):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(analytic, name, counted)
        monkeypatch.setattr(CharPoly, "sign_at", lambda *args: calls.append("sign_at"))
        r = denseness_scan(8, epsilon, tol)
        assert r.increasing_certified and r.gaps_decreasing_certified
        assert calls == ["_sparse_decide"] * (epsilon is not None)  # the epsilon pair

    def test_closed_form_evaluations_do_not_grow_at_a_coarse_tol(self, monkeypatch):
        # At tol 1/10 the sweep certifies on the default tol's grid, so it
        # isolates the roots there as the default does, plus the two roots
        # of its one epsilon pair.
        calls = []
        sparse_roots = analytic._sparse_roots

        def counted(L, ks, d):
            calls.append((ks, d))
            return sparse_roots(L, ks, d)

        def cost(run):
            calls.clear()
            run()
            return calls[:]

        monkeypatch.setattr(analytic, "_sparse_roots", counted)
        k_min = lambda_threshold(12).max_complete_n + 1
        default = cost(lambda: denseness_scan(12))
        assert default == [(range(k_min, 2**11 + 1), 40)]
        coarse = cost(lambda: denseness_scan(12, 0.01, Fraction(1, 10)))
        assert coarse == default + [(range(k_min, k_min + 2), 40)]

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 16),
           st.integers(1, 1500).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)),
           st.integers(0, 400), st.integers(1, 12))
    @example(5, 10**400, 400, 3)
    @example(7, 2**1100, 400, 3)
    @example(12, 257, 0, 4)
    @example(2, 1, 40, 4)
    @example(2, 10**300, 400, 4)
    @example(4, 5**3 * 4 - 1, 40, 4)  # the exact root 5 second
    @example(3, 3**2 * 2 - 2, 0, 4)  # the exact root 3 third, on the unit grid
    @example(16, 2**15 - 1, 7, 2)  # the exact root 2
    @example(12, 2**11 - 11, 40, 12)  # twelve roots, the last the exact root 2
    @example(12, 2**11 - 11, 1, 12)  # the exact root 2 one step from its predicted start
    @example(4, 50, 3, 8)  # the exact root 3, fifth, one step from its predicted start
    @example(2, 1, 0, 12)  # the exact roots 3 and 4 on the unit grid
    @example(4, 50, 100, 8)  # the exact root 3 at depth 100, where one step from a prediction falls short
    @example(12, 2**11 - 11, 100, 12)  # the same at depth 100, ending at 2
    def test_integer_newton_cells_are_principal_root_cells(self, L, k, d, n):
        # Every cell, and each exact root k = m^(L-1) (m - 1) as a point,
        # is the one principal_root isolates at the same depth, also for k
        # far beyond the float range; runs of up to 12 roots find most of
        # them one step from a prediction.
        los, his = analytic._sparse_roots(L, range(k, k + n), d)
        expected = []
        for t in range(k, k + n):
            b = principal_root(analytic.sparse_vector(L, t), Fraction(1, 1 << d))
            r = b.exact_root
            expected.append((b.num, b.num + 1, b.bits) if r is None else (r << d, r << d, d))
        assert list(zip(los, his, [d] * n)) == expected


class TestRootMonotonicity:
    def test_appending_increases_root(self):
        # Exact certification across a parameter grid.
        grid = [([1, 1], 1), ([1, 3], 2), ([2, 1], 1), ([1, 0, 2], 4), ([3], 3)]
        for vals, extra in grid:
            base = principal_root(validate(vals))
            extended = principal_root(validate(list(vals) + [extra]))
            assert compare_roots(base, extended) == -1, (vals, extra)

    def test_absorbing_into_last_beats_appending(self):
        # root([c..., c_L + m]) > root([c..., c_L, m])
        grid = [([1, 1], 2), ([1, 2], 1), ([2, 0, 1], 3), ([1, 0, 3], 2)]
        for vals, m in grid:
            absorbed = principal_root(validate(vals[:-1] + [vals[-1] + m]))
            appended = principal_root(validate(vals + [m]))
            assert compare_roots(absorbed, appended) == 1, (vals, m)

    def test_sparse_family_root_grows_with_last(self):
        for L in (3, 5):
            prev = principal_root(analytic.sparse_vector(L, 1))
            for last in range(2, 12):
                cur = principal_root(analytic.sparse_vector(L, last))
                assert compare_roots(prev, cur) == -1
                prev = cur


class TestRootIsolationProperties:
    """Integer root isolation returns the brackets of plain Fraction bisection."""

    @settings(deadline=None)
    @given(st.one_of(vectors, st.lists(st.integers(1, 10**60), min_size=1, max_size=5)))
    @example([10**20])  # large integer parts: the seed fires at depth 0
    @example([1, 10**30])
    @example([3, 0, 10**40])
    @example([4])  # exact integer roots, found by the doubling
    @example([1, 2])
    @example([2, 0, 0, 8])  # root in (2, 3): p(3) > 0 is checked, not exact
    @example([12])  # exact integer roots, found inside the doubled span
    @example([10, 24])
    @example([2, 0, 0, 27])
    @example([1, 10**700])  # beyond the float range: no seed
    def test_integer_bracket_matches_integer_bisection(self, values):
        c = validate(values)
        b = analytic._integer_bracket(CharPoly(c))
        assert b.bits == 0 and (b.lo, b.hi) == reference_root(c, Fraction(1))
        assert (b.exact_root is not None) == (b.lo == b.hi)

    @settings(deadline=None)
    @given(vectors, tolerances)
    def test_principal_root_matches_reference(self, values, tol):
        c = validate(values)
        b = principal_root(c, tol)
        assert (b.lo, b.hi) == reference_root(c, tol)

    @settings(deadline=None)
    @given(vectors, tolerances, tolerances)
    def test_refined_matches_reference(self, values, tol, finer):
        b = principal_root(validate(values), tol)
        assume(b.exact_root is None)
        for t in (b.width / 4, finer):
            r = b.refined(t)
            assert (r.lo, r.hi) == reference_bisect(b.poly, b.lo, b.hi, t)

    @settings(deadline=None)
    @given(vectors, tolerances)
    def test_split_in_two_halvings_matches_refined_and_reference(self, values, tol):
        b = principal_root(validate(values), tol)
        assume(b.exact_root is None)
        split, quarter = b._at(b.bits + 2), b.width / 4
        assert split == b.refined(quarter)
        assert (split.lo, split.hi) == reference_bisect(b.poly, b.lo, b.hi, quarter)

    @settings(deadline=None)
    @given(
        st.lists(st.tuples(vectors, st.integers(0, 6)), min_size=3, max_size=3),
        st.integers(1, 20),
    )
    @example([((1, 1), 0), ((1, 0, 1, 1), 3), ((1, 1, 2), 1)], 12)  # phi, phi, 2
    def test_integer_ends_order_like_fraction_views(self, drawn, tol_exp):
        # Brackets at different depths, compared as integers over a common
        # 2^bits and as Fractions: the comparisons of compare_roots and of
        # the gap-shrink check must agree.
        tol = Fraction(1, 2**tol_exp)
        roots = ((principal_root(validate(v), tol), d) for v, d in drawn)
        bq, br, bs = (b._at(b.bits + d) for b, d in roots)
        bits = max(b.bits for b in (bq, br, bs))
        ends = [b._ends(bits) for b in (bq, br, bs)]
        for b, (lo, hi) in zip((bq, br, bs), ends):
            assert (Fraction(lo, 2**bits), Fraction(hi, 2**bits)) == (b.lo, b.hi)
        (q_lo, q_hi), (r_lo, r_hi), (_, s_hi) = ends
        assert (q_hi <= r_lo) == (bq.hi <= br.lo)
        assert (r_hi <= q_lo) == (br.hi <= bq.lo)
        assert (2 * r_lo > q_hi + s_hi) == (2 * br.lo > bq.hi + bs.hi)

    @settings(deadline=None)
    @given(st.lists(st.tuples(vectors, tolerances), min_size=3, max_size=3))
    @example([((1, 1), Fraction(1, 10)), ((1, 0, 1, 1), Fraction(1, 10**9)), ((2,), 1)])
    @example([((1, 0, 4), 1), ((1, 1, 2), 1), ((1, 1), 1)])  # equal exact roots
    def test_compare_roots_is_transitive(self, drawn):
        a, b, c = (principal_root(validate(v), tol) for v, tol in drawn)
        ab, bc, ac = compare_roots(a, b), compare_roots(b, c), compare_roots(a, c)
        if ab == bc:
            assert ac == ab
        if ab == 0:
            assert ac == bc
        if bc == 0:
            assert ac == ab

    @settings(deadline=None)
    @given(vectors, tolerances)
    def test_brackets_are_certified_by_rational_evaluation(self, values, tol):
        b = principal_root(validate(values), tol)
        if b.exact_root is not None:
            assert b.poly.eval(b.lo) == 0 and b.lo == b.hi == b.exact_root
        else:
            assert b.poly.eval(b.lo) < 0 < b.poly.eval(b.hi)
            assert b.width <= tol
            r = b.refined(b.width / 4)
            assert r.poly.eval(r.lo) < 0 < r.poly.eval(r.hi)

    def test_float_overflow_falls_back_to_bisection(self, monkeypatch):
        seeds = []
        seed_cell = analytic._seed_cell

        def recorded(*args):
            seeds.append(seed_cell(*args))
            return seeds[-1]

        monkeypatch.setattr(analytic, "_seed_cell", recorded)
        c = validate([1, 10**400])  # 10**400 has no float
        tol = Fraction(1, 10**12)
        b = principal_root(c, tol)
        # One seed, in the search for the unit cell: at a 665-bit root the
        # 2^40 cells of tol's grid are fewer than four sub-spans.
        assert seeds == [None]
        assert (b.lo, b.hi) == reference_root(c, tol)
        assert b.poly.eval(b.lo) < 0 < b.poly.eval(b.hi)

    @settings(deadline=None)
    @given(vectors, tolerances)
    def test_wrong_seed_falls_back_to_bisection(self, values, tol):
        c = validate(values)
        expected = reference_root(c, tol)
        assume(expected[0] != expected[1])  # integer roots need no bisection
        proposals = []

        def neighbour(poly, lo, hi, den, w):
            # A sub-span next to the right cell: always wrong.
            right = int(expected[0] * den)
            proposals.append(den)
            return right + 1 if right + 1 + w <= hi else right - w

        seed_cell = analytic._seed_cell
        analytic._seed_cell = neighbour
        try:
            b = principal_root(c, tol)
        finally:
            analytic._seed_cell = seed_cell
        assert [den for den in proposals if den > 1] == [1 << b.bits]
        assert (b.lo, b.hi) == expected

    @settings(deadline=None)
    @given(vectors, st.integers(15, 60))
    @example((21, 1), 15)
    @example((1, 1), 30)
    def test_grids_finer_than_a_float_match_reference(self, values, digits):
        c, tol = validate(values), Fraction(1, 10**digits)
        b = principal_root(c, tol)
        assert (b.lo, b.hi) == reference_root(c, tol)

    @pytest.mark.parametrize("values,digits,budget", [((21, 1), 15, 20), ((1, 1), 30, 60)])
    def test_seed_at_the_depth_a_float_resolves(self, monkeypatch, values, digits, budget):
        # The float seed names the cell about 46 bits below the root's
        # leading bit; only the levels past it are bisected.
        c, tol = validate(values), Fraction(1, 10**digits)
        expected = reference_root(c, tol)
        calls = []
        sign_at = CharPoly.sign_at

        def counted(self, *args):
            calls.append(args)
            return sign_at(self, *args)

        monkeypatch.setattr(CharPoly, "sign_at", counted)
        b = principal_root(c, tol)
        assert len(calls) <= budget
        assert (b.lo, b.hi) == expected

    @settings(deadline=None)
    @given(vectors, vectors)
    def test_compare_roots_is_antisymmetric(self, u, v):
        a, b = principal_root(validate(u)), principal_root(validate(v))
        assert compare_roots(a, b) == -compare_roots(b, a)


class TestRootCertificateRecheck:
    @settings(deadline=None)
    @given(vectors)
    def test_triage_verdicts_recheck(self, values):
        assume(len(values) >= 2)
        assert recheck(triage(validate(values)))

    @pytest.mark.parametrize("coeffs", [[1, 1], [1, 1, 1], [1, 0, 0, 1]])
    def test_below_lambda_rechecks_at_integer_and_bracketed_thresholds(self, coeffs):
        # lambda_3 = 2 is an exact integer root; the others are brackets.
        v = triage(validate(coeffs))
        assert v.certificate.tag() == "root:below_lambda"
        assert recheck(v)

    @pytest.mark.parametrize(
        "coeffs,kind,rule,conjectural",
        [
            ([1, 1], INCOMPLETE, analytic.TRIAGE_FAST, False),  # p(2) = 1 > 0
            ([1, 3], COMPLETE, analytic.TRIAGE_SLOW, True),  # root above 2
            ([1, 0, 5], COMPLETE, analytic.TRIAGE_SLOW, True),  # root in the band
            ([1, 1], COMPLETE, analytic.TRIAGE_SLOW, False),  # must be conjectural
            ([1, 3], COMPLETE, analytic.TRIAGE_FAST, False),  # kind disagrees
            ([1, 3], COMPLETE, "no_such_path", False),
        ],
    )
    def test_tampered_root_certificates_are_rejected(self, coeffs, kind, rule, conjectural):
        from plrs import brown

        forged = brown.Verdict(validate(coeffs), kind, brown.root_triage(rule), conjectural, 0)
        assert not recheck(forged)
