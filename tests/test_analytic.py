import math
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
    char_poly_eval,
    compare_roots,
    denseness_scan,
    exact_threshold_search,
    lambda_threshold,
    min_root_in_pls,
    principal_root,
    recheck,
    root_order_gap,
    triage,
    validate,
)
from plrs.analytic import least_root
from plrs.core import generate_terms, vectors_with_sum
from helpers import (
    quadratic_root,
    reference_bisect,
    reference_denseness_scan,
    reference_gap_shrink,
    reference_root,
    reference_sign,
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


class TestTriage:
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

    def test_slow_growth_is_conjecturally_complete(self):
        v = triage(validate([1, 1]))
        assert v.kind == COMPLETE
        assert v.conjectural
        assert v.certificate.tag() == "root:below_lambda"

    def test_rejects_length_one(self):
        with pytest.raises(ValueError):
            triage(validate([2]))


class TestMinRootInPls:
    def test_length_two_sum_four(self):
        c, bracket = min_root_in_pls(2, 3, verify=True)
        assert c == validate([1, 3])
        assert abs(bracket.approx - float(quadratic_root(1, 3))) < 1e-9

    def test_length_three_sum_three(self):
        c, _ = min_root_in_pls(3, 2, verify=True)
        assert c == validate([1, 0, 2])

    def test_smallest_case(self):
        c, _ = min_root_in_pls(2, 1, verify=True)
        assert c == validate([1, 1])

    def test_larger_case_verifies(self):
        c, _ = min_root_in_pls(4, 5, verify=True)
        assert c == validate([1, 0, 0, 5])


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

    def test_cost_cap(self):
        with pytest.raises(CostCap):
            exact_threshold_search(6)


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
        assert a2 == a._split(a2.bits) and b2 == b._split(b2.bits)

    def test_refines_only_the_winner(self, monkeypatch):
        seeds = []
        seed_cell = analytic._seed_cell

        def recorded(*args):
            seeds.append(args)
            return seed_cell(*args)

        monkeypatch.setattr(analytic, "_seed_cell", recorded)
        cs = [c for total in range(2, 11) for c in vectors_with_sum(4, total)]
        c, bracket = least_root(cs)
        assert len(seeds) <= 1
        assert (c, bracket) == (validate([1, 0, 0, 1]), principal_root(c))


class TestRootOrderGap:
    @pytest.mark.parametrize("L,k", [(3, 3), (4, 5), (10, 30)])
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
        q, r, s = reference_gap_shrink(*brackets)
        assert root_order_gap(L, k, tol) == (r.approx - q.approx, s.approx - r.approx)

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

    @pytest.mark.parametrize("L", [9, 12])
    @pytest.mark.parametrize(
        "wrong",
        [lambda x, den: x + 3 / den, lambda x, den: math.nan, lambda x, den: -x],
        ids=["plus3cells", "nan", "negative"],
    )
    def test_wrong_proposals_fall_back_to_exact_search(self, monkeypatch, L, wrong):
        expected = denseness_scan(L)
        den = 1 << analytic._depth(analytic.DEFAULT_TOL)
        newton, proposals = analytic._sparse_newton, []

        def proposal(*args):
            proposals.append(wrong(newton(*args), den))
            return proposals[-1]

        monkeypatch.setattr(analytic, "_sparse_newton", proposal)
        assert denseness_scan(L) == expected
        assert len(proposals) == expected.k_max - expected.k_min + 1  # the first root too

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

    @settings(deadline=None)
    @given(st.integers(2, 6), st.integers(0, 5), st.integers(0, 300), st.integers(0, 300),
           st.integers(1, 64), st.booleans())
    def test_grid_cell_matches_a_linear_scan(self, L, d, m, guess, step, exact):
        # Any guess at or above lo, any first gallop step, and targets that
        # the closed form hits exactly at a grid point or misses.
        den = 1 << d

        def g(j):
            return j ** (L - 1) * (j - den)

        target = g(den + 1 + m) - (not exact)
        c = den  # g(den) = 0 < target
        while g(c + 1) < target:
            c += 1
        assert analytic._grid_cell(g, target, den, den + guess, step) == (c, g(c + 1) == target)

    def test_closed_form_evaluations_do_not_grow_at_a_coarse_tol(self, monkeypatch):
        # At tol 1/10 the sweep certifies on the default tol's grid, so it
        # evaluates the closed form as often as there, plus the cells of its
        # one epsilon pair.
        evaluations = []
        grid_cell = analytic._grid_cell

        def counted(g, *args):
            return grid_cell(lambda j: evaluations.append(j) or g(j), *args)

        def cost(run):
            evaluations.clear()
            run()
            return len(evaluations)

        monkeypatch.setattr(analytic, "_grid_cell", counted)
        k_min = lambda_threshold(12).max_complete_n + 1
        coarse = cost(lambda: denseness_scan(12, 0.01, Fraction(1, 10)))
        pair = cost(lambda: analytic._sparse_roots(12, range(k_min, k_min + 2), 40))
        assert coarse == cost(lambda: denseness_scan(12)) + pair


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
        split, quarter = b._split(2), b.width / 4
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
        bq, br, bs = (principal_root(validate(v), tol)._split(d) for v, d in drawn)
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

        def neighbour(poly, a, den, n):
            # A cell next to the right one: always wrong.
            right = int(expected[0] * den - a)
            proposals.append(right + 1 if right + 1 < 1 << n else right - 1)
            return proposals[-1]

        seed_cell = analytic._seed_cell
        analytic._seed_cell = neighbour
        try:
            b = principal_root(c, tol)
        finally:
            analytic._seed_cell = seed_cell
        assert len(proposals) == 1
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
