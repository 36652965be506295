import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plrs import (
    COMPLETE,
    INCOMPLETE,
    HorizonTooSmall,
    OneZerosN,
    OneZerosOnesN,
    OnesZerosN,
    OutOfProvenRange,
    ShapeViolation,
    TwoOnesZerosN,
    bound_one_zeros,
    bound_one_zeros_ones,
    bound_ones_zeros,
    bound_two_ones_zeros,
    brown,
    check_completeness,
    classify_family,
    families,
    recheck,
    validate,
)
from plrs.families import max_last
from helpers import definite_oracle, is_complete, reference_max_last


class TestBoundOneZeros:
    @pytest.mark.parametrize("k,expected", [(0, 2), (1, 3), (2, 5), (3, 8), (4, 11), (5, 14), (6, 18)])
    def test_bounds_sequence(self, k, expected):
        b = bound_one_zeros(k)
        assert b.max_n == expected
        assert b.proven

    def test_rejects_negative_k(self):
        with pytest.raises(ShapeViolation):
            bound_one_zeros(-1)


class TestBoundOnesZeros:
    def test_stabilized_case(self):
        assert bound_ones_zeros(2, 1).max_n == 3
        assert bound_ones_zeros(5, 3).max_n == 15

    def test_transition_case(self):
        # g=3, k=3 sits below k + ceil(log2 k) = 5: 2^4 - ceil(3/1) = 13.
        assert bound_ones_zeros(3, 3).max_n == 13

    def test_boundary_of_the_two_cases_agrees(self):
        for k in range(1, 6):
            g = k + (k - 1).bit_length()
            stabilized = bound_ones_zeros(g, k).max_n
            assert stabilized == 2 ** (k + 1) - 1

    def test_k_one_is_always_three(self):
        for g in range(1, 9):
            assert bound_ones_zeros(g, 1).max_n == 3

    def test_rejects_g_below_k(self):
        with pytest.raises(OutOfProvenRange):
            bound_ones_zeros(2, 3)

    def test_rejects_zero_parameters(self):
        with pytest.raises(ShapeViolation):
            bound_ones_zeros(0, 1)


class TestBoundTwoOnesZeros:
    @pytest.mark.parametrize("k,expected", [(0, 2), (1, 3), (2, 6)])
    def test_shifted_fibonacci_bounds(self, k, expected):
        b = bound_two_ones_zeros(k)
        assert b.max_n == expected
        assert not b.proven  # conjecture-backed

    def test_overlap_with_proven_rule(self):
        assert bound_two_ones_zeros(1).max_n == bound_ones_zeros(2, 1).max_n

    def test_rejects_negative_k(self):
        with pytest.raises(ShapeViolation, match="k must be >= 0, got -1"):
            bound_two_ones_zeros(-1)


class TestBoundOneZerosOnes:
    def test_m_zero_reduces_to_sparse_family(self):
        for L in range(3, 13):
            assert bound_one_zeros_ones(L, 0).max_n == bound_one_zeros(L - 2).max_n

    @pytest.mark.parametrize("L,m,expected", [(6, 1, 10), (8, 2, 17)])
    def test_direct_formula_values(self, L, m, expected):
        b = bound_one_zeros_ones(L, m)
        assert b.max_n == expected
        assert not b.proven  # rests on a conditional lemma

    def test_formula_matches_engine_on_full_valid_grid(self):
        # The bound is conditional, so every valid (L, m) cell through
        # L = 12 is cross-checked against a binary search over verdicts.
        def is_complete(vals):
            v = check_completeness(validate(vals))
            assert v.kind != "unknown", vals
            return v.kind == COMPLETE

        def search_max(prefix):
            lo, hi = 1, 2
            while is_complete(prefix + [hi]):
                lo, hi = hi, hi * 2
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if is_complete(prefix + [mid]):
                    lo = mid
                else:
                    hi = mid
            return lo

        cells = 0
        for L in range(3, 13):
            for m in range(0, L):
                try:
                    b = bound_one_zeros_ones(L, m)
                except ShapeViolation:
                    continue
                cells += 1
                prefix = [1] + [0] * (L - m - 2) + [1] * m
                assert search_max(prefix) == b.max_n, (L, m)
                assert max_last(prefix) == b.max_n, (L, m)
        assert cells == 35

    def test_engine_confirms_direct_values(self):
        assert check_completeness(validate([1, 0, 0, 0, 1, 10])).kind == COMPLETE
        assert check_completeness(validate([1, 0, 0, 0, 1, 11])).kind == INCOMPLETE
        assert definite_oracle(validate([1, 0, 0, 0, 0, 1, 1, 17])).kind == COMPLETE
        assert definite_oracle(validate([1, 0, 0, 0, 0, 1, 1, 18])).kind == INCOMPLETE

    def test_shape_preconditions(self):
        with pytest.raises(ShapeViolation):
            bound_one_zeros_ones(5, 2)  # L < 2m+2
        with pytest.raises(ShapeViolation):
            bound_one_zeros_ones(4, 2)  # no zero left
        with pytest.raises(ShapeViolation, match="m must be >= 0, got -1"):
            bound_one_zeros_ones(6, -1)


class TestMaxLast:
    def test_incomplete_first_member_gives_zero(self):
        # [1, 3, 1]: H = 1, 2, 6 leaves 4 unreachable.
        assert max_last([1, 3]) == 0

    def test_unknown_member_gives_none(self):
        # [1, 1, 1] cannot be decided on a horizon of 5 terms.
        assert max_last([1, 1], horizon=5) is None

    def test_matches_closed_forms(self):
        assert max_last([1, 0, 0]) == bound_one_zeros(2).max_n
        assert max_last([1, 1, 1, 0, 0]) == bound_ones_zeros(3, 2).max_n

    def test_horizon_below_the_window_raises_even_without_the_engine(self):
        # [1, 3, N] fails at B_3 for every N, so no probe needs the engine.
        with pytest.raises(HorizonTooSmall, match="horizon 4 < 2L-1 = 5"):
            max_last([1, 3], horizon=4)
        assert max_last([1, 3], horizon=5) == 0

    def test_a_tight_bracket_needs_no_engine_run(self, monkeypatch):
        # [1, 0, N]: the strict window holds up to N = 3 and B_4 fails from N = 4.
        def no_engine(c, horizon=None):
            raise AssertionError(f"engine run on {c}")

        monkeypatch.setattr(brown, "check_completeness", no_engine)
        assert max_last([1, 0]) == 3

    def test_the_search_is_a_reduction_of_the_per_prefix_step(self):
        # max_last reads no level and runs no engine itself: one call of
        # brown._first_incomplete does both.
        names = set(max_last.__code__.co_names)
        assert "_first_incomplete" in names
        assert not names & {"_read_level", "check_completeness"}

    def test_an_empty_prefix_is_bounded_by_its_second_gap(self):
        # [N]: B_2 = 2 - N fails from N = 3, and [1] and [2] are complete by a
        # doubling window at index 3, which horizons 1 and 2 do not reach.
        assert max_last([]) == 2
        assert max_last([], horizon=3) == 2
        assert max_last([], horizon=2) is None
        assert max_last([], horizon=1) is None

    # Horizon None, or 2L-1 + extra folded into [2L-1, 4L].
    @settings(deadline=None)
    @example([], 0)  # L = 1 at horizon 1: B_2 = 2 - N bounds N from above; N = 2 stays unknown
    @example([1], 1)  # horizon 4: unknown inside the bracket
    @example([1, 0, 0, 0], 6)  # horizon 15
    @example([1, 0, 0, 0, 0], None)  # B_11, inside the window, rises with N
    @example([1, 3], 0)
    @example([1, 0, 3, 0], 0)  # B_5 = 0 for every N: never a strict window
    @example([1, 0, 3, 1, 0], None)  # B_5 < 0, yet B_6..B_11 > 0 at N = 1
    @given(st.one_of(st.just([]),
                     st.builds(lambda c1, mid: [c1, *mid], st.integers(1, 4),
                               st.lists(st.sampled_from([0, 0, 0, 1, 1, 2, 3]), max_size=8))),
           st.none() | st.integers(0, 40))
    def test_matches_probing_every_member(self, prefix, extra):
        L = len(prefix) + 1
        horizon = None if extra is None else 2 * L - 1 + extra % (2 * L + 2)
        assert max_last(prefix, horizon) == reference_max_last(prefix, horizon)


class TestClassifyFamily:
    def test_sparse_family_at_the_edge(self):
        complete = classify_family(OneZerosN(5), 14)
        incomplete = classify_family(OneZerosN(5), 15)
        assert complete.kind == COMPLETE and not complete.conjectural
        assert incomplete.kind == INCOMPLETE and not incomplete.conjectural
        assert complete.certificate.tag() == "family:one-zeros"

    def test_single_leading_one_routes_to_sparse_rule(self):
        v = classify_family(OnesZerosN(1, 5), 15)
        assert v.kind == INCOMPLETE
        assert not v.conjectural
        assert v.coefficients == validate([1, 0, 0, 0, 0, 0, 15])

    def test_conjectural_flag_propagates(self):
        v = classify_family(TwoOnesZerosN(2), 6)
        assert v.kind == COMPLETE
        assert v.conjectural

    def test_one_zeros_ones_shape(self):
        v = classify_family(OneZerosOnesN(6, 1), 10)
        assert v.coefficients == validate([1, 0, 0, 0, 1, 10])
        assert v.kind == COMPLETE

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            classify_family(OneZerosN(2), 0)


class TestRulesAgreeWithEngines:
    def test_proven_rules_match_engine_and_oracle_at_edges(self):
        # For every proven rule, N = max_n is complete and N = max_n + 1 is
        # incomplete, according to both deciders.
        shapes = [OneZerosN(k) for k in range(0, 9)]
        shapes += [
            OnesZerosN(g, k)
            for k in range(1, 4)
            for g in range(max(2, k), 9)
            if g + k + 1 <= 12
        ]
        for shape in shapes:
            b = shape.bound()
            assert b.proven
            at_bound = shape.coefficients(b.max_n)
            past_bound = shape.coefficients(b.max_n + 1)
            assert check_completeness(at_bound).kind == COMPLETE, shape
            assert check_completeness(past_bound).kind == INCOMPLETE, shape
            assert definite_oracle(at_bound).kind == COMPLETE, shape
            assert definite_oracle(past_bound).kind == INCOMPLETE, shape

    def test_last_coeff_three_family(self):
        # [1^g, 0, 3] complete, [1^g, 0, 4] incomplete, for every g.
        for g in range(1, 9):
            assert is_complete([1] * g + [0, 3])
            assert not is_complete([1] * g + [0, 4])

    def test_trailing_ones_step_preserves_completeness(self):
        # If [1, 0^(L-m-2), 1^m, N] is judged complete, the variant with one
        # more trailing one accommodates N+1.  That step needs at least one
        # zero left afterwards (m <= L-4) and a majority of trailing ones
        # (2m >= L-1); outside this range the claim is false, e.g.
        # [1,0,0,0,7] is complete while [1,0,0,1,8] is not.
        pairs = [
            (L, m)
            for L in range(4, 11)
            for m in range(0, L - 3)
            if 2 * m >= L - 1
        ]
        assert pairs  # the hypothesis region is nonempty in this sweep
        for L, m in pairs:
            n = 1
            while True:
                base = [1] + [0] * (L - m - 2) + [1] * m + [n]
                if check_completeness(validate(base)).kind != COMPLETE:
                    break
                step = [1] + [0] * (L - m - 3) + [1] * (m + 1) + [n + 1]
                assert check_completeness(validate(step)).kind == COMPLETE, (L, m, n)
                n += 1
            assert n > 1  # every shape admitted at least N = 1

    def test_step_claim_fails_outside_its_hypotheses(self):
        # The counterexample that pins the hypothesis range above.
        assert check_completeness(validate([1, 0, 0, 0, 7])).kind == COMPLETE
        assert check_completeness(validate([1, 0, 0, 1, 8])).kind == INCOMPLETE


def _grid_shapes():
    # The shapes of the grids above: proven rules at their edges, the
    # conjectural two-ones rule and every valid one-zeros-ones cell to L = 12.
    shapes = [OneZerosN(k) for k in range(0, 9)]
    shapes += [OnesZerosN(g, k) for k in range(1, 4) for g in range(1, 9) if g >= k]
    shapes += [TwoOnesZerosN(k) for k in range(0, 6)]
    for L in range(3, 13):
        for m in range(0, L):
            try:
                bound_one_zeros_ones(L, m)
            except ShapeViolation:
                continue
            shapes.append(OneZerosOnesN(L, m))
    return shapes


class TestFamilyRecheck:
    def test_every_grid_verdict_rechecks(self):
        checked = 0
        for shape in _grid_shapes():
            max_n = shape.bound().max_n
            for n in sorted({1, max_n - 1, max_n, max_n + 1, max_n + 2} - {0}):
                v = classify_family(shape, n)
                assert recheck(v), (shape, n)
                checked += 1
        assert checked > 250

    @pytest.mark.parametrize(
        "coeffs,kind,rule,conjectural",
        [
            ([1, 0, 0, 5], INCOMPLETE, "one-zeros", False),  # kind: bound is 5
            ([1, 0, 0, 6], COMPLETE, "one-zeros", False),  # kind: 6 is past it
            ([1, 1, 0, 3], COMPLETE, "one-zeros", False),  # shape: two leading ones
            ([1, 0, 1, 3], COMPLETE, "ones-zeros", False),  # shape: ones after zeros
            ([1, 0, 0, 3], COMPLETE, "ones-zeros", False),  # g = 1 is the one-zeros rule
            ([1, 1, 1, 3], COMPLETE, "ones-zeros", False),  # no zeros
            ([1, 1, 0, 0, 0, 3], COMPLETE, "ones-zeros", False),  # g < k: not proven
            ([1, 0, 0, 3], COMPLETE, "two-ones-zeros", True),  # shape
            ([1, 0, 1, 1, 3], COMPLETE, "one-zeros-ones", True),  # L < 2m + 2
            ([1, 0, 0, 0, 1, 10], COMPLETE, "one-zeros-ones", False),  # flag: conjectural
            ([1, 0, 0, 5], COMPLETE, "one-zeros", True),  # flag: proven
            ([1, 1, 0, 3], COMPLETE, "two-ones-zeros", False),  # flag: conjectural
            ([1, 0, 0, 5], COMPLETE, "no-such-rule", False),
        ],
    )
    def test_forged_family_certificates_fail(self, coeffs, kind, rule, conjectural):
        forged = brown.Verdict(validate(coeffs), kind, brown.family_rule(rule), conjectural, 0)
        assert not recheck(forged)

    def test_engine_contradiction_fails(self, monkeypatch):
        # A conjectured bound one too high would call [1, 1, 0, 0, 7] complete;
        # the gap engine proves it incomplete.
        assert bound_two_ones_zeros(2).max_n == 6
        monkeypatch.setattr(
            families, "bound_two_ones_zeros",
            lambda k: families.FamilyBound(7, False, families.RULE_TWO_ONES_ZEROS),
        )
        v = classify_family(TwoOnesZerosN(2), 7)
        assert v.kind == COMPLETE
        assert check_completeness(v.coefficients).kind == INCOMPLETE
        assert not recheck(v)

    def test_member_past_the_engine_horizon_rechecks_by_its_bound(self):
        # At L = 602 the default horizon grows to 4L = 2408, so the engine's
        # strict window at 1203 must agree with the bound as well.
        assert recheck(classify_family(OneZerosN(600), 5))
        assert not recheck(brown.Verdict(
            validate([1] + [0] * 600 + [5]), INCOMPLETE, brown.family_rule("one-zeros"), False, 0
        ))

    def test_unknown_certificate_kind_fails(self):
        forged = brown.Verdict(validate([1, 1]), COMPLETE, brown.Certificate("oracle"), False, 0)
        assert not recheck(forged)
