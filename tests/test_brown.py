import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from plrs import (
    COMPLETE,
    INCOMPLETE,
    UNKNOWN,
    HorizonTooSmall,
    brown,
    check_completeness,
    doubling_holds,
    first_failure_index,
    gap_trace,
    generate_terms,
    recheck,
    validate,
)
from helpers import all_vectors, brute_gaps, reference_check_completeness, reference_terms

# Short vectors with small coefficients, and the sparse family [1, 0^k, N].
short_vectors = st.one_of(
    st.builds(
        lambda c1, mid, cL: (c1, *mid, cL),
        st.integers(1, 4),
        st.lists(st.integers(0, 4), max_size=6),
        st.integers(1, 4),
    ),
    st.tuples(st.integers(1, 4)),
    st.builds(lambda k, n: (1, *[0] * k, n), st.integers(0, 30), st.integers(1, 300)),
)


class TestGapTrace:
    @pytest.mark.parametrize(
        "coeffs,n,expected",
        [
            ([1, 3], 3, (0, 0, -1)),
            ([2], 4, (0, 0, 0, 0)),
            ([1, 0, 3], 5, (0, 0, 1, 1, 1)),
        ],
    )
    def test_known_traces(self, coeffs, n, expected):
        t = generate_terms(validate(coeffs), n)
        trace = gap_trace(t)
        assert trace.gaps == expected
        assert trace.gaps == tuple(brute_gaps(t.terms))

    def test_first_gap_is_zero(self):
        for coeffs in all_vectors(3, 3):
            t = generate_terms(validate(coeffs), 1)
            assert gap_trace(t).gap(1) == 0

    def test_gap_margin_identity(self):
        # B_{n+1} - B_n = D_n, exactly, across a small exhaustive space.
        for coeffs in all_vectors(4, 3):
            t = generate_terms(validate(coeffs), 12)
            trace = gap_trace(t)
            for n in range(1, 12):
                assert trace.gap(n + 1) - trace.gap(n) == trace.margin(n)

    def test_gaps_match_recomputation(self):
        t = generate_terms(validate([3, 0, 0, 2]), 25)
        assert list(gap_trace(t).gaps) == brute_gaps(t.terms)


class TestDoublingHolds:
    def test_boundary_sequence(self):
        assert doubling_holds(generate_terms(validate([2]), 4))

    def test_violated_yet_complete(self):
        # (1,2,3,5,11): 11 > 2*5 but the sequence is complete anyway.
        t = generate_terms(validate([1, 0, 1, 4]), 5)
        assert not doubling_holds(t)
        assert check_completeness(validate([1, 0, 1, 4])).kind == COMPLETE

    def test_violated_simple(self):
        assert not doubling_holds(generate_terms(validate([1, 3]), 3))


class TestFirstFailureIndex:
    def test_one_zero_four(self):
        assert first_failure_index(validate([1, 0, 4]), 20) == 5

    def test_three_ones_zero_four(self):
        assert first_failure_index(validate([1, 1, 1, 0, 4]), 20) == 9

    def test_complete_has_none(self):
        assert first_failure_index(validate([1, 1]), 50) is None

    @pytest.mark.parametrize("k", range(1, 8))
    def test_failure_lands_at_2k_plus_3(self, k):
        assert first_failure_index(validate([1] * k + [0, 4]), 64) == 2 * k + 3


def _passing(ranges, window):
    # The filter window_survivors replaces: every tuple of the box, then the gaps.
    return [values for values in itertools.product(*ranges)
            if first_failure_index(validate(values), window) is None]


class TestWindowSurvivors:
    @pytest.mark.parametrize("L", range(1, 6))
    def test_matches_the_filter_on_every_window(self, L):
        for cap in range(1, 5):
            edge, inner = range(1, cap + 1), range(cap + 1)
            ranges = [edge] if L == 1 else [edge, *[inner] * (L - 2), edge]
            for window in range(1, 2 * L + 6):
                got = [c.values for c in brown.window_survivors(ranges, window)]
                assert got == _passing(ranges, window), (cap, window)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6), st.integers(1, 3)),
                    min_size=1, max_size=5),
           st.integers(1, 14))
    def test_matches_the_filter_on_any_ascending_box(self, specs, window):
        ranges = [range(lo + (i in (0, len(specs) - 1) and not lo), lo + size, step)
                  for i, (lo, size, step) in enumerate(specs)]
        got = [c.values for c in brown.window_survivors(ranges, window)]
        assert got == _passing(ranges, window)

    def test_only_survivors_are_built_and_no_prefix_regrows(self, monkeypatch):
        built = []
        real = brown.Coefficients

        def counting(values):
            built.append(values)
            return real(values)

        def no_growth(c, n):
            raise AssertionError("terms regrown from H_1")

        monkeypatch.setattr(brown, "Coefficients", counting)
        monkeypatch.setattr(brown, "generate_terms", no_growth)
        ranges = [range(1, 5), *[range(5)] * 4, range(1, 5)]
        survivors = list(brown.window_survivors(ranges, 11))
        assert len(survivors) == 297  # of 10,000 vectors; c_1 >= 2 fails at B_2
        assert built == [c.values for c in survivors]

    def test_rejects_a_descending_range_and_a_window_below_one(self):
        with pytest.raises(ValueError, match="ascending"):
            list(brown.window_survivors([range(3, 0, -1)], 3))
        with pytest.raises(ValueError, match="window"):
            list(brown.window_survivors([range(1, 3)], 0))


class TestLazyPrefixProperties:
    @given(short_vectors, st.integers(1, 120))
    def test_first_failure_is_first_negative_gap(self, values, horizon):
        trace = gap_trace(generate_terms(validate(values), horizon))
        negative = [n for n, g in enumerate(trace.gaps, start=1) if g < 0]
        expected = negative[0] if negative else None
        assert first_failure_index(validate(values), horizon) == expected

    # The few short vectors whose verdict comes past index 2L+1, where the
    # prefix must be extended.
    @example((1, 0, 3, 0, 3), 20, False)
    @example((1, 1, 0, 3, 0, 2, 3), 30, False)
    @given(short_vectors, st.integers(0, 40), st.booleans())
    def test_engine_matches_eager_engine_at_explicit_horizons(self, values, extra, assume):
        c = validate(values)
        h = 2 * c.L - 1 + extra
        got = check_completeness(c, horizon=h, assume_2l1=assume)
        assert got == reference_check_completeness(c, horizon=h, assume_2l1=assume)

    # The default horizon is max(1024, 4L), read in one pass.
    @example((1, 0, 3, 0, 1, 4), False)
    @example((1, 0, 3, 0, 3, 1), True)
    @given(short_vectors, st.booleans())
    def test_engine_matches_eager_engine_at_default_horizons(self, values, assume):
        c = validate(values)
        got = check_completeness(c, assume_2l1=assume)
        h = max(1024, 4 * c.L)
        assert got == reference_check_completeness(c, horizon=h, assume_2l1=assume)

    def test_prefix_grows_only_as_far_as_it_is_read(self, monkeypatch):
        # [1, 3] fails at index 3: the engine builds 2L + 1 = 5 terms,
        # not the 1024 + 1 of its default horizon.
        built = []
        real = brown.generate_terms

        def counting(c, n):
            built.append(n)
            return real(c, n)

        monkeypatch.setattr(brown, "generate_terms", counting)
        assert check_completeness(validate([1, 3])).kind == INCOMPLETE
        assert first_failure_index(validate([1, 3]), 500) == 3
        assert built == [5, 5]


class TestCheckCompleteness:
    def test_incomplete_with_first_failure(self):
        v = check_completeness(validate([1, 3]), horizon=10)
        assert v.kind == INCOMPLETE
        assert v.certificate.kind == "failure"
        assert v.certificate.index == 3

    def test_fibonacci_complete_proven(self):
        v = check_completeness(validate([1, 1]), horizon=10)
        assert v.kind == COMPLETE
        assert not v.conjectural
        assert v.certificate.kind in ("strict_window", "doubling_window")

    def test_doubling_sequence(self):
        v = check_completeness(validate([2]), horizon=10)
        assert v.kind == COMPLETE
        assert v.certificate.kind == "doubling_window"

    def test_root_two_but_incomplete(self):
        v = check_completeness(validate([1, 1, 1, 0, 4]), horizon=20)
        assert v.kind == INCOMPLETE

    def test_failure_index_seven(self):
        v = check_completeness(validate([1, 1, 0, 4]), horizon=20)
        assert v.kind == INCOMPLETE
        assert v.certificate.index == 7

    def test_horizon_too_small(self):
        with pytest.raises(HorizonTooSmall):
            check_completeness(validate([1, 0, 0, 2]), horizon=4)

    def test_unknown_when_window_cannot_fit(self):
        # Gaps of [1,1,2] are identically zero: the strict window never
        # fires and the doubling window needs 2L+1 = 7 indices.
        v = check_completeness(validate([1, 1, 2]), horizon=5)
        assert v.kind == UNKNOWN
        assert v.certificate.kind == "horizon"

    def test_2l1_rule_is_opt_in_and_conjectural(self):
        c = validate([1, 1, 2])
        v = check_completeness(c, horizon=5, assume_2l1=True)
        assert v.kind == COMPLETE
        assert v.conjectural
        assert v.certificate.tag() == "family:2l-1"
        # without the flag the same call stays unknown
        assert check_completeness(c, horizon=5).kind == UNKNOWN

    def test_adaptive_horizon_resolves_boundary_sequences(self):
        for L in range(2, 9):
            v = check_completeness(validate([1] * (L - 1) + [2]))
            assert v.kind == COMPLETE
            assert v.certificate.kind == "doubling_window"

    def test_verdict_json_contract(self):
        v = check_completeness(validate([1, 3]), horizon=10)
        d = v.to_json_dict()
        for key in ("coefficients", "kind", "certificate", "index", "conjectural", "horizon_used"):
            assert key in d
        assert d["coefficients"] == [1, 3]
        assert d["kind"] == "incomplete"
        assert d["certificate"] == "failure"
        assert d["index"] == 3

    def test_all_positive_characterization(self):
        # Among all-positive vectors the complete ones are exactly
        # [1,...,1] and [1,...,1,2].
        import itertools

        for L in range(1, 6):
            for vals in itertools.product((1, 2, 3), repeat=L):
                expected = all(v == 1 for v in vals) or (
                    all(v == 1 for v in vals[:-1]) and vals[-1] == 2
                )
                verdict = check_completeness(validate(vals))
                assert verdict.kind != UNKNOWN, vals
                assert (verdict.kind == COMPLETE) == expected, vals

    def test_complete_prefixes_stay_under_powers_of_two(self):
        # The doubling sequence dominates every complete sequence.
        for vals in all_vectors(4, 4):
            c = validate(vals)
            v = check_completeness(c, horizon=4 * c.L)
            if v.kind == COMPLETE:
                t = generate_terms(c, 30)
                assert all(h <= 2**i for i, h in enumerate(t.terms)), vals


class TestRecheck:
    def test_certificates_revalidate_across_space(self):
        for vals in all_vectors(4, 4):
            c = validate(vals)
            v = check_completeness(c, horizon=4 * c.L)
            assert recheck(v), vals

    def test_tampered_failure_is_rejected(self):
        good = check_completeness(validate([1, 3]), horizon=10)
        bad = brown.Verdict(
            good.coefficients, good.kind, brown.failure(2), False, good.horizon_used
        )
        assert not recheck(bad)

    def test_tampered_window_is_rejected(self):
        c = validate([1, 1])
        bad = brown.Verdict(c, COMPLETE, brown.strict_window(3), False, 3)
        assert not recheck(bad)
