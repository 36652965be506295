import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from plrs import (
    COMPLETE,
    INCOMPLETE,
    UNKNOWN,
    BudgetExceeded,
    HorizonTooSmall,
    TermSequence,
    check_completeness,
    generate_terms,
    oracle_verdict,
    reachable_sums,
    recheck,
    validate,
)
from helpers import (
    all_vectors,
    brute_subset_sums,
    mask_to_set,
    reference_oracle_verdict,
    reference_terms,
)


class TestReachableSums:
    @pytest.mark.parametrize(
        "coeffs,n,expected",
        [
            ([1, 3], 3, {0, 1, 2, 3, 5, 6, 7, 8}),
            ([1], 1, {0, 1}),
            ([2], 3, set(range(8))),
        ],
    )
    def test_known_sets(self, coeffs, n, expected):
        t = generate_terms(validate(coeffs), n)
        mask = reachable_sums(t)
        assert mask_to_set(mask, sum(t.terms)) == expected

    def test_rejects_an_empty_prefix(self):
        with pytest.raises(ValueError, match="need a nonempty prefix"):
            reachable_sums(TermSequence(validate([1]), ()))

    def test_matches_brute_force_enumeration(self):
        for coeffs in ([1, 3], [2, 1], [1, 0, 2], [3], [1, 1, 1]):
            t = generate_terms(validate(coeffs), 6)
            total = sum(t.terms)
            assert mask_to_set(reachable_sums(t), total) == brute_subset_sums(t.terms)

    def test_monotone_in_prefix_length(self):
        c = validate([1, 0, 3])
        prev = 0
        for n in range(1, 10):
            mask = reachable_sums(generate_terms(c, n))
            assert mask | prev == mask  # superset of the shorter prefix
            prev = mask

    def test_budget_enforced(self):
        t = generate_terms(validate([2]), 40)  # sums reach 2^40
        with pytest.raises(BudgetExceeded):
            reachable_sums(t, budget_bits=1 << 20)


def smallest_unrepresentable(values, n):
    # The least positive integer missing from the subset sums of the first n
    # terms, or None when all of [1, their sum] is reached.
    t = generate_terms(validate(values), n)
    mask = reachable_sums(t)
    missing = (~mask & (mask + 1)).bit_length() - 1
    return missing if missing <= sum(t.terms) else None


class TestSmallestUnrepresentable:
    def test_one_three(self):
        assert smallest_unrepresentable([1, 3], 4) == 4

    def test_doubling_covers_everything(self):
        assert smallest_unrepresentable([2], 6) is None

    def test_sparse_family_at_bound(self):
        assert smallest_unrepresentable([1, 0, 3], 6) is None


class TestOracleVerdict:
    def test_one_three_incomplete_with_witness_four(self):
        v = oracle_verdict(validate([1, 3]), max_prefix=12)
        assert v.kind == INCOMPLETE
        assert v.certificate.witness == 4

    def test_fibonacci_complete(self):
        v = oracle_verdict(validate([1, 1]), max_prefix=12)
        assert v.kind == COMPLETE
        assert not v.conjectural

    def test_section_two_two_example(self):
        v = oracle_verdict(validate([1, 2, 0, 0, 0, 0, 15]), max_prefix=16)
        assert v.kind == INCOMPLETE

    def test_rejects_short_prefix(self):
        with pytest.raises(HorizonTooSmall):
            oracle_verdict(validate([1, 0, 0, 2]), max_prefix=4)

    def test_witnesses_are_valid_across_space(self):
        # Every incompleteness witness is genuinely unreachable and below
        # the next term, re-checked by explicit enumeration.
        for vals in all_vectors(3, 3):
            c = validate(vals)
            v = oracle_verdict(c, max_prefix=2 * c.L + 2)
            if v.kind == INCOMPLETE:
                n, witness = v.certificate.index, v.certificate.witness
                t = generate_terms(c, n + 1)
                assert witness not in brute_subset_sums(t.terms[:n]), vals
                assert witness < t.term(n + 1), vals

    def test_failure_certificates_recheck_from_scratch(self):
        from plrs import brown, recheck

        for vals in ([1, 3], [1, 2, 0, 0, 0, 0, 15], [3], [2, 2]):
            v = oracle_verdict(validate(vals), max_prefix=16)
            assert v.kind == INCOMPLETE
            assert recheck(v), vals
        # a tampered witness must be rejected
        v = oracle_verdict(validate([1, 3]), max_prefix=16)
        bad = brown.Verdict(
            v.coefficients, v.kind,
            brown.failure(v.certificate.index, witness=3),
            False, v.horizon_used,
        )
        assert not recheck(bad)

    def test_witness_past_the_prefix_sum_rechecks_without_a_mask(self, monkeypatch):
        # [1, 1, 0^33, 25583530] first fails at B_39; the sums of its first
        # 38 terms pass 2^28, so a mask of them would exceed the default budget.
        c = validate([1, 1] + [0] * 33 + [25583530])
        v = oracle_verdict(c, max_prefix=4 * c.L)
        assert (v.kind, v.certificate.index, v.certificate.witness) == (
            INCOMPLETE, 38, 370248373,
        )

        def no_mask(*args, **kwargs):
            raise AssertionError("recheck built a mask")

        monkeypatch.setattr("plrs.oracle.reachable_sums", no_mask)
        assert recheck(v)

    def test_hand_made_witnesses_on_both_sides_of_the_prefix_sum(self):
        from plrs import brown

        # [1, 3] has terms 1, 2, 5, 11, 26.  Only S_m < w < H_{m+1} verifies:
        # 4 above S_2 = 3 and 9 above S_3 = 8.  At or below the prefix sum
        # nothing does: not 5 and 12, which are sums, nor 4, 9 and 10,
        # missing for good but named past their own prefix.  11 is H_4.
        c = validate([1, 3])

        def made(m, witness):
            return brown.Verdict(c, INCOMPLETE, brown.failure(m, witness=witness), False, m)

        assert recheck(made(2, 4))
        assert recheck(made(3, 9))
        for m, w in ((3, 4), (3, 5), (3, 11), (4, 9), (4, 10), (4, 12)):
            assert not recheck(made(m, w)), (m, w)

    def test_agreement_with_gap_engine_beyond_the_acceptance_space(self):
        # Wider than the acceptance sweep: longer vectors at cap 3.
        from plrs import check_completeness

        for vals in all_vectors(6, 3):
            c = validate(vals)
            engine = check_completeness(c)
            horizon = max(4 * c.L, (engine.certificate.index or 0) + 1)
            orc = oracle_verdict(c, max_prefix=horizon)
            assert {engine.kind, orc.kind} != {COMPLETE, INCOMPLETE}, vals
            assert engine.kind == orc.kind, vals

    @given(
        st.builds(
            lambda c1, mid, cL: (c1, *mid, cL),
            st.integers(1, 4),
            st.lists(st.integers(0, 4), max_size=4),
            st.integers(1, 4),
        ),
        st.integers(0, 12),
        st.integers(4, 16),
    )
    def test_matches_full_mask_scan(self, values, extra, budget_log2):
        # Small budgets, so that the full scan, which builds a mask for every
        # prefix, often runs out of bits.  The oracle builds none: there it
        # gives the engine's verdict at the same horizon, or an incomplete
        # verdict whose witness is 1 + S_n.
        c = validate(values)
        m = 2 * c.L - 1 + extra
        got = oracle_verdict(c, m)
        try:
            expected = reference_oracle_verdict(c, m, 1 << budget_log2)
        except BudgetExceeded:
            if got.kind == INCOMPLETE:
                n = got.certificate.index
                assert got.certificate.witness == 1 + sum(reference_terms(values, n))
                assert recheck(got)
            else:
                assert got == check_completeness(c, horizon=m)
        else:
            assert got == expected

    # [3] at M = 1: the engine is unknown there and B_2 < 0.
    @example(((3,), 1))
    @given(
        st.one_of(
            st.tuples(st.integers(1, 4)),
            st.builds(
                lambda c1, mid, cL: (c1, *mid, cL),
                st.integers(1, 4),
                st.lists(st.integers(0, 4), max_size=4),
                st.integers(1, 4),
            ),
        ).flatmap(lambda v: st.tuples(st.just(v), st.integers(2 * len(v) - 1, 4 * len(v) + 4)))
    )
    def test_kind_is_the_engine_kind_at_the_prefix(self, case):
        values, m = case
        c = validate(values)
        engine = check_completeness(c, horizon=m)
        terms = reference_terms(values, m + 1)
        v = oracle_verdict(c, m)
        if engine.kind == UNKNOWN and 1 + sum(terms[:m]) < terms[m]:
            assert (v.kind, v.certificate.index) == (INCOMPLETE, m)
        else:
            assert v.kind == engine.kind
        if engine.kind == INCOMPLETE:
            assert v.certificate.index == engine.certificate.index - 1
        if v.kind == INCOMPLETE:
            # Before the first failure the subset sums are exactly [0, S_n].
            assert v.certificate.witness == 1 + sum(terms[: v.certificate.index])
            assert recheck(v)
