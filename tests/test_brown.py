import dataclasses
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plrs import (
    COMPLETE,
    INCOMPLETE,
    UNKNOWN,
    HorizonTooSmall,
    OneZerosN,
    brown,
    check_completeness,
    classify_family,
    cli,
    core,
    generate_terms,
    oracle_verdict,
    recheck,
    triage,
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

long_sparse_vectors = st.integers(64, 1100).flatmap(
    lambda L: st.builds(
        lambda n: (1, *[0] * (L - 2), n), st.integers(2 ** (L // 2 - 1), 2 ** (L - 1) - 1)
    )
)


class TestGapTrace:
    # The gaps recheck reads, from a reference prefix.
    @pytest.mark.parametrize(
        "coeffs,n,expected",
        [
            ([1, 3], 3, [0, 0, -1]),
            ([2], 4, [0, 0, 0, 0]),
            ([1, 0, 3], 5, [0, 0, 1, 1, 1]),
        ],
    )
    def test_known_traces(self, coeffs, n, expected):
        t = generate_terms(validate(coeffs), n)
        assert brown._gaps(t.terms) == expected
        assert brown._gaps(t.terms) == brute_gaps(t.terms)

    def test_first_gap_is_zero(self):
        for coeffs in all_vectors(3, 3):
            assert brown._gaps(generate_terms(validate(coeffs), 1).terms) == [0]

    def test_gap_margin_identity(self):
        # B_{n+1} - B_n = D_n = 2*H_n - H_{n+1}, exactly, across a small exhaustive space.
        for coeffs in all_vectors(4, 3):
            h = generate_terms(validate(coeffs), 12).terms
            gaps = brown._gaps(h)
            for n in range(1, 12):
                assert gaps[n] - gaps[n - 1] == 2 * h[n - 1] - h[n]

    def test_gaps_match_recomputation(self):
        t = generate_terms(validate([3, 0, 0, 2]), 25)
        assert brown._gaps(t.terms) == brute_gaps(t.terms)


def margins(values, n):
    # D_1..D_{n-1}, as the differences of the gaps B_1..B_n.
    gaps = brown._gaps(generate_terms(validate(values), n).terms)
    return [b - a for a, b in zip(gaps, gaps[1:])]


class TestDoublingHolds:
    # The doubling condition H_{n+1} <= 2*H_n is D_n >= 0 for every margin.
    def test_boundary_sequence(self):
        assert margins([2], 4) == [0, 0, 0]

    def test_violated_yet_complete(self):
        # (1,2,3,5,11): 11 > 2*5 but the sequence is complete anyway.
        assert min(margins([1, 0, 1, 4], 5)) < 0
        assert check_completeness(validate([1, 0, 1, 4])).kind == COMPLETE

    def test_violated_simple(self):
        assert min(margins([1, 3], 3)) < 0


class TestFirstFailureIndex:
    # The engine's first failing gap.
    def failure_index(self, values):
        v = check_completeness(validate(values))
        assert v.kind == INCOMPLETE and v.certificate.kind == "failure"
        return v.certificate.index

    def test_one_zero_four(self):
        assert self.failure_index([1, 0, 4]) == 5

    def test_three_ones_zero_four(self):
        assert self.failure_index([1, 1, 1, 0, 4]) == 9

    def test_complete_has_none(self):
        assert check_completeness(validate([1, 1]), horizon=50).kind == COMPLETE

    @pytest.mark.parametrize("k", range(1, 8))
    def test_failure_lands_at_2k_plus_3(self, k):
        assert self.failure_index([1] * k + [0, 4]) == 2 * k + 3


def _passing(ranges, window):
    # The filter window_survivors replaces: every tuple of the box, then the gaps.
    return [values for values in itertools.product(*ranges)
            if min(brute_gaps(reference_terms(values, window))) >= 0]


class TestWindowSurvivors:
    @pytest.mark.parametrize("L", range(1, 6))
    def test_matches_the_filter_on_every_window(self, L):
        for cap in range(1, 5):
            edge, inner = range(1, cap + 1), range(cap + 1)
            ranges = [edge] if L == 1 else [edge, *[inner] * (L - 2), edge]
            for window in range(1, 2 * L + 6):
                got = [c.values for c, _ in brown.window_survivors(ranges, window)]
                assert got == _passing(ranges, window), (cap, window)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6), st.integers(1, 3)),
                    min_size=1, max_size=5),
           st.integers(1, 14))
    def test_matches_the_filter_on_any_ascending_box(self, specs, window):
        ranges = [range(lo + (i in (0, len(specs) - 1) and not lo), lo + size, step)
                  for i, (lo, size, step) in enumerate(specs)]
        got = [c.values for c, _ in brown.window_survivors(ranges, window)]
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
        assert built == [c.values for c, _ in survivors]

    @pytest.mark.parametrize("L", range(1, 8))
    def test_proven_is_the_engines_strict_window(self, L):
        # Below a window of 2L-1 nothing is proven; from 2L-1 on, a survivor
        # is proven exactly when the engine certifies it by the strict window.
        for cap in range(1, 5):
            edge, inner = range(1, cap + 1), range(cap + 1)
            ranges = [edge] if L == 1 else [edge, *[inner] * (L - 2), edge]
            for window in (2 * L - 2, 2 * L - 1, 2 * L + 2):
                for c, proven in brown.window_survivors(ranges, max(window, 1)):
                    strict = check_completeness(c).certificate.kind == "strict_window"
                    assert proven == (window >= 2 * L - 1 and strict), (c, window)

    def test_rejects_a_descending_range_and_a_window_below_one(self):
        with pytest.raises(ValueError, match="ascending"):
            list(brown.window_survivors([range(3, 0, -1)], 3))
        with pytest.raises(ValueError, match="window"):
            list(brown.window_survivors([range(1, 3)], 0))


# Prefixes c_1..c_{L-1} of a vector, L = 1..10; the last coefficient is N.
prefixes = st.one_of(
    st.just([]),
    st.builds(lambda c1, mid: [c1, *mid], st.integers(1, 5), st.lists(st.integers(0, 5), max_size=8)),
)


class TestLastCoefficientWindow:
    @example([], 1)
    @example([1, 0, 0, 1], 7)  # B_10 rises with N
    @given(prefixes, st.integers(1, 10**6) | st.integers(1, 30))
    def test_lines_give_every_gap_through_2l(self, prefix, n):
        L = len(prefix) + 1
        lines = brown.last_coefficient_window(prefix)
        assert [a + s * n for a, s in lines] == brute_gaps(reference_terms([*prefix, n], 2 * L))
        assert [s for _, s in lines[:L]] == [0] * L
        assert lines[L][1] == -1  # s_{L+1}

    def test_some_gaps_rise_with_n(self):
        assert [n for n, (_, s) in enumerate(brown.last_coefficient_window([1, 0, 0, 1]), 1)
                if s > 0] == [10]

    def test_rejects_an_invalid_prefix(self):
        with pytest.raises(ValueError):
            brown.last_coefficient_window([0, 1])


class TestLazyPrefixProperties:
    @given(short_vectors, st.integers(1, 120))
    def test_first_failure_is_first_negative_gap(self, values, horizon):
        # The engine against the gaps of the reference prefix.
        c = validate(values)
        h = max(horizon, 2 * c.L - 1)
        negative = [n for n, g in enumerate(brute_gaps(generate_terms(c, h).terms), 1) if g < 0]
        v = check_completeness(c, horizon=h)
        if negative:
            assert (v.kind, v.certificate.index) == (INCOMPLETE, negative[0])
        else:
            assert v.kind != INCOMPLETE

    # The few short vectors whose verdict comes past index 2L+1, where the
    # whole-prefix engine had to extend its prefix, and horizons 2L-1..2L+1
    # on both sides of a doubling window at 2L+2.
    @example((1, 0, 3, 0, 3), 20, False)
    @example((1, 1, 0, 3, 0, 2, 3), 30, False)
    @example((1, 0, 3, 0, 3, 1), 10, False)
    @example((1, 0, 3, 0, 2, 3), 10, True)
    @example((1, 1, 0, 3, 0, 3), 10, False)
    @example((1, 0, 2, 2, 2, 3, 1, 2), 40, True)  # root exactly 2: unknown
    @example((1, 0, 3, 0, 3), 0, True)
    @example((1, 0, 3, 0, 3), 1, False)
    @example((1, 0, 3, 0, 3), 2, False)
    @example((1, 0, 3, 0, 3), 3, False)
    @given(short_vectors, st.integers(0, 40), st.booleans())
    def test_engine_matches_eager_engine_at_explicit_horizons(self, values, extra, assume):
        c = validate(values)
        h = 2 * c.L - 1 + extra
        got = check_completeness(c, horizon=h, assume_2l1=assume)
        assert got == reference_check_completeness(c, horizon=h, assume_2l1=assume)

    # Long sparse vectors [1, 0^(L-2), N] with N of L/2 to L-1 bits, as in
    # the benchmark's queries, at horizons just above 2L-1; small N passes
    # the strict window instead of failing at B_{L+1}.
    @example((1, *[0] * 600, 5), 0, False)
    @example((1, *[0] * 62, 1000), 2, True)
    @settings(max_examples=15, deadline=None)
    @given(long_sparse_vectors, st.integers(0, 3), st.booleans())
    def test_engine_matches_eager_engine_on_long_sparse_vectors(self, values, extra, assume):
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
        # H_n is grown only once B_{n-1} is read, so a verdict at index n
        # costs exactly H_1..H_n: no 2L+1 prefix up front, no doubling, and
        # nothing of the horizon past the verdict.
        grown = []
        real = brown._next_terms

        def counting(values, terms):
            for h in real(values, terms):
                grown.append(h)
                yield h

        monkeypatch.setattr(brown, "_next_terms", counting)
        for values, horizon, index in [
            ((1, 3), None, 3),  # fails at B_3
            ((1, *[0] * 600, 10**6), None, 603),  # fails at B_{L+1}
            ((1, *[0] * 600, 5), None, 1203),  # strict window at 2L-1
            ((1, 0, 3, 0, 3), None, 12),  # doubling window past 2L+1
            ((1, 0, 2, 2, 2, 3, 1, 2), 40, 40),  # unknown: no H_{h+1}
        ]:
            grown.clear()
            v = check_completeness(validate(values), horizon=horizon)
            assert v.horizon_used == v.certificate.index == index
            assert grown == list(reference_terms(values, index))


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

    def test_hand_made_witness_past_a_failure_is_read_from_the_bitset(self):
        # [1, 3] has terms 1, 2, 5, 11, 26 and B_3 = -1: the first three
        # terms reach every sum up to 8 but 4, and the first four miss 9
        # and 10 as well, all below the next term.
        c = validate([1, 3])
        for m, w, missing in ((3, 4, True), (3, 5, False), (4, 9, True), (4, 10, True),
                              (4, 12, False)):
            v = brown.Verdict(c, INCOMPLETE, brown.failure(m, witness=w), False, m)
            assert recheck(v) is missing, (m, w)

    def test_witness_past_the_bit_budget_is_not_verified(self):
        # The prefix of 40 terms sums to about 1.5e9, past the 2^28-bit budget.
        c = validate([1, 1] + [0] * 33 + [25583530])
        v = brown.Verdict(c, INCOMPLETE, brown.failure(40, witness=5), False, 40)
        assert recheck(v) is False


KINDS = (COMPLETE, INCOMPLETE, UNKNOWN)


def forgeries(v):
    """Each variant of ``v`` with its kind or its conjectural flag flipped."""
    for kind in KINDS:
        if kind != v.kind:
            yield dataclasses.replace(v, kind=kind)
    yield dataclasses.replace(v, conjectural=not v.conjectural)


def moved(v, **changes):
    return dataclasses.replace(v, certificate=dataclasses.replace(v.certificate, **changes))


# One verdict per certificate tag that fixes the verdict's kind and flag.
TAGGED = {
    "failure": lambda: check_completeness(validate([1, 0, 0, 0, 0, 0, 15])),
    "subset-sum failure": lambda: oracle_verdict(validate([1, 3]), max_prefix=8),
    "strict_window": lambda: check_completeness(validate([1, 1, 0, 0, 0, 0, 15])),
    "doubling_window": lambda: check_completeness(validate([1, 0, 0, 3, 5])),
    "family:2l-1": lambda: check_completeness(validate([1, 1]), horizon=3, assume_2l1=True),
    "family:one-zeros": lambda: classify_family(OneZerosN(5), 14),
    "horizon": lambda: check_completeness(validate([1, 1, 2]), horizon=5),
    "root:p2_negative": lambda: triage(validate([1, 3])),
    "root:below_lambda": lambda: triage(validate([1, 1])),
    "root:indeterminate": lambda: triage(validate([1, 1, 2])),
}


def minus_ten_at_l_plus_2(real):
    """A wrong term kernel: H_{L+2} comes out 10 too small."""

    def kernel(values, terms):
        for h in real(values, terms):
            if len(terms) == len(values) + 2:
                terms[-1] = h = h - 10
            yield h

    return kernel


def raising_kernel(values, terms):
    raise AssertionError("the engine's kernel ran")


class TestRecheckTiesTheVerdictToItsCertificate:
    @pytest.mark.parametrize("name", TAGGED)
    def test_a_flipped_kind_or_flag_is_rejected(self, name):
        v = TAGGED[name]()
        assert recheck(v)
        for forged in forgeries(v):
            assert not recheck(forged), forged

    def test_every_fixed_tag_is_tried(self):
        assert set(brown._IMPLIED) <= {TAGGED[name]().certificate.tag() for name in TAGGED}


class TestRecheckIsIndependentOfTheKernel:
    @pytest.mark.parametrize("values", [(1, 0, 0, 0, 0, 0, 15), (1, 0, 0, 3, 5)])
    def test_a_wrong_kernel_does_not_certify_itself(self, monkeypatch, values):
        c = validate(values)
        truth = (check_completeness(c), oracle_verdict(c, max_prefix=32))
        bad = minus_ten_at_l_plus_2(core._next_terms)
        monkeypatch.setattr(core, "_next_terms", bad)
        monkeypatch.setattr(brown, "_next_terms", bad)
        for wrong, right in zip((check_completeness(c), oracle_verdict(c, max_prefix=32)), truth):
            assert wrong != right
            assert not recheck(wrong), wrong

    def test_check_verify_exits_one_under_a_wrong_kernel(self, monkeypatch, capsys):
        bad = minus_ten_at_l_plus_2(core._next_terms)
        monkeypatch.setattr(core, "_next_terms", bad)
        monkeypatch.setattr(brown, "_next_terms", bad)
        assert cli.main(["check", "1,0,0,0,0,0,15", "--verify"]) == 1
        assert '"verified": false' in capsys.readouterr().out

    def test_gap_certificates_recheck_without_the_kernel(self, monkeypatch):
        # Every tagged verdict but the family rule's, whose recheck runs the engine.
        verdicts = [TAGGED[name]() for name in TAGGED if name != "family:one-zeros"]
        for vals in all_vectors(3, 3):
            c = validate(vals)
            verdicts += [check_completeness(c), oracle_verdict(c, max_prefix=4 * c.L)]
        monkeypatch.setattr(core, "_next_terms", raising_kernel)
        monkeypatch.setattr(brown, "_next_terms", raising_kernel)
        assert all(recheck(v) for v in verdicts)


# Vectors with L <= 8 and c_i <= 4, and long sparse vectors.
recheck_vectors = st.one_of(
    st.builds(
        lambda c1, mid, cL: (c1, *mid, cL),
        st.integers(1, 4),
        st.lists(st.integers(0, 4), max_size=6),
        st.integers(1, 4),
    ),
    st.tuples(st.integers(1, 4)),
    long_sparse_vectors,
)


class TestRecheckProperties:
    @example((1, 1), 0)  # the 2L-1 rule
    @example((1, 0, 0, 3, 5), 40)  # doubling window
    @example((1, 1, 0, 0, 0, 0, 15), 0)  # strict window
    @example((1, 0, 0, 0, 0, 0, 15), 40)  # failure
    @settings(max_examples=60, deadline=None)
    @given(recheck_vectors, st.integers(0, 40))
    def test_verdicts_pass_and_forgeries_fail(self, values, extra):
        c = validate(values)
        h = 2 * c.L - 1 + extra
        verdicts = [check_completeness(c, horizon=horizon, assume_2l1=assume)
                    for horizon in (None, h) for assume in (False, True)]
        verdicts.append(oracle_verdict(c, max_prefix=h))
        for v in verdicts:
            assert recheck(v), v
            for forged in forgeries(v):
                assert not recheck(forged), forged
            cert = v.certificate
            if cert.kind in ("failure", "strict_window", "doubling_window"):
                assert not recheck(moved(v, index=cert.index - 1)), v
            if cert.witness is None:
                continue
            toward_zero = cert.witness + 1 if cert.witness < 0 else cert.witness - 1
            assert not recheck(moved(v, witness=toward_zero)), v
            if cert.witness > 0:
                # S_n + 2 below H_{n+1} is missing for good, as S_n + 1 is.
                next_term = reference_terms(values, cert.index + 1)[-1]
                assert recheck(moved(v, witness=cert.witness + 1)) == (
                    cert.witness + 1 < next_term
                ), v
