import itertools
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plrs import (
    brown,
    core,
    EmptyVector,
    LeadingZero,
    NegativeEntry,
    TrailingZero,
    generate_terms,
    validate,
)
from helpers import first_stretch_vectors, reference_terms


@st.composite
def sparse_vectors(draw, max_len=64, max_coeff=2**40):
    """Vectors of length <= max_len whose middles are mostly zero."""
    L = draw(st.integers(1, max_len))
    values = [0] * L
    values[0] = draw(st.integers(1, max_coeff))
    values[-1] = draw(st.integers(1, max_coeff))
    if L > 2:
        taps = draw(st.dictionaries(st.integers(1, L - 2), st.integers(0, max_coeff), max_size=4))
        for i, ci in taps.items():
            values[i] = ci
    return tuple(values)


class TestValidate:
    def test_accepts_sparse_vector(self):
        c = validate([1, 0, 3])
        assert c.L == 3
        assert c.values == (1, 0, 3)

    def test_rejects_leading_zero(self):
        with pytest.raises(LeadingZero):
            validate([0, 1])

    def test_rejects_trailing_zero(self):
        with pytest.raises(TrailingZero):
            validate([1, 2, 0])

    def test_rejects_empty(self):
        with pytest.raises(EmptyVector):
            validate([])

    def test_rejects_negative(self):
        with pytest.raises(NegativeEntry):
            validate([1, -1, 2])

    def test_equality_is_elementwise(self):
        assert validate([1, 2]) == validate([1, 2])
        assert validate([1, 2]) != validate([1, 2, 1])

    def test_one_based_accessor(self):
        c = validate([3, 0, 7])
        assert (c.c(1), c.c(2), c.c(3)) == (3, 0, 7)
        with pytest.raises(IndexError):
            c.c(0)
        with pytest.raises(IndexError):
            c.c(4)


class TestGenerateTerms:
    # Frozen prefixes, recomputable by hand from the recurrence.
    @pytest.mark.parametrize(
        "coeffs,n,expected",
        [
            ([1, 3], 4, (1, 2, 5, 11)),
            ([1, 0, 1, 4], 5, (1, 2, 3, 5, 11)),
            ([2], 5, (1, 2, 4, 8, 16)),
            ([1, 1, 2], 6, (1, 2, 4, 8, 16, 32)),
            ([1, 1], 7, (1, 2, 3, 5, 8, 13, 21)),
        ],
    )
    def test_known_prefixes(self, coeffs, n, expected):
        assert generate_terms(validate(coeffs), n).terms == expected

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            generate_terms(validate([1, 1]), 0)

    def test_one_based_term_accessor(self):
        t = generate_terms(validate([1, 3]), 4)
        assert t.term(1) == 1
        assert t.term(4) == 11
        with pytest.raises(IndexError):
            t.term(5)

    @pytest.mark.parametrize("L", range(2, 11))
    def test_ones_then_two_gives_powers_of_two(self, L):
        c = validate([1] * (L - 1) + [2])
        t = generate_terms(c, 20)
        assert t.terms == tuple(2**i for i in range(20))

    @pytest.mark.parametrize("k", range(0, 7))
    def test_sparse_family_starts_linearly(self, k):
        # [1, 0^k, N] walks 1, 2, ..., k+2 before the last coefficient bites.
        c = validate([1] + [0] * k + [9])
        t = generate_terms(c, k + 2)
        assert t.terms == tuple(range(1, k + 3))

    def test_prefix_determinism(self):
        c = validate([2, 0, 3])
        assert generate_terms(c, 6).terms == generate_terms(c, 12).terms[:6]

    def test_terms_never_overflow(self):
        # 300 terms of a fast-growing sequence stay exact.
        t = generate_terms(validate([4, 4, 4, 4]), 300)
        assert t.term(300) > 10**190
        # recurrence holds exactly at the far end
        h = t.terms
        assert h[299] == 4 * (h[298] + h[297] + h[296] + h[295])

    def test_nondecreasing(self):
        for coeffs in ([1], [1, 1], [3, 0, 1], [1, 0, 0, 5]):
            t = generate_terms(validate(coeffs), 30)
            assert all(a <= b for a, b in zip(t.terms, t.terms[1:]))

    def test_strictly_increasing_once_full_recurrence_engages(self):
        # Only [1] is eventually constant; everything else grows strictly
        # from index L at the latest.
        from helpers import all_vectors

        for vals in all_vectors(3, 3):
            if vals == (1,):
                continue
            t = generate_terms(validate(vals), 20)
            L = len(vals)
            tail = t.terms[L - 1 :]
            assert all(a < b for a, b in zip(tail, tail[1:])), vals
        constant = generate_terms(validate([1]), 10)
        assert set(constant.terms) == {1}


class TestGrowthProperties:
    @given(sparse_vectors(), st.integers(1, 300))
    def test_matches_full_recurrence(self, values, n):
        # Both term loops: the reference generate_terms, and the gap engine's,
        # which grows H_1..H_m, m the index of its verdict, into the list
        # its caller passes.
        expected = reference_terms(values, n)
        c = validate(values)
        assert generate_terms(c, n).terms == expected
        grown = []
        v = brown._gap_scan(c, max(n, 2 * c.L - 1), False, grown)
        assert tuple(grown) == reference_terms(values, v.horizon_used)

    # The first head stretch, H_1..H_s with s the second nonzero index: with
    # c_1 = 1 it is 1, 2, ..., s, read in closed form.  n below s, at s and
    # s + 1, at L and past L; the examples are L = 1, c_1 >= 2, s = 2 < L,
    # s = L, and B_{s+1} = 0 and -1 at s = 5.
    @example((1,), 1)
    @example((3,), 4)
    @example((3, 0, 0, 5), 2)
    @example((1, 4, 0, 0, 9), 1)
    @example((1, 0, 0, 0, 9), 3)
    @example((1, 0, 0, 0, 10, 0, 2), 4)
    @example((1, 0, 0, 0, 11, 0, 2), 4)
    @settings(max_examples=60, deadline=None)
    @given(first_stretch_vectors(), st.integers(1, 300))
    def test_first_stretch_matches_full_recurrence(self, values, d):
        c, L = validate(values), len(values)
        s = next((i for i, ci in enumerate(values[1:], start=2) if ci), 1)
        for n in (1 + d % max(1, s - 1), s, s + 1, L, L + 1, 2 * L + 3):
            assert generate_terms(c, n).terms == reference_terms(values, n)

    def test_reference_loop_shares_no_code_with_the_kernel(self, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("generate_terms ran the gap engine")

        monkeypatch.setattr(brown, "_gap_scan", broken)
        monkeypatch.setattr(brown, "check_completeness", broken)
        assert generate_terms(validate([1, 0, 0, 3, 5]), 8).terms == reference_terms(
            (1, 0, 0, 3, 5), 8
        )

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_str_prints_terms_past_the_int_digit_limit(self):
        # H_1500 of [1000] has 4498 digits; str() of such an int raises
        # under the default 4300-digit limit.
        t = generate_terms(validate([1000]), 1500)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = "(" + ", ".join(str(h) for h in t.terms) + ")"
            sys.set_int_max_str_digits(4300)
            assert str(t) == expected
            assert sys.get_int_max_str_digits() == 4300  # the setting is left alone
        finally:
            sys.set_int_max_str_digits(limit)


@st.composite
def ascending_boxes(draw):
    """Up to four ascending ranges of small non-negative integers, and a sum cap."""
    starts = draw(st.lists(st.integers(0, 3), max_size=4))
    return [range(a, a + draw(st.integers(0, 4))) for a in starts], draw(st.integers(0, 12))


class TestPrefixWalk:
    @settings(max_examples=200)
    @given(ascending_boxes())
    def test_sum_cap_matches_filtered_product(self, box):
        # A sum cap is monotone on non-negative ranges, so the walk yields
        # the filtered product in order; keep sees the terms H_1..H_{k+1} of
        # a length-L vector, L = len(ranges) + 1, and the sum H_1 + ... +
        # H_k, and each leaf the head terms H_1..H_L.
        ranges, cap = box
        L = len(ranges) + 1

        def keep(prefix, h, running):
            k = len(prefix)
            terms = reference_terms([*prefix, *[0] * (L - k)], k + 1)
            assert (h, running) == (terms[k], sum(terms[:k]))
            return sum(prefix) <= cap

        got = []
        for prefix, terms in core._prefix_walk(ranges, keep):
            assert terms == list(reference_terms([*prefix, 0], L))
            got.append(tuple(prefix))
        assert got == [v for v in itertools.product(*ranges) if sum(v) <= cap]
