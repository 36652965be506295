import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plrs import (
    COMPLETE,
    INCOMPLETE,
    UNKNOWN,
    HorizonTooSmall,
    OneZerosN,
    analytic,
    brown,
    check_completeness,
    classify_family,
    cli,
    core,
    families,
    generate_terms,
    oracle_verdict,
    recheck,
    triage,
    validate,
)
from helpers import (
    all_vectors,
    brute_gaps,
    first_stretch_vectors,
    last_coefficient_window,
    reference_check_completeness,
    reference_scan_2l1,
    reference_terms,
    replace,
    wrong_check_completeness,
)

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


@st.composite
def segmented_vectors(draw):
    """c_1 <= 3 and one to four more nonzero coefficients, c_L among them,
    each up to 3L^2, at random positions of a vector of length L <= 40."""
    L = draw(st.integers(1, 40))
    big = st.integers(1, 3 * L * L)
    values = [0] * L
    values[-1] = draw(big)
    values[0] = draw(st.integers(1, 3))
    for i in draw(st.lists(st.integers(1, L - 2), max_size=3)) if L > 2 else ():
        values[i] = draw(big)
    return tuple(values)


class TestGapTrace:
    # The gaps recheck reads, from a reference prefix: their signs through
    # ``_room_after`` and the margins D_n = B_{n+1} - B_n from the terms.
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
        assert brute_gaps(t.terms) == expected
        for k in range(n + 1):
            passes = min(expected[:k], default=0) >= 0
            assert brown._room_after(t.terms[:k]) == (1 + sum(t.terms[:k]) if passes else None)

    def test_first_gap_is_zero(self):
        for coeffs in all_vectors(3, 3):
            first = generate_terms(validate(coeffs), 1).terms
            assert brown._room_after(first) == 2
            assert brown._room_after(first, strict=True) is None

    def test_gap_margin_identity(self):
        # B_{n+1} - B_n = D_n = 2*H_n - H_{n+1}, exactly, across a small exhaustive space.
        for coeffs in all_vectors(4, 3):
            h = generate_terms(validate(coeffs), 12).terms
            gaps = brute_gaps(h)
            for n in range(1, 12):
                assert gaps[n] - gaps[n - 1] == 2 * h[n - 1] - h[n]

    def test_gaps_match_recomputation(self):
        for values in ([3, 0, 0, 2], [1, 0, 0, 3, 5]):
            t = generate_terms(validate(values), 25)
            gaps = brute_gaps(t.terms)
            for k in range(26):
                room = brown._room_after(t.terms[:k])
                assert room == (1 + sum(t.terms[:k]) if min(gaps[:k], default=0) >= 0 else None)


def margins(values, n):
    # D_1..D_{n-1}, as the differences of the gaps B_1..B_n.
    gaps = brute_gaps(generate_terms(validate(values), n).terms)
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
    # Every tuple of the box, then the gaps through the window.
    return [values for values in itertools.product(*ranges)
            if min(brute_gaps(reference_terms(values, window))) >= 0]


def _box(L, cap):
    edge, inner = range(1, cap + 1), range(cap + 1)
    return [edge] if L == 1 else [edge, *[inner] * (L - 2), edge]


class TestWindowSurvivors:
    # brown.window_scan: the survivors of a window over the scan-2l1 box.
    @pytest.mark.parametrize("L", range(1, 6))
    def test_matches_the_filter_on_every_window(self, L):
        # Against the brute-force scan, which filters the whole box.
        for cap in range(1, 5):
            for window in range(1, 2 * L + 6):
                verdicts = list(brown.window_scan(L, cap, window))
                _, counterexamples, undecided = reference_scan_2l1(L, cap, window)
                assert [{"coefficients": list(v.coefficients.values), "status": "counterexample",
                         "first_failure": v.certificate.index}
                        for v in verdicts if v.kind == INCOMPLETE] == counterexamples
                assert [{"coefficients": list(v.coefficients.values), "status": "undecided"}
                        for v in verdicts if v.kind == UNKNOWN] == undecided

    def test_only_open_values_become_vectors_and_no_prefix_regrows(self, monkeypatch):
        built = []
        real = brown.Coefficients

        def counting(values):
            built.append(values)
            return real(values)

        def no_growth(c, n):
            raise AssertionError("terms regrown from H_1")

        monkeypatch.setattr(brown, "Coefficients", counting)
        monkeypatch.setattr(brown, "generate_terms", no_growth)
        verdicts = list(brown.window_scan(6, 4, 11))
        # Of 10,000 vectors 297 pass B_1..B_11 (c_1 >= 2 fails at B_2), and
        # the strict window proves all but 36 of them.
        assert len(_passing(_box(6, 4), 11)) == 297
        assert len(built) == 36
        assert built == [v.coefficients.values for v in verdicts]

    @pytest.mark.parametrize("L", range(1, 8))
    def test_proven_is_the_engines_strict_window(self, L):
        # A verdict for every survivor but the proven ones: below a window
        # of 2L-1 nothing is proven, and from 2L-1 on a survivor is proven
        # exactly when the engine certifies it by the strict window.  The
        # engine fails a vector at its first negative gap.
        for cap in range(1, 5):
            certs = {values: check_completeness(validate(values)).certificate
                     for values in itertools.product(*_box(L, cap))}
            for window in (2 * L - 2, 2 * L - 1, 2 * L + 2):
                window = max(window, 1)
                open_ = [values for values, cert in certs.items()
                         if not (cert.kind == "failure" and cert.index <= window)
                         and (window < 2 * L - 1 or cert.kind != "strict_window")]
                got = [v.coefficients.values for v in brown.window_scan(L, cap, window)]
                assert got == open_, (cap, window)

    def test_rejects_a_window_below_one(self):
        with pytest.raises(ValueError, match="window"):
            list(brown.window_scan(2, 2, 0))


# Prefixes c_1..c_{L-1} of a vector, L = 1..10; the last coefficient is N.
prefixes = st.one_of(
    st.just([]),
    st.builds(lambda c1, mid: [c1, *mid], st.integers(1, 5), st.lists(st.integers(0, 5), max_size=8)),
)


def _read(prefix, window):
    # ``brown._read_level`` of P, given its head terms H_1..H_L.
    return brown._read_level(prefix, [*reference_terms([*prefix, 0], len(prefix) + 1)], window)


def _strict(gaps, L, window):
    # The strict window read from B_1..B_window: L >= 2, the window reaches
    # 2L-1, B_n >= 0 throughout and B_n > 0 for L <= n <= 2L-1.
    return (L >= 2 and window >= 2 * L - 1 and min(gaps[:window]) >= 0
            and min(gaps[L - 1 : 2 * L - 1]) > 0)


class TestReadLevel:
    @settings(deadline=None)
    @given(prefixes)
    @example([1, 0, 0, 0, 0])  # B_11 rises with N
    @example([1, 0, 3, 1, 0])  # B_5 < 0, yet B_6..B_11 > 0 at N = 1
    @example([1, 0, 0, 1])  # B_10 rises with N
    def test_intervals_are_the_brute_force_at_every_window(self, prefix):
        # Every N from 1 to past any N that could pass B_{L+1} = a_{L+1} - N
        # <= 1 + H_1 + ... + H_L - N, with the ends of each interval and the
        # N on either side of them, each read from its own reference terms.
        L = len(prefix) + 1
        head = reference_terms([*prefix, 0], L)
        top = min(sum(head) + 2, 300)
        levels = {window: _read(prefix, window) for window in range(1, 2 * L + 1)}
        assert all(hi is not None for window, (_, hi, _, _) in levels.items() if window > L)
        ns = set(range(1, top + 1))
        for lo, hi, slo, shi in levels.values():
            ns.update(n for e in (lo, hi or 0, slo, shi) for n in (e - 1, e, e + 1) if n >= 1)
        for n in sorted(ns):
            gaps = brute_gaps(reference_terms([*prefix, n], 2 * L))
            for window, (lo, hi, slo, shi) in levels.items():
                passes = min(gaps[:window]) >= 0
                assert (lo <= n and (hi is None or n <= hi)) == passes, (n, window)
                assert (slo <= n <= shi) == _strict(gaps, L, window), (n, window)

    def test_walk_terms_give_the_same_read_and_stay_intact(self):
        # A leaf of the walk holds the head terms H_1..H_L of P + [c_L].
        for L in range(1, 7):
            ranges = [*[range(1, 3)] * (L > 1), *[range(3)] * (L - 2)]
            for prefix, terms in core._prefix_walk(ranges, lambda *_: True):
                before = list(terms)
                assert before == list(reference_terms([*prefix, 0], L))
                for window in range(1, 2 * L + 1):
                    got = brown._read_level(prefix, terms, window)
                    assert got == _read(prefix, window)
                    assert terms == before

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)), min_size=2, max_size=6))
    @example([(1, 1), (0, 1), (3, 1), (0, 1), (1, 1), (4, 1)])  # B_8 = 0 only: not proven
    def test_agrees_with_the_engine_at_every_last_coefficient(self, specs):
        # The prefixes of a walk that keeps B_1..B_L >= 0, each read through
        # 2L-1 for the whole last range: outside the pass interval the engine
        # fails at the first negative gap, which is at most 2L-1; inside the
        # strict interval it proves the strict window at 2L-1; in between it
        # decides past 2L-1.
        L = len(specs)
        ranges = [range(lo + (i in (0, L - 1) and not lo), lo + size)
                  for i, (lo, size) in enumerate(specs)]
        survivors = 0
        for prefix, terms in core._prefix_walk(ranges[:-1], lambda _, h, s: h <= 1 + s):
            assert tuple(terms) == reference_terms([*prefix, 0], len(terms))
            lo, hi, slo, shi = brown._read_level(prefix, terms, 2 * L - 1)
            for n in ranges[-1]:
                vector = [*prefix, n]
                cert = check_completeness(validate(vector)).certificate
                if not lo <= n <= hi:
                    gaps = brute_gaps(reference_terms(vector, 2 * L - 1))
                    first = next(m for m, gap in enumerate(gaps, 1) if gap < 0)
                    assert (cert.kind, cert.index) == ("failure", first)
                elif slo <= n <= shi:
                    assert (cert.kind, cert.index) == ("strict_window", 2 * L - 1)
                else:
                    assert cert.index > 2 * L - 1
                survivors += lo <= n <= hi
        assert survivors == len(_passing(ranges, 2 * L - 1))


class TestLastCoefficientWindow:
    # The reader against the lines that ``last_coefficient_window``, its
    # reference, builds in full, at N far past any brute-force range.
    @example([], 1)
    @example([1, 0, 0, 1], 7)  # B_10 rises with N
    @example([1, 0, 0, 0, 0], 11)  # B_11 rises with N
    @given(prefixes, st.integers(1, 10**6) | st.integers(1, 30))
    def test_lines_give_every_gap_through_2l(self, prefix, n):
        L = len(prefix) + 1
        lines = last_coefficient_window(prefix)
        gaps = [a + s * n for a, s in lines]
        assert gaps == brute_gaps(reference_terms([*prefix, n], 2 * L))
        assert [s for _, s in lines[:L]] == [0] * L
        assert lines[L][1] == -1  # s_{L+1}
        for window in range(1, 2 * L + 1):
            lo, hi, slo, shi = _read(prefix, window)
            assert (lo <= n and (hi is None or n <= hi)) == (min(gaps[:window]) >= 0)
            assert (slo <= n <= shi) == _strict(gaps, L, window)

    def test_some_gaps_rise_with_n(self):
        assert [n for n, (_, s) in enumerate(last_coefficient_window([1, 0, 0, 1]), 1)
                if s > 0] == [10]
        # B_10 >= 0 wherever B_1..B_9 are, so it moves neither interval.
        assert _read([1, 0, 0, 1], 9) == (1, 7, 1, 6)
        assert _read([1, 0, 0, 1], 10) == (1, 7, 1, 6)

    def test_rejects_an_invalid_prefix(self):
        with pytest.raises(ValueError):
            last_coefficient_window([0, 1])
        with pytest.raises(ValueError):
            families.max_last([0, 1])


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

    # Verdicts in both of the engine's phases and on both sides of the
    # strict window's end: c_1 plus one to four nonzero coefficients, up to
    # 3L^2, at random positions.  Failures land in the head, in any of its
    # stretches of live taps, and in the recurrence through 2L-1; past it
    # the recurrence ends in a doubling window or unknown (a failure there,
    # with B_1..B_{2L-1} >= 0, would refute the 2L-1 conjecture).  The
    # examples are L = 1, L = 2 and the vectors of the goldens that end in
    # each place: a failure at 7 in the head's second stretch, one at 42
    # before 2L-1, a doubling window at 188 and, at horizon 150, unknown.
    @example((3,), 0)
    @example((1, 2), 1)
    @example((1, 0, 0, 0, 0, 16, *[0] * 8, 3), 0)
    @example((1, *[0] * 38, 420), 0)
    @example((1, *[0] * 60, 977), 27)
    @settings(max_examples=150, deadline=None)
    @given(segmented_vectors(), st.integers(0, 200))
    def test_engine_matches_eager_engine_across_segment_boundaries(self, values, extra):
        c, L = validate(values), len(values)
        for h in (2 * L - 1, 2 * L, 2 * L + 1, 4 * L + 3, 2 * L - 1 + extra):
            for assume in (False, True):
                got = check_completeness(c, horizon=h, assume_2l1=assume)
                assert got == reference_check_completeness(c, horizon=h, assume_2l1=assume)

    # The head's first stretch, H_2..H_s with s the second nonzero index,
    # in closed form: c_1 >= 2 fails at 2 and c_1 = 1 gives H_n = n.  At
    # horizons 2L-1, 2L, 2L+1 (the first index where a doubling window can
    # fire), 2L+2 and the default, with the terms grown; the examples are
    # L = 1, c_1 >= 2 at L >= 2, s = 2 < L, s = L, and a failure at s + 1
    # = 6 with witness -1 next to B_6 = 0.
    @example((1,), False)
    @example((3,), True)
    @example((2, 1), False)
    @example((3, 0, 0, 5), True)
    @example((1, 4, 0, 0, 9), False)
    @example((1, *[0] * 300, 5), True)
    @example((1, 0, 0, 0, 10, 0, 2), False)
    @example((1, 0, 0, 0, 11, 0, 2), False)
    @settings(max_examples=40, deadline=None)
    @given(first_stretch_vectors(), st.booleans())
    def test_engine_matches_eager_engine_on_first_stretch_vectors(self, values, assume):
        c, L = validate(values), len(values)
        for h in (2 * L - 1, 2 * L, 2 * L + 1, 2 * L + 2, None):
            got = check_completeness(c, horizon=h, assume_2l1=assume)
            full = max(1024, 4 * L) if h is None else h
            assert got == reference_check_completeness(c, horizon=full, assume_2l1=assume)
        grown = []
        v = brown._gap_scan(c, 2 * L - 1, assume, grown)
        assert tuple(grown) == reference_terms(values, v.horizon_used)
        if values[0] > 1 and L > 1:
            assert v.certificate == brown.failure(2, 1 - values[0])

    def test_prefix_grows_only_as_far_as_it_is_read(self):
        # H_n is grown only once B_{n-1} is read, so a verdict at index n
        # costs exactly H_1..H_n: no 2L+1 prefix up front, no doubling, and
        # nothing of the horizon past the verdict.  The engine's loops grow
        # every term into the list its caller passes.
        for values, horizon, index in [
            ((1, 3), None, 3),  # fails at B_3
            ((1, *[0] * 600, 10**6), None, 603),  # fails at B_{L+1}
            ((1, *[0] * 600, 5), None, 1203),  # strict window at 2L-1
            ((1, 0, 3, 0, 3), None, 12),  # doubling window past 2L+1
            ((1, 0, 2, 2, 2, 3, 1, 2), 40, 40),  # unknown: no H_{h+1}
        ]:
            c, grown = validate(values), []
            v = brown._gap_scan(c, brown.engine_horizon(c.L, horizon), False, grown)
            assert v == check_completeness(c, horizon=horizon)
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

    def test_a_hand_made_witness_is_verified_only_at_the_prefix_it_names(self):
        # [1, 3] has terms 1, 2, 5, 11, 26, so S_2, S_3, S_4 = 3, 8, 19, and
        # B_3 = -1.  4 and 9 are verified where S_m < w < H_{m+1}.  Past
        # that prefix they, and 10, are still missing for good, but w <=
        # S_m is not the form of a witness; 5 and 12 are sums, and 11 is H_4.
        c = validate([1, 3])
        for m, w, verified in ((2, 4, True), (3, 9, True), (3, 4, False), (3, 5, False),
                               (3, 11, False), (4, 9, False), (4, 10, False), (4, 12, False)):
            v = brown.Verdict(c, INCOMPLETE, brown.failure(m, witness=w), False, m)
            assert recheck(v) is verified, (m, w)

    @example((1, 3), 2, False, 0)  # w = 4 = S_2 + 1
    @example((1, 3), 3, False, -5)  # w = 4 again, named at a later prefix
    @example((1, 0, 0, 1), 5, True, -1)  # terms 1, 2, 3, 4, 5, 7: w = 6 <= S_5 = 15
    @given(short_vectors, st.integers(1, 10), st.booleans(),
           st.integers(-2, 2) | st.integers(-(2**12), 2**12))
    def test_a_witness_is_verified_exactly_between_s_m_and_the_next_term(
        self, values, m, from_term, shift
    ):
        # w near S_m + 1 or near H_{m+1}, moved by a little or by up to 2^12.
        terms = reference_terms(values, m + 1)
        total = sum(terms[:m])
        w = max(1, (terms[m] if from_term else total + 1) + shift)
        v = brown.Verdict(validate(values), INCOMPLETE, brown.failure(m, witness=w), False, m)
        assert recheck(v) is (total < w < terms[m]), w

    def test_a_doubling_window_with_one_negative_margin_is_rejected(self):
        # [1, 0, 0, 3, 5]: every B_n >= 0, and of the margins D_j = 2*H_j -
        # H_{j+1} only D_5 and D_10 are negative.  For m = 11..15 the window
        # D_{m-5}..D_{m-1} holds D_10 as its one negative margin; from m = 16,
        # the engine's certificate, on, the windows are clear.
        c = validate([1, 0, 0, 3, 5])
        terms = reference_terms(c.values, 21)
        assert min(brute_gaps(terms)) >= 0
        assert [j for j in range(1, 21) if 2 * terms[j - 1] < terms[j]] == [5, 10]
        assert check_completeness(c).certificate == brown.doubling_window(16)
        for m in range(11, 21):
            v = brown.Verdict(c, COMPLETE, brown.doubling_window(m), False, m)
            assert recheck(v) is (m >= 16), m

    def test_a_cell_above_lambda_does_not_certify_below_lambda(self, monkeypatch):
        # [1, 4] has its root near 2.56, above lambda_2 near 2.30.  Were
        # lambda_2's cell moved up to start at 3, p(3) > 0 would hold, and
        # only the sign of lambda_2's own polynomial there refuses it.  The
        # re-check reads the cell from the per-length cache, so it is moved
        # there; [1, 1], root near 1.62, passes with the true cell and not
        # with the moved one, so the moved cell is the one read.
        c, true = validate([1, 4]), analytic._lambda(2, 40)
        root = true.root._at(40)
        assert analytic.CharPoly(c).eval(3) > 0
        moved_up = replace(true, root=replace(root, num=3 << root.bits))
        forged = brown.Verdict(c, COMPLETE, brown.root_triage(analytic.TRIAGE_SLOW), True, 0)
        below = triage(validate([1, 1]))
        assert recheck(below)
        monkeypatch.setattr(analytic, "_lambda", lambda L, bits: moved_up)
        assert not recheck(forged)
        assert not recheck(below)

    def test_witness_at_or_below_the_prefix_sum_is_not_verified(self):
        # The prefix of 40 terms sums to about 1.5e9; 5 is below that sum, so
        # not a witness at 40, though it is missing for good.
        c = validate([1, 1] + [0] * 33 + [25583530])
        v = brown.Verdict(c, INCOMPLETE, brown.failure(40, witness=5), False, 40)
        assert recheck(v) is False


class TestRecheckFirstStretch:
    # recheck reads H_1..H_k, k = min(n, s), in closed form once the
    # reference terms are 1..k, where s is the second nonzero index.

    @settings(max_examples=40, deadline=None)
    @given(first_stretch_vectors(), st.data())
    def test_a_failure_moved_into_the_first_stretch_is_rejected(self, values, data):
        # H_m = m <= 1 + m(m-1)/2 for every m <= s: no gap of the stretch
        # fails, and its prefixes reach every sum up to S_m, so neither a gap
        # witness nor a missing sum m <= S_m holds there.
        c = validate(values)
        s = next(i for i, ci in enumerate(values[1:], start=2) if ci)
        assume(values[0] == 1 and s >= 3)
        m = data.draw(st.integers(3, s), label="m")
        for witness in (None, -1, 1 - m, m):
            forged = brown.Verdict(c, INCOMPLETE, brown.failure(m, witness), False, m)
            assert not recheck(forged), (m, witness)

    def test_the_stretch_is_read_from_the_reference_terms(self, monkeypatch):
        # With H_40 one too small in the reference terms the room before
        # H_{L+1} is one smaller, so the engine's witness no longer matches:
        # the closed form stands in only for terms that the comparison finds
        # to be 1..k, whatever the bisection's probes saw.
        v = check_completeness(validate([1, *[0] * 62, 2**40]))
        assert recheck(v)
        real = brown.generate_terms

        def h40_too_small(c, n):
            t = real(c, n).terms
            return core.TermSequence(c, (*t[:39], t[39] - 1, *t[40:]))

        monkeypatch.setattr(brown, "generate_terms", h40_too_small)
        assert not recheck(v)

    @pytest.mark.parametrize("L", [2, 3, 4, 64, 300, 1024])
    def test_second_nonzero_at_c_L(self, L):
        # s = L: the stretch is the whole head, H_1..H_L = 1..L.  The failure
        # at L + 1 re-checks, and moved into the stretch or past its index
        # does not.  The strict window, whose B_L..B_{2L-1} > 0 are read term
        # by term (B_L = 1 + L(L-1)/2 - L is 0 at L = 2), re-checks exactly
        # where the reference gaps say it holds.
        n = families.bound_one_zeros(L - 2).max_n
        fail = check_completeness(validate([1, *[0] * (L - 2), 2 ** L]))
        assert fail.certificate == brown.failure(L + 1, L * (L + 1) // 2 + 1 - (L + 2 ** L))
        assert recheck(fail)
        assert not recheck(moved(fail, index=L, witness=None))
        assert not recheck(moved(fail, index=L + 2, witness=None))
        for N in (1, n, n + 1):
            c = validate([1, *[0] * (L - 2), N])
            m = 2 * L - 1
            strict = brown.Verdict(c, COMPLETE, brown.strict_window(m), False, m)
            gaps = brute_gaps(reference_terms(c.values, m))
            holds = min(gaps[: L - 1]) >= 0 and min(gaps[L - 1 :]) > 0
            assert holds is (L >= 3 and N <= n), (L, N)
            assert recheck(strict) is holds, (L, N)


KINDS = (COMPLETE, INCOMPLETE, UNKNOWN)


def forgeries(v):
    """Each variant of ``v`` with its kind or its conjectural flag flipped."""
    for kind in KINDS:
        if kind != v.kind:
            yield replace(v, kind=kind)
    yield replace(v, conjectural=not v.conjectural)


def moved(v, **changes):
    return replace(v, certificate=replace(v.certificate, **changes))


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
    # The kernel is the gap engine, brown.check_completeness, and the terms
    # it grows; recheck reads terms from core.generate_terms alone.
    @pytest.mark.parametrize("values", [(1, 0, 0, 0, 0, 0, 15), (1, 0, 0, 3, 5)])
    def test_a_wrong_kernel_does_not_certify_itself(self, monkeypatch, values):
        c = validate(values)
        truth = (check_completeness(c), oracle_verdict(c, max_prefix=32))
        monkeypatch.setattr(brown, "check_completeness", wrong_check_completeness)
        for wrong, right in zip((brown.check_completeness(c), oracle_verdict(c, max_prefix=32)), truth):
            assert wrong != right
            assert not recheck(wrong), wrong

    def test_check_verify_exits_one_under_a_wrong_kernel(self, monkeypatch, capsys):
        monkeypatch.setattr(brown, "check_completeness", wrong_check_completeness)
        assert cli.main(["check", "1,0,0,0,0,0,15", "--verify"]) == 1
        assert '"verified": false' in capsys.readouterr().out

    def test_gap_certificates_recheck_without_the_kernel(self, monkeypatch):
        # Every tagged verdict but the family rule's, whose recheck runs the
        # engine; and long sparse vectors, whose first stretch recheck reads
        # in closed form, each at its family bound (complete) and past it.
        verdicts = [TAGGED[name]() for name in TAGGED if name != "family:one-zeros"]
        vectors = [validate(vals) for vals in all_vectors(3, 3)]
        for L in (64, 300, 1024):
            n = families.bound_one_zeros(L - 2).max_n
            vectors += [validate([1, *[0] * (L - 2), N]) for N in (n, n + 1, 2 ** (L // 2))]
        for c in vectors:
            verdicts += [check_completeness(c), oracle_verdict(c, max_prefix=4 * c.L)]
        assert {v.certificate.kind for v in verdicts} >= {
            "failure", "strict_window", "doubling_window"}

        def raising_engine(*args, **kwargs):
            raise AssertionError("recheck ran the gap engine")

        monkeypatch.setattr(brown, "check_completeness", raising_engine)
        monkeypatch.setattr(brown, "_gap_scan", raising_engine)
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

# Vectors of length 2 to 12 with small coefficients, for root triage.
triage_vectors = st.builds(
    lambda c1, mid, cL: (c1, *mid, cL),
    st.integers(1, 2),
    st.lists(st.sampled_from([0, 0, 0, 1, 2]), max_size=10),
    st.integers(1, 40),
)
TRIAGE_RULES = {analytic.TRIAGE_FAST, analytic.TRIAGE_SLOW, analytic.TRIAGE_INDETERMINATE}

# Members of each family shape, by the family's name.
family_shapes = {
    families.RULE_ONE_ZEROS: st.builds(families.OneZerosN, st.integers(0, 15)),
    families.RULE_ONES_ZEROS: st.integers(1, 8).flatmap(
        lambda g: st.builds(families.OnesZerosN, st.just(g), st.integers(1, g))),
    families.RULE_TWO_ONES_ZEROS: st.builds(families.TwoOnesZerosN, st.integers(0, 10)),
    families.RULE_ONE_ZEROS_ONES: st.integers(0, 4).flatmap(
        lambda m: st.builds(families.OneZerosOnesN, st.integers(2 * m + 2 + (m == 0), 14),
                            st.just(m))),
}


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

    @pytest.mark.parametrize("name", family_shapes)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_family_verdicts_pass_and_forgeries_fail(self, name, data):
        # A member with N within two of its bound; each forgery changes one
        # field of the verdict or of its certificate.
        shape = data.draw(family_shapes[name])
        n = max(1, shape.bound().max_n + data.draw(st.integers(-2, 2)))
        v = classify_family(shape, n)
        assert recheck(v), v
        other_rules = set(families.FAMILIES) - {v.certificate.rule}
        for forged in (*forgeries(v), *(moved(v, rule=rule) for rule in other_rules),
                       replace(v, horizon_used=7), moved(v, index=n), moved(v, witness=1),
                       replace(v, note="forged")):
            assert not recheck(forged), forged

    @example((3, 1))  # p2_negative
    @example((1, 1))  # below_lambda
    @example((1, 1, 2))  # indeterminate
    @example((1, *[0] * 10, 39))  # below_lambda at L = 12
    @settings(max_examples=60, deadline=None)
    @given(triage_vectors)
    def test_triage_verdicts_pass_and_forgeries_fail(self, values):
        v = triage(validate(values))
        assert recheck(v), v
        for forged in forgeries(v):
            assert not recheck(forged), forged
        for rule in TRIAGE_RULES - {v.certificate.rule}:
            assert not recheck(moved(v, rule=rule)), rule
            # Moved with the kind and flag the other rule implies, the
            # evaluation must refuse it.
            kind, conjectural = brown._IMPLIED[f"root:{rule}"]
            dressed = replace(moved(v, rule=rule), kind=kind, conjectural=conjectural)
            assert not recheck(dressed), rule
