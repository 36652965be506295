import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plrs import (
    COMPLETE,
    INCOMPLETE,
    UNKNOWN,
    NonPositiveAppend,
    RangeViolation,
    TooShort,
    append_coeff,
    check_completeness,
    decrease_last,
    generate_terms,
    merge_last_two,
    validate,
)
from plrs.transforms import (
    APPEND_COEFF,
    DECREASE_LAST,
    MERGE_LAST_TWO,
    PRESERVES_COMPLETE,
    PRESERVES_INCOMPLETE,
)
from helpers import all_vectors, definite_oracle


class TestAppendCoeff:
    def test_output_shape_and_guarantee(self):
        rec = append_coeff(validate([1, 3]), 1)
        assert rec.output == validate([1, 3, 1])
        assert rec.rule == APPEND_COEFF
        assert rec.guarantee == PRESERVES_INCOMPLETE

    def test_incompleteness_carries_over(self):
        rec = append_coeff(validate([3]), 5)
        assert definite_oracle(rec.input).kind == INCOMPLETE
        assert definite_oracle(rec.output).kind == INCOMPLETE

    def test_record_returned_even_when_hypothesis_unmet(self):
        # [1,1] is complete; the move still works, the guarantee just
        # does not apply.
        rec = append_coeff(validate([1, 1]), 1)
        assert rec.output == validate([1, 1, 1])

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveAppend):
            append_coeff(validate([1, 3]), 0)


class TestDecreaseLast:
    def test_output_shape_and_guarantee(self):
        rec = decrease_last(validate([1, 0, 3]), 2)
        assert rec.output == validate([1, 0, 2])
        assert rec.rule == DECREASE_LAST
        assert rec.guarantee == PRESERVES_COMPLETE

    def test_identity_when_k_equals_last(self):
        rec = decrease_last(validate([1, 2]), 2)
        assert rec.output == rec.input

    def test_complete_input_example(self):
        rec = decrease_last(validate([1, 1, 2]), 1)
        assert rec.output == validate([1, 1, 1])
        assert definite_oracle(rec.output).kind == COMPLETE

    @pytest.mark.parametrize("bad", [0, 4, -1])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(RangeViolation):
            decrease_last(validate([1, 0, 3]), bad)


class TestMergeLastTwo:
    def test_folds_tail(self):
        assert merge_last_two(validate([1, 0, 4])).output == validate([1, 4])
        assert merge_last_two(validate([2, 1])).output == validate([3])

    def test_guarantee_label(self):
        rec = merge_last_two(validate([1, 0, 4]))
        assert rec.rule == MERGE_LAST_TWO
        assert rec.guarantee == PRESERVES_INCOMPLETE

    def test_record_returned_for_complete_input(self):
        assert merge_last_two(validate([1, 1, 1])).output == validate([1, 2])

    def test_rejects_single_coefficient(self):
        with pytest.raises(TooShort):
            merge_last_two(validate([2]))


@pytest.fixture(scope="module")
def classified_space():
    out = {}
    for vals in all_vectors(3, 3):
        out[vals] = definite_oracle(validate(vals)).kind
    return out


class TestPreservationProperties:
    # Exhaustive over L <= 3, c_i <= 3, with the subset-sum oracle as the
    # ground truth on both sides of each move.

    def test_append_preserves_incompleteness(self, classified_space):
        for vals, kind in classified_space.items():
            if kind != INCOMPLETE:
                continue
            for extra in (1, 2, 3):
                rec = append_coeff(validate(vals), extra)
                assert definite_oracle(rec.output).kind == INCOMPLETE, (vals, extra)

    def test_decrease_last_preserves_completeness(self, classified_space):
        for vals, kind in classified_space.items():
            if kind != COMPLETE:
                continue
            for k_last in range(1, vals[-1] + 1):
                rec = decrease_last(validate(vals), k_last)
                assert definite_oracle(rec.output).kind == COMPLETE, (vals, k_last)

    def test_merge_preserves_incompleteness(self, classified_space):
        for vals, kind in classified_space.items():
            if kind != INCOMPLETE or len(vals) < 2:
                continue
            rec = merge_last_two(validate(vals))
            assert definite_oracle(rec.output).kind == INCOMPLETE, vals

    def test_appended_sequences_diverge_geometrically(self):
        # On incomplete inputs (the setting where this mechanism drives the
        # preservation argument) the term-wise excess of the appended
        # sequence at least doubles each step.  It is not unconditional:
        # appending 3 to the complete [1,0,2] violates the doubling at
        # k = 12, because the extended sequence grows slower than 2^n.
        samples = [([1, 3], 2), ([2, 1], 1), ([3], 5), ([1, 0, 4], 1), ([1, 1, 0, 4], 2), ([4], 4)]
        for vals, extra in samples:
            rec = append_coeff(validate(vals), extra)
            assert definite_oracle(rec.input).kind == INCOMPLETE
            L = len(vals)
            shorter = generate_terms(rec.input, L + 21).terms
            longer = generate_terms(rec.output, L + 21).terms
            for k in range(2, 21):
                lhs = longer[L + k - 1] - shorter[L + k - 1]
                rhs = longer[L + k - 2] - shorter[L + k - 2]
                assert lhs >= 2 * rhs, (vals, extra, k)

    def test_difference_doubling_has_counterexamples_on_complete_inputs(self):
        rec = append_coeff(validate([1, 0, 2]), 3)
        g = generate_terms(rec.input, 24).terms
        h = generate_terms(rec.output, 24).terms
        diffs = [b - a for a, b in zip(g, h)]
        assert any(diffs[i + 1] < 2 * diffs[i] for i in range(3, 23))


# Random vectors, judged by the gap engine; unknown verdicts are skipped.
# A complete vector of length >= 2 starts with c_1 = 1 and has small middle
# coefficients, so complete inputs are drawn from that shape.
engine_vectors = st.builds(
    lambda first, middle, last: validate([first, *middle, last]),
    st.integers(1, 3), st.lists(st.integers(0, 3), max_size=4), st.integers(1, 8),
) | st.builds(lambda c1: validate([c1]), st.integers(1, 4))
complete_shaped = st.builds(
    lambda middle, last: validate([1, *middle, last]),
    st.lists(st.integers(0, 1), max_size=5), st.integers(1, 12),
) | st.builds(lambda c1: validate([c1]), st.integers(1, 2))


def engine_kind(c):
    kind = check_completeness(c).kind
    assume(kind != UNKNOWN)
    return kind


class TestEngineProperties:
    @settings(deadline=None, max_examples=200)
    @given(engine_vectors, st.integers(1, 6))
    def test_append_keeps_incomplete(self, c, extra):
        assume(engine_kind(c) == INCOMPLETE)
        assert engine_kind(append_coeff(c, extra).output) == INCOMPLETE

    @settings(deadline=None, max_examples=200)
    @given(engine_vectors)
    def test_merge_keeps_incomplete(self, c):
        assume(c.L >= 2 and engine_kind(c) == INCOMPLETE)
        assert engine_kind(merge_last_two(c).output) == INCOMPLETE

    @settings(deadline=None, max_examples=200)
    @given(complete_shaped, st.data())
    def test_decrease_last_keeps_complete(self, c, data):
        assume(engine_kind(c) == COMPLETE)
        k_last = data.draw(st.integers(1, c.values[-1]), label="k_last")
        assert engine_kind(decrease_last(c, k_last).output) == COMPLETE
