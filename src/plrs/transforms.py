"""Coefficient transformations with known effect on completeness.

Three moves on the tail of a coefficient vector come with guarantees:

* appending any positive coefficient preserves incompleteness,
* decreasing the last coefficient (keeping it positive) preserves
  completeness,
* replacing the last two coefficients by their sum preserves
  incompleteness.

A transform always returns a record, even when its guarantee does not
apply to the given input (the guarantee is conditional on the input being
incomplete or complete, which the transform does not check).  This keeps
the moves usable as raw search steps; property tests filter on verified
hypotheses.
"""

from __future__ import annotations

from .core import Coefficients, _Record, validate

APPEND_COEFF = "append_coeff"
DECREASE_LAST = "decrease_last"
MERGE_LAST_TWO = "merge_last_two"

PRESERVES_INCOMPLETE = "preserves_incomplete"
PRESERVES_COMPLETE = "preserves_complete"


class NonPositiveAppend(ValueError):
    pass


class RangeViolation(ValueError):
    pass


class TooShort(ValueError):
    pass


class TransformRecord(_Record):
    __slots__ = ("input", "output", "rule", "guarantee")


def append_coeff(c: Coefficients, c_new: int) -> TransformRecord:
    """Append a positive coefficient: incomplete inputs stay incomplete."""
    if c_new < 1:
        raise NonPositiveAppend(f"appended coefficient must be >= 1, got {c_new}")
    out = validate(list(c.values) + [c_new])
    return TransformRecord(c, out, APPEND_COEFF, PRESERVES_INCOMPLETE)


def decrease_last(c: Coefficients, k_last: int) -> TransformRecord:
    """Lower the last coefficient to k_last: complete inputs stay complete."""
    if not 1 <= k_last <= c.values[-1]:
        raise RangeViolation(
            f"replacement must satisfy 1 <= k <= c_L = {c.values[-1]}, got {k_last}"
        )
    out = validate(list(c.values[:-1]) + [k_last])
    return TransformRecord(c, out, DECREASE_LAST, PRESERVES_COMPLETE)


def merge_last_two(c: Coefficients) -> TransformRecord:
    """Fold c_L into c_{L-1}: incomplete inputs stay incomplete."""
    if c.L < 2:
        raise TooShort("need at least two coefficients to merge")
    out = validate(list(c.values[:-2]) + [c.values[-2] + c.values[-1]])
    return TransformRecord(c, out, MERGE_LAST_TWO, PRESERVES_INCOMPLETE)
