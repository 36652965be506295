"""Completeness analysis for positive linear recurrence sequences.

A sequence is complete when every positive integer is a sum of distinct
terms.  This package generates such sequences exactly, decides
completeness through certified gap and subset-sum arguments, classifies
structured coefficient families in closed form, applies
completeness-preserving coefficient transformations, and locates
principal roots with exact rational certificates.

``core`` is imported with the package.  Every other layer is registered in
``sys.modules`` and as an attribute of the package at import, but its code
runs on the first access to one of its attributes, so a command that never
calls a layer never compiles it.  ``plrs.<name>`` resolves each public name
from the layer that defines it.
"""

import importlib.util
import sys

from . import core

_EXPORTS = {
    "analytic": (
        "CharPoly", "CostCap", "DensenessReport", "LambdaThreshold", "RootBracket",
        "ThresholdSearchReport", "char_poly_eval", "compare_roots", "denseness_scan",
        "exact_threshold_search", "lambda_threshold", "min_root_in_pls", "principal_root",
        "root_order_gap", "triage",
    ),
    "brown": (
        "COMPLETE", "INCOMPLETE", "UNKNOWN", "Certificate", "HorizonTooSmall", "Verdict",
        "check_completeness", "recheck",
    ),
    "core": (
        "Coefficients", "EmptyVector", "InvalidCoefficients", "LeadingZero", "NegativeEntry",
        "TermSequence", "TrailingZero", "generate_terms", "validate",
    ),
    "families": (
        "FamilyBound", "OneZerosN", "OneZerosOnesN", "OnesZerosN", "OutOfProvenRange",
        "ShapeViolation", "TwoOnesZerosN", "bound_one_zeros", "bound_one_zeros_ones",
        "bound_ones_zeros", "bound_two_ones_zeros", "classify_family",
    ),
    "oracle": ("BudgetExceeded", "oracle_verdict", "reachable_sums"),
    "transforms": (
        "NonPositiveAppend", "RangeViolation", "TooShort", "TransformRecord", "append_coeff",
        "decrease_last", "merge_last_two",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_LAYER_OF]
__version__ = "0.1.0"


def _lazy(layer: str):
    # plrs.<layer>, put in sys.modules unrun; its first attribute access runs
    # it, with no lock on Python 3.10 to 3.12.1 (see the README on threads).
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


brown = _lazy("brown")
families = _lazy("families")
analytic = _lazy("analytic")
oracle = _lazy("oracle")
transforms = _lazy("transforms")


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYER_OF})
