"""The public surface of the ``plrs`` package, whose layers load on first use."""

import os
import subprocess
import sys

import pytest

import plrs

# What ``import plrs`` exported when every layer was imported eagerly.
EXPORTS = {
    "analytic": [
        "CharPoly", "CostCap", "DensenessReport", "LambdaThreshold", "RootBracket",
        "ThresholdSearchReport", "char_poly_eval", "compare_roots", "denseness_scan",
        "exact_threshold_search", "lambda_threshold", "min_root_in_pls", "principal_root",
        "root_order_gap", "triage",
    ],
    "brown": ["COMPLETE", "INCOMPLETE", "UNKNOWN", "Certificate", "HorizonTooSmall", "Verdict",
              "check_completeness", "recheck"],
    "core": ["Coefficients", "EmptyVector", "InvalidCoefficients", "LeadingZero",
             "NegativeEntry", "TermSequence", "TrailingZero", "generate_terms", "validate"],
    "families": [
        "FamilyBound", "OneZerosN", "OneZerosOnesN", "OnesZerosN", "OutOfProvenRange",
        "ShapeViolation", "TwoOnesZerosN", "bound_one_zeros", "bound_one_zeros_ones",
        "bound_ones_zeros", "bound_two_ones_zeros", "classify_family",
    ],
    "oracle": ["BudgetExceeded", "oracle_verdict", "reachable_sums"],
    "transforms": ["NonPositiveAppend", "RangeViolation", "TooShort", "TransformRecord",
                   "append_coeff", "decrease_last", "merge_last_two"],
}
NAMES = [(layer, name) for layer, names in EXPORTS.items() for name in names]


def _fresh(code: str) -> str:
    # stdout of `code` in a new interpreter without site, with plrs importable.
    src = os.path.dirname(os.path.dirname(plrs.__file__))
    done = subprocess.run([sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {src!r})\n"
                           + code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("layer,name", NAMES, ids=[name for _, name in NAMES])
def test_name_resolves_to_the_layers_object(layer, name):
    assert getattr(plrs, name) is getattr(getattr(plrs, layer), name)
    assert getattr(plrs, layer) is sys.modules[f"plrs.{layer}"]


def test_star_import_gives_the_exports_and_the_layers():
    # In a fresh interpreter, where the star import runs every layer; sys is
    # the probe's own import.
    out = _fresh("from plrs import *\nprint(sorted(k for k in dir() if not k.startswith('_')))")
    assert out == f"{sorted({name for _, name in NAMES} | set(EXPORTS) | {'sys'})}\n"


def test_dir_lists_the_exports():
    assert {name for _, name in NAMES} | set(EXPORTS) <= set(dir(plrs))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        plrs.nope
    assert not hasattr(plrs, "nope")


def test_verdict_pickled_in_one_interpreter_unpickles_in_another():
    # _Record.__reduce__ names plrs.brown.Verdict; the second interpreter
    # imports nothing before pickle.loads, which imports and runs plrs.brown.
    blob = _fresh("import pickle, plrs\n"
                  "print(pickle.dumps(plrs.check_completeness(plrs.validate([1, 3]))).hex())")
    out = _fresh(f"import pickle\nv = pickle.loads(bytes.fromhex({blob.strip()!r}))\n"
                 "import plrs\n"
                 "print(type(v) is plrs.brown.Verdict, v == plrs.check_completeness(v.coefficients),"
                 " v.kind, v.certificate.index)")
    assert out == "True True incomplete 3\n"
