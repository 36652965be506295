"""Completeness analysis for positive linear recurrence sequences.

A sequence is complete when every positive integer is a sum of distinct
terms.  This package generates such sequences exactly, decides
completeness through certified gap and subset-sum arguments, classifies
structured coefficient families in closed form, applies
completeness-preserving coefficient transformations, and locates
principal roots with exact rational certificates.
"""

from .analytic import (
    CharPoly,
    CostCap,
    DensenessReport,
    LambdaThreshold,
    RootBracket,
    ThresholdSearchReport,
    char_poly_eval,
    compare_roots,
    denseness_scan,
    exact_threshold_search,
    lambda_threshold,
    min_root_in_pls,
    principal_root,
    root_order_gap,
    triage,
)
from .brown import (
    COMPLETE,
    INCOMPLETE,
    UNKNOWN,
    Certificate,
    HorizonTooSmall,
    Verdict,
    check_completeness,
    recheck,
)
from .core import (
    Coefficients,
    EmptyVector,
    InvalidCoefficients,
    LeadingZero,
    NegativeEntry,
    TermSequence,
    TrailingZero,
    generate_terms,
    validate,
)
from .families import (
    FamilyBound,
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
    classify_family,
)
from .oracle import (
    BudgetExceeded,
    oracle_verdict,
    reachable_sums,
)
from .transforms import (
    NonPositiveAppend,
    RangeViolation,
    TooShort,
    TransformRecord,
    append_coeff,
    decrease_last,
    merge_last_two,
)

__version__ = "0.1.0"
