#!/usr/bin/env python3
"""Deciding completeness with certified gap arithmetic.

A sequence is complete when every positive integer is a sum of distinct
terms.  Brown's criterion turns that into arithmetic: the gap
B_n = 1 + (sum of terms before H_n) - H_n must stay non-negative.  The
engine scans gaps exactly and stops at the first of three outcomes:

* a negative gap (incomplete, with the failing index as certificate),
* a strict-positivity window over indices L..2L-1 (complete),
* a run of L non-negative doubling margins past index L (complete --
  this is what rescues boundary sequences whose gaps are identically 0).

Anything else within the horizon is an honest "unknown".
"""

import json

from plrs import check_completeness, generate_terms, recheck, validate

print("Gaps of [1,3]: the third gap dips negative, so 4 = B_3's")
print("witness value can never be represented:")
terms = generate_terms(validate([1, 3]), 5).terms
print("  gaps   :", [1 + sum(terms[:i]) - h for i, h in enumerate(terms)])
print("  margins:", [2 * a - b for a, b in zip(terms, terms[1:])])

print("\nVerdicts carry machine-checkable certificates:")
for coeffs in ([1, 3], [1, 1], [2], [1, 0, 1, 4], [1, 1, 2]):
    v = check_completeness(validate(coeffs))
    print(f"  {str(v.coefficients):11s} {v.kind:10s} via {v.certificate.tag()}"
          f" (index {v.certificate.index}), re-validated: {recheck(v)}")

print("\nOne coefficient can flip the answer back and forth.  Raising the")
print("second coefficient of [1,0,0,0,0,0,15] to 1 repairs completeness;")
print("raising it again breaks it:")
for coeffs in ([1, 0, 0, 0, 0, 0, 15], [1, 1, 0, 0, 0, 0, 15], [1, 2, 0, 0, 0, 0, 15]):
    v = check_completeness(validate(coeffs))
    print(f"  {str(v.coefficients):18s} {v.kind}")

print("\nThe family [1^k,0,4] passes the gap test longer and longer before")
print("failing at index 2k+3 -- squarely at 2L-1, which is why no window")
print("shorter than 2L-1 can ever be a sound completeness test:")
for k in (1, 2, 3, 4):
    v = check_completeness(validate([1] * k + [0, 4]))
    print(f"  k={k}: first failure at {v.certificate.index} (2L-1 = {2 * (k + 2) - 1})")

print("\nEvery verdict serializes to a fixed JSON schema:")
print(" ", json.dumps(check_completeness(validate([1, 1])).to_json_dict(), sort_keys=True))
