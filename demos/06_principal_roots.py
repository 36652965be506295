#!/usr/bin/env python3
"""Root analytics: growth rates as a fast completeness filter.

The characteristic polynomial x^L - c_1 x^(L-1) - ... - c_L has a single
positive root, the sequence's growth rate.  Complete sequences can grow
at most like 2^n, so a root above 2 proves incompleteness with one
polynomial sign evaluation -- no terms generated at all.  Conjecturally
there is also a lower threshold lambda_L: incomplete sequences of length
L should never grow slower than that.  Between the two thresholds lies an
indeterminate band where only gap arithmetic can decide.
"""

from plrs import (
    check_completeness,
    denseness_scan,
    exact_threshold_search,
    lambda_threshold,
    min_root_in_pls,
    principal_root,
    triage,
    validate,
)

print("Certified root brackets (exact rational sign checks at the ends):")
for coeffs in ([1, 1], [2, 1], [1, 3], [1, 1, 2]):
    b = principal_root(validate(coeffs))
    tag = f"= {b.exact_root} exactly" if b.exact_root else f"~ {b.approx:.8f}"
    print(f"  {str(b.poly.coefficients):9s} root {tag}")

print("\nlambda thresholds shrink toward 1 as L grows (at L=3 the threshold")
print("is exactly 2, collapsing the indeterminate band to a point):")
for L in (2, 3, 4, 6, 10, 20):
    lam = lambda_threshold(L)
    tag = f"{lam.root.approx:.6f}" + (" (exact)" if lam.root.exact_root else "")
    print(f"  L={L:2d}: lambda = {tag}")

print("\nTriage in action: three sign evaluations, three different fates:")
for coeffs in ([1, 3], [1, 1], [1, 1, 1, 0, 4]):
    t = triage(validate(coeffs))
    note = f" [{t.note}]" if t.note else ""
    print(f"  {str(t.coefficients):13s} {t.kind:10s} via {t.certificate.tag()}{note}")

print("\nThe band case [1,1,1,0,4] (root exactly 2) falls to gap arithmetic:")
v = check_completeness(validate([1, 1, 1, 0, 4]))
print(f"  resolved {v.kind} with certificate {v.certificate.tag()}"
      f" at index {v.certificate.index}")

print("\nAmong all vectors of length L with a fixed coefficient sum, the")
print("sparse one [1,0,...,0,S] grows slowest:")
c, b = min_root_in_pls(3, 4)
print(f"  L=3, sum 5: minimizer {c}, root ~ {b.approx:.6f}")

print("\nExhaustive audit at L=8: the slowest incomplete vector with root")
print("below 2 is exactly the one defining lambda_8:")
r = exact_threshold_search(8)
print(f"  frontier {r.frontier_coefficients}, root ~ {r.frontier.approx:.9f},"
      f" agrees with lambda: {r.agrees_with_lambda},"
      f" {r.candidates} prefixes searched")

print("\nIncomplete growth rates fill (1, 2) ever more densely: sweeping")
print("[1,0^(L-2),k] at L=12 over k = 40..2048:")
rep = denseness_scan(12)
print(f"  {len(rep.roots)} roots from {rep.covered[0]:.4f} up to exactly"
      f" {rep.covered[1]:.0f}, max consecutive gap {rep.max_gap:.5f},"
      f" strictly increasing: {rep.increasing_certified}")
