#!/usr/bin/env python3
"""Ground truth by brute force: subset-sum reachability.

Without any gap arithmetic, a bit-vector dynamic program lists
every integer expressible as a sum of distinct prefix terms.  If some
integer below the next term is missing, it stays missing forever -- a
self-contained incompleteness witness anyone can re-check by hand.
"""

from plrs import generate_terms, oracle_verdict, reachable_sums, validate

t = generate_terms(validate([1, 3]), 3)
mask = reachable_sums(t)
print("Subset sums of (1, 2, 5):", sorted(s for s in range(9) if mask >> s & 1))
print("4 is missing, and the next term is 11 -- so 4 is lost for good.\n")

t = generate_terms(validate([2]), 6)
mask = reachable_sums(t)
print("The doubling sequence covers every integer up to its running sum:")
print(f"  subset sums of {t.terms} reach all of [0, {sum(t.terms)}]:",
      mask == (1 << sum(t.terms) + 1) - 1)

print("\nOracle verdicts come from one gap-engine run.  Before the first failing")
print("gap every sum up to the prefix total is reachable, so an incomplete one")
print("names 1 + that total, re-checkable without gap arithmetic:")
for coeffs in ([1, 3], [1, 1], [1, 2, 0, 0, 0, 0, 15]):
    v = oracle_verdict(validate(coeffs), max_prefix=16)
    witness = f", permanently missing {v.certificate.witness}" if v.certificate.witness else ""
    print(f"  {str(v.coefficients):18s} {v.kind}{witness}")

print("\nWitness check for [1,2,0,0,0,0,15]: terms start", end=" ")
terms = generate_terms(validate([1, 2, 0, 0, 0, 0, 15]), 4).terms
print(f"{terms}; subsets of (1, 2) reach at most 3, and every later term")
print("exceeds 4, so 4 is unreachable forever.")
