#!/usr/bin/env python3
"""Generating positive linear recurrence sequences exactly.

A coefficient vector [c_1, ..., c_L] with positive first and last entries
defines a sequence: H_1 = 1, the first L terms add a "+1" correction, and
from then on each term is the plain linear recurrence.  Everything is
exact integer arithmetic, so nothing overflows no matter how far we go.
"""

from plrs import generate_terms, validate

print("Fibonacci numbers, shifted to start 1, 2:")
fib = generate_terms(validate([1, 1]), 10)
print(" ", fib.terms)

print("\n[1,3] grows faster; its third term already jumps past doubling:")
print(" ", generate_terms(validate([1, 3]), 6).terms)

print("\n[1,0,1,4] looks tame (1,2,3,5,11,...) but 11 > 2*5 -- a doubling")
print("violation that, as the verdict demos show, costs it nothing:")
print(" ", generate_terms(validate([1, 0, 1, 4]), 7).terms)

print("\nEvery vector [1,...,1,2] generates exactly the powers of two,")
print("the fastest-growing complete sequence there is:")
for L in (2, 4, 6):
    t = generate_terms(validate([1] * (L - 1) + [2]), 9)
    print(f"  L={L}: {t.terms}")

print("\nSparse vectors [1,0^k,N] crawl through 1, 2, ..., k+2 before the")
print("last coefficient kicks in:")
print(" ", generate_terms(validate([1, 0, 0, 0, 9]), 8).terms)

print("\nExactness demo: term 500 of [4,4,4,4] has", end=" ")
big = generate_terms(validate([4, 4, 4, 4]), 500).term(500)
print(f"{len(str(big))} digits, computed without rounding.")

print("\nA longer prefix starts with every shorter one:")
print("  5 terms:", generate_terms(validate([2, 1]), 5).terms)
print("  9 terms:", generate_terms(validate([2, 1]), 9).terms)
