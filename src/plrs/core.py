"""Coefficient vectors and exact term generation.

A positive linear recurrence sequence (PLRS) is defined by a coefficient
vector ``[c_1, ..., c_L]`` of non-negative integers with ``c_1 >= 1`` and
``c_L >= 1``.  Terms are seeded with ``H_1 = 1`` and grown by

    H_{n+1} = c_1*H_n + c_2*H_{n-1} + ... + c_n*H_1 + 1     for 1 <= n < L,
    H_{n+1} = c_1*H_n + c_2*H_{n-1} + ... + c_L*H_{n+1-L}   for n >= L.

All arithmetic is exact; terms are Python integers of unbounded size.
Term and coefficient indices in the public API are 1-based, matching
the conventions above.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import compress


class InvalidCoefficients(ValueError):
    """A coefficient vector violates the PLRS shape requirements."""


class EmptyVector(InvalidCoefficients):
    pass


class LeadingZero(InvalidCoefficients):
    pass


class TrailingZero(InvalidCoefficients):
    pass


class NegativeEntry(InvalidCoefficients):
    pass


class _Record:
    """An immutable value record over the fields named in ``__slots__``.

    A record type declares its fields once, in ``__slots__``, and gets its
    constructor from them when the class is created: one generated
    ``__init__`` that takes the fields in slot order and sets each once,
    with ``object.__setattr__``.  A field named in the class's ``_defaults``
    dict may be omitted (those must be the trailing fields).  A slot whose
    name starts with ``_`` is a cache: it is no parameter and starts as
    None.  A type that converts or validates its fields (``Coefficients``)
    writes its own ``__init__`` and keeps it.  After construction, assigning
    or deleting an attribute raises AttributeError.  Equality (only between
    instances of one type), hash and repr read the fields in slot order, as
    a frozen dataclass does; caches take no part in them.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._key = operator.attrgetter(*cls._fields)
        if "__init__" not in vars(cls):
            # The code a hand-written constructor would be, compiled once.
            defaults = getattr(cls, "_defaults", {})
            params = "".join(f", {name}=_d[{name!r}]" if name in defaults else f", {name}"
                             for name in cls._fields)
            body = "".join(f"\n    object.__setattr__(self, {name!r}, "
                           f"{name if name in cls._fields else None})" for name in cls.__slots__)
            scope = {"_d": defaults}
            exec(f"def init(self{params}):{body}", scope)
            init = cls.__init__ = scope["init"]
            init.__name__, init.__qualname__ = "__init__", f"{cls.__qualname__}.__init__"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Rebuilt through __init__, so copy and pickle never assign a field.
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Coefficients(_Record):
    """A validated coefficient vector ``[c_1, ..., c_L]``.

    Equality is element-wise; ``[1, 2]`` and ``[1, 2, 0]`` are distinct
    vectors (and the latter is rejected outright).
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]) -> None:
        vals = tuple(map(int, values))
        object.__setattr__(self, "values", vals)
        if not vals:
            raise EmptyVector("coefficient vector is empty")
        if min(vals) < 0:
            raise NegativeEntry(f"negative coefficient in {list(vals)}")
        if vals[0] == 0:
            raise LeadingZero(f"c_1 must be positive, got {list(vals)}")
        if vals[-1] == 0:
            raise TrailingZero(f"c_L must be positive, got {list(vals)}")

    @property
    def L(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def c(self, i: int) -> int:
        """The coefficient c_i, 1-based."""
        if not 1 <= i <= len(self.values):
            raise IndexError(f"coefficient index {i} out of range 1..{len(self.values)}")
        return self.values[i - 1]

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.values) + "]"


def validate(values: Sequence[int]) -> Coefficients:
    """Validate a raw integer sequence as a PLRS coefficient vector.

    Raises EmptyVector, LeadingZero, TrailingZero, or NegativeEntry when
    the vector is not a legal shape.
    """
    return Coefficients(values)


def _prefix_walk(ranges: Sequence[Iterable[int]], keep: Callable[..., bool]) -> Iterator[tuple]:
    # The prefixes P = c_1..c_{L-1}, L = len(ranges) + 1, with c_i in
    # ranges[i-1] that `keep` passes at every depth, depth-first in
    # lexicographic order.  keep(c_1..c_k, H_{k+1}, H_1 + ... + H_k) judges
    # c_k at depth k, and the first value it rejects ends the level, so it
    # must be monotone.  The head term H_{k+1} = 1 + c_1*H_k + ... + c_k*H_1
    # is free of the later c_i, so a subtree shares its prefix's terms.
    # Each leaf is the live (P, H_1..H_L); its consumer may extend the terms.
    prefix, terms = [], [1]

    def walk(k: int, running: int) -> Iterator[tuple]:
        base = 1 + sum(ci * terms[k - i] for i, ci in enumerate(prefix, start=1))
        for ck in ranges[k - 1]:
            h = base + ck
            prefix.append(ck)
            if not keep(prefix, h, running):
                prefix.pop()
                return
            terms.append(h)
            if k < len(ranges):
                yield from walk(k + 1, running + h)
            else:
                yield prefix, terms
            prefix.pop()
            del terms[k:]  # a leaf's consumer may have read on past H_{k+1}

    yield from walk(1, 1) if ranges else [(prefix, terms)]


class TermSequence(_Record):
    """An exact, immutable prefix ``(H_1, ..., H_n)`` of a PLRS."""

    __slots__ = ("coefficients", "terms")

    def __len__(self) -> int:
        return len(self.terms)

    def term(self, n: int) -> int:
        """The term H_n, 1-based."""
        if not 1 <= n <= len(self.terms):
            raise IndexError(f"term index {n} out of range 1..{len(self.terms)}")
        return self.terms[n - 1]

    def __str__(self) -> str:
        from decimal import Decimal  # str() of a Decimal ignores the int digit limit

        return "(" + ", ".join(str(Decimal(t)) for t in self.terms) + ")"


def generate_terms(c: Coefficients, n: int) -> TermSequence:
    """Generate the exact first ``n`` terms of the PLRS defined by ``c``.

    The library's reference term loop: the definition above, over the
    nonzero coefficients only.  With c_1 = 1 and s the index of the second
    nonzero coefficient (s = 1 when L = 1), H_{m+1} = 1 + H_m for m < s, so
    H_1..H_min(n, s) are 1, 2, ..., min(n, s), taken as a range; every
    later term is the definition's loop.  It shares no code with the gap
    engine ``brown.check_completeness``, which grows its own terms as it
    reads them, so ``brown.recheck`` can re-check the engine with it.
    """
    if n < 1:
        raise ValueError(f"need at least one term, got n={n}")
    L, vals = c.L, c.values
    nonzero, i = [], 0  # (i, c_i) for each nonzero c_i
    for ci in compress(vals, vals):
        i = vals.index(ci, i) + 1
        nonzero.append((i, ci))
    s = nonzero[1][0] if vals[0] == 1 and L > 1 else 1
    terms = list(range(1, min(n, s) + 1))
    for m in range(len(terms), min(n, L)):  # H_{m+1}: 1 + c_i*H_{m+1-i} over i <= m
        h = 1
        for i, ci in nonzero:
            if i > m:
                break
            h += ci * terms[m - i]
        terms.append(h)
    for m in range(L, n):  # H_{m+1}: c_i*H_{m+1-i} over every i <= L
        h = 0
        for i, ci in nonzero:
            h += ci * terms[m - i]
        terms.append(h)
    return TermSequence(c, tuple(terms))
