"""Workload definitions: the requests each pass sends, and the output checks.

A workload is a sequence of *passes*; a pass is a fixed-size list of CLI
requests that the worker sends one after another (closed loop, one client).
``sweep`` and ``roots`` repeat one fixed job list; ``queries`` and ``oracle``
draw pass ``i`` of a stream seeded by ``--seed``.  Every pass of a stream
workload has the same composition (stratified sampling), so pass times and
per-pass percentiles compare across passes, seeds and commits.  The known
failures are part of that composition: each pass holds the same number of
them, whatever the seed.

This module never imports ``plrs``: the inputs are generated, and the outputs
judged, by code that is independent of the program under test.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

FAMILY_HEADER = "family,g,k,L,m,max_n_rule,proven,max_n_search,agree"

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its output must satisfy.

    ``vector`` is the coefficient vector for verdict requests; ``expect`` is
    the known kind (``complete``/``incomplete``) when the vector belongs to
    a family with a proven closed-form bound, else None.
    """

    argv: tuple[str, ...]
    check: str
    vector: tuple[int, ...] = ()
    expect: Optional[str] = None
    params: tuple = ()


@dataclass
class Outcome:
    """Judgement of one request: status, reason and the parsed verdict kind."""

    status: str
    reason: str = ""
    kind: Optional[str] = None


# ---------------------------------------------------------------------------
# Independent arithmetic used to build and judge inputs


def sparse_bound(L: int) -> int:
    """Largest N with [1, 0^(L-2), N] complete: ceil(L(L+1)/4) (L >= 2)."""
    return -(-L * (L + 1) // 4)


def sparse_vector(L: int, n: int) -> tuple[int, ...]:
    return (1,) + (0,) * (L - 2) + (n,)


def sparse_expect(L: int, n: int) -> str:
    return "complete" if n <= sparse_bound(L) else "incomplete"


def plrs_terms(vector: tuple[int, ...], count: int) -> list[int]:
    """First ``count`` terms of the sequence defined by ``vector``."""
    L = len(vector)
    terms: list[int] = []
    while len(terms) < count:
        n = len(terms)
        if n == 0:
            terms.append(1)
        elif n < L:
            terms.append(1 + sum(vector[i] * terms[n - 1 - i] for i in range(n)))
        else:
            terms.append(sum(vector[i] * terms[n - 1 - i] for i in range(L)))
    return terms


def subset_sum_work(vector: tuple[int, ...]) -> int:
    """Bits a subset-sum bitset sweeps for ``vector``, summed over its steps.

    The prefix is scanned until the first term exceeding 1 + the sum before
    it (the first Brown failure) or for max(4L, 32) terms, whichever comes
    first; each step costs the running sum in bits.  Used only to stratify
    the ``oracle`` stream by how much subset-sum work an input implies.
    """
    span = max(4 * len(vector), 32)
    terms = plrs_terms(vector, span + 1)
    total = work = 0
    for n in range(span):
        total += terms[n]
        work += total
        if terms[n + 1] > total + 1:
            break
    return work


#: ``oracle-check``'s default cap on the subset-sum bit-vector (bits).
ORACLE_BUDGET_BITS = 1 << 28


def oracle_exhausts_budget(vector: tuple[int, ...], budget_bits: int = ORACLE_BUDGET_BITS) -> bool:
    """Whether ``oracle-check`` at its default prefix runs out of bits on ``vector``.

    The scan covers max(4L, 32) terms.  Each step needs 1 + the running sum
    of terms in bits; the scan stops early, with an incomplete verdict, at
    the first term exceeding 1 + the sum before it (the first Brown failure).
    Used only to give every ``oracle`` pass the same number of known
    failures, so that ``failed`` does not depend on the seed.
    """
    span = max(4 * len(vector), 32)
    terms = plrs_terms(vector, span + 1)
    total = 0
    for n in range(span):
        if total + terms[n] + 1 > budget_bits:
            return True
        total += terms[n]
        if terms[n + 1] > total + 1:
            return False
    return False


def short_vectors(max_L: int = 6) -> list[tuple[int, ...]]:
    """Every valid vector with L <= max_L, c_i <= 4 (c_i <= 3 at L = 6)."""
    out = []
    for L in range(1, max_L + 1):
        cap = 4 if L < 6 else 3
        for v in itertools.product(range(cap + 1), repeat=L):
            if v[0] and v[-1]:
                out.append(v)
    return out


def _fmt(vector: tuple[int, ...]) -> str:
    return ",".join(map(str, vector))


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    # One uniform draw from each of `count` equal slices of [lo, hi].
    width = (hi - lo + 1) / count
    return [lo + int((j + rng.random()) * width) for j in range(count)]


# ---------------------------------------------------------------------------
# Fixed job lists


def _scan(L: int, cap: int) -> Request:
    return Request(("scan-2l1", "--L", str(L), "--coeff-cap", str(cap), "--jobs", "1"),
                   "scan", params=(L, cap))


def _family(family: str, *ranges: tuple[str, int, int]) -> Request:
    argv = ["family-table", "--family", family]
    for flag, a, b in ranges:
        argv += [f"--{flag}", f"{a}..{b}"]
    return Request(tuple(argv), "family", params=(family, ranges))


def _min_root(L: int, cap: int) -> Request:
    return Request(("min-root", "--L", str(L), "--sum-cap", str(cap), "--jobs", "1"),
                   "min-root", params=(L, cap))


SWEEP_JOBS = (
    _scan(6, 4),
    _scan(4, 12),
    _family("one-zeros", ("k", 1, 60)),
    _family("ones-zeros", ("g", 1, 6), ("k", 1, 6)),
    _family("two-ones-zeros", ("k", 1, 30)),
    _family("one-zeros-ones", ("L", 3, 10), ("m", 1, 8)),
)

DENSE_L = 12

ROOTS_JOBS = (
    Request(("dense", "--L", str(DENSE_L)), "dense", params=(DENSE_L,)),
    _min_root(4, 10),
    _min_root(3, 14),
)


# ---------------------------------------------------------------------------
# Seeded streams

QUERIES_SHORT = 72
QUERIES_SPARSE_PAIRS = 6
QUERIES_LONG = 15
QUERIES_TAIL = 1

ORACLE_STRATA = 48


def _verdict(kind: str, vector: tuple[int, ...], expect: Optional[str], *flags: str) -> Request:
    return Request((kind, _fmt(vector), *flags), kind, vector=vector, expect=expect)


def queries_pass(seed: int, index: int) -> list[Request]:
    """Pass ``index`` of the ``queries`` stream: 100 vectors, 200 requests.

    72 short random vectors (L <= 8, c_i <= 4); 6 sparse-family pairs
    [1, 0^k, N] at N = bound and bound + 1 (k stratified over 0..60); 15 long
    sparse vectors (L stratified over 64..512, N of L/2 to L-1 bits); 1 vector
    with L in 513..1024.  Each vector is sent as ``check --verify`` and then as
    ``check --triage-first --verify``.
    """
    rng = random.Random(f"queries:{seed}:{index}")
    vectors: list[tuple[tuple[int, ...], Optional[str]]] = []
    for _ in range(QUERIES_SHORT):
        L = rng.randint(1, 8)
        v = [rng.randint(0, 4) for _ in range(L)]
        v[0], v[-1] = max(v[0], 1), max(v[-1], 1)
        vectors.append((tuple(v), None))
    for k in _stratified(rng, 0, 60, QUERIES_SPARSE_PAIRS):
        L = k + 2
        for n in (sparse_bound(L), sparse_bound(L) + 1):
            vectors.append((sparse_vector(L, n), sparse_expect(L, n)))
    long_L = _stratified(rng, 64, 512, QUERIES_LONG)
    long_L += [rng.randint(513, 1024) for _ in range(QUERIES_TAIL)]
    for L in long_L:
        n = rng.randrange(1 << (L // 2), 1 << (L - 1))
        vectors.append((sparse_vector(L, n), sparse_expect(L, n)))
    rng.shuffle(vectors)
    requests = []
    for v, expect in vectors:
        requests.append(_verdict("check", v, expect, "--verify"))
        requests.append(_verdict("check", v, expect, "--triage-first", "--verify"))
    return requests


def _strata(pool: list[tuple[int, ...]], count: int) -> list[tuple[tuple[int, ...], ...]]:
    # ``count`` equal slices of ``pool`` ordered by subset-sum work.
    pool = sorted(pool, key=lambda v: (subset_sum_work(v), v))
    size = len(pool) / count
    return [tuple(pool[int(j * size):int((j + 1) * size)]) for j in range(count)]


@functools.lru_cache(maxsize=1)
def oracle_strata() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The short-vector pool cut into ``ORACLE_STRATA`` strata.

    The vectors that exhaust the default bit budget (148 of the 4804, about
    3.1%) get their own strata; their number is the pool's share of them
    in ``ORACLE_STRATA`` draws, rounded up (2).  The rest of the pool fills
    the other strata, ordered by subset-sum work.
    """
    pool = short_vectors()
    exhausts = [oracle_exhausts_budget(v) for v in pool]
    exhausting = [v for v, e in zip(pool, exhausts) if e]
    covered = [v for v, e in zip(pool, exhausts) if not e]
    n_exhausting = -(-ORACLE_STRATA * len(exhausting) // len(pool))
    return tuple(_strata(covered, ORACLE_STRATA - n_exhausting)
                 + _strata(exhausting, n_exhausting))


@functools.lru_cache(maxsize=1)
def oracle_sparse_groups() -> tuple[tuple[int, ...], ...]:
    """Values of k in 1..40, grouped by how many of the pair [1, 0^k, N] at
    N = bound and bound + 1 exhaust the default bit budget.

    The complete member exhausts it for k = 1 and k >= 10; the incomplete
    one never does.  One pair is drawn from each group.
    """
    groups: dict[int, list[int]] = {}
    for k in range(1, 41):
        L = k + 2
        count = sum(oracle_exhausts_budget(sparse_vector(L, n))
                    for n in (sparse_bound(L), sparse_bound(L) + 1))
        groups.setdefault(count, []).append(k)
    return tuple(tuple(groups[count]) for count in sorted(groups))


def oracle_pass(seed: int, index: int) -> list[Request]:
    """Pass ``index`` of the ``oracle`` stream: 52 ``oracle-check --verify``.

    One vector from each of the 48 strata of the short pool (L <= 6,
    c_i <= 4, c_i <= 3 at L = 6), two of which hold the budget-exhausting
    vectors, plus one sparse-family pair at N = bound and bound + 1 from each
    group of ``oracle_sparse_groups``.  Complete vectors with growth near 2
    exhaust the default bit budget: 3 requests of every pass.
    """
    rng = random.Random(f"oracle:{seed}:{index}")
    vectors = [(rng.choice(stratum), None) for stratum in oracle_strata()]
    for group in oracle_sparse_groups():
        L = rng.choice(group) + 2
        for n in (sparse_bound(L), sparse_bound(L) + 1):
            vectors.append((sparse_vector(L, n), sparse_expect(L, n)))
    rng.shuffle(vectors)
    return [_verdict("oracle-check", v, expect, "--verify") for v, expect in vectors]


@dataclass(frozen=True)
class Workload:
    """A named pass generator.

    ``pass_s`` is about the time one pass takes on a shared 2-core Xeon VM.
    It turns ``--seconds`` into a fixed number of passes, so that a run's requests, and its ``attempted`` and
    ``failed`` counts, depend on the seed alone and not on how fast the
    machine was.
    """

    name: str
    why: str
    make_pass: Callable[[int, int], list[Request]]
    pass_s: float
    seeded: bool = True

    def pass_count(self, seconds: float) -> int:
        return max(MIN_PASSES, round(seconds / self.pass_s))

    def passes(self, seed: int, seconds: float) -> Iterator[list[Request]]:
        for index in range(self.pass_count(seconds)):
            yield self.make_pass(seed, index)


#: Every run sends at least this many passes.
MIN_PASSES = 3

#: Seconds one pass of each workload takes on a shared 2-core Xeon VM
#: (median pass time, unscaled).
SWEEP_PASS_S = 1.35
ROOTS_PASS_S = 1.2
QUERIES_PASS_S = 1.55
ORACLE_PASS_S = 1.05

WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", "exhaustive scan-2l1 and family-table jobs: core and brown on "
                 "many short vectors with small integers and early failures",
                 lambda seed, index: list(SWEEP_JOBS), pass_s=SWEEP_PASS_S, seeded=False),
        Workload("roots", "dense and min-root jobs: analytic bisection, compare_roots "
                 "and sign_at dominate",
                 lambda seed, index: list(ROOTS_JOBS), pass_s=ROOTS_PASS_S, seeded=False),
        Workload("queries", "seeded closed-loop check and check --triage-first with "
                 "--verify: short vectors, long big-int horizons, per-request CLI cost",
                 queries_pass, pass_s=QUERIES_PASS_S),
        Workload("oracle", "seeded closed-loop oracle-check --verify: the subset-sum "
                 "bitset, including budget-exhausting vectors with growth near 2",
                 oracle_pass, pass_s=ORACLE_PASS_S),
    )
}


# ---------------------------------------------------------------------------
# Output checks


def judge(req: Request, rc: object, out: str) -> Outcome:
    """Judge one request: FAILED (bad exit / no report), WRONG (bad report) or OK."""
    if rc != 0:
        return Outcome(FAILED, f"exit {rc}")
    if not out.strip():
        return Outcome(FAILED, "exit 0 without a report")
    try:
        return _CHECKS[req.check](req, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Outcome(WRONG, f"unparseable report: {exc!r}")


def _check_scan(req: Request, out: str) -> Outcome:
    L, cap = req.params
    report = json.loads(out)
    expected = cap if L == 1 else cap * (cap + 1) ** (L - 2) * cap
    if report["candidates"] != expected:
        return Outcome(WRONG, f"{report['candidates']} candidates, expected {expected}")
    if report["window"] != 2 * L - 1:
        return Outcome(WRONG, f"window {report['window']}")
    if report["counterexamples"] or report["undecided"]:
        return Outcome(WRONG, "counterexamples or undecided vectors reported")
    return Outcome(OK)


def family_rows(family: str, ranges) -> list[tuple]:
    """Expected (g, k, L, m, bounded) rows of a family-table request."""
    r = {flag: range(a, b + 1) for flag, a, b in ranges}
    if family == "one-zeros":
        return [("", k, k + 2, "", True) for k in r["k"]]
    if family == "ones-zeros":
        return [(g, k, g + k + 1, "", g == 1 or g >= k) for g in r["g"] for k in r["k"]]
    if family == "two-ones-zeros":
        return [(2, k, k + 3, "", True) for k in r["k"]]
    return [("", "", L, m, True) for L in r["L"] for m in r["m"]
            if L >= 2 * m + 2 and L - m >= 3]


def _check_family(req: Request, out: str) -> Outcome:
    family, ranges = req.params
    lines = out.rstrip("\n").split("\n")
    if not lines[0].startswith("# config: ") or lines[1] != FAMILY_HEADER:
        return Outcome(WRONG, "config comment or CSV header differs")
    rows = [line.split(",") for line in lines[2:]]
    expected = family_rows(family, ranges)
    if len(rows) != len(expected) or any(len(row) != 9 for row in rows):
        return Outcome(WRONG, f"{len(rows)} rows, expected {len(expected)}")
    for row, (g, k, L, m, bounded) in zip(rows, expected):
        if row[:5] != [family, str(g), str(k), str(L), str(m)]:
            return Outcome(WRONG, f"row {row[:5]} out of order")
        if bounded and row[8] != "true":
            return Outcome(WRONG, f"bounded row {row} does not agree")
        if family == "one-zeros" and row[5] != str(sparse_bound(L)):
            return Outcome(WRONG, f"one-zeros rule {row[5]} != {sparse_bound(L)}")
    return Outcome(OK)


def _check_dense(req: Request, out: str) -> Outcome:
    (L,) = req.params
    lines = out.rstrip("\n").split("\n")
    comments = {}
    for line in lines:
        if line.startswith("# ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            comments[key] = value
    rows = [line for line in lines if line and not line.startswith("#")]
    expected = 2 ** (L - 1) - sparse_bound(L)
    if rows[0] != "k,root" or len(rows) - 1 != expected:
        return Outcome(WRONG, f"{len(rows) - 1} roots, expected {expected}")
    for key in ("increasing_certified", "gaps_decreasing_certified", "terminal_root_exact_two"):
        if comments.get(key) != "True":
            return Outcome(WRONG, f"{key} is {comments.get(key)}")
    return Outcome(OK)


@functools.lru_cache(maxsize=None)
def vectors_with_sum_count(L: int, cap: int) -> int:
    """Vectors of length L >= 2 with c_1, c_L >= 1 and coefficient sum 2..cap."""
    count = 0
    for v in itertools.product(range(cap + 1), repeat=L):
        if v[0] and v[-1] and 2 <= sum(v) <= cap:
            count += 1
    return count


def _check_min_root(req: Request, out: str) -> Outcome:
    L, cap = req.params
    report = json.loads(out)
    expected = vectors_with_sum_count(L, cap)
    if report["candidates"] != expected:
        return Outcome(WRONG, f"{report['candidates']} candidates, expected {expected}")
    if report["conjecture_violated"] is not False or report["undecided"]:
        return Outcome(WRONG, "conjecture violated or undecided vectors")
    return Outcome(OK)


def _check_verdict(req: Request, out: str) -> Outcome:
    report = json.loads(out)
    kind = report["kind"]
    if tuple(report["coefficients"]) != req.vector:
        return Outcome(WRONG, "coefficients differ from the request", kind)
    if report["config"].get("verified") is not True:
        return Outcome(WRONG, "certificate not verified", kind)
    if kind not in ("complete", "incomplete", "unknown"):
        return Outcome(WRONG, f"kind {kind!r}", kind)
    if req.expect and kind != "unknown" and kind != req.expect:
        return Outcome(WRONG, f"{kind}, expected {req.expect}", kind)
    return Outcome(OK, kind=kind)


_CHECKS = {
    "scan": _check_scan,
    "family": _check_family,
    "dense": _check_dense,
    "min-root": _check_min_root,
    "check": _check_verdict,
    "oracle-check": _check_verdict,
}


def check_pairs(requests: list[Request], outcomes: list[Outcome]) -> None:
    """``check`` must agree with ``--triage-first`` when both are definite.

    A disagreeing pair marks the ``--triage-first`` outcome WRONG.
    """
    for i in range(1, len(requests)):
        a, b = requests[i - 1], requests[i]
        if (a.check != "check" or b.vector != a.vector or "--triage-first" in a.argv
                or "--triage-first" not in b.argv):
            continue
        ka, kb = outcomes[i - 1].kind, outcomes[i].kind
        if ka in ("complete", "incomplete") and kb in ("complete", "incomplete") and ka != kb:
            outcomes[i] = Outcome(WRONG, f"check says {ka}, --triage-first says {kb}", kb)
