"""Shared brute-force oracles and enumeration helpers for the tests.

Everything here recomputes quantities from first principles (itertools
subset enumeration, direct gap sums, high-precision decimal square roots)
so expected values never depend on the code paths under test.
"""

from __future__ import annotations

import itertools
import json
from decimal import Decimal, getcontext
from fractions import Fraction

from hypothesis import strategies as st

from plrs import analytic, brown, oracle
from plrs.analytic import CharPoly, compare_roots, principal_root
from plrs.core import Coefficients, generate_terms, validate

getcontext().prec = 60


def replace(record, **changes):
    """``record`` rebuilt through its constructor, with ``changes`` to its fields."""
    fields = {name: changes.pop(name, getattr(record, name)) for name in record._fields}
    return type(record)(**fields, **changes)


def brute_subset_sums(terms) -> set[int]:
    """Every subset sum of the prefix, by explicit enumeration."""
    sums = set()
    for r in range(len(terms) + 1):
        for combo in itertools.combinations(range(len(terms)), r):
            sums.add(sum(terms[i] for i in combo))
    return sums


def brute_gaps(terms) -> list[int]:
    """B_n = 1 + sum of earlier terms - H_n, straight from the definition."""
    return [1 + sum(terms[:i]) - terms[i] for i in range(len(terms))]


def quadratic_root(b: int, c: int) -> Decimal:
    """Positive root of x^2 - b*x - c by the quadratic formula."""
    return (Decimal(b) + (Decimal(b) * Decimal(b) + 4 * Decimal(c)).sqrt()) / 2


def mask_to_set(mask: int, bound: int) -> set[int]:
    return {s for s in range(bound + 1) if (mask >> s) & 1}


def all_vectors(max_len: int, cap: int):
    """Every valid coefficient vector with L <= max_len and c_i <= cap."""
    for L in range(1, max_len + 1):
        if L == 1:
            for c1 in range(1, cap + 1):
                yield (c1,)
            continue
        for c1 in range(1, cap + 1):
            for mid in itertools.product(range(0, cap + 1), repeat=L - 2):
                for cL in range(1, cap + 1):
                    yield (c1, *mid, cL)


def vectors_by_sum(L: int, cap: int) -> list[Coefficients]:
    """Every valid vector of length L >= 2 with coefficient sum 2..cap,
    by sum and then lexicographically: the filtered product of c_i <= cap."""
    box = [v for v in itertools.product(range(cap + 1), repeat=L) if v[0] and v[-1]]
    return [validate(v) for v in sorted((v for v in box if sum(v) <= cap), key=sum)]


def reference_min_root(L: int, cap: int, tol) -> dict:
    """``min-root``'s JSON report but for ``config``, by brute force.

    The engine runs on every vector of ``vectors_by_sum``, and
    ``least_root`` picks the first least root among all the incomplete
    ones, in lexicographic order.
    """
    vectors = vectors_by_sum(L, cap)
    kinds = [brown.check_completeness(c).kind for c in vectors]
    incomplete = sorted((c for c, k in zip(vectors, kinds) if k == brown.INCOMPLETE),
                        key=lambda c: c.values)
    lam = analytic.lambda_threshold(L, tol).root
    best_c, best = analytic.least_root(incomplete, tol) or (None, None)
    return {
        "candidates": len(vectors),
        "conjecture_violated": best is not None and compare_roots(best, lam) < 0,
        "frontier": list(best_c.values) if best_c else None,
        "frontier_root": best.approx if best else None,
        "incomplete": len(incomplete),
        "lambda": lam.approx,
        "margin": best.approx - lam.approx if best else None,
        "undecided": [list(c.values) for c, k in zip(vectors, kinds) if k == brown.UNKNOWN],
    }


def reference_min_root_in_pls(L: int, S: int, tol=analytic.DEFAULT_TOL):
    """``min_root_in_pls``, checked against its whole sum class.

    Every vector of length L and coefficient sum S + 1 goes through
    ``least_root`` in lexicographic order.  The claimed minimizer comes
    first there, and ties keep the earlier vector, so it must win, with the
    bracket ``min_root_in_pls`` returns.
    """
    claimed, bracket = analytic.min_root_in_pls(L, S, tol)
    box = itertools.product(range(S + 2), repeat=L)
    vectors = [validate(v) for v in box if v[0] and v[-1] and sum(v) == S + 1]
    assert analytic.least_root(vectors, tol) == (claimed, bracket)
    return claimed, bracket


def reference_scan_2l1(L: int, cap: int, window: int, horizon=None):
    """``scan-2l1``'s (candidates, counterexamples, undecided) by brute force.

    Every vector of the box is built and filtered by its gaps through
    ``window``, from ``reference_terms``; each one that passes gets the
    engine at ``horizon``, then at the scan's fallback horizon
    max(4L, 32) + 1 if that is undecided.
    """
    edge, inner = range(1, cap + 1), range(cap + 1)
    box = list(itertools.product(edge, *[inner] * (L - 2), edge)) if L > 1 else \
        [(c1,) for c1 in edge]
    counterexamples, undecided = [], []
    for values in box:
        c = validate(values)
        if min(brute_gaps(reference_terms(values, window))) < 0:
            continue
        verdict = brown.check_completeness(c, horizon=horizon)
        if verdict.kind == brown.UNKNOWN:
            verdict = brown.check_completeness(c, horizon=max(4 * L, 32) + 1)
        if verdict.kind == brown.INCOMPLETE:
            counterexamples.append({"coefficients": list(values), "status": "counterexample",
                                    "first_failure": verdict.certificate.index})
        elif verdict.kind == brown.UNKNOWN:
            undecided.append({"coefficients": list(values), "status": "undecided"})
    return len(box), counterexamples, undecided


def reference_max_last(prefix, horizon=None):
    """``families.max_last`` with every probe an engine run.

    Doubling and then bisection on the last coefficient N, since lowering
    it keeps a complete sequence complete.  0 when N = 1 is already
    incomplete; None when the engine leaves a probed member unknown.
    """

    def complete(n):
        v = brown.check_completeness(validate([*prefix, n]), horizon=horizon)
        return None if v.kind == brown.UNKNOWN else v.kind == brown.COMPLETE

    first = complete(1)
    if first is None:
        return None
    if first is False:
        return 0
    lo, hi = 1, 2
    while (s := complete(hi)) is True:
        lo, hi = hi, hi * 2
    if s is None:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s = complete(mid)
        if s is None:
            return None
        if s:
            lo = mid
        else:
            hi = mid
    return lo


def last_coefficient_window(prefix) -> tuple[tuple[int, int], ...]:
    """Brown's gaps B_1..B_{2L} of ``prefix + [N]`` as exact lines in N.

    The pairs (a_n, s_n), n = 1..2L, with B_n = a_n + s_n*N for every N,
    from one pass over H_n = p_n + q_n*N: p_{n+1} = 1 + c_1*p_n + ... +
    c_n*p_1 for n < L, and past it p_{n+1} = sum c_i*p_{n+1-i} and q_{n+1} =
    sum c_i*q_{n+1-i} + p_{n+1-L}, over i < L.  The reference for
    ``brown._read_level``, which cuts these lines as it builds them.
    """
    values = validate([*prefix, 1]).values[:-1]  # raises as the vector would
    L = len(values) + 1
    p, q, lines = [], [0] * L, []
    sum_p = sum_q = 0  # of p_1..p_n and q_1..q_n
    for n in range(2 * L):  # H_{n+1}
        if n < L:
            p_n, q_n = 1 + sum(values[i - 1] * p[n - i] for i in range(1, n + 1)), 0
        else:
            p_n = sum(values[i - 1] * p[n - i] for i in range(1, L))
            q_n = p[n - L] + sum(values[i - 1] * q[n - i] for i in range(1, L))
            q.append(q_n)
        p.append(p_n)
        lines.append((1 + sum_p - p_n, sum_q - q_n))
        sum_p += p_n
        sum_q += q_n
    return tuple(lines)


def definite_oracle(c: Coefficients) -> brown.Verdict:
    """Oracle verdict with a prefix long enough to be definite for small c.

    The gap engine locates the relevant index first; the oracle then only
    needs to reach it.
    """
    engine = brown.check_completeness(c)
    horizon = max(2 * c.L + 2, (engine.certificate.index or 0) + 1)
    verdict = oracle.oracle_verdict(c, max_prefix=horizon)
    assert verdict.kind != brown.UNKNOWN, f"oracle undecided on {c}"
    return verdict


def is_complete(values) -> bool:
    return definite_oracle(validate(values)).kind == brown.COMPLETE


def reference_sign(poly: CharPoly, num: int, den: int = 1) -> int:
    """Sign of p(num/den) from den^L p(num/den), one step per coefficient, zeros included."""
    acc = dp = 1
    for ci in poly.coefficients.values:
        dp *= den
        acc = acc * num - ci * dp
    return (acc > 0) - (acc < 0)


def reference_bisect(poly: CharPoly, lo: Fraction, hi: Fraction, tol: Fraction):
    """Plain Fraction bisection of [lo, hi] down to width <= tol.

    Keeps p(lo) < 0 <= p(hi); the reference for the integer root isolation.
    Signs come from ``reference_sign``, not from ``CharPoly.sign_at``.
    """
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if reference_sign(poly, mid.numerator, mid.denominator) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def reference_root(c: Coefficients, tol: Fraction):
    """(lo, hi) of the principal root: an integer bracket, then bisection.

    An integer root t gives (t, t).
    """
    poly = CharPoly(c)
    if poly.eval(1) == 0:
        return Fraction(1), Fraction(1)
    hi = 2
    while poly.eval(hi) < 0:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:  # p(lo) < 0 <= p(hi)
        mid = (lo + hi) // 2
        if poly.eval(mid) < 0:
            lo = mid
        else:
            hi = mid
    if poly.eval(hi) == 0:
        return Fraction(hi), Fraction(hi)
    return reference_bisect(poly, Fraction(lo), Fraction(hi), tol)


def reference_lambda_root(L: int, tol=analytic.DEFAULT_TOL) -> analytic.RootBracket:
    """lambda_L's bracket as ``lambda_threshold`` first defined it: the
    principal root of [1, 0^(L-2), ceil(L(L+1)/4) + 1], isolated afresh."""
    return principal_root(analytic.sparse_vector(L, -(-L * (L + 1) // 4) + 1), tol)


def reference_triage(c: Coefficients) -> str:
    """The rule of ``triage``'s certificate, as first written: the sign of
    p at 2, then one sign at the lower end of lambda_L's bracket at
    ``DEFAULT_TOL`` (``reference_lambda_root``), both by ``CharPoly.eval``."""
    poly = CharPoly(c)
    if poly.eval(2) < 0:
        return analytic.TRIAGE_FAST
    if poly.eval(reference_lambda_root(c.L).lo) > 0:
        return analytic.TRIAGE_SLOW
    return analytic.TRIAGE_INDETERMINATE


def reference_threshold_search(L: int, tol) -> analytic.ThresholdSearchReport:
    """``exact_threshold_search`` by brute force over the box c_i <= 2^i.

    An incomplete vector with root below 2 has c_i < 2^i (else p(2) <= 0),
    so the box is exhaustive.  Every vector of it with p(2) > 0 gets the gap
    engine, and ``least_root`` picks the first least root among the
    incomplete ones.  ``candidates`` is the size of the box, and
    ``undecided`` holds the prefix c_1..c_(L-1) of each vector the engine
    leaves unknown.
    """
    lam = analytic.lambda_threshold(L, tol)
    ranges = [range(1, 3), *(range(0, 2**i + 1) for i in range(2, L)), range(1, 2**L + 1)]
    box = list(itertools.product(*ranges))
    incomplete, undecided = [], []
    for values in box:
        c = validate(values)
        if CharPoly(c).sign_at(2) <= 0:
            continue  # root >= 2
        kind = brown.check_completeness(c).kind
        if kind == brown.INCOMPLETE:
            incomplete.append(c)
        elif kind == brown.UNKNOWN:
            undecided.append(values[:-1])
    best_c, best = analytic.least_root(incomplete, tol) or (None, None)
    if best_c is None:
        agrees = lam.root.poly.sign_at(2) <= 0
    else:
        agrees = best_c == analytic.sparse_vector(L, lam.max_complete_n + 1)
    return analytic.ThresholdSearchReport(
        L, len(box), best_c, best, lam, agrees, tuple(dict.fromkeys(undecided))
    )


def reference_denseness_scan(L: int, epsilon, tol) -> analytic.DensenessReport:
    """``denseness_scan`` from one ``principal_root`` bracket per k.

    Roots increase by ``compare_roots`` on each pair; gaps shrink by
    ``reference_gap_shrink`` on each triple, whose refined brackets carry on
    to the next; epsilon is decided by ``reference_gap_below`` on the first
    gap, or on every gap without the shrink certificate.
    """
    k_min, k_max = (L * (L + 1) + 3) // 4 + 1, 2 ** (L - 1)
    brackets = [principal_root(analytic.sparse_vector(L, k), tol) for k in range(k_min, k_max + 1)]
    increasing = all(compare_roots(a, b) == -1 for a, b in zip(brackets, brackets[1:]))
    decreasing, work = True, list(brackets)
    for i in range(len(work) - 2):
        shrunk = reference_gap_shrink(*work[i : i + 3])
        if shrunk is None:
            decreasing = False
            break
        work[i : i + 3] = shrunk
    gaps = [b.approx - a.approx for a, b in zip(brackets, brackets[1:])]
    at = 0 if decreasing or not gaps else gaps.index(max(gaps))
    checked = zip(brackets, brackets[1:2] if decreasing else brackets[1:])
    return analytic.DensenessReport(
        L=L,
        k_min=k_min,
        k_max=k_max,
        roots=tuple((k_min + i, b.approx) for i, b in enumerate(brackets)),
        max_gap=gaps[at] if gaps else None,
        max_gap_at=k_min + at if gaps else None,
        covered=(brackets[0].approx, brackets[-1].approx) if brackets else None,
        increasing_certified=increasing,
        gaps_decreasing_certified=decreasing,
        terminal_root_exact_two=bool(brackets) and brackets[-1].exact_root == 2,
        epsilon=epsilon,
        epsilon_met=None if epsilon is None else all(
            reference_gap_below(a, b, epsilon) for a, b in checked
        ),
    )


def reference_gap_shrink(bq, br, bs):
    """Brackets of q < r < s refined until r - q > s - r is certified, or None.

    Each of 200 rounds bisects each bracket twice (an exact root stays a
    point) and compares Fraction ends: r - q >= r.lo - q.hi and s - r <= s.hi - r.lo.
    """
    for _ in range(200):
        if 2 * br.lo > bq.hi + bs.hi:
            return bq, br, bs
        bq, br, bs = (b.refined(b.width / 4) if b.width else b for b in (bq, br, bs))
    return None


def reference_gap_below(a, b, epsilon) -> bool:
    """Whether the gap between the roots of brackets ``a`` < ``b`` is below ``epsilon``.

    Both are refined until [b.lo - a.hi, b.hi - a.lo] lies on one side of
    epsilon, comparing Fraction ends.
    """
    if epsilon == float("inf"):
        return True
    epsilon = Fraction(epsilon)
    for _ in range(200):
        if b.hi - a.lo < epsilon:
            return True
        if b.lo - a.hi >= epsilon:
            return False
        a, b = (r.refined(r.width / 4) if r.width else r for r in (a, b))
    raise RuntimeError("gap certification against epsilon failed to converge")


# Reference copies of the term growth, gap engine and oracle scan that
# `brown.check_completeness` and `oracle.oracle_verdict` replaced: every
# coefficient visited, every prefix built in full up front, and the smallest
# missing sum found from a complement of the whole mask.


@st.composite
def first_stretch_vectors(draw):
    """[c_1, 0^k, tail] with k up to 300 and a tail of one to four
    coefficients, the last nonzero: c_1 = 1 but now and then 2..4.  With s
    = k + 2 the index of the tail's first entry, an entry is up to (s+1)^2,
    so H_{s+1} lands on either side of its room when it is the second
    nonzero, or up to 2^s, as the long sparse vectors of the benchmark."""
    c1 = draw(st.sampled_from((1,) * 7 + (2, 3, 4)))
    k = draw(st.integers(0, 300))
    s = k + 2
    entry = st.one_of(st.integers(0, (s + 1) ** 2), st.integers(0, 1 << s))
    tail = draw(st.lists(entry, min_size=1, max_size=4))
    tail[-1] = tail[-1] or 1
    return (c1, *[0] * k, *tail)


def reference_terms(values, n: int) -> tuple[int, ...]:
    """H_1..H_n by the recurrence, summing over all L coefficients."""
    L = len(values)
    terms: list[int] = []
    while len(terms) < n:
        m = len(terms)
        if m == 0:
            terms.append(1)
        elif m < L:
            terms.append(1 + sum(values[i] * terms[m - 1 - i] for i in range(m)))
        else:
            terms.append(sum(values[i] * terms[m - 1 - i] for i in range(L)))
    return tuple(terms)


def minus_ten_at_l_plus_2(values, n: int) -> tuple[int, ...]:
    """Wrong terms: H_1..H_n grown from an H_{L+2} that is 10 too small."""
    L = len(values)
    terms = list(reference_terms(values, min(n, L + 2)))
    if n >= L + 2:
        terms[L + 1] -= 10
    while len(terms) < n:
        m = len(terms)
        terms.append(sum(values[i] * terms[m - 1 - i] for i in range(L)))
    return tuple(terms)


def wrong_check_completeness(c: Coefficients, horizon=None, assume_2l1=False) -> brown.Verdict:
    """A wrong gap engine: the reference engine over ``minus_ten_at_l_plus_2``."""
    h = brown.engine_horizon(c.L, horizon)
    return reference_check_completeness(c, h, assume_2l1, grow=minus_ten_at_l_plus_2)


def reference_check_completeness(
    c: Coefficients, horizon=None, assume_2l1=False, max_horizon=None, grow=reference_terms
) -> brown.Verdict:
    """The gap engine with each horizon's whole prefix built before it is read.

    ``grow(values, n)`` builds the prefix H_1..H_n.
    """
    L = c.L
    if max_horizon is None:
        max_horizon = max(brown.DEFAULT_MAX_HORIZON, 4 * L)
    explicit = horizon is not None
    h = horizon if explicit else min(max(4 * L, 64), max_horizon)
    if h < 2 * L - 1:
        raise brown.HorizonTooSmall(f"horizon {h} < 2L-1 = {2 * L - 1}")
    running, strict_ok, run, ok_through_2l1, n = 0, True, 0, False, 0
    while True:
        target = h
        terms = grow(c.values, target + 1)
        while n < target:
            n += 1
            h_n = terms[n - 1]
            gap = 1 + running - h_n
            running += h_n
            if gap < 0:
                return brown.Verdict(c, brown.INCOMPLETE, brown.failure(n, witness=gap), False, n)
            if L <= n <= 2 * L - 1 and gap == 0:
                strict_ok = False
            if n == 2 * L - 1:
                ok_through_2l1 = True
                if strict_ok and L >= 2:
                    return brown.Verdict(c, brown.COMPLETE, brown.strict_window(n), False, n)
            run = run + 1 if 2 * h_n - terms[n] >= 0 else 0
            m = n + 1
            if run >= L and m - L >= L + 1 and m <= target and 1 + running - terms[m - 1] >= 0:
                return brown.Verdict(c, brown.COMPLETE, brown.doubling_window(m), False, m)
        if explicit or h >= max_horizon:
            break
        h = min(2 * h, max_horizon)
    if assume_2l1 and ok_through_2l1:
        return brown.Verdict(c, brown.COMPLETE, brown.family_rule(brown.RULE_2L1), True, h)
    return brown.Verdict(c, brown.UNKNOWN, brown.horizon_exhausted(h), False, h)


def reference_oracle_verdict(c: Coefficients, max_prefix: int, budget_bits: int) -> brown.Verdict:
    """The full subset-sum scan, re-deriving the smallest missing sum at every step.

    It builds a mask for every prefix up to ``max_prefix``, complete or not.
    """
    L = c.L
    if max_prefix < 2 * L - 1:
        raise brown.HorizonTooSmall(f"max_prefix {max_prefix} < 2L-1 = {2 * L - 1}")
    terms = reference_terms(c.values, max_prefix + 1)
    mask, total = 1, 0
    for n in range(1, max_prefix + 1):
        h = terms[n - 1]
        if total + h + 1 > budget_bits:
            raise oracle.BudgetExceeded(
                f"prefix {n} needs {total + h + 1} bits, budget is {budget_bits}"
            )
        mask |= mask << h
        total += h
        missing = ~mask & ((1 << (total + 1)) - 2)
        effective = (missing & -missing).bit_length() - 1 if missing else total + 1
        if effective < terms[n]:
            return brown.Verdict(
                c, brown.INCOMPLETE, brown.failure(n, witness=effective), False, n
            )
    engine = reference_check_completeness(c, horizon=max_prefix)
    if engine.kind == brown.COMPLETE and engine.certificate.kind in (
        "strict_window",
        "doubling_window",
    ):
        return engine
    return brown.Verdict(
        c, brown.UNKNOWN, brown.horizon_exhausted(max_prefix), False, max_prefix
    )


@st.composite
def respelled(draw, value: int) -> str:
    """A field that int() reads as ``value``: leading zeros, "_" between
    digits, a "+" and blanks around it, each drawn or not."""
    digits = "0" * draw(st.integers(0, 2)) + str(value)
    cuts = draw(st.sets(st.integers(1, len(digits) - 1))) if len(digits) > 1 else set()
    field = "".join(("_" if i in cuts else "") + d for i, d in enumerate(digits))
    field = draw(st.sampled_from(["", "+"])) + field
    field = draw(st.sampled_from(["", " ", "\t"])) + field + draw(st.sampled_from(["", " "]))
    assert int(field) == value
    return field


def reference_report(command: str, values, fmt: str, verify: bool = False,
                     triage_first: bool = False, n: int | None = None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``check``, ``oracle-check`` or ``gen``
    on ``values`` at default settings, as the writer wrote them when each
    report's dicts held the coefficient list as a list and went whole through
    ``json.JSONEncoder(sort_keys=True)``, and the CSV and plain lists were
    str() of each value.  The verdicts come from the engine, triage and
    oracle themselves: this is a reference for the writer only."""
    encode = json.JSONEncoder(sort_keys=True).encode
    c, err, code = validate(values), "", 0
    if command == "gen":
        t = generate_terms(c, n)
        config = {"command": "gen", "coefficients": list(c.values), "n": n, "format": fmt}
        if fmt == "json":
            body = {"coefficients": list(c.values), "terms": list(t.terms)}
        elif fmt == "csv":
            body = "n,term\n" + "\n".join(f"{i},{h}" for i, h in enumerate(t.terms, start=1))
        else:
            body = " ".join(str(h) for h in t.terms)
    else:
        if command == "check":
            config = {"command": "check", "coefficients": list(c.values), "horizon": None,
                      "assume_2l1": False, "triage_first": triage_first, "format": fmt,
                      "path": []}
            verdict = None
            if triage_first and c.L >= 2:
                config["path"].append("triage")
                verdict = analytic.triage(c)
                if verdict.kind == brown.UNKNOWN:
                    verdict = None
            if verdict is None:
                config["path"].append("brown")
                verdict = brown.check_completeness(c)
        else:
            max_prefix = max(4 * c.L, 32)
            config = {"command": "oracle-check", "coefficients": list(c.values),
                      "max_prefix": max_prefix, "format": fmt}
            verdict = oracle.oracle_verdict(c, max_prefix)
        if verify:
            config["verified"] = brown.recheck(verdict)
            if not config["verified"]:
                err, code = f"certificate failed re-validation: {verdict}\n", 1
        body = verdict.to_json_dict()
        index = body["index"]
        if fmt == "csv":
            body = (
                "coefficients,kind,certificate,index,conjectural,horizon_used\n"
                f"{';'.join(str(v) for v in body['coefficients'])},{body['kind']},"
                f"{body['certificate']},{'' if index is None else index},"
                f"{str(body['conjectural']).lower()},{body['horizon_used']}"
            )
        elif fmt == "plain":
            bits = [str(verdict.coefficients), verdict.kind, f"certificate={body['certificate']}"]
            if index is not None:
                bits.append(f"index={index}")
            if verdict.conjectural:
                bits.append("conjectural")
            if verdict.note:
                bits.append(f"({verdict.note})")
            body = " ".join(bits)
    if fmt == "json":
        return code, encode({**body, "config": config}) + "\n", err
    echo = f"# config: {encode(config)}"
    if fmt == "csv":
        return code, f"{echo}\n{body}\n", err
    return code, body + "\n", f"{err}{echo}\n"
