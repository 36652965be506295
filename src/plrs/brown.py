"""Brown's-criterion gaps and completeness verdicts.

A nondecreasing positive sequence with first term 1 is complete (every
positive integer is a sum of distinct terms) iff H_{n+1} <= 1 + sum of the
first n terms for every n.  The slack of that inequality is the gap

    B_n = 1 + H_1 + ... + H_{n-1} - H_n,

so completeness is exactly "B_n >= 0 for all n".  The engine here decides
completeness on a finite horizon using two sound certificates:

* strict window: B_n >= 0 for n < L and B_n > 0 for L <= n <= 2L-1 force
  B_n > 0 forever.
* doubling window: the margins D_n = 2*H_n - H_{n+1} satisfy the recurrence
  D_n = c_1*D_{n-1} + ... + c_L*D_{n-L} once n >= L+1, so a full window of
  L consecutive non-negative margins located past index L propagates
  forever, making B nondecreasing from there on.

Gap arithmetic is exact integer arithmetic throughout; no floating point
enters any verdict.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from itertools import compress

from .core import (
    Coefficients,
    _prefix_walk,
    _Record,
    generate_terms,
)

COMPLETE = "complete"
INCOMPLETE = "incomplete"
UNKNOWN = "unknown"

#: Horizon of an engine run that names none, raised to 4L for long vectors.
DEFAULT_MAX_HORIZON = 1024

#: Conjectural rule id for the opt-in "non-negative through 2L-1" shortcut.
RULE_2L1 = "2l-1"


class HorizonTooSmall(ValueError):
    """The requested horizon cannot even cover the 2L-1 window."""


class Certificate(_Record):
    """Machine-checkable evidence attached to a verdict.

    kind is one of ``strict_window``, ``doubling_window``, ``family``,
    ``root``, ``failure``, ``horizon``.  ``index`` is the window end, the
    failure position, or the exhausted horizon.  ``rule`` names a family
    rule or a root-triage path.  ``witness`` carries the failing gap value
    (failure found by gap arithmetic) or the permanently missing integer
    (failure found by subset sums).
    """

    __slots__ = ("kind", "index", "rule", "witness")
    _defaults = dict.fromkeys(("index", "rule", "witness"))

    def tag(self) -> str:
        if self.kind == "family":
            return f"family:{self.rule}"
        if self.kind == "root":
            return f"root:{self.rule}"
        return self.kind


def strict_window(m: int) -> Certificate:
    return Certificate("strict_window", index=m)


def doubling_window(m: int) -> Certificate:
    return Certificate("doubling_window", index=m)


def family_rule(rule_id: str) -> Certificate:
    return Certificate("family", rule=rule_id)


def root_triage(path: str) -> Certificate:
    return Certificate("root", rule=path)


def failure(index: int, witness: int | None = None) -> Certificate:
    return Certificate("failure", index=index, witness=witness)


def horizon_exhausted(m: int) -> Certificate:
    return Certificate("horizon", index=m)


class Verdict(_Record):
    """Completeness verdict for one coefficient vector.

    ``conjectural`` is True whenever the verdict rests on an unproven
    conjecture rather than a sound certificate.
    """

    __slots__ = ("coefficients", "kind", "certificate", "conjectural", "horizon_used", "note")
    _defaults = {"note": None}

    def to_json_dict(self) -> dict:
        """Serialize to the documented wire format."""
        out = {
            "coefficients": list(self.coefficients.values),
            "kind": self.kind,
            "certificate": self.certificate.tag(),
            "index": self.certificate.index,
            "conjectural": self.conjectural,
            "horizon_used": self.horizon_used,
        }
        if self.certificate.witness is not None:
            out["witness"] = self.certificate.witness
        if self.note:
            out["note"] = self.note
        return out


def window_scan(L: int, cap: int, window: int, horizon: int | None = None) -> Iterator[Verdict]:
    """The engine verdicts of ``scan-2l1``, in lexicographic order: one for
    each vector of length L, c_1 and c_L in 1..cap and the rest in 0..cap,
    whose gaps B_n are non-negative for every n <= ``window``, but for those
    the strict window proves complete (L >= 2, ``window`` >= 2L-1, B_n > 0
    for L <= n <= 2L-1).  Each run is at the longer of
    ``engine_horizon(L, horizon)`` and max(4L, 32) + 1, which gives what a
    run at the first and a retry of an unknown at the second would.

    ``core._prefix_walk`` walks c_1..c_{L-1}, sharing a prefix's terms with
    its subtree.  B_{k+1} falls strictly as c_k grows (c_k multiplies H_1 =
    1 alone in it), so the first c_k with a negative gap at an index <=
    ``window`` ends the level.  ``_settle_level`` reads each prefix for
    every c_L.
    """
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")
    h = max(engine_horizon(L, horizon), max(4 * L, 32) + 1)

    def keep(prefix: list[int], term: int, running: int) -> bool:
        return len(prefix) >= window or term <= 1 + running  # B_{k+1} >= 0

    edge, inner = range(1, cap + 1), range(cap + 1)
    for prefix, terms in _prefix_walk([*[edge] * (L > 1), *[inner] * (L - 2)], keep):
        yield from _settle_level(prefix, terms, window, cap, h)[3]


def _read_level(prefix: Sequence[int], terms: list[int], window: int) -> tuple:
    # The gaps B_1..B_window, window <= 2L, of P + [N] for every N at once,
    # where ``prefix`` is P = c_1..c_{L-1} and the list ``terms`` holds the
    # head terms H_1..H_L, which are free of c_L, and maybe more, as a leaf
    # of ``core._prefix_walk`` does.  H_n = p_n + q_n*N: N enters at H_{L+1}
    # = ... + N*H_1, and H_{n+1} with n < 2L multiplies it only by
    # H_{n+1-L}, which is free of N; so p is the sequence of P + [0], q_n = 0
    # for n <= L, and q_{n+1} = p_{n+1-L} + sum c_i*q_{n+1-i} over i < L.
    # The head gaps B_1..B_L are free of N and pass or fail every N; each
    # later B_n = a_n + s_n*N is cut by the sign of its slope as it is read:
    # s_{L+1} = -1, and later slopes may have either sign.  Returns (lo, hi,
    # slo, shi): the N >= 1 with B_1..B_window >= 0 are lo..hi (hi None when
    # window <= L, (1, 0) when none pass), and those the strict window
    # proves complete (L >= 2, window >= 2L-1, B_n >= 0 for n < L and B_n > 0
    # for L <= n <= 2L-1) are slo..shi, or (1, 0) when there are none or the
    # window stops short of 2L-1.
    L = len(prefix) + 1
    p = terms[:L]
    room = _room_after(p[:window])  # 1 + H_1 + ... + H_min(window, L)
    if room is None:
        return 1, 0, 1, 0
    if window <= L:
        return 1, None, 1, 0
    # B_{n+1} with n < strict_last needs to be >= 1 for the strict window;
    # B_L, the last head gap, is one of them.
    strict_last = 2 * L - 1 if L >= 2 and window >= 2 * L - 1 and 2 * p[-1] < room else 0
    taps = [(ci, i) for i, ci in enumerate(prefix, start=1) if ci]
    q = [0] * L
    lo = slo = 1
    hi = shi = room  # above a_{L+1}, where B_{L+1} = a_{L+1} - N cuts both
    sum_p, sum_q = room, 0  # 1 + p_1 + ... + p_n, and q_1 + ... + q_n
    for n in range(L, window):  # H_{n+1} and B_{n+1}
        p_n, q_n = 0, p[n - L]
        for ci, i in taps:
            p_n += ci * p[n - i]
            q_n += ci * q[n - i]
        p.append(p_n)
        q.append(q_n)
        a = sum_p - p_n
        s = sum_q - q_n
        sum_p += p_n
        sum_q += q_n
        if s < 0:  # N <= a / -s
            x = a // -s
            if x < lo:
                return 1, 0, 1, 0
            if x < hi:
                hi = x
            if n < strict_last:
                x = (a - 1) // -s
            if x < shi:
                shi = x
        elif s:  # N >= -a / s
            x = -(a // s)
            if x > hi:
                return 1, 0, 1, 0
            if x > lo:
                lo = x
            if n < strict_last:
                x = -((a - 1) // s)
            if x > slo:
                slo = x
        elif a < 0:
            return 1, 0, 1, 0
        elif a == 0 and n < strict_last:
            strict_last = 0
    return (lo, hi, slo, shi) if strict_last and slo <= shi else (lo, hi, 1, 0)


def _settle_level(prefix: Sequence[int], terms: list[int], window: int, top: float,
                  horizon: int | None) -> tuple:
    # The level c_L = 1..top of P + [c_L] (``prefix`` and ``terms`` as
    # ``_read_level`` takes them), read through B_window: (lo, hi, proven,
    # verdicts).  lo..hi pass B_1..B_min(window, 2L), hi clipped to ``top``;
    # ``proven`` of them pass the strict window; ``verdicts`` holds the engine
    # verdict at ``horizon`` of each other one, and only these become
    # ``Coefficients``.  Past 2L, where the gaps are not affine in c_L, one is
    # first read on from its own terms and gets no verdict if it fails.
    L = len(prefix) + 1
    lo, hi, slo, shi = _read_level(prefix, terms, min(window, 2 * L))
    if hi is None or hi > top:
        hi = top
    verdicts = []
    for n in (*range(lo, min(slo, hi + 1)), *range(max(shi + 1, lo), hi + 1)):
        c = Coefficients((*prefix, n))
        if window <= 2 * L or _room_after(generate_terms(c, window).terms) is not None:
            verdicts.append(check_completeness(c, horizon))
    return lo, hi, max(0, min(shi, hi) - slo + 1), verdicts


def _first_incomplete(prefix: Sequence[int], terms: list[int], top: float,
                      horizon: int | None = None) -> tuple:
    """(first incomplete c_L or None, complete count, unknown vectors) for c_L in [1, top].

    ``prefix`` is P = c_1..c_{L-1} with its head terms H_1..H_L, a leaf of
    ``core._prefix_walk``.  One ``_settle_level`` reads B_1..B_max(2L-1, 2)
    for every c_L: no window fires before 2L-1, so a c_L outside the pass
    interval fails in the engine too (at a horizon that reaches the failing
    gap) and one inside the strict window's is complete, and only the c_L
    it leaves open get an engine run at ``horizon``.  ``top`` may be
    ``math.inf``: B_(L+1) has slope -1, so the pass interval is finite; at
    L = 1 that is B_2 = 2 - c_1, which 2L-1 = 1 would not reach.
    """
    lo, hi, complete, verdicts = _settle_level(prefix, terms, max(2 * len(prefix) + 1, 2), top,
                                               horizon)
    fails = [1] if lo > hi or lo > 1 else [hi + 1] if hi < top else []
    unknown = []
    for v in verdicts:
        if v.kind == INCOMPLETE:
            fails.append(v.coefficients.values[-1])
        elif v.kind == COMPLETE:
            complete += 1
        else:
            unknown.append(v.coefficients)
    return min(fails, default=None), complete, unknown


def engine_horizon(L: int, horizon: int | None = None) -> int:
    """The horizon of an engine run on a length-L vector.

    ``horizon`` itself, or max(DEFAULT_MAX_HORIZON, 4L) when it is None:
    past L = 256 that grows with L, so it always covers the strict window
    (index 2L-1) and leaves room for a doubling window (index 2L+1 or
    later).  Raises HorizonTooSmall below 2L-1.
    """
    h = max(DEFAULT_MAX_HORIZON, 4 * L) if horizon is None else horizon
    if h < 2 * L - 1:
        raise HorizonTooSmall(f"horizon {h} < 2L-1 = {2 * L - 1}")
    return h


def check_completeness(
    c: Coefficients, horizon: int | None = None, assume_2l1: bool = False
) -> Verdict:
    """Decide completeness of the PLRS defined by ``c`` on a finite horizon.

    Outcomes, in priority order:

    1. some B_n < 0 with n <= horizon: incomplete, with the first failing
       index (sound: Brown's criterion is necessary).
    2. strict window holds: complete, non-conjectural.
    3. a doubling window [m-L, m-1] of non-negative margins starting past
       index L exists with B_n >= 0 through m: complete, non-conjectural.
    4. ``assume_2l1`` and B_n >= 0 for all n <= 2L-1: complete, flagged
       conjectural (the 2L-1 shortcut is an open conjecture).
    5. otherwise unknown; the horizon is reported.

    The horizon h is ``engine_horizon(L, horizon)``.  Each term is grown
    as the scan reaches it, so an early verdict at n costs H_1..H_n alone
    and H_{h+1} is never built.  H_n is read against room = 1 + H_1 + ...
    + H_{n-1}: B_n < 0 exactly when H_n > room, and the gap room - H_n is
    computed only as a failure's witness.  The terms grow in the two
    phases of their definition, over the nonzero coefficients only:

    * head, H_2..H_L: one run per stretch between consecutive nonzero
      indices, where the live taps (c_i with i < n) do not change, plus
      the 1 of the head.  The first stretch, H_2..H_s with s the second
      nonzero index (L >= 2), has c_1 alone live, so H_n = 1 + c_1*H_{n-1}
      and it is read in closed form: c_1 >= 2 gives H_2 = 1 + c_1 > 2 =
      room, a failure at 2 with witness 1 - c_1; c_1 = 1 gives H_n = n,
      which never exceeds room = 1 + n(n-1)/2, so H_2..H_s pass and
      leave room = 1 + s(s+1)/2.  The later stretches are loops.
    * recurrence, H_{L+1}..H_h: one loop with every tap live, which fires
      both windows.  A zero gap rules the strict window out; with none,
      it is returned at n = 2L-1.  The run of non-negative margins D_j =
      2*H_j - H_{j+1} is counted from D_{L+1} on.  A doubling window at m
      >= 2L+1 reads D_{m-L}..D_{m-1}, all at indices above L, so the
      counted run reaches L at m exactly when m >= 2L+1 and the full run
      does: the loop needs no test of m.
    """
    return _gap_scan(c, engine_horizon(c.L, horizon), assume_2l1, [])


def _gap_scan(c: Coefficients, h: int, assume_2l1: bool, terms: list[int]) -> Verdict:
    # check_completeness on horizon h >= 2L-1.  H_1..H_n, n the index of
    # the verdict, are appended to ``terms``, an empty list.
    L, t, vals = c.L, terms, c.values
    taps, i = [], 0  # (c_i, -i) for each nonzero c_i: H_{n-i} is t[-i]
    for ci in compress(vals, vals):
        i = vals.index(ci, i) + 1
        taps.append((ci, -i))
    if L > 1 and taps[0][0] > 1:  # H_2 = 1 + c_1 > 2 = room
        t += 1, 1 + taps[0][0]
        return Verdict(c, INCOMPLETE, failure(2, 1 - taps[0][0]), False, 2)
    s = -taps[1][1] if L > 1 else 1  # H_n = n through the first stretch
    t.extend(range(1, s + 1))
    room = 1 + s * (s + 1) // 2
    for j in range(2, len(taps)):  # H_n for -taps[j-1][1] < n <= -taps[j][1]
        live = taps[:j]
        for n in range(1 - taps[j - 1][1], 1 - taps[j][1]):
            x = 1
            for ci, k in live:
                x += ci * t[k]
            t.append(x)
            if x > room:
                return Verdict(c, INCOMPLETE, failure(n, room - x), False, n)
            room += x
    prev = t[-1]
    # The strict window's end, 2L-1, while B_L..B_n > 0 (L >= 2, as the
    # theorem needs), else 0.
    strict = 2 * L - 1 if L >= 2 and 2 * prev < room else 0
    run = -1  # D_L, read at H_{L+1}, leaves it at 0: the run starts at D_{L+1}
    for n in range(L + 1, h + 1):
        x = 0
        for ci, k in taps:
            x += ci * t[k]
        t.append(x)
        if x >= room:
            if x > room:
                return Verdict(c, INCOMPLETE, failure(n, room - x), False, n)
            strict = 0
        if n == strict:
            return Verdict(c, COMPLETE, strict_window(n), False, n)
        if x <= 2 * prev:
            run += 1
            if run >= L:
                return Verdict(c, COMPLETE, doubling_window(n), False, n)
        else:
            run = 0
        room += x
        prev = x
    if assume_2l1:
        return Verdict(c, COMPLETE, family_rule(RULE_2L1), True, h)
    return Verdict(c, UNKNOWN, horizon_exhausted(h), False, h)


#: The verdict kind and ``conjectural`` flag each certificate tag implies;
#: a family rule's own bound decides them in ``_recheck_family``.
_IMPLIED = {
    "failure": (INCOMPLETE, False),
    "strict_window": (COMPLETE, False),
    "doubling_window": (COMPLETE, False),
    f"family:{RULE_2L1}": (COMPLETE, True),
    "horizon": (UNKNOWN, False),
    "root:p2_negative": (INCOMPLETE, False),
    "root:below_lambda": (COMPLETE, True),
    "root:indeterminate": (UNKNOWN, False),
}


def recheck(verdict: Verdict) -> bool:
    """Re-validate a certificate from scratch.

    The verdict's kind and ``conjectural`` flag must be the ones its
    certificate implies.  Gap certificates are re-read from terms grown by
    ``core.generate_terms``, the reference term loop, which shares no code
    with the engine's kernel, and recheck takes the terms it checks from
    nowhere else.  Each prefix H_1..H_m that it reads against room = 1 +
    H_1 + ... + H_{n-1} starts with the first stretch in closed form.  With
    s the index of the second nonzero coefficient when c_1 = 1 (s = 1 when
    c_1 >= 2 or L = 1), H_n = n for n <= s and never after.  When H_3 = 3,
    that is when s >= 3 (a stretch of one or two terms the loop reads as
    cheaply), k = min(m, s) is found by bisection over the terms, and one
    comparison confirms that the reference terms H_1..H_k are 1, 2, ..., k.
    Each of those passes, since the room before H_n = n is 1 + n(n-1)/2 >=
    n for every n ((n-1)(n-2) >= 0), and together they leave room = 1 +
    k(k+1)/2, so the read goes on from H_{k+1}; any other terms are read
    one by one.  The strict part of a strict window, B_L..B_{2L-1} > 0, is
    always read term by term.  Root certificates are re-checked by exact
    evaluation, of the vector's polynomial over every coefficient
    (``CharPoly.eval`` and ``_scaled``) and of lambda_L's in closed form,
    not by ``sign_at``, the sign test that produced them.
    A family verdict must be the one ``families.classify_family`` gives
    the member of the named rule's shape that the coefficients are, and not
    be contradicted by a definite gap-engine verdict.  A subset-sum witness w at index m is
    verified exactly when S_m < w < H_{m+1}, with S_m = H_1 + ... + H_m,
    read from the reference terms H_1..H_{m+1}.  At most one m satisfies
    it, since S_{m+1} = S_m + H_{m+1} > w, so a witness names its own
    prefix; it is the form ``oracle_verdict`` writes, w = 1 + S_m below a
    failing B_{m+1}.  An unrecognised certificate kind fails.
    """
    c = verdict.coefficients
    cert = verdict.certificate
    L, m = c.L, cert.index
    implied = _IMPLIED.get(cert.tag())
    if implied is not None and implied != (verdict.kind, verdict.conjectural):
        return False
    if cert.kind == "horizon":
        return True
    if cert.kind == "root":
        return _recheck_root(verdict)
    if cert.kind == "family" and cert.rule == RULE_2L1:
        return _prefix_room(generate_terms(c, 2 * L - 1).terms) is not None
    if cert.kind == "family":
        return _recheck_family(verdict)
    if cert.kind == "strict_window":  # B_1..B_{L-1} >= 0 and B_L..B_{2L-1} > 0
        if m != 2 * L - 1:
            return False
        terms = generate_terms(c, m).terms
        room = _prefix_room(terms[: L - 1])
        return room is not None and _room_after(terms[L - 1 :], room, strict=True) is not None
    if m is None or m < 1:
        return False
    if cert.kind == "failure" and cert.witness is not None and cert.witness > 0:
        # Subset-sum witness: no subset of H_1..H_m passes S_m, and every later
        # term is at least H_{m+1}, so S_m < w < H_{m+1} is missing for good.
        terms = generate_terms(c, m + 1).terms
        return sum(terms[:m]) < cert.witness < terms[m]
    if cert.kind == "failure":  # the first negative gap, and its value
        terms = generate_terms(c, m).terms
        room = _prefix_room(terms[:-1])
        return room is not None and terms[-1] > room and cert.witness in (None, room - terms[-1])
    if cert.kind == "doubling_window" and m - L >= L + 1:
        # B_1..B_m >= 0, and margins D_j = B_{j+1} - B_j = 2*H_j - H_{j+1} >= 0
        # for m-L <= j < m.
        terms = generate_terms(c, m).terms
        return _prefix_room(terms) is not None and all(
            b <= 2 * a for a, b in zip(terms[m - L - 1 :], terms[m - L :])
        )
    return False


def _prefix_room(terms: Sequence[int]) -> int | None:
    # _room_after(terms) for reference terms H_1..H_n, the first stretch
    # H_1..H_k read in closed form once the terms are 1..k (see recheck).
    if terms[2:3] == (3,):  # H_3 = 3: c_1 = 1 and c_2 = 0, so s >= 3
        k = bisect_left(range(len(terms)), True, key=lambda j: terms[j] != j + 1)
        if terms[:k] == tuple(range(1, k + 1)):
            return _room_after(terms[k:], 1 + k * (k + 1) // 2)
    return _room_after(terms)


def _room_after(terms: Sequence[int], room: int = 1, strict: bool = False) -> int | None:
    # One pass over a term prefix H_1..H_n, each term read against room =
    # 1 + H_1 + ... + H_{n-1} (``room`` is that sum before the prefix):
    # the room after the prefix, or None at its first B_n = room - H_n < 0
    # (B_n <= 0 when ``strict``).  Every call site needs only these signs.
    for h in terms:
        if h + strict > room:
            return None
        room += h
    return room


def _recheck_family(verdict: Verdict) -> bool:
    from . import families  # local: families imports brown

    c, n = verdict.coefficients, verdict.coefficients.values[-1]
    ones = c.values[:-1].count(1)
    shape = {  # the member of the named family that c could be
        families.RULE_ONE_ZEROS: families.OneZerosN(c.L - 2),
        families.RULE_ONES_ZEROS: families.OnesZerosN(ones, c.L - 1 - ones),
        families.RULE_TWO_ONES_ZEROS: families.TwoOnesZerosN(c.L - 3),
        families.RULE_ONE_ZEROS_ONES: families.OneZerosOnesN(c.L, ones - 1),
    }.get(verdict.certificate.rule)
    try:
        if shape is None or families.classify_family(shape, n) != verdict:
            return False
    except ValueError:  # not a family member, or outside the rule's range
        return False
    return check_completeness(c).kind in (UNKNOWN, verdict.kind)


def _recheck_root(verdict: Verdict) -> bool:
    from . import analytic  # local: analytic imports brown

    c = verdict.coefficients
    p = analytic.CharPoly(c)
    rule = verdict.certificate.rule
    if rule == analytic.TRIAGE_FAST:
        # p(2) < 0: the principal root exceeds 2.
        return p.eval(2) < 0
    if c.L < 2 or rule not in (analytic.TRIAGE_SLOW, analytic.TRIAGE_INDETERMINATE):
        return False
    bits = analytic._TRIAGE_BITS[-1]  # the depth of DEFAULT_TOL, which triage reads last
    lam = analytic._lambda(c.L, bits)  # the cached cell, re-verified below
    root = lam.root._at(bits)
    num, den = root.num, 1 << root.bits  # lo = num/den; den^L p(lo) has p(lo)'s sign
    if rule == analytic.TRIAGE_SLOW:
        # p_lambda(lo) <= 0 puts lo at or below lambda_L (equal only when
        # lambda_L is an integer, as at L = 3); p(lo) > 0 puts the root
        # below lo.  p_lambda(x) = x^L - x^(L-1) - (n_L + 1) is read in
        # closed form, den^L p_lambda(lo) = num^(L-1) (num - den) - (n_L + 1) den^L.
        lam_lo = num ** (c.L - 1) * (num - den) - (lam.max_complete_n + 1) * den**c.L
        return lam_lo <= 0 < p._scaled(num, den)
    # Neither rule above holds: p(2) >= 0, and p(lo) <= 0 at the bracket.
    return p.eval(2) >= 0 and p._scaled(num, den) <= 0
