"""Outside-in span tracing of the ``plrs`` layers.

``Tracer.install`` wraps the public functions and public methods of each
layer module, and rebinds every name under which another ``plrs`` module
imported them (``plrs.brown.generate_terms`` is ``plrs.core.generate_terms``
and is rebound to the same wrapper).  Each wrapped call appends one span to
flat in-memory arrays: name, start, end, parent span, request, and two small
integers a post-hook may fill in.  Nothing inside ``src/plrs`` changes.

Hot O(1) accessors (``TermSequence.term`` and friends) are left unwrapped, so
their cost stays with the caller; ``CharPoly.sign_at`` is counted but gets no
span.  Generator functions get one span per resumption, which keeps self
times exact while the caller interleaves with them.

Self time is derived after a pass by subtracting child spans from parents.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter
from typing import Callable

LAYERS = ("cli", "core", "brown", "oracle", "analytic", "families")

# Left unwrapped: constant-time accessors called once per term or step.
ACCESSORS = {
    "core.Coefficients.c",
    "core.TermSequence.term",
    "brown.GapTrace.gap",
    "brown.GapTrace.margin",
}

# Counted per call, without a span.
COUNTED = {"analytic.CharPoly.sign_at"}

KIND_CODES = {"complete": 0, "incomplete": 1, "unknown": 2}
FLAG_NONE, FLAG_RAISED, FLAG_BUDGET = -1, 3, 4


class Tracer:
    """Span recorder for one process; ``install`` once, ``uninstall`` to stop."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = {}
        self.request = -1
        self.max_term_bits = 0
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans and counts (names and wrappers stay)."""
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self.info = array("q")  # terms generated (core) or horizon used (check)
        self.flag = array("b")  # verdict kind code, or raised / budget exceeded
        self._stack = [-1]
        self.counts = {name: 0 for name in COUNTED}
        self.max_term_bits = 0

    def __len__(self) -> int:
        return len(self.start)

    # -- wrapping -------------------------------------------------------------

    def _name(self, qualified: str) -> int:
        self.names.append(qualified)
        self.layer_of.append(qualified.split(".", 1)[0])
        return len(self.names) - 1

    def _span_wrapper(self, fn: Callable, qualified: str) -> Callable:
        nid = self._name(qualified)
        post = _POST_HOOKS.get(qualified)
        budget_exc = _budget_exception()

        def open_span() -> int:
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.req.append(self.request)
            self.start.append(0.0)
            self.end.append(0.0)
            self.info.append(0)
            self.flag.append(FLAG_NONE)
            self._stack.append(idx)
            return idx

        def failed(idx: int, t0: float, exc: BaseException) -> None:
            self.start[idx], self.end[idx] = t0, perf_counter()
            self._stack.pop()
            self.flag[idx] = FLAG_BUDGET if isinstance(exc, budget_exc) else FLAG_RAISED

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        self.start[idx], self.end[idx] = t0, perf_counter()
                        self._stack.pop()
                        return
                    except BaseException as exc:
                        failed(idx, t0, exc)
                        raise
                    self.start[idx], self.end[idx] = t0, perf_counter()
                    self._stack.pop()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_span()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                failed(idx, t0, exc)
                raise
            self.start[idx], self.end[idx] = t0, perf_counter()
            self._stack.pop()
            if post is not None:
                post(self, idx, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn: Callable, qualified: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[qualified] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every layer of the imported ``plrs`` package."""
        import plrs.cli  # noqa: F401  (imports every layer)

        wrapped: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"plrs.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = self._span_wrapper(obj, f"{layer}.{name}")
                    self._rebind(module, name, wrapped[id(obj)])
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, fn in list(vars(obj).items()):
                        qualified = f"{layer}.{name}.{attr}"
                        public = not attr.startswith("_") and inspect.isfunction(fn)
                        if not public or qualified in ACCESSORS:
                            continue
                        if qualified in COUNTED:
                            self._rebind(obj, attr, self._count_wrapper(fn, qualified))
                        else:
                            self._rebind(obj, attr, self._span_wrapper(fn, qualified))
        # Names imported by other modules (``from .core import generate_terms``).
        for modname, module in list(sys.modules.items()):
            if modname != "plrs" and not modname.startswith("plrs."):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped and obj is not wrapped[id(obj)]:
                    self._rebind(module, name, wrapped[id(obj)])

    def _rebind(self, owner: object, name: str, value: object) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every rebound name, newest first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def _budget_exception() -> type:
    from plrs.oracle import BudgetExceeded

    return BudgetExceeded


# -- post-hooks: record work done, read from arguments and results ------------


def _post_generate(tracer: Tracer, idx: int, args, result) -> None:
    tracer.info[idx] = len(result.terms)
    tracer.max_term_bits = max(tracer.max_term_bits, result.terms[-1].bit_length())


def _post_extended(tracer: Tracer, idx: int, args, result) -> None:
    tracer.info[idx] = len(result.terms) - len(args[0].terms)
    tracer.max_term_bits = max(tracer.max_term_bits, result.terms[-1].bit_length())


def _post_verdict(tracer: Tracer, idx: int, args, result) -> None:
    tracer.info[idx] = result.horizon_used
    tracer.flag[idx] = KIND_CODES[result.kind]


_POST_HOOKS: dict[str, Callable] = {
    "core.generate_terms": _post_generate,
    "core.TermSequence.extended": _post_extended,
    "brown.check_completeness": _post_verdict,
    "oracle.oracle_verdict": _post_verdict,
}


# ---------------------------------------------------------------------------
# Derivation


def self_times(tracer: Tracer) -> list[float]:
    """Per-span self time: duration minus the durations of direct children."""
    start, end, parent = tracer.start, tracer.end, tracer.parent
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    return [d - c for d, c in zip(dur, child)]


def outermost(tracer: Tracer, idx: int) -> bool:
    """True when no ancestor of span ``idx`` has the same name."""
    nid = tracer.name_id[idx]
    p = tracer.parent[idx]
    while p >= 0:
        if tracer.name_id[p] == nid:
            return False
        p = tracer.parent[p]
    return True


def entries(tracer: Tracer, idx: int) -> bool:
    """True when span ``idx`` enters its layer from another layer (or the top)."""
    p = tracer.parent[idx]
    return p < 0 or tracer.layer_of[tracer.name_id[p]] != tracer.layer_of[tracer.name_id[idx]]


def write_spans(tracer: Tracer, stream) -> None:
    """Write spans as CSV: id, parent, request, name, start_us, end_us, info, flag.

    Times are microseconds from the first span's start.
    """
    t0 = tracer.start[0] if len(tracer) else 0.0
    stream.write("id,parent,request,name,start_us,end_us,info,flag\n")
    for i in range(len(tracer)):
        stream.write(
            f"{i},{tracer.parent[i]},{tracer.req[i]},{tracer.names[tracer.name_id[i]]},"
            f"{(tracer.start[i] - t0) * 1e6:.1f},{(tracer.end[i] - t0) * 1e6:.1f},"
            f"{tracer.info[i]},{tracer.flag[i]}\n"
        )
