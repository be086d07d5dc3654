"""Spans around the calls one module of the program makes into another.

The benchmark wraps module attributes from outside the program: a call that
goes through ``secant.rank_mod_p`` (the name ``secant`` imported from
``linalg``) runs a wrapper that records a span, then the real function.
Spans are kept in memory; the caller writes them out when the run ends.

A boundary whose module or function no longer exists is skipped, so its
layer reports 0 calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module the call goes through, attribute, layer name).  The layer name is
# the module that defines the function, so one layer can have several
# boundaries (``poly_det`` is called from determinantal and from recovery).
BOUNDARIES = (
    ("gaussmoments.secant", "defect_row", "secant.defect_row"),
    ("gaussmoments.secant", "moment_polynomials",
     "moments.moment_polynomials"),
    ("gaussmoments.secant", "rank_mod_p", "linalg.rank_mod_p"),
    ("gaussmoments.determinantal", "hb_structural_checks",
     "determinantal.hb_structural_checks"),
    ("gaussmoments.determinantal", "hb_minors", "determinantal.hb_minors"),
    ("gaussmoments.determinantal", "poly_det", "linalg.poly_det"),
    ("gaussmoments.recovery", "recover", "recovery.recover"),
    ("gaussmoments.recovery", "recover_n3", "recovery.recover_n3"),
    ("gaussmoments.recovery", "poly_det", "linalg.poly_det"),
    ("gaussmoments.recovery", "mixture_moments", "moments.mixture_moments"),
)

ROOT = "cli.main"


def elimination_ops(rows, rank: int) -> int:
    """Entry updates of Gaussian elimination on an m x c matrix of the given
    rank, computed from the shape assuming the pivots sit in the leading
    columns: pivot step i updates (m-i-1) rows of (c-i) entries."""
    m = len(rows)
    c = len(rows[0]) if m else 0
    return sum((m - i - 1) * (c - i) for i in range(rank))


# counters recorded with a layer's span, from its arguments and result
COUNTERS = {
    "linalg.rank_mod_p": lambda args, result: {
        "ops": elimination_ops(args[0], result)},
}


class Tracer:
    """Records spans {id, parent, name, start, end, ...counters} in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = {"id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name}
        self.spans.append(span)
        self._stack.append(span["id"])
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            span["start"] = start
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            span.update(counter(args, result))
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> list[str]:
        """Wrap every boundary that exists; return the layers wrapped."""
        wrapped = []
        for module_name, attr, name in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self.wrap(name, fn))
                wrapped.append(name)
        return wrapped


def layer_totals(spans: list[dict]) -> dict:
    """Per layer name: calls, inclusive seconds ``s`` (outermost spans of
    that name only, so nesting is not counted twice), ``self_s`` (duration
    minus the part covered by child spans) and summed counters."""
    by_id = {s["id"]: s for s in spans}
    child_time: dict = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    totals: dict = {}
    for s in spans:
        t = totals.setdefault(s["name"], {"calls": 0, "s": 0.0,
                                          "self_s": 0.0})
        dur = s["end"] - s["start"]
        t["calls"] += 1
        t["self_s"] += dur - child_time.get(s["id"], 0.0)
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != s["name"]:
            parent = by_id[parent]["parent"]
        if parent is None:
            t["s"] += dur
        for key, value in s.items():
            if key not in ("id", "parent", "name", "start", "end"):
                t[key] = t.get(key, 0) + value
    return totals
