"""In-memory spans around the library's public functions.

The benchmark does not change the library.  It swaps each traced
function for a wrapper in every ``srgraph`` module that holds it (and
``numpy.linalg.eigh`` in numpy), records one span per call with the
span that was open when it started as its parent, and puts the
originals back when tracing stops.  A layer's self time is its span's
duration minus the durations of its direct child spans.

Two functions are also hooked while tracing is off, only to keep their
return value for the correctness checks: ``nrange_boundary`` (its hull)
and ``lti_srg`` (its region).  That costs one extra Python call per case.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (span name, module, attribute, result -> counts)
TARGETS = (
    ("cli.main", "srgraph.cli", "main", None),
    ("srgmatrix.build_v", "srgraph.srgmatrix", "build_v", None),
    ("nrange.nrange_boundary", "srgraph.nrange", "nrange_boundary",
     lambda r: {"support_points": len(r.support_points)}),
    ("numpy.eigh", "numpy.linalg", "eigh", None),
    ("cgeom.convex_hull_2d", "srgraph.cgeom", "convex_hull_2d",
     lambda r: {"hull_vertices": len(r.vertices)}),
    ("cgeom.region_from_disk_hull", "srgraph.cgeom", "region_from_disk_hull",
     lambda r: {"branch_points": len(r.upper_branch)}),
    ("sampler.sample_srg", "srgraph.sampler", "sample_srg",
     lambda r: {"samples": len(r)}),
    ("sampler.check_containment", "srgraph.sampler", "check_containment", None),
    ("srglti.spectral_factorize", "srgraph.srglti", "spectral_factorize", None),
    ("srglti.default_grid", "srgraph.srglti", "default_grid",
     lambda r: {"grid_points": len(r.omegas)}),
    ("srglti.lti_srg", "srgraph.srglti", "lti_srg", None),
)
CAPTURED = ("nrange.nrange_boundary", "srglti.lti_srg")


def _eigh_counts(args) -> dict:
    a = args[0]
    shape = getattr(a, "shape", ())
    batch = 1
    for dim in shape[:-2]:
        batch *= dim
    return {"batch": batch, "nbytes": int(getattr(a, "nbytes", 0))}


class Span:
    __slots__ = ("name", "call", "parent", "start", "end", "counts")

    def __init__(self, name, call, parent, start):
        self.name, self.call, self.parent, self.start = name, call, parent, start
        self.end = start
        self.counts = None


class Hooks:
    """Owns the wrappers; ``tracing`` picks spans or capture only."""

    def __init__(self):
        self.spans: list[Span] = []
        self.captured: dict = {}
        self.call = None          # identifier shared by the spans of one case run
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._bindings = []       # (holder, attr, original, span wrapper, capture wrapper)
        for name, module, attr, counts in TARGETS:
            original = getattr(sys.modules[module], attr)
            span_w = self._span_wrapper(name, original, counts)
            cap_w = self._capture_wrapper(name, original) if name in CAPTURED else original
            for holder in self._holders(module):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._bindings.append((holder, key, original, span_w, cap_w))
        self.tracing = False
        self._apply()

    @staticmethod
    def _holders(module: str):
        holders = [sys.modules[module]]
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "srgraph" or mod_name.startswith("srgraph.")) and mod not in holders:
                holders.append(mod)
        return holders

    def _apply(self):
        for holder, key, original, span_w, cap_w in self._bindings:
            setattr(holder, key, span_w if self.tracing else cap_w)

    def set_tracing(self, on: bool) -> None:
        if on != self.tracing:
            self.tracing = on
            self._apply()

    def close(self) -> None:
        for holder, key, original, _, _ in self._bindings:
            setattr(holder, key, original)

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # A worker thread's first span hangs under whatever the
            # main thread has open.
            stack = self._local.stack = self._main_stack[-1:]
        return stack

    def _capture_wrapper(self, name, fn):
        captured = self.captured

        @functools.wraps(fn)
        def capture(*args, **kwargs):
            result = fn(*args, **kwargs)
            captured[name] = result
            return result
        return capture

    def _span_wrapper(self, name, fn, counts):
        hooks = self
        capture = name in CAPTURED

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = hooks._stack()
            rec = Span(name, hooks.call, stack[-1] if stack else None, 0.0)
            index = len(hooks.spans)
            hooks.spans.append(rec)
            stack.append(index)
            rec.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = time.perf_counter()
                stack.pop()
            if name == "numpy.eigh":
                rec.counts = _eigh_counts(args)
            elif counts is not None:
                rec.counts = counts(result)
            if capture:
                hooks.captured[name] = result
            return result
        return span


def layer_metrics(spans: list[Span]) -> tuple[dict, dict]:
    """Per-layer metrics as means per traced case run, plus span counts.

    Times are seconds per case; eigh_batch_mb_max is the largest stacked
    eigh input over the run, in MB computed from nbytes.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    sums: dict = {}
    names: dict = {}
    batch_mb_max = 0.0

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    for i, s in enumerate(spans):
        names[s.name] = names.get(s.name, 0) + 1
        dur = s.end - s.start
        self_t = dur - child_time[i]
        counts = s.counts or {}
        parent = spans[s.parent].name if s.parent is not None else None
        if s.name == "cli.main":
            add("cli.self_s", self_t)
        elif s.name == "srgmatrix.build_v":
            add("srgmatrix.build_v_s", dur)
        elif s.name == "nrange.nrange_boundary":
            add("nrange.self_s", self_t)
            add("nrange.support_points", counts["support_points"])
        elif s.name == "numpy.eigh" and parent == "nrange.nrange_boundary":
            add("nrange.eigh_s", dur)
            add("nrange.eigh_calls", 1)
            add("nrange.eigenproblems", counts["batch"])
            batch_mb_max = max(batch_mb_max, counts["nbytes"] / 1e6)
        elif s.name == "cgeom.convex_hull_2d":
            add("cgeom.hull_s", dur)
            add("cgeom.hull_vertices", counts["hull_vertices"])
        elif s.name == "cgeom.region_from_disk_hull":
            add("cgeom.map_back_s", self_t)
            add("cgeom.branch_points", counts["branch_points"])
        elif s.name == "sampler.sample_srg":
            add("sampler.sample_s", dur)
            add("sampler.samples", counts["samples"])
        elif s.name == "sampler.check_containment":
            add("sampler.check_s", dur)
        elif s.name == "srglti.spectral_factorize":
            add("srglti.factor_s", dur)
        elif s.name == "srglti.default_grid":
            add("srglti.srg_s", dur)
            add("srglti.grid_points", counts["grid_points"])
        elif s.name == "srglti.lti_srg":
            add("srglti.srg_s", self_t)
    runs = max(1, names.get("cli.main", 0))
    out = {key: value / runs for key, value in sums.items()}
    out["nrange.eigh_batch_mb_max"] = batch_mb_max
    return out, names
