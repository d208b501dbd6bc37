"""In-memory span tracing of the sianms layers, from outside the package.

A ``Tracer`` replaces every binding of a traced function inside the loaded
``sianms`` modules with a wrapper that records one span per call: name,
start, end and the index of the enclosing span.  Patching every binding
matters because callers hold their own references (``pipeline`` calls
``estimate_box`` through ``sianms.pipeline.estimate_box``, not through
``sianms.estimator``).  A few wrappers also observe arguments and results to
count the ratios that say how much work a layer wastes.
"""

from __future__ import annotations

import contextlib
import hashlib
import statistics
import sys
import time

# layer (module of sianms) -> public functions whose calls are traced
TRACED = {
    "estimator": ("estimate_box",),
    "frustum": ("filter_frustum", "merge_frustums"),
    "matching": ("match_adjacent", "hungarian", "build_distance_matrix"),
    "metrics": ("ap_2d", "evaluate_3d", "visible_camera_count", "overlap_region_filter"),
    "scene": ("box3d_to_bbox2d", "project_points"),
    "synthgen": ("generate_frame", "sample_surface_points", "simulate_detections"),
    "sceneio": (
        "write_scene",
        "load_scene",
        "write_detections",
        "load_detection_records",
        "write_comparison",
    ),
    "reid_eval": ("evaluate_frame", "accumulate"),
    "pipeline": ("run_pipeline", "compare_variants", "nms_greedy"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class PassCounters:
    """Work counts observed at the traced boundaries during one pass."""

    def __init__(self):
        self.estimate_points = 0
        self.estimate_repeats = 0
        self._estimate_seen: set = set()
        self.filter_repeats = 0
        self._filter_seen: set = set()
        self.merge_attempts = 0
        self.merge_accepted = 0
        self.hungarian_assignments = 0
        self.pairs_kept = 0
        self.nms_in = 0
        self.nms_kept = 0

    def on_estimate(self, args, kwargs, result, exc):
        frustum, class_id = args[0], args[1]
        self.estimate_points += len(frustum.points)
        key = (class_id, frustum.points.shape, hashlib.blake2b(frustum.points.tobytes()).digest())
        if key in self._estimate_seen:
            self.estimate_repeats += 1
        self._estimate_seen.add(key)

    def on_filter(self, args, kwargs, result, exc):
        cam, bbox, cloud = args[0], args[1], args[2]
        key = (cam.id, bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max, id(cloud))
        if key in self._filter_seen:
            self.filter_repeats += 1
        self._filter_seen.add(key)

    def on_merge(self, args, kwargs, result, exc):
        self.merge_attempts += 1
        self.merge_accepted += exc is None

    def on_hungarian(self, args, kwargs, result, exc):
        if exc is None:
            self.hungarian_assignments += len(result)

    def on_match(self, args, kwargs, result, exc):
        if exc is None:
            self.pairs_kept += len(result.pairs)

    def on_nms(self, args, kwargs, result, exc):
        if exc is None:
            self.nms_in += len(args[0])
            self.nms_kept += len(result)

    def observers(self) -> dict:
        return {
            "estimator.estimate_box": self.on_estimate,
            "frustum.filter_frustum": self.on_filter,
            "frustum.merge_frustums": self.on_merge,
            "matching.hungarian": self.on_hungarian,
            "matching.match_adjacent": self.on_match,
            "pipeline.nms_greedy": self.on_nms,
        }


class Tracer:
    """Records spans of the traced functions while installed.

    Spans of the current pass are ``(name index, start, end, parent index)``
    tuples, with parent -1 for a span that no traced span encloses.
    """

    def __init__(self):
        self.spans: list = []
        self.counters = PassCounters()
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name_index: int, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                spans[index] = (name_index, start, clock(), parent)
                stack.pop()
                if observe is not None:
                    observe(args, kwargs, result, exc)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every sianms binding of each traced function; restore on exit."""
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "sianms" or name.startswith("sianms."))
        ]
        observers = self.counters.observers()
        for index, span_name in enumerate(SPAN_NAMES):
            layer, fn_name = span_name.split(".")
            original = getattr(sys.modules[f"sianms.{layer}"], fn_name)
            wrapper = self._wrap(index, original, observers.get(span_name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(self._patches):
                setattr(mod, attr, original)
            self._patches.clear()

    def take_pass(self):
        """Return this pass's (spans, counters) and start afresh."""
        if self._stack:
            raise RuntimeError("take_pass called inside an open span")
        spans, counters = list(self.spans), self.counters
        self.spans.clear()
        self.counters = PassCounters()
        return spans, counters


def wrapper_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to a plain call, from the median of
    ``repeats`` timings of an empty function called plain and wrapped.
    Observers add more on the few functions that have one."""

    def empty():
        return None

    wrapped = Tracer()._wrap(0, empty, None)
    extra = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            empty()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        extra.append((time.perf_counter() - t1) - (t1 - t0))
    return max(statistics.median(extra), 0.0) / calls


def summarize_pass(spans, counters: PassCounters, wall_s: float) -> dict:
    """Calls, self time and ratios of one traced pass.

    Self time is a span's duration minus the durations of its direct
    children; the part of the pass's wall time outside every top-level span
    is reported as uncovered.
    """
    calls = [0] * len(SPAN_NAMES)
    self_s = [0.0] * len(SPAN_NAMES)
    covered = 0.0
    for name_index, start, end, parent in spans:
        duration = end - start
        calls[name_index] += 1
        self_s[name_index] += duration
        if parent >= 0:
            self_s[spans[parent][0]] -= duration
        else:
            covered += duration
    by_name = dict(zip(SPAN_NAMES, calls))
    estimate_calls = by_name["estimator.estimate_box"]
    return {
        "calls": by_name,
        "self_s": dict(zip(SPAN_NAMES, self_s)),
        "uncovered_s": wall_s - covered,
        "ratios": {
            "estimator.points_per_call": _ratio(counters.estimate_points, estimate_calls),
            "estimator.repeat_ratio": _ratio(counters.estimate_repeats, estimate_calls),
            "frustum.filter_frustum.repeat_ratio": _ratio(
                counters.filter_repeats, by_name["frustum.filter_frustum"]
            ),
            "frustum.merge_accept_ratio": _ratio(counters.merge_accepted, counters.merge_attempts),
            "matching.accept_ratio": _ratio(counters.pairs_kept, counters.hungarian_assignments),
            "pipeline.nms_keep_ratio": _ratio(counters.nms_kept, counters.nms_in),
        },
    }


def layer_metrics(summaries: list[dict], traced_walls: list[float], overheads: list[float]) -> dict:
    """Per-layer metrics over the traced passes of a run: call counts and
    ratios of the first pass (passes repeat them exactly), median self times,
    the median tracing overhead of the traced passes against their untraced
    neighbours, and the wrappers' own cost over one pass's calls."""
    first = summaries[0]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (first["calls"][name], "count")
        out[f"{name}.self_s"] = (statistics.median(s["self_s"][name] for s in summaries), "s")
    units = {"estimator.points_per_call": "points"}
    for name, value in first["ratios"].items():
        out[name] = (value, units.get(name, "ratio"))
    out["trace.wall_s"] = (statistics.median(traced_walls), "s")
    out["trace.overhead_s"] = (statistics.median(overheads), "s")
    out["trace.wrapper_s"] = (sum(first["calls"].values()) * wrapper_cost_s(), "s")
    out["trace.uncovered_share"] = (
        statistics.median(s["uncovered_s"] / w for s, w in zip(summaries, traced_walls)),
        "ratio",
    )
    return out


def write_spans(path, passes: list[list]) -> None:
    """Write every recorded span as one JSON line: pass, name, start, end,
    parent (an index into the same pass's lines, or -1)."""
    with open(path, "w", encoding="utf-8") as fh:
        for pass_index, spans in passes:
            for name_index, start, end, parent in spans:
                fh.write(
                    f'{{"pass": {pass_index}, "name": "{SPAN_NAMES[name_index]}", '
                    f'"start": {start!r}, "end": {end!r}, "parent": {parent}}}\n'
                )
