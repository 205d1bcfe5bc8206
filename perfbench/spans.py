"""Spans and call counts around the public functions of ``reebchords``.

``Tracer.install`` replaces each traced function with a wrapper at every
place a ``reebchords`` module binds it (``from .x import f`` makes a second
binding), so calls through any import path are seen.  Functions that run
too often to span get a counting wrapper only.  Spans stay in memory as
tuples until the run ends.  A span's self time is its duration minus the
durations of the spans nested directly inside it.
"""

import importlib
import time

MODULES = ["diagram", "lp", "geometry", "words", "dynamics", "indices",
           "homology", "quiver", "report", "cli"]

SPANNED = [
    "diagram.parse_front", "diagram.resolve", "lp.solve_lp",
    "words.enumerate_orbit_words", "words.enumerate_chord_words",
    "words.push_out",
    "quiver.i_grading", "quiver.effective_fiber_vector",
    "quiver.bubbling_faces",
    "indices.cz_integral", "indices.c1_class",
    "dynamics.hyperbolic_type", "dynamics.is_bad", "dynamics.embed_orbit",
    "dynamics.orbit_action",
    "homology.h1_presentation", "homology.orbit_class_monomial",
    "report.generators", "report.differential_candidates",
    "cli.emit",
]

COUNTED = ["geometry.winding_number", "geometry.offset_polyline",
           "dynamics.return_map"]


def _embed_failed(exc):
    from reebchords.diagram import DiagramError
    return isinstance(exc, (ValueError, DiagramError))


# work counted from a span's result or exception, by span name
ON_RESULT = {
    "words.enumerate_orbit_words": ("words.emitted", len),
    "words.enumerate_chord_words": ("words.emitted", len),
    "report.generators": ("report.generators.records", len),
    "report.differential_candidates": (
        "report.differential_candidates.survivors",
        lambda rep: len(rep.survivors)),
}
ON_ERROR = {
    "dynamics.embed_orbit": ("dynamics.embed_orbit.failed", _embed_failed),
}


class Tracer(object):
    """Collects spans ``(command, name, start, duration, self, depth)``."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.stack = []          # open spans: [name, start, child time]
        self.command = -1
        self._patched = []       # (module, attribute, original)

    def open_names(self):
        return [frame[0] for frame in self.stack]

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        # the clock command times use; the process clock would do, but it
        # drops to tick resolution while the deadline timer is armed
        clock = time.thread_time
        on_result = ON_RESULT.get(name)
        on_error = ON_ERROR.get(name)

        def wrapper(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None and on_error[1](exc):
                    counts[on_error[0]] = counts.get(on_error[0], 0) + 1
                raise
            finally:
                dur = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                spans.append((self.command, name, frame[1], dur,
                              dur - frame[2], len(stack)))
            if on_result is not None:
                key, measure = on_result
                counts[key] = counts.get(key, 0) + measure(result)
            return result
        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        mods = [importlib.import_module("reebchords." + m) for m in MODULES]
        mods.append(importlib.import_module("reebchords"))
        for names, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for qual in names:
                home, attr = qual.split(".")
                original = getattr(
                    importlib.import_module("reebchords." + home), attr)
                wrapped = make(qual, original)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, key, wrapped)
                            self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []

    def summary(self):
        """Per-name calls, total and self seconds over all spans."""
        out = {}
        for _cmd, name, _start, dur, self_s, _depth in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += self_s
        return out
