"""Spans around calls into graphonlab's public functions.

The benchmark wraps every public function of the package from its own
code; nothing inside the program is changed. A wrapped function is
rebound in every graphonlab module namespace that holds it, so calls
between modules (metrics calling t_ind_exact, say) are seen as well.
Request code looks functions up as module attributes at call time, which
is what makes the rebinding visible to it.

Spans are kept in memory as tuples and written once, at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = (
    "core",
    "metrics",
    "densities",
    "sampling",
    "names",
    "constructions",
    "formats",
    "cli",
)

# span tuple fields
NAME, START, END, PARENT, REQUEST, REFUSED = range(6)


class Tracer:
    """Records (name, start, end, parent, request id, refused) spans.

    A span's annotator (the per-span figures the traced run reports) is
    not run inside the span: the wrapper only keeps its arguments, and
    end_request() runs the annotators once the request's timer has
    stopped, so neither span times nor request times include them.
    """

    def __init__(self, refusal_types=()):
        self.spans = []
        self.request_id = None
        self.enabled = False
        self.extra = {}  # per-span annotations: span index -> dict
        self._stack = []
        self._pending = []  # (span index, annotate, args, kwargs, result)
        self._refusal_types = refusal_types

    def start_request(self, request_id):
        self.request_id = request_id
        self.enabled = True

    def end_request(self):
        """Stop recording and annotate the request's spans, in call order."""
        self.enabled = False
        pending, self._pending = self._pending, []
        for idx, annotate, args, kwargs, result in pending:
            self.extra[idx] = annotate(args, kwargs, result)

    def span(self, name, fn, annotate=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            refused = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except tracer._refusal_types as exc:
                # a refusal counts once, at the innermost span it escapes
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    refused = True
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (
                    name, start, end, parent, tracer.request_id, refused
                )
            if annotate is not None:
                tracer._pending.append((idx, annotate, args, kwargs, result))
            return result

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s[NAME],
                    "start": s[START],
                    "end": s[END],
                    "parent": s[PARENT],
                    "request": s[REQUEST],
                    "refused": s[REFUSED],
                }
                if i in self.extra:
                    rec["extra"] = self.extra[i]
                fh.write(json.dumps(rec) + "\n")


def _public_functions(gl):
    """{"module.name": function} for graphonlab.__all__ (classes skipped),
    the public formats functions and cli.main."""
    out = {}
    for attr in gl.__all__:
        obj = getattr(gl, attr)
        if callable(obj) and not isinstance(obj, type) and hasattr(obj, "__module__"):
            mod = obj.__module__.rsplit(".", 1)[-1]
            out[f"{mod}.{attr}"] = obj
    for attr in dir(gl.formats):
        obj = getattr(gl.formats, attr)
        if (
            not attr.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == "graphonlab.formats"
        ):
            out[f"formats.{attr}"] = obj
    out["cli.main"] = gl.cli.main
    return out


def install(tracer, gl, annotators):
    """Wrap the public functions and GraphonName.element, and rebind each
    wrapper wherever graphonlab's modules hold the function."""
    funcs = _public_functions(gl)
    wrapped = {
        id(fn): tracer.span(qual, fn, annotators.get(qual))
        for qual, fn in funcs.items()
    }
    modules = [
        m for name, m in sys.modules.items()
        if m is not None and (name == "graphonlab" or name.startswith("graphonlab."))
    ]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            w = wrapped.get(id(obj))
            if w is not None:
                setattr(mod, attr, w)
    element = gl.names.GraphonName.element
    gl.names.GraphonName.element = tracer.span("names.GraphonName.element", element)


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its direct children (the union of their clipped intervals)."""
    children = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][START]):
            a, b = max(lo, spans[c][START]), min(hi, spans[c][END])
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out
