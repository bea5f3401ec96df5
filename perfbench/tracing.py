"""Spans and counters for the traced benchmark run.

The benchmark puts a span around every call it makes into a layer of
epigraph_lab. A span records its name (``<layer>.<call>``), start, end, the
span that was open when it started, and the pass it belongs to. Spans stay
in memory and are written out when the run ends. Counters are recorded at
the same boundaries, per pass.

``NULL`` is the untraced stand-in: the same calls, no recording, so the
workload code is identical in both runs.
"""

import contextlib
import threading
import time
from collections import defaultdict

LU_BYTES_PER_NONZERO = 12  # float64 value + int32 index, computed not measured


class NullTracer:
    enabled = False

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, n=1):
        pass

    def domain(self, domain):
        return domain


NULL = NullTracer()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self.pass_id = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        rec = {"name": name, "parent": stack[-1] if stack else None,
               "pass": self.pass_id, "start": time.perf_counter(), "end": None}
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def count(self, name, n=1):
        with self._lock:
            self.counts[self.pass_id][name] += n

    def domain(self, domain):
        return CountingDomain(domain, self)

    def pass_spans(self, pass_id):
        return [s for s in self.spans if s["pass"] == pass_id]


class CountingDomain:
    """Stands in for a domain: counts contains() calls and the points they
    test, and delegates every other attribute to the wrapped domain."""

    def __init__(self, domain, tracer):
        self._domain = domain
        self._tracer = tracer

    def contains(self, points):
        self._tracer.count("geometry.contains_calls")
        self._tracer.count("geometry.contains_points", len(points))
        return self._domain.contains(points)

    def __getattr__(self, name):
        return getattr(self._domain, name)


@contextlib.contextmanager
def scipy_spans(tracer):
    """Wrap SciPy's splu, cg and bicgstab, which epigraph_lab looks up on
    scipy.sparse.linalg at call time, in solver spans and counters."""
    import scipy.sparse.linalg as spla

    originals = {name: getattr(spla, name) for name in ("splu", "cg", "bicgstab")}

    def splu(*args, **kwargs):
        with tracer.span("solver.lu_factor"):
            lu = originals["splu"](*args, **kwargs)
        tracer.count("solver.lu_factorizations")
        tracer.count("solver.lu_fill_nnz", lu.nnz)
        return lu

    def krylov(fn):
        def wrapped(*args, **kwargs):
            with tracer.span("solver.krylov"):
                out = fn(*args, **kwargs)
            tracer.count("solver.krylov_calls")
            return out
        return wrapped

    spla.splu = splu
    spla.cg = krylov(originals["cg"])
    spla.bicgstab = krylov(originals["bicgstab"])
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(spla, name, fn)


def span_seconds(spans):
    """Summed duration per span name."""
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"]
    return out


def self_seconds(spans):
    """Per layer: span durations minus those of their child spans, which
    run one after another in the parent's thread."""
    layer = {s["id"]: s["name"].split(".", 1)[0] for s in spans}
    out = defaultdict(float)
    for s in spans:
        out[layer[s["id"]]] += s["end"] - s["start"]
        if s["parent"] is not None:
            out[layer[s["parent"]]] -= s["end"] - s["start"]
    return out
