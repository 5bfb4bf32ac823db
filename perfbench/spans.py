"""Outside-in span tracing of bcnn's public functions.

The engine has no trace hook, so the benchmark measures each module from
outside: it replaces the module attributes through which the engine looks
its collaborators up with timing wrappers.  A name is wrapped where it is
looked up, not where it is defined -- ``bcnn.models`` imports
``binary_complex_conv2d``, ``pack``, ``cgbn_forward`` and the rest by name,
so patching ``bcnn.binary_ops`` alone would record nothing.

Spans are kept in memory and written out when the run ends.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


def _conv_attrs(x, w, geometry, *args, **kwargs):
    return {"geometry": geometry, "in_shape": tuple(x.shape)}


def _fp_conv_attrs(x, layer, *args, **kwargs):
    return {"geometry": layer.geometry, "in_shape": tuple(x.shape)}


def _forward_attrs(model, batch, *args, **kwargs):
    return {"images": len(batch) if getattr(batch, "ndim", 4) == 4 else 1}


# (module, attribute, span name, attrs callback or None)
WRAP_POINTS = (
    ("models", "forward", "models.forward", _forward_attrs),
    ("training", "model_forward", "models.forward", _forward_attrs),
    ("models", "binary_complex_conv2d", "binary_ops.conv", _conv_attrs),
    ("models", "quadrant_binarize", "binary_ops.binarize", None),
    ("models", "pack", "tensors.pack", None),
    ("models", "complex_conv2d_fp", "layers.fp_conv", _fp_conv_attrs),
    ("models", "conv2d_real", "layers.fp_conv", None),
    ("models", "cgbn_forward", "layers.cgbn", None),
    ("models", "avg_pool", "layers.pool", None),
    ("models", "max_pool", "layers.pool", None),
    ("models", "spectral_pool", "layers.pool", None),
    ("models", "fully_connected", "layers.dense", None),
    ("training", "train_step", "training.train_step", None),
    ("slr", "train_step", "training.train_step", None),
    ("slr", "batch_loss", "training.batch_loss", None),
    ("training", "evaluate", "training.evaluate", None),
    ("slr", "slr_step", "slr.step", None),
    ("slr", "project_channels", "slr.project", None),
    ("model_io", "model_to_bytes", "model_io.save", None),
    ("model_io", "model_from_bytes", "model_io.load", None),
)


@contextlib.contextmanager
def patched(module, attr: str, make_wrapper):
    """Replace ``module.attr`` by ``make_wrapper(original)`` until exit."""
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name, parent, request, attrs):
        self.name = name
        self.parent = parent
        self.request = request
        self.attrs = attrs
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of a wrapped function while ``request`` is set.

    ``request`` labels the spans of one benchmark operation; while it is
    ``None`` (correctness gates, bookkeeping) calls pass through unrecorded.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            attrs = attrs_of(*args, **kwargs) if attrs_of else None
            span = Span(name, self._stack[-1] if self._stack else None,
                        self.request, attrs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, bcnn_modules: dict):
        """Wrap every WRAP_POINTS entry of the given bcnn modules."""
        with contextlib.ExitStack() as stack:
            for module, attr, name, attrs_of in WRAP_POINTS:
                stack.enter_context(patched(
                    bcnn_modules[module], attr,
                    lambda fn, name=name, attrs_of=attrs_of: self.wrap(name, fn, attrs_of),
                ))
            yield self

    @contextlib.contextmanager
    def operation(self, request):
        previous, self.request = self.request, request
        try:
            yield
        finally:
            self.request = previous

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "request": s.request,
                }) + "\n")


def children_time(spans: list[Span]) -> list[float]:
    """Summed duration of each span's direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return covered


def layer_stats(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, mean ms per call and mean self ms per call.

    A name called during timed operations is summarized over those calls
    only; a name called only during set-up (say, BCN1 decoding on the
    inference workloads) is summarized over its set-up calls.
    """
    covered = children_time(spans)
    timed, setup = defaultdict(list), defaultdict(list)
    for idx, s in enumerate(spans):
        (setup if s.request == "setup" else timed)[s.name].append(
            (s.duration, s.duration - covered[idx]))
    stats = {}
    for name in set(timed) | set(setup):
        calls = timed.get(name) or setup[name]
        stats[name] = {
            "calls": len(calls),
            "ms": 1e3 * sum(d for d, _ in calls) / len(calls),
            "self_ms": 1e3 * sum(s for _, s in calls) / len(calls),
        }
    return stats


def conv_calls_by_position(spans: list[Span], name: str):
    """Group the timed spans of one conv kind by their position in the forward.

    Returns ``{position: [span, ...]}``, where position k is the k-th call of
    ``name`` inside its parent ``models.forward`` span.
    """
    seen = defaultdict(int)
    groups = defaultdict(list)
    for s in spans:
        if (s.name != name or s.request == "setup" or s.parent is None
                or not s.attrs):
            continue
        k = seen[s.parent]
        seen[s.parent] += 1
        groups[k].append(s)
    return dict(sorted(groups.items()))
