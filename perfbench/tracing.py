"""Tracing from outside the package: spans and counters recorded around calls
into the public functions of ``bihand``, without editing the package.

Entering a ``Tracer`` replaces each traced callable at the place the package
looks it up (a module global or a class attribute) with a wrapper that
records a span ``[name, start, end, parent]`` in memory; leaving it puts the
originals back. Self time of a span is its duration minus the durations
of its direct children. Graph sizes come from a read-only walk of
``Tensor._parents`` from the loss root, and garbage-collector pauses from
``gc.callbacks``; neither changes what the program does.
"""

import collections
import gc
import json
import time

from bihand import handmodel, nn, pipeline, ssm, train
from bihand.tensor import Tensor

# op tags whose node counts are reported one by one: the eight most frequent
# tags in a toy sample's graph plus the two fused kernels
GRAPH_TAGS = ("add", "matmul", "reshape", "mul", "getitem", "sub", "mean",
              "transpose", "conv2d", "scan")

# span name -> (owner, attribute); the owner is where the package looks it up
TRACED = {
    "forward": (pipeline.BimanualHandNet, "forward"),
    "backbone": (pipeline.Backbone, "__call__"),
    "interaction": (pipeline.InteractionFeatureBlock, "__call__"),
    "extractor": (pipeline.JointFeatureExtractor, "__call__"),
    "refiner": (pipeline.JointSequenceRefiner, "__call__"),
    "regressor": (pipeline.DualHandRegressor, "__call__"),
    "rig": (handmodel, "lbs"),
    "fk": (handmodel, "forward_kinematics"),
    "conv2d": (nn, "conv2d_raw"),
    "scan": (ssm, "selective_scan"),
    "nonlocal": (pipeline.NonLocalBlock, "__call__"),
    "grid_sample": (pipeline, "grid_sample"),
    "soft_argmax": (pipeline, "soft_argmax"),
    "backward": (Tensor, "backward"),
    "adam": (train.Adam, "step"),
    "loss": (train, "loss_terms"),
}


def conv2d_flops(x, weight, bias, stride=1, padding=0):
    """Multiply-adds of one ``conv2d_raw`` call (2 per MAC) plus the bias add."""
    _, h, w = x.shape
    cout, cin, kh, kw = weight.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    return 2 * kh * kw * cin * cout * oh * ow + cout * oh * ow


def scan_flops(coeffs, x):
    seq, ch = x.shape
    return ssm.scan_flops(seq, ch, coeffs.a.shape[1])


def graph_census(root):
    """Count every node reachable from ``root`` by op tag; leaves are ``leaf``."""
    counts = collections.Counter()
    seen = set()
    todo = [root]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        counts[node._op if node._parents else "leaf"] += 1
        todo.extend(node._parents)
    return counts


class Tracer:
    """Span recorder plus the counters that are taken at the same boundaries."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.flops = collections.Counter()   # span name -> floating-point ops
        self.nodes = collections.Counter()   # op tag -> graph nodes, summed over steps
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._gc_start = None

    def _wrap(self, name, fn, flop_rule=None, before=None):
        spans, stack, flops = self.spans, self._stack, self.flops
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            if flop_rule is not None:
                flops[name] += flop_rule(*args, **kwargs)
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        traced.__wrapped__ = fn
        return traced

    def _count_graph(self, root):
        self.nodes.update(graph_census(root))

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def __enter__(self):
        rules = {"conv2d": conv2d_flops, "scan": scan_flops}
        for name, (owner, attr) in TRACED.items():
            fn = owner.__dict__[attr]
            before = self._count_graph if name == "backward" else None
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, rules.get(name), before))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def summary(self):
        """Per span name: number of spans, inclusive and self seconds.

        Inclusive time counts only the outermost span of a name, so a name
        nested inside itself is not counted twice.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - child[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                row["incl_s"] += end - start
        return dict(out)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)
