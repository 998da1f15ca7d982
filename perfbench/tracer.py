"""Spans around the public functions of each fvc layer, recorded from outside.

A span is (name, start, end, parent, op): the traced function's metric name,
perf_counter at entry and exit, the index of the enclosing span (-1 at the
top) and the index of the benchmark op span it belongs to. Spans stay in
memory while the benchmark runs and are written out once at the end.

A function is wrapped under every name that refers to it in any loaded fvc
module, because `from .x import f` copies the reference: wrapping only the
defining module would miss, for example, `rl_integral_right` as called from
`conditions` or `bolza_eval` as called from `solver`.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

# (metric name, defining module, attribute); "TrajectoryPair.state" is a method.
TRACED = (
    ("frac_ops.rl_integral_left", "fvc.frac_ops", "rl_integral_left"),
    ("frac_ops.rl_integral_right", "fvc.frac_ops", "rl_integral_right"),
    ("model.state", "fvc.model", "TrajectoryPair.state"),
    ("functional.bolza_eval", "fvc.functional", "bolza_eval"),
    ("solver.objective_gradient", "fvc.solver", "objective_gradient"),
    ("expr.evaluate", "fvc.expr", "evaluate"),
    ("convex.dist", "fvc.convex", "dist"),
    ("convex.dist_sq_gradient", "fvc.convex", "dist_sq_gradient"),
    ("convex.project", "fvc.convex", "project"),
    ("convex.normal_cone_basis", "fvc.convex", "normal_cone_basis"),
    ("convex.in_normal_cone", "fvc.convex", "in_normal_cone"),
    ("conditions.build_report", "fvc.conditions", "build_report"),
    ("conditions.el_residual", "fvc.conditions", "el_residual"),
    ("conditions.extract_multiplier", "fvc.conditions", "extract_multiplier"),
    ("conditions.transversality_residuals", "fvc.conditions", "transversality_residuals"),
    ("conditions.legendre_check", "fvc.conditions", "legendre_check"),
    ("cli.load_problem", "fvc.cli", "load_problem"),
    ("cli.load_trajectory", "fvc.cli", "load_trajectory"),
)
LAYER_NAMES = tuple(name for name, _, _ in TRACED)
OP_PREFIX = "op."


class Tracer:
    """Records spans while installed; restores every patched name on uninstall."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._patched = []

    def _enter(self):
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, perf_counter()

    def _exit(self, name, index, start):
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self._op)

    @contextlib.contextmanager
    def op(self, kind):
        """Root span of one benchmark op; layer spans inside it carry its index."""
        index, start = self._enter()
        outer, self._op = self._op, index
        try:
            yield
        finally:
            self._op = outer
            self._exit(OP_PREFIX + kind, index, start)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, index, start)

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "fvc" or k.startswith("fvc.")]
        for name, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, holder, key, original, wrapper):
        setattr(holder, key, wrapper)
        self._patched.append((holder, key, original))

    def uninstall(self):
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    def write(self, path):
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}))
                fh.write("\n")


def self_times(spans, first, last):
    """Per name: (calls, self seconds) over spans[first:last].

    Self time is a span's duration minus the durations of its direct
    children, so nested spans of one name are not counted twice.
    """
    child = defaultdict(float)
    for _, start, end, parent, _ in spans[first:last]:
        if parent >= first:
            child[parent] += end - start
    calls = defaultdict(int)
    own = defaultdict(float)
    for index in range(first, last):
        name, start, end, _, _ = spans[index]
        calls[name] += 1
        own[name] += (end - start) - child[index]
    return calls, own


def calls_under(spans, op_kind, first, last):
    """Calls per layer name made inside ops of one kind, over spans[first:last]."""
    root = OP_PREFIX + op_kind
    counts = defaultdict(int)
    for name, _, _, _, op in spans[first:last]:
        if op >= 0 and spans[op][0] == root:
            counts[name] += 1
    return counts
