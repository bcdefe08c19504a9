"""In-memory span tracer that wraps the package's public functions.

Tracing is installed from outside the library: every public function of the
spanned layers (the modules' ``__all__``) is replaced, in every package
module that refers to it, by a wrapper that records a span.  Polynomial
evaluation (``IntPoly.__call__``) is spanned as ``polyring.eval``.  Element
arithmetic in ``localfield`` is only counted, so its time lands in the self
time of the span that called it.  ``uninstall`` restores every original.

A span's self time is its duration minus the durations of its direct
children.  Each operation of a workload runs under a root span ``op``, whose
self time is the part of the operation no library span covers; the self
times of one operation therefore sum to its duration, which ``check``
verifies.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import padicpowers as pp
from padicpowers import constructions, decide, localfield, polyring, powerclasses, roots

SPANNED_LAYERS = (decide, polyring, roots, powerclasses, constructions)

# called per scan point: aggregated per operation instead of kept one by one
HOT = frozenset(
    {
        "polyring.eval",
        "powerclasses.is_pth_power",
        "powerclasses.same_class",
        "powerclasses.class_of",
        "powerclasses.enumerate_classes",
        "powerclasses.threshold_k0",
    }
)
# spans whose first argument is a polynomial that may be analysed twice
ANALYSIS = frozenset({"polyring.squarefree_decompose", "roots.roots_in_valuation_ring"})


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _bits(poly) -> int:
    return max((abs(n).bit_length() for c in poly.coeffs for n in c.coords), default=0)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [name, start, child_time]
        self.op_label: str | None = None
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.repeats: dict[str, int] = defaultdict(int)
        self.max_resultant_bits = 0
        self.spans: list[tuple] = []  # (op, parent name, name, start, duration, self)
        self.hot: dict[tuple[str, str], list] = {}  # (op, name) -> [calls, total, self]
        self.ops: list[tuple[str, float, float]] = []  # (op, duration, sum of self times)
        self._seen: set = set()
        self._op_self = 0.0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for module in SPANNED_LAYERS:
            for attr in module.__all__:
                fn = getattr(module, attr)
                if callable(fn) and not isinstance(fn, type):
                    wrappers[id(fn)] = (fn, self._span(f"{_layer(module)}.{attr}", fn))
        counted_residues = self._count_yields("localfield.residues.yielded", localfield.iter_residues)
        wrappers[id(localfield.iter_residues)] = (localfield.iter_residues, counted_residues)
        for name, module in list(sys.modules.items()):
            if name != "padicpowers" and not name.startswith("padicpowers."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        self._patch(pp.IntPoly, "__call__", self._span("polyring.eval", pp.IntPoly.__call__))
        for attr, key in (
            ("__mul__", "localfield.mul.calls"),
            ("__rmul__", "localfield.mul.calls"),
            ("__add__", "localfield.add.calls"),
            ("__radd__", "localfield.add.calls"),
            ("__sub__", "localfield.add.calls"),
        ):
            self._patch(pp.OKElem, attr, self._count(key, getattr(pp.OKElem, attr)))
        self._patch(pp.LocalField, "ord", self._count("localfield.ord.calls", pp.LocalField.ord))

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- wrappers ---------------------------------------------------------------

    def _count(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_yields(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if self.active:
                    counts[key] += 1
                yield item

        return counted

    def _span(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        in_decide = name.startswith("decide.")

        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if name == "polyring.eval" and stack and stack[-1][0].startswith("decide."):
                self.counts["decide.points_evaluated"] += 1
            elif name in ANALYSIS:
                key = (name, args[0])
                if key in self._seen:
                    self.repeats[name] += 1
                self._seen.add(key)
            elif name == "polyring.resultant":
                self.max_resultant_bits = max(self.max_resultant_bits, _bits(args[0]), _bits(args[1]))
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except pp.PadicError:
                if in_decide:
                    self.counts["decide.failures"] += 1
                raise
            finally:
                self._close(stack.pop(), clock())

        return spanned

    def _close(self, frame, end: float) -> None:
        name, start, child = frame
        duration = end - start
        own = duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.calls[name] += 1
        self.self_s[name] += own
        self.total_s[name] += duration
        self._op_self += own
        if name in HOT:
            agg = self.hot.setdefault((self.op_label, name), [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += own
        else:
            self.spans.append((self.op_label, parent and parent[0], name, start, duration, own))

    # -- operations ---------------------------------------------------------------

    def run_op(self, label: str, fn):
        """Run fn under a root span; return (result, duration)."""
        self.op_label = label
        self._seen = set()
        self._op_self = 0.0
        frame = ["op", time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            self._close(self._stack.pop(), end)
            duration = end - frame[1]
            self.ops.append((label, duration, self._op_self))
            self.op_label = None
        return result, duration

    def check(self) -> list[str]:
        """Operations whose self times do not sum to their duration."""
        return [
            f"{label}: self times sum to {total:.9f} s, span is {duration:.9f} s"
            for label, duration, total in self.ops
            if abs(total - duration) > 1e-6
        ]

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta)
        doc["operations"] = [
            {"op": label, "duration_s": duration, "self_sum_s": total}
            for label, duration, total in self.ops
        ]
        doc["spans"] = [
            {"op": op, "parent": parent, "name": name, "start": start, "duration_s": dur, "self_s": own}
            for op, parent, name, start, dur, own in self.spans
        ]
        doc["aggregated"] = [
            {"op": op, "name": name, "calls": calls, "duration_s": total, "self_s": own}
            for (op, name), (calls, total, own) in self.hot.items()
        ]
        path.write_text(json.dumps(doc) + "\n")
