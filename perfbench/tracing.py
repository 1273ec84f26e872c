"""Spans around the public entry points of each dglift layer.

The benchmark records spans from its own files: ``install`` replaces each
traced function with a wrapper under every name its callers look it up
by (module globals such as ``dglift.cli.check_lift`` and
``dglift.obstruction.check_lift``, or the class attribute for methods),
and ``uninstall`` puts the originals back.  Spans live in memory as
(name, start, end, parent index, op id) and are written out at the end.
A layer's self time is its span's duration minus that of its direct
child spans.  The counters a layer exposes (rows, nnz, decisions, bytes)
are taken in a ``trace.count`` child span, so that bookkeeping is not
charged to the caller's self time.
"""

import importlib
import sys
import time
from collections import Counter

COUNT_SPAN = "trace.count"
# Every counter the hooks below can raise.
COUNTERS = ("linalg.linear_solve.rows", "linalg.linear_solve.cols",
            "linalg.linear_solve.nnz", "linalg.linear_solve.inconsistent",
            "obstruction.decision.LIFTABLE", "obstruction.decision.NOT_LIFTABLE",
            "obstruction.method.trivial", "obstruction.method.rank2-corollary",
            "obstruction.method.global-solve", "dsl.parse_problem.bytes",
            "cli.emit_report.bytes")


def _matrix_counts(tracer, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    rows, cols = matrix.shape
    tracer.counts["linalg.linear_solve.rows"] += rows
    tracer.counts["linalg.linear_solve.cols"] += cols
    tracer.counts["linalg.linear_solve.nnz"] += sum(1 for row in matrix.rows
                                                    for x in row if x)
    tracer.counts["linalg.linear_solve.inconsistent"] += result.solution is None


def _report_counts(tracer, args, kwargs, result):
    tracer.counts["obstruction.decision." + result.decision] += 1
    tracer.counts["obstruction.method." + result.method] += 1


def _parse_counts(tracer, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    tracer.counts["dsl.parse_problem.bytes"] += len(text.encode("utf-8"))


def _emit_counts(tracer, args, kwargs, result):
    tracer.counts["cli.emit_report.bytes"] += len(result.encode("utf-8"))


# (dglift module, attribute path, span name, counter hook)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "emit_report", "cli.emit_report", _emit_counts),
    ("dsl", "parse_problem", "dsl.parse_problem", _parse_counts),
    ("free_dga", "FreeDGAlgebra.__init__", "free_dga.FreeDGAlgebra.init", None),
    ("semifree", "SemifreeModule.__init__", "semifree.SemifreeModule.init", None),
    ("semifree", "SemifreeModule.tensor_keys", "semifree.tensor_keys", None),
    ("semifree", "SemifreeModule.tensor_vec", "semifree.tensor_vec", None),
    ("envelope", "delta", "envelope.delta", None),
    ("envelope", "diagonal_diff_block", "envelope.diagonal_diff_block", None),
    ("envelope", "diagonal_homology_dim", "envelope.diagonal_homology_dim", None),
    ("obstruction", "check_lift", "obstruction.check_lift", _report_counts),
    ("obstruction", "obstruction_values", "obstruction.obstruction_values", None),
    ("linalg", "linear_solve", "linalg.linear_solve", _matrix_counts),
    ("linalg", "rank", "linalg.rank", None),
]


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent, op); None while open
        self.stack = []
        self.counts = Counter()
        self.op = None
        self._patches = []     # (owner, attribute, original)

    def wrap(self, fn, name, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(self, args, kwargs, result)
                spans.append((COUNT_SPAN, end, clock(), parent, self.op))
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "dglift" or n.startswith("dglift.")]
        for module_name, path, name, hook in TARGETS:
            owner = importlib.import_module("dglift." + module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, hook)
            if classes:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self, scale):
        """(calls, self seconds) per span name; ``scale[op]`` multiplies op's times."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for i, (name, start, end, _, op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start - child[i]) * scale[op]
        return calls, self_s
