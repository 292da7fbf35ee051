"""Outside-in span tracer for the stiffid package.

The tracer wraps the public functions and dataclass constructors listed
in ``TARGETS`` from outside the package: every name under which a
``stiffid.*`` module holds one of those functions is rebound to a
wrapper, so calls made inside the package are caught too (for example
``pipeline.estimate_lin`` as well as ``estimation.estimate_lin``).  A
dataclass is traced through its ``__post_init__``.  The package source
is not modified; ``uninstall`` restores every original binding.

Each wrapped call records one span (op id, span id, parent span id,
name, start and end in ns) plus the node, row, removed-node and
load-case counts seen at that boundary.  Spans stay in memory until the
run ends.  The benchmark opens one root span per op, so the part of an
op's wall time that no wrapped call covers is the root's self time.
The benchmark checks the root span against the op wall time it measures
with its own clock calls inside the root.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# Module -> public functions and dataclasses traced in it.
TARGETS = {
    "cli": ("main", "cmd_identify", "cmd_simulate", "cmd_benchmark",
            "load_manifest"),
    "field": ("read_field_csv", "write_field_csv", "center_field",
              "select_sensor", "DisplacementField"),
    "estimation": ("estimate_lin", "estimate_svd", "Deflection", "FitResult"),
    "stats": ("estimate_sigma", "filter_outliers", "deflection_covariance",
              "significance_test"),
    "compliance": ("assemble_canonical", "assemble_overdetermined",
                   "symmetrize", "save_compliance_json", "Wrench",
                   "ComplianceMatrix"),
    "pipeline": ("run_identification",),
    "synthetic": ("run_zero_detection_study", "beam_load_cases",
                  "beam_tip_field", "generate_pattern",
                  "apply_rigid_transform"),
}

ROOT = "op"
NO_COUNTS = (0, 0, 0, 0)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _nodes(index, name):
    return lambda a, kw, r: (_arg(a, kw, index, name).n, 0, 0, 0)


# Span name -> (args, kwargs, result) -> (nodes, rows, removed, cases).
COUNTS = {
    "field.read_field_csv": lambda a, kw, r: (0, r.n, 0, 0),
    "field.write_field_csv": lambda a, kw, r: (0, _arg(a, kw, 1, "field").n, 0, 0),
    "field.select_sensor": lambda a, kw, r: (
        _arg(a, kw, 0, "field").n, 0, _arg(a, kw, 0, "field").n - r.n, 0),
    "field.DisplacementField": lambda a, kw, r: (a[0].n, 0, 0, 0),
    "estimation.estimate_lin": _nodes(0, "field"),
    "estimation.estimate_svd": _nodes(0, "field"),
    "stats.filter_outliers": lambda a, kw, r: (
        _arg(a, kw, 0, "field").n, 0, len(r[1]), 0),
    "pipeline.run_identification": lambda a, kw, r: (
        sum(c.field.n for c in _arg(a, kw, 0, "cases")), 0, 0,
        len(_arg(a, kw, 0, "cases"))),
}


class Tracer:
    """Records spans of wrapped stiffid calls made inside benchmark ops."""

    def __init__(self):
        self.spans = []          # (op, id, parent, name, start, end, nodes, rows, removed, cases)
        self.errors = Counter()  # module -> exceptions that escaped a wrapped call
        self._stack = []
        self._next_id = 0
        self._op = None
        self._wrappers = {}      # original callable -> wrapper
        self._bindings = []      # (owner, attribute, original) to restore

    # -- wrapping -------------------------------------------------------

    def _wrap(self, module: str, name: str, fn):
        tracer = self
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(span)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter_ns()
                tracer._stack.pop()
                if isinstance(exc, Exception):
                    tracer.errors[module] += 1
                tracer.spans.append((tracer._op, span, parent, name, start, end)
                                    + NO_COUNTS)
                raise
            end = perf_counter_ns()
            tracer._stack.pop()
            counts = count(args, kwargs, result) if count else NO_COUNTS
            tracer.spans.append((tracer._op, span, parent, name, start, end)
                                + counts)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced name in all loaded ``stiffid.*`` modules."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "stiffid" or name.startswith("stiffid.")}
        for module, names in TARGETS.items():
            home = package["stiffid." + module]
            for attr in names:
                obj = getattr(home, attr)
                span_name = f"{module}.{attr}"
                if isinstance(obj, type):
                    original = obj.__dict__["__post_init__"]
                    wrapper = self._wrappers.setdefault(
                        original, self._wrap(module, span_name, original))
                    self._bindings.append((obj, "__post_init__", original))
                    setattr(obj, "__post_init__", wrapper)
                    continue
                wrapper = self._wrappers.setdefault(
                    obj, self._wrap(module, span_name, obj))
                for mod in package.values():
                    for key, value in list(vars(mod).items()):
                        if value is obj:
                            self._bindings.append((mod, key, obj))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    # -- ops ------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self._root = self._next_id
        self._next_id += 1
        self._stack = [self._root]
        self._root_start = perf_counter_ns()

    def end_op(self) -> int:
        """Close the op's root span; returns its duration in ns."""
        end = perf_counter_ns()
        self.spans.append((self._op, self._root, -1, ROOT, self._root_start, end)
                          + NO_COUNTS)
        self._stack = []
        self._op = None
        return end - self._root_start

    # -- results --------------------------------------------------------

    def write(self, path) -> None:
        """Write all spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("op", "span", "parent", "name", "start_ns", "end_ns",
                             "nodes", "rows", "removed", "cases"))
            writer.writerows(self.spans)

    def summarize(self) -> dict:
        """Aggregate spans per name.

        Returns per-name totals (calls, self_ns, nodes, rows, removed,
        cases) and per-op unattributed ns.  Self time is span time minus
        child span time, so per op the self times of all spans, root
        included, add up to the root span's duration by construction;
        the root's self time is the op's unattributed time.
        """
        child_ns = defaultdict(int)
        for s in self.spans:
            if s[2] >= 0:
                child_ns[s[2]] += s[5] - s[4]
        totals = defaultdict(lambda: [0, 0, 0, 0, 0, 0])
        op_unattributed = {}
        for op, span, parent, name, start, end, *counts in self.spans:
            self_ns = end - start - child_ns[span]
            if name == ROOT:
                op_unattributed[op] = self_ns
                continue
            t = totals[name]
            t[0] += 1
            t[1] += self_ns
            for k, v in enumerate(counts):
                t[2 + k] += v
        return {"totals": dict(totals), "op_unattributed_ns": op_unattributed}
