"""Spans and counters around the public entry points of every apexobs layer.

``Tracer.install`` replaces each entry point listed in ENTRY_POINTS with a
wrapper, in every ``apexobs`` module that binds it (``from x import f``
copies the binding, so each copy is replaced), and ``uninstall`` puts the
originals back.  Each call records a span (name, start, end, parent span,
op id) in memory; ``write`` saves them at the end.  Self time is a span's
duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

ENTRY_POINTS = {
    "canonical": ("canonical_form", "canonical_graph", "enumerate_graphs"),
    "graphs": ("has_apex_set_within", "min_apex_size", "one_step_minors"),
    "obstructions": ("check_obstruction", "structural_filters", "search_obstructions"),
    "minors": ("is_minor",),
    "cacti": ("generate_Z", "disconnected_obstructions", "count_forest_apex_sets"),
    "series": ("solve_system", "solve_T_diamond", "mset"),
    "asymptotics": (
        "eval_F", "solve_saddle", "expansion_coeffs", "estimate_constant",
        "check_Z1_vanishes",
    ),
    "graphio": ("from_graph6",),
}

# (name, unit, better) of every per-layer metric, in report order.
EXTRA_METRICS = {
    "canonical": [("canonical.cache_hit_ratio", "frac", "higher")],
    "graphs": [
        ("graphs.has_apex_set_within.true_frac", "frac", "higher"),
        ("graphs.one_step_minors.children_per_call", "count", "lower"),
    ],
    "obstructions": [
        ("obstructions.check_obstruction.verified", "count", "higher"),
        ("obstructions.check_obstruction.failed_membership", "count", "higher"),
        ("obstructions.check_obstruction.failed_minimality", "count", "higher"),
        ("obstructions.structural_filters.pass_frac", "frac", "lower"),
    ],
    "minors": [
        ("minors.queries", "count", "lower"),
        ("minors.memo_entries", "count", "lower"),
    ],
    "asymptotics": [
        ("asymptotics.solve_saddle.iterations", "count", "lower"),
        ("asymptotics.solve_saddle.max_residual", "1", "lower"),
        ("asymptotics.estimate_constant.spread_c_T", "1", "lower"),
        ("asymptotics.estimate_constant.spread_c_G", "1", "lower"),
    ],
}


def metric_specs() -> list[tuple[str, str, str]]:
    specs = []
    for layer, names in ENTRY_POINTS.items():
        for fn in names:
            specs.append((f"{layer}.{fn}.calls", "count", "lower"))
            specs.append((f"{layer}.{fn}.self_s", "s", "lower"))
        specs.extend(EXTRA_METRICS.get(layer, []))
    specs.append(("trace.overhead_frac", "frac", "lower"))
    return specs


def _library_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "apexobs" or name.startswith("apexobs."))
    ]


class Tracer:
    def __init__(self, lib) -> None:
        self.lib = lib
        self.names: list[str] = []
        self.originals: dict[str, object] = {}
        for layer, fns in ENTRY_POINTS.items():
            for fn in fns:
                self.names.append(f"{layer}.{fn}")
                self.originals[f"{layer}.{fn}"] = getattr(getattr(lib, layer), fn)
        k = len(self.names)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.active = [0] * k  # open spans per entry point, to tell recursion apart
        self.outer_calls = [0] * k
        self.counts: dict[str, float] = {}
        # span columns
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span id, time covered by children]
        self.next_id = 0
        self.op = -1
        self.op_labels: list[str] = ["setup"]
        self._restore: list[tuple[object, str, object]] = []

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _on_result(self, name: str, args, result) -> None:
        if name == "graphs.has_apex_set_within":
            self._count("apex_true", bool(result))
        elif name == "graphs.one_step_minors":
            self._count("children", len(result))
        elif name == "obstructions.check_obstruction":
            key = "verified" if result.is_obstruction else f"failed_{result.failed_step}"
            self._count(key)
        elif name == "obstructions.structural_filters":
            self._count("filter_pass", bool(result.passed))
        elif name == "asymptotics.solve_saddle":
            self._count("saddle_iterations", result.iterations)
            residual = max(abs(r) for r in result.residuals)
            self.counts["saddle_max_residual"] = max(
                self.counts.get("saddle_max_residual", 0.0), residual
            )
        elif name == "asymptotics.estimate_constant":
            # T has constant term 0, G = MSET(T) has constant term 1
            which = "T" if args[0].coeffs[0] == 0 else "G"
            self._count(f"spread_{which}", result.spread)
            self._count(f"spread_{which}_n")

    def _wrap(self, index: int, fn):
        name = self.names[index]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else -1
            if tracer.active[index] == 0:
                tracer.outer_calls[index] += 1
            tracer.active[index] += 1
            frame = [sid, 0.0]
            tracer.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.active[index] -= 1
                duration = t1 - t0
                if tracer.stack:
                    tracer.stack[-1][1] += duration
                tracer.calls[index] += 1
                tracer.self_s[index] += duration - frame[1]
                tracer.span_id.append(sid)
                tracer.span_parent.append(parent)
                tracer.span_name.append(index)
                tracer.span_op.append(tracer.op)
                tracer.span_start.append(t0)
                tracer.span_end.append(t1)
            tracer._on_result(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {
            id(self.originals[name]): self._wrap(i, self.originals[name])
            for i, name in enumerate(self.names)
        }
        for module in _library_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def unwrapped_aliases(self) -> list[str]:
        """Bindings of a wrapped entry point that still hold the original."""
        originals = {id(f) for f in self.originals.values()}
        return [
            f"{module.__name__}.{attr}"
            for module in _library_modules()
            for attr, value in vars(module).items()
            if id(value) in originals
        ]

    def begin_op(self, label: str) -> None:
        self.op = len(self.op_labels)
        self.op_labels.append(label)

    def end_op(self, canonical_hits: int, canonical_misses: int, memo_entries: int) -> None:
        self._count("canonical_hits", canonical_hits)
        self._count("canonical_lookups", canonical_hits + canonical_misses)
        self._count("memo_entries", memo_entries)
        self.op = -1

    def metrics(self, overhead_frac: float) -> dict[str, tuple[float, str]]:
        c = self.counts
        idx = {name: i for i, name in enumerate(self.names)}

        def ratio(num: str, den: float) -> float:
            return c.get(num, 0) / den if den else 0.0

        values: dict[str, float] = {}
        for name, i in idx.items():
            values[f"{name}.calls"] = self.calls[i]
            values[f"{name}.self_s"] = self.self_s[i]
        values.update({
            "canonical.cache_hit_ratio": ratio("canonical_hits", c.get("canonical_lookups", 0)),
            "graphs.has_apex_set_within.true_frac":
                ratio("apex_true", self.calls[idx["graphs.has_apex_set_within"]]),
            "graphs.one_step_minors.children_per_call":
                ratio("children", self.calls[idx["graphs.one_step_minors"]]),
            "obstructions.check_obstruction.verified": c.get("verified", 0),
            "obstructions.check_obstruction.failed_membership": c.get("failed_membership", 0),
            "obstructions.check_obstruction.failed_minimality": c.get("failed_minimality", 0),
            "obstructions.structural_filters.pass_frac":
                ratio("filter_pass", self.calls[idx["obstructions.structural_filters"]]),
            "minors.queries": self.outer_calls[idx["minors.is_minor"]],
            "minors.memo_entries": c.get("memo_entries", 0),
            "asymptotics.solve_saddle.iterations": c.get("saddle_iterations", 0),
            "asymptotics.solve_saddle.max_residual": c.get("saddle_max_residual", 0.0),
            "asymptotics.estimate_constant.spread_c_T": ratio("spread_T", c.get("spread_T_n", 0)),
            "asymptotics.estimate_constant.spread_c_G": ratio("spread_G", c.get("spread_G_n", 0)),
            "trace.overhead_frac": overhead_frac,
        })
        return {name: (values[name], unit) for name, unit, _ in metric_specs()}

    def write(self, path: Path) -> None:
        """Save the spans: a JSON header next to a binary file of columns."""
        columns = [
            ("id", self.span_id), ("parent", self.span_parent), ("name", self.span_name),
            ("op", self.span_op), ("start", self.span_start), ("end", self.span_end),
        ]
        with open(path.with_suffix(".bin"), "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        header = {
            "spans": len(self.span_id),
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
            "names": self.names,
            "ops": self.op_labels[1:],
            "note": "op -1 is set-up; op i >= 1 is ops[i-1]; parent -1 is a root span",
        }
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")

