"""Layer trace taken from outside the package.

`install` wraps the public functions of seven mdspline modules in place, in
every module namespace that holds them, so calls made inside the package are
traced too; the package source is not touched. Each wrapped call records a
span (name, start, end, parent) in flat in-memory arrays; the spans are written
out when the run ends. A few functions are too hot to wrap in a span and are
counted instead: `LazyIntegrals.value` (the integral dots) is timed as a leaf
whose time is charged to the enclosing span, and the per-row coefficient
accessors are not touched at all: the rows a bidiagonal step combines are
computed from its window. A layer's self time is its span's duration minus
the part covered by child spans and leaves.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("spaces", "c0_engine", "join_core", "rde_core", "assembler",
           "eval_api", "oracle")
BUILDS = ("assembler.build_matrix", "assembler.build_matrix_rki",
          "assembler.build_matrix_rde", "assembler.build_matrix_mixed")

# name, unit, better; values are per timed op unless the unit says otherwise
PER_LAYER = (
    ("spaces.create.calls", "count", "lower"),
    ("spaces.create.self_ms", "ms", "lower"),
    ("c0_engine.c0_integrals.calls", "count", "lower"),
    ("c0_engine.c0_integrals.self_ms", "ms", "lower"),
    ("c0_engine.eval_c0_basis.self_us", "us/call", "lower"),
    ("join_core.cr_join.self_ms", "ms", "lower"),
    ("join_core.integral_dots", "count", "lower"),
    ("join_core.integral_dots.self_ms", "ms", "lower"),
    ("join_core.apply_bidiagonal.calls", "count", "lower"),
    ("join_core.apply_bidiagonal.self_ms", "ms", "lower"),
    ("join_core.apply_bidiagonal.useful_row_share", "ratio", "higher"),
    ("join_core.apply_bidiagonal.useful_cell_share", "ratio", "higher"),
    ("join_core.apply_bidiagonal.mb_allocated", "MB", "lower"),
    ("join_core.alpha_count", "count", "lower"),
    ("rde_core.rde_build.self_ms", "ms", "lower"),
    ("rde_core.level_space.calls", "count", "lower"),
    ("rde_core.steps", "count", "lower"),
    ("assembler.auto_plan.self_ms", "ms", "lower"),
    ("assembler.rde_cost.calls", "count", "lower"),
    ("eval_api.eval_basis.self_us", "us/call", "lower"),
    ("eval_api.useful_row_share", "ratio", "higher"),
    ("eval_api.first_eval_ms", "ms/bundle", "lower"),
    ("oracle.matrix_error.self_ms", "ms", "lower"),
    ("process.minor_faults", "count", "lower"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.excluded = array("q")     # ns of leaves and observers inside the span
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.first_evals: list[tuple[int, int]] = []   # (start ns, duration ns)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open_names(self) -> list[str]:
        return [self.names[self.name[i]] for i in self.stack]

    # -- wrappers -----------------------------------------------------------------

    def span(self, name, fn, before=None, observe=None):
        nid = self.intern(name)
        clock = time.perf_counter_ns
        names, starts, ends = self.name, self.start, self.end
        parents, excluded, stack = self.parent, self.excluded, self.stack

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            excluded.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                t = clock()
                observe(args, result, state, starts[idx], ends[idx] - starts[idx])
                if stack:
                    excluded[stack[-1]] += clock() - t
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, key, fn):
        clock = time.perf_counter_ns
        counts, excluded, stack = self.counts, self.excluded, self.stack

        def wrapper(*args):
            t = clock()
            result = fn(*args)
            dt = clock() - t
            counts[key] += 1
            counts[key + ".ns"] += dt
            if stack:
                excluded[stack[-1]] += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers: counts computed from arguments and results -------------------

    def _bidiagonal(self, args, out, _state, _start, _dur):
        co = args[1]
        rows = out.shape[0]
        if co.ib <= co.ie:
            useful = max(0, min(co.ie, rows) - max(co.ib - 1, 1) + 1)
        else:   # ib = ie + 1 merges two rows, a larger ib only drops one
            useful = int(co.ib == co.ie + 1 and 1 <= co.ie <= rows)
        c = self.counts
        c["bidiag.rows"] += rows
        c["bidiag.useful_rows"] += useful
        c["bidiag.cells"] += out.size
        c["bidiag.nonzero"] += int(np.count_nonzero(out))
        c["bidiag.bytes"] += out.size * 8

    def _build(self, _args, bundle, _state, _start, _dur):
        if not any(n in BUILDS for n in self.open_names()):
            self.counts["alpha_count"] += bundle.alpha_count

    def _rde_build(self, schedule):
        def observe(args, _bundle, _state, _start, _dur):
            self.counts["rde_steps"] += len(schedule(args[0]))
        return observe

    @staticmethod
    def _first_eval(args):
        return "_band" not in vars(args[0])

    def _eval(self, args, out, first, start, dur):
        c = self.counts
        c["eval.rows_scanned"] += args[0].matrix.shape[0]
        c["eval.rows_returned"] += len(out.values)
        if first:
            self.first_evals.append((start, dur))

    # -- metrics --------------------------------------------------------------------

    def layer_metrics(self, t0: int, t1: int, before: Counter, after: Counter,
                      ops: int, minor_faults: int) -> dict[str, float]:
        """Per-layer figures of the timed region [t0, t1] (perf_counter_ns)."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ns = dur - child - np.frombuffer(self.excluded, dtype=np.int64)
        inside = (start >= t0) & (end <= t1)
        calls = np.bincount(name[inside], minlength=len(self.names))
        busy = np.bincount(name[inside], weights=self_ns[inside], minlength=len(self.names))
        c = after - before
        ops = max(ops, 1)

        def n_calls(layer):
            i = self._ids.get(layer)
            return int(calls[i]) if i is not None else 0

        def self_ms(layer):
            i = self._ids.get(layer)
            return float(busy[i]) / 1e6 / ops if i is not None else 0.0

        def self_us_per_call(layer):
            n = n_calls(layer)
            return float(busy[self._ids[layer]]) / 1e3 / n if n else 0.0

        def share(num, den):
            return c[num] / c[den] if c[den] else 0.0

        firsts = [d for s, d in self.first_evals if s < t0]
        return {
            "spaces.create.calls": n_calls("spaces.create") / ops,
            "spaces.create.self_ms": self_ms("spaces.create"),
            "c0_engine.c0_integrals.calls": n_calls("c0_engine.c0_integrals") / ops,
            "c0_engine.c0_integrals.self_ms": self_ms("c0_engine.c0_integrals"),
            "c0_engine.eval_c0_basis.self_us": self_us_per_call("c0_engine.eval_c0_basis"),
            "join_core.cr_join.self_ms": self_ms("join_core.cr_join"),
            "join_core.integral_dots": c["integral_dots"] / ops,
            "join_core.integral_dots.self_ms": c["integral_dots.ns"] / 1e6 / ops,
            "join_core.apply_bidiagonal.calls": n_calls("join_core.apply_bidiagonal") / ops,
            "join_core.apply_bidiagonal.self_ms": self_ms("join_core.apply_bidiagonal"),
            "join_core.apply_bidiagonal.useful_row_share":
                share("bidiag.useful_rows", "bidiag.rows"),
            "join_core.apply_bidiagonal.useful_cell_share":
                share("bidiag.nonzero", "bidiag.cells"),
            "join_core.apply_bidiagonal.mb_allocated": c["bidiag.bytes"] / 1e6 / ops,
            "join_core.alpha_count": c["alpha_count"] / ops,
            "rde_core.rde_build.self_ms": self_ms("rde_core.rde_build"),
            "rde_core.level_space.calls": n_calls("rde_core.level_space") / ops,
            "rde_core.steps": c["rde_steps"] / ops,
            "assembler.auto_plan.self_ms": self_ms("assembler.auto_plan"),
            "assembler.rde_cost.calls": n_calls("assembler.rde_cost") / ops,
            "eval_api.eval_basis.self_us": self_us_per_call("eval_api.eval_basis"),
            "eval_api.useful_row_share": share("eval.rows_returned", "eval.rows_scanned"),
            "eval_api.first_eval_ms": sum(firsts) / 1e6 / len(firsts) if firsts else 0.0,
            "oracle.matrix_error.self_ms": self_ms("oracle.matrix_error"),
            "process.minor_faults": minor_faults / ops,
        }

    def dump(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int64),
                 start=np.frombuffer(self.start, np.int64),
                 end=np.frombuffer(self.end, np.int64),
                 parent=np.frombuffer(self.parent, np.int64),
                 excluded=np.frombuffer(self.excluded, np.int64))


def install() -> Tracer:
    """Wrap every public function of MODULES, plus MDSpace.create and the
    integral dots, in every mdspline namespace that refers to it."""
    from mdspline import join_core, rde_core, spaces

    tracer = Tracer()
    hooks = {
        "join_core.apply_bidiagonal": (None, tracer._bidiagonal),
        "rde_core.rde_build": (None, tracer._rde_build(rde_core.rde_schedule)),
        "eval_api.eval_basis": (Tracer._first_eval, tracer._eval),
    }
    hooks.update({b: (None, tracer._build) for b in BUILDS})
    replace = {}
    for short in MODULES:
        module = sys.modules[f"mdspline.{short}"]
        for attr, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not attr.startswith("_")):
                name = f"{short}.{attr}"
                replace[fn] = tracer.span(name, fn, *hooks.get(name, (None, None)))
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "mdspline"]:
        for attr, fn in list(vars(module).items()):
            if inspect.isfunction(fn) and fn in replace:
                setattr(module, attr, replace[fn])
    create = spaces.MDSpace.__dict__["create"].__func__
    spaces.MDSpace.create = staticmethod(tracer.span("spaces.create", create))
    join_core.LazyIntegrals.value = tracer.leaf("integral_dots", join_core.LazyIntegrals.value)
    return tracer
