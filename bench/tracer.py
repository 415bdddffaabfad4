"""Out-of-program tracer: spans and counters around heatctl's public functions.

The tracer wraps functions of ``pde``, ``reach``, ``solvers``, ``oracle`` and
``cli`` without touching their source.  A function imported by name into
another module (``solve_forward`` into ``reach``, ``solvers`` and ``cli``, for
instance) is looked up in that module's globals at call time, so every
heatctl module that holds the original is patched, and the originals are
restored on exit.

Spans are kept in memory with the index of their parent span.  A span's self
time is its duration minus the durations of its direct children; calls are
sequential, so children never overlap.  ``diffusion_solve`` runs ~10^5 times
per call, so it gets one aggregate counter and timer instead of spans.
``core`` has no entry point worth wrapping on its own: its cost shows in
set-up time and in ``reach.self_s`` (``ControlSignal`` copies).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (span name, home module, function, what the return value records)
SPANS = [
    ("cli.main", "heatctl.cli", "main", None),
    ("solvers.free_decay", "heatctl.solvers", "free_decay_time", None),
    ("solvers.point", "heatctl.solvers", "minimal_norm", None),
    ("solvers.point", "heatctl.solvers", "minimal_time", None),
    ("solvers.roundtrip", "heatctl.solvers", "verify_equivalence_time", None),
    ("solvers.roundtrip", "heatctl.solvers", "verify_equivalence_bound", None),
    ("solvers.curve", "heatctl.solvers", "minimal_time_curve", None),
    ("solvers.curve", "heatctl.solvers", "minimal_norm_curve", None),
    ("reach", "heatctl.reach", "min_terminal_norm", "reach"),
    ("pde.forward", "heatctl.pde", "solve_forward", "forward"),
    ("pde.adjoint", "heatctl.pde", "solve_adjoint", "adjoint"),
    ("oracle.bracket", "heatctl.oracle", "bruteforce_minimal_norm_bracket", "bracket"),
]
AGGREGATES = [("pde.diffusion_solve", "heatctl.pde", "diffusion_solve")]


def _info(kind, args, out):
    if kind == "forward":
        return {"steps": args[1].nt, "n": args[3].n}
    if kind == "adjoint":
        return {"steps": args[0].nt}
    if kind == "reach":
        return {"iterations": out.iterations, "feasible": out.feasible,
                "inconclusive": out.inconclusive,
                "accepted": len(out.objective_history) - 1}
    if kind == "bracket":
        return {"candidates": out.candidates, "evaluations": out.evaluations}
    return None


class Span:
    __slots__ = ("name", "parent", "start", "end", "info", "children")

    def __init__(self, name, parent, start):
        self.name, self.parent, self.start = name, parent, start
        self.end = start
        self.info = None
        self.children = []

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - sum(c.duration for c in self.children)


class Tracer:
    """Context manager that patches heatctl while active and records spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self._stack: list[Span] = []
        self._patched = []

    def _span(self, name, kind, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, clock())
            spans.append(span)
            if span.parent is not None:
                span.parent.children.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if kind is not None:
                span.info = _info(kind, args, out)
            return out
        return wrapped

    def _aggregate(self, name, fn):
        calls, busy, clock = self.calls, self.busy, time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args):
            t0 = clock()
            out = fn(*args)
            busy[name] += clock() - t0
            calls[name] += 1
            return out
        return wrapped

    def _patch(self, module_name, attr, wrapper_for):
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrapper_for(original)
        for mod in [m for k, m in sys.modules.items()
                    if k == "heatctl" or k.startswith("heatctl.")]:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._patched.append((mod, attr, original))

    def __enter__(self):
        for name, module_name, attr, kind in SPANS:
            self._patch(module_name, attr,
                        lambda fn, name=name, kind=kind: self._span(name, kind, fn))
        for name, module_name, attr in AGGREGATES:
            self._patch(module_name, attr, lambda fn, name=name: self._aggregate(name, fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    # -----------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded, keyed by metric name."""
        by = defaultdict(list)
        for s in self.spans:
            by[s.name].append(s)

        def busy(name):
            return sum(s.duration for s in by[name])

        def self_time(*names):
            return sum(s.self_time for name in names for s in by[name])

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for layer in ("forward", "adjoint"):
            spans = by[f"pde.{layer}"]
            steps = sum(s.info["steps"] for s in spans)
            m[f"pde.{layer}.calls"] = len(spans)
            m[f"pde.{layer}.busy_s"] = busy(f"pde.{layer}")
            m[f"pde.{layer}.us_per_step"] = ratio(1e6 * busy(f"pde.{layer}"), steps)
        m["pde.diffusion_solve.calls"] = self.calls["pde.diffusion_solve"]
        m["pde.diffusion_solve.busy_s"] = self.busy["pde.diffusion_solve"]
        n = by["pde.forward"][0].info["n"] if by["pde.forward"] else 0
        m["pde.step.flops_computed"] = STEP_FLOPS_PER_NODE * n
        m["pde.step.bytes_computed"] = STEP_BYTES_PER_NODE * n

        reach = by["reach"]
        child_forward = child_adjoint = trials = 0
        for s in reach:
            names = [c.name for c in s.children]
            child_forward += names.count("pde.forward")
            child_adjoint += names.count("pde.adjoint")
            # Every descent iteration starts with one adjoint solve; adjoint
            # solves before those belong to the warm starts, and so do the
            # forward solves before the first iteration's adjoint.
            loop_adjoints = s.info["iterations"]
            first = names.count("pde.adjoint") - loop_adjoints
            seen = 0
            for name in names:
                if name == "pde.adjoint":
                    seen += 1
                elif name == "pde.forward" and seen > first:
                    trials += 1
        m["reach.calls"] = len(reach)
        m["reach.busy_s"] = busy("reach")
        m["reach.self_s"] = self_time("reach")
        m["reach.iterations"] = sum(s.info["iterations"] for s in reach)
        m["reach.forward_per_call"] = ratio(child_forward, len(reach))
        m["reach.adjoint_per_call"] = ratio(child_adjoint, len(reach))
        m["reach.inconclusive"] = sum(s.info["inconclusive"] for s in reach)
        m["reach.feasible_ratio"] = ratio(sum(s.info["feasible"] for s in reach), len(reach))
        m["reach.accepted_ratio"] = ratio(sum(s.info["accepted"] for s in reach), trials)

        points = by["solvers.point"]
        m["solvers.points"] = len(points)
        m["solvers.point.busy_s"] = busy("solvers.point")
        m["solvers.self_s"] = self_time("solvers.point", "solvers.free_decay",
                                        "solvers.roundtrip", "solvers.curve")
        m["solvers.oracle_calls_per_point"] = ratio(
            sum(c.name == "reach" for s in points for c in s.children), len(points))
        m["solvers.free_decay.calls"] = len(by["solvers.free_decay"])
        m["solvers.free_decay.busy_s"] = busy("solvers.free_decay")
        m["solvers.roundtrip.busy_s"] = busy("solvers.roundtrip")
        m["solvers.curve.busy_s"] = busy("solvers.curve")

        brackets = by["oracle.bracket"]
        evaluations = sum(s.info["evaluations"] for s in brackets)
        m["oracle.bracket.busy_s"] = busy("oracle.bracket")
        m["oracle.candidates"] = sum(s.info["candidates"] for s in brackets)
        m["oracle.evaluations"] = evaluations
        m["oracle.evaluations_per_s"] = ratio(evaluations, busy("oracle.bracket"))

        m["cli.main.busy_s"] = busy("cli.main")
        m["cli.self_s"] = self_time("cli.main")
        return m


# Compulsory work of one forward step on n nodes, computed from n rather than
# measured: the source stage y + dt*v (2n flops), the reaction update
# z - dt*f(z) (2n), and the two bidiagonal sweeps of the banded Cholesky
# solve (6n); it must read y, v and the two factor rows and write z and
# y_next, six n-vectors of 8 bytes.
STEP_FLOPS_PER_NODE = 10
STEP_BYTES_PER_NODE = 48

# Counts that must repeat exactly between two traced calls on one input.
DETERMINISTIC = ("pde.forward.calls", "pde.adjoint.calls", "pde.diffusion_solve.calls",
                 "reach.calls", "reach.iterations", "solvers.points",
                 "solvers.free_decay.calls", "solvers.oracle_calls_per_point",
                 "oracle.candidates", "oracle.evaluations")

# Every per-layer metric: unit, better direction, and the end-to-end metric
# it should move, on which workload.  BENCHMARK.json lists the same names.
PER_LAYER = [
    ("pde.forward.calls", "count", "lower", "run_s on linear_equivalence most, then tanh_sweep; not bruteforce_bracket"),
    ("pde.forward.busy_s", "s", "lower", "run_s on linear_equivalence most, then tanh_sweep; not bruteforce_bracket"),
    ("pde.forward.us_per_step", "us", "lower", "run_s on linear_equivalence most, then tanh_sweep; not bruteforce_bracket"),
    ("pde.adjoint.calls", "count", "lower", "run_s on tanh_sweep, then linear_equivalence; not bruteforce_bracket"),
    ("pde.adjoint.busy_s", "s", "lower", "run_s on tanh_sweep, then linear_equivalence; not bruteforce_bracket"),
    ("pde.adjoint.us_per_step", "us", "lower", "run_s on tanh_sweep, then linear_equivalence; not bruteforce_bracket"),
    ("pde.diffusion_solve.calls", "count", "lower", "run_s on linear_equivalence most (L0), then tanh_sweep"),
    ("pde.diffusion_solve.busy_s", "s", "lower", "run_s on linear_equivalence most (L0), then tanh_sweep"),
    ("pde.step.flops_computed", "flop", "lower", "computed from n; context for pde.*.us_per_step"),
    ("pde.step.bytes_computed", "B", "lower", "computed from n; context for pde.*.us_per_step"),
    ("reach.calls", "count", "lower", "run_s on linear_equivalence and tanh_sweep"),
    ("reach.busy_s", "s", "lower", "run_s on linear_equivalence and tanh_sweep"),
    ("reach.self_s", "s", "lower", "run_s on linear_equivalence and tanh_sweep (includes ControlSignal copies)"),
    ("reach.iterations", "count", "lower", "run_s on tanh_sweep (many iterations)"),
    ("reach.forward_per_call", "count", "lower", "run_s on linear_equivalence (many backtracks)"),
    ("reach.adjoint_per_call", "count", "lower", "run_s on tanh_sweep (about 1:1 forward to adjoint)"),
    ("reach.inconclusive", "count", "lower", "fail risk on tanh_sweep; no run_s prediction"),
    ("reach.feasible_ratio", "ratio", "higher", "oracle calls per point on both CLI workloads"),
    ("reach.accepted_ratio", "ratio", "higher", "run_s on linear_equivalence (share of backtracking that is useful)"),
    ("solvers.points", "count", "lower", "run_s on both CLI workloads"),
    ("solvers.point.busy_s", "s", "lower", "run_s on both CLI workloads"),
    ("solvers.self_s", "s", "lower", "run_s on both CLI workloads (small share)"),
    ("solvers.oracle_calls_per_point", "count", "lower", "run_s on tanh_sweep (curve hints) and linear_equivalence (round-trip hints)"),
    ("solvers.free_decay.calls", "count", "lower", "run_s on both CLI workloads (small share)"),
    ("solvers.free_decay.busy_s", "s", "lower", "run_s on both CLI workloads (small share)"),
    ("solvers.roundtrip.busy_s", "s", "lower", "run_s on linear_equivalence"),
    ("solvers.curve.busy_s", "s", "lower", "run_s on tanh_sweep"),
    ("oracle.bracket.busy_s", "s", "lower", "run_s on bruteforce_bracket only"),
    ("oracle.candidates", "count", "lower", "run_s and peak_rss_mb on bruteforce_bracket only"),
    ("oracle.evaluations", "count", "lower", "run_s and peak_rss_mb on bruteforce_bracket only"),
    ("oracle.evaluations_per_s", "1/s", "higher", "run_s on bruteforce_bracket only"),
    ("cli.main.busy_s", "s", "lower", "run_s on both CLI workloads"),
    ("cli.self_s", "s", "lower", "run_s on both CLI workloads (config validation and serialization; small share)"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced run_s over untraced run_s"),
]
