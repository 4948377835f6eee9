"""Spans around calls into the layers of ``dirinfo``, recorded from outside.

``Tracer.install`` replaces each listed function with a wrapper on every
``dirinfo`` module that holds it, so calls between modules are seen as
well as calls from the benchmark; ``uninstall`` puts the originals back.
A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span in the same list (-1 at top level) and ``op`` names the
benchmark operation that caused it.  Spans stay in memory until the run
writes them out.
"""
from __future__ import annotations

import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _joint_bytes(tracer, args, result):
    tracer.counts["measures.joint_bytes_computed"] += result.weights.nbytes


def _cells(name):
    def hook(tracer, args, result):
        tracer.counts[name] += math.prod(args["p"].spec.interleaved_shape)
    return hook


def _suite_cases(tracer, args, result):
    tracer.counts["verify.cases"] += result.cases


def _report_bytes(tracer, args, result):
    tracer.counts["cli.report_bytes"] += len(args["text"].encode("utf-8"))


def _grid_points(tracer, args, result):
    """Grid combinations a capacity oracle enumerates, counted from the
    channel's alphabet sizes (one simplex grid per free input row)."""
    spec = args["q"].spec
    res = args.get("grid_resolution") or sys.modules["dirinfo.solver"].DEFAULT_CONFIG.grid_resolution
    no_feedback = args.get("no_feedback", False)
    points = 1
    for i, k in enumerate(spec.x_sizes):
        rows = math.prod(spec.x_sizes[:i]) * (1 if no_feedback else math.prod(spec.y_sizes[:i]))
        points *= math.comb(res + k - 1, k - 1) ** rows
    tracer.counts["capacity.oracle.points"] += points


def _suite_name(args):
    return "verify." + args["suite"]


# (module, attribute, span name, hook).  A callable span name is computed
# from the call's arguments; a ``None`` span name only runs the hook.
LAYERS = [
    ("dirinfo.measures", "build_joint", "measures.build_joint", _joint_bytes),
    ("dirinfo.measures", "product_pi_forward", "measures.product", _joint_bytes),
    ("dirinfo.measures", "product_pi_backward", "measures.product", _joint_bytes),
    ("dirinfo.measures", "kl_divergence", "measures.kl", None),
    ("dirinfo.measures", "refactor_to_kernel", "measures.refactor", None),
    ("dirinfo.measures", "condition_on_path", "measures.condition", None),
    ("dirinfo.information", "per_step_information", "information.per_step", _cells("information.per_step.cells")),
    ("dirinfo.information", "directed_information_divergence", "information.divergence",
     _cells("information.divergence.cells")),
    ("dirinfo.information", "check_convexity_in_q", "information.audit", None),
    ("dirinfo.information", "check_concavity_in_p", "information.audit", None),
    ("dirinfo.information", "check_lower_semicontinuity", "information.audit", None),
    ("dirinfo.capacity", "solve_capacity", "capacity.solve", None),
    ("dirinfo.capacity", "min_expected_cost", "capacity.min_cost", None),
    ("dirinfo.capacity", "_min_cost_without_feedback", "capacity.min_cost", None),
    ("dirinfo.capacity", "brute_force_capacity", "capacity.oracle", _grid_points),
    ("dirinfo.nrdf", "solve_nrdf", "nrdf.solve", None),
    ("dirinfo.nrdf", "_NrdfProblem.tilt", "nrdf.tilt", None),
    ("dirinfo.nrdf", "_solve_fixed_s", "nrdf.fixed_s", None),
    ("dirinfo.nrdf", "_distortion_dp", "nrdf.min_dist", None),
    ("dirinfo.nrdf", "brute_force_nrdf", "nrdf.oracle", None),
    ("dirinfo.verify", "run_suite", _suite_name, _suite_cases),
    ("dirinfo.cli", "main", "cli", None),
    ("dirinfo.cli", "_emit", None, _report_bytes),
    ("dirinfo.sampling", "rng_from_seed", "sampling", None),
    ("dirinfo.sampling", "random_pmf", "sampling", None),
    ("dirinfo.sampling", "random_backward_kernel", "sampling", None),
    ("dirinfo.sampling", "random_forward_kernel", "sampling", None),
    ("dirinfo.sampling", "random_feedback_free_kernel", "sampling", None),
    ("dirinfo.sampling", "random_input_free_kernel", "sampling", None),
    ("dirinfo.sampling", "random_spec", "sampling", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def reset(self):
        """Start a fresh span list and counters (one per round)."""
        self.spans, self.counts = [], defaultdict(float)

    def span(self, name, fn, *args, **kwargs):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            rec[2] = perf_counter()

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn, hook):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if (hook or callable(name)) else None
            if name is None:
                result = fn(*args, **kwargs)
            else:
                label = name(bound) if callable(name) else name
                result = self.span(label, fn, *args, **kwargs)
            if hook is not None:
                hook(self, bound, result)
            return result

        return wrapper

    def _wrap_improve(self, fn, slack):
        """``monotone_improve`` with its merit and gradient callables timed,
        and each candidate judged by the solver's own acceptance rule."""
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            a = sig.bind(*args, **kwargs).arguments
            evaluate, gradient, sign = a["evaluate"], a["gradient"], a["sign"]
            merits = []

            def timed_merit(tables):
                value = self.span("solver.merit", evaluate, tables)
                merits.append(value)
                return value

            a["evaluate"] = timed_merit
            a["gradient"] = lambda tables: self.span("solver.gradient", gradient, tables)
            result = self.span("solver.improve", fn, **a)
            best = sign * merits[0]
            for value in merits[1:]:
                self.counts["solver.steps_tried"] += 1
                if sign * value >= best - slack:
                    self.counts["solver.steps_taken"] += 1
                    best = sign * value
            self.counts["solver.iters"] += result[2]
            return result

        return wrapper

    def install(self):
        package = [m for k, m in sys.modules.items() if k == "dirinfo" or k.startswith("dirinfo.")]
        solver = sys.modules["dirinfo.solver"]
        targets = [(solver, "monotone_improve", self._wrap_improve(solver.monotone_improve, solver.MERIT_SLACK))]
        for modname, attr, name, hook in LAYERS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner, attr = getattr(owner, cls_name), meth
            targets.append((owner, attr, self._wrap(name, getattr(owner, attr), hook)))
        for owner, attr, wrapper in targets:
            original = getattr(owner, attr)
            holders = [(owner, attr)] if isinstance(owner, type) else [
                (m, k) for m in package for k, v in list(vars(m).items()) if v is original
            ]
            for holder, key in holders:
                setattr(holder, key, wrapper)
                self._undo.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo = []


def span_cost(calls: int = 20000, batches: int = 5) -> float:
    """Seconds a span adds to one call: the fastest batch of ``calls`` calls
    of a wrapped no-op minus the fastest batch of the bare no-op."""
    def noop(x):
        return x

    wrapped = Tracer()._wrap("trace.cost", noop, None)
    best = {}
    for fn in (noop, wrapped, noop, wrapped) * batches:
        t0 = perf_counter()
        for i in range(calls):
            fn(i)
        best[fn] = min(best.get(fn, math.inf), perf_counter() - t0)
    return max(best[wrapped] - best[noop], 0.0) / calls


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = [
    ("measures.build_joint.calls", "count", "lower"),
    ("measures.build_joint.self_s", "s", "lower"),
    ("measures.joint_bytes_computed", "bytes", "lower"),
    ("measures.kl.self_s", "s", "lower"),
    ("measures.refactor.calls", "count", "lower"),
    ("measures.refactor.self_s", "s", "lower"),
    ("measures.condition.self_s", "s", "lower"),
    ("information.per_step.calls", "count", "lower"),
    ("information.per_step.self_s", "s", "lower"),
    ("information.divergence.self_s", "s", "lower"),
    ("information.cells_per_s", "cells/s", "higher"),
    ("information.audit.self_s", "s", "lower"),
    ("solver.improve.calls", "count", "lower"),
    ("solver.improve.self_s", "s", "lower"),
    ("solver.iters", "count", "lower"),
    ("solver.merit.calls", "count", "lower"),
    ("solver.merit.self_s", "s", "lower"),
    ("solver.gradient.calls", "count", "lower"),
    ("solver.gradient.self_s", "s", "lower"),
    ("solver.s_per_iter", "s", "lower"),
    ("solver.accept_ratio", "ratio", "higher"),
    ("capacity.solve.self_s", "s", "lower"),
    ("capacity.rounds_per_solve", "count", "lower"),
    ("capacity.min_cost.self_s", "s", "lower"),
    ("capacity.oracle.self_s", "s", "lower"),
    ("capacity.oracle.points_per_s", "points/s", "higher"),
    ("capacity.cert_gap_max", "nats", "lower"),
    ("nrdf.solve.self_s", "s", "lower"),
    ("nrdf.tilt.calls", "count", "lower"),
    ("nrdf.tilt.self_s", "s", "lower"),
    ("nrdf.rounds_per_solve", "count", "lower"),
    ("nrdf.min_dist.self_s", "s", "lower"),
    ("nrdf.oracle.self_s", "s", "lower"),
    ("nrdf.bound_gap_max", "nats", "lower"),
    ("verify.dual-formula.self_s", "s", "lower"),
    ("verify.convexity.self_s", "s", "lower"),
    ("verify.concavity.self_s", "s", "lower"),
    ("verify.lsc.self_s", "s", "lower"),
    ("verify.no-feedback.self_s", "s", "lower"),
    ("verify.cases_per_s", "cases/s", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("sampling.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def span_totals(spans):
    """Per span name: calls, inclusive seconds and self seconds (duration
    minus the durations of direct children)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls, incl, own = Counter(), defaultdict(float), defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        incl[s[0]] += dur[i]
        own[s[0]] += dur[i] - child[i]
    return calls, incl, own


def _under(spans, i, name):
    """Whether span ``i`` runs inside a span called ``name``."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def round_metrics(spans, counts, figures) -> dict:
    """Per-layer figures of one traced round.  ``figures`` holds the
    benchmark's own check results (certificate and bound gaps)."""
    calls, incl, own = span_totals(spans)
    improve_in_capacity = sum(
        1 for i, s in enumerate(spans) if s[0] == "solver.improve" and _under(spans, i, "capacity.solve")
    )
    suites = [n for n in incl if n.startswith("verify.")]
    cells = counts["information.per_step.cells"] + counts["information.divergence.cells"]
    return {
        "measures.build_joint.calls": calls["measures.build_joint"],
        "measures.build_joint.self_s": own["measures.build_joint"],
        "measures.joint_bytes_computed": counts["measures.joint_bytes_computed"],
        "measures.kl.self_s": own["measures.kl"],
        "measures.refactor.calls": calls["measures.refactor"],
        "measures.refactor.self_s": own["measures.refactor"],
        "measures.condition.self_s": own["measures.condition"],
        "information.per_step.calls": calls["information.per_step"],
        "information.per_step.self_s": own["information.per_step"],
        "information.divergence.self_s": own["information.divergence"],
        "information.cells_per_s": _ratio(cells, incl["information.per_step"] + incl["information.divergence"]),
        "information.audit.self_s": own["information.audit"],
        "solver.improve.calls": calls["solver.improve"],
        "solver.improve.self_s": own["solver.improve"],
        "solver.iters": counts["solver.iters"],
        "solver.merit.calls": calls["solver.merit"],
        "solver.merit.self_s": own["solver.merit"],
        "solver.gradient.calls": calls["solver.gradient"],
        "solver.gradient.self_s": own["solver.gradient"],
        "solver.s_per_iter": _ratio(incl["solver.improve"], counts["solver.iters"]),
        "solver.accept_ratio": _ratio(counts["solver.steps_taken"], counts["solver.steps_tried"]),
        "capacity.solve.self_s": own["capacity.solve"],
        "capacity.rounds_per_solve": _ratio(improve_in_capacity, calls["capacity.solve"]),
        "capacity.min_cost.self_s": own["capacity.min_cost"],
        "capacity.oracle.self_s": own["capacity.oracle"],
        "capacity.oracle.points_per_s": _ratio(counts["capacity.oracle.points"], incl["capacity.oracle"]),
        "capacity.cert_gap_max": max(figures.get("cert_gap", [0.0])),
        "nrdf.solve.self_s": own["nrdf.solve"],
        "nrdf.tilt.calls": calls["nrdf.tilt"],
        "nrdf.tilt.self_s": own["nrdf.tilt"],
        "nrdf.rounds_per_solve": _ratio(calls["nrdf.fixed_s"], calls["nrdf.solve"]),
        "nrdf.min_dist.self_s": own["nrdf.min_dist"],
        "nrdf.oracle.self_s": own["nrdf.oracle"],
        "nrdf.bound_gap_max": max(figures.get("bound_gap", [0.0])),
        "verify.dual-formula.self_s": own["verify.dual-formula"],
        "verify.convexity.self_s": own["verify.convexity"],
        "verify.concavity.self_s": own["verify.concavity"],
        "verify.lsc.self_s": own["verify.lsc"],
        "verify.no-feedback.self_s": own["verify.no-feedback"],
        "verify.cases_per_s": _ratio(counts["verify.cases"], sum(incl[n] for n in suites)),
        "cli.self_s": own["cli"],
        "cli.report_bytes": counts["cli.report_bytes"],
        "sampling.self_s": own["sampling"],
    }
