"""Randomized property suites: executable checks of the structural facts
the library is built on.

Each suite draws seeded random instances, measures the worst adverse
margin, and reports pass/fail against the property's tolerance.  Failures
carry a JSON-friendly payload with every object needed to replay the case
in isolation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ProblemFileError
from .information import (
    DUAL_FORMULA_TOL,
    MIXTURE_TOL,
    _lsc_audit,
    check_concavity_in_p,
    check_convexity_in_q,
    directed_information_divergence,
    mutual_information,
    per_step_information,
)
from .measures import (
    AlphabetSpec,
    BackwardKernel,
    ForwardKernel,
    _mixture_tables,
    build_joint,
    condition_on_path,
)
from .sampling import (
    random_backward_kernel,
    random_feedback_free_kernel,
    random_forward_kernel,
    random_spec,
    rng_from_seed,
)
from .serialization import (
    backward_kernel_from_jsonable,
    backward_kernel_to_jsonable,
    forward_kernel_from_jsonable,
    forward_kernel_to_jsonable,
    parse_real,
    real_to_str,
    spec_from_jsonable,
    spec_to_jsonable,
)

SUITE_IDS = ("dual-formula", "convexity", "concavity", "lsc", "no-feedback")

_DEFAULT_CASES = {
    "dual-formula": 200,
    "convexity": 50,
    "concavity": 50,
    "lsc": 20,
    "no-feedback": 100,
}

_LAMBDA_GRID = tuple(k / 10.0 for k in range(11))
# deep enough that the reported tail's value gap (which decays like
# eps * log(1/eps) near a support-shrinking limit) is far below 1e-9
_LSC_EPSILONS = tuple(0.5 ** (j + 1) for j in range(72))
_MIXTURE_SPEC = AlphabetSpec(1, (2, 2), (2, 2))


@dataclass(frozen=True)
class SuiteReport:
    """Summary of one property suite run.

    ``worst_slack`` is the largest adverse margin over all cases, oriented
    so the suite passes exactly when it stays within ``tolerance``;
    ``worst_case`` is the index of the first case that reaches it.
    """

    suite: str
    cases: int
    passed: bool
    worst_slack: float
    worst_case: int
    tolerance: float
    failures: tuple[dict, ...]


def _sparsify(rows: np.ndarray, threshold: float = 0.15) -> np.ndarray:
    """Zero out small entries and renormalize, keeping every row alive."""
    out = np.where(rows < threshold, 0.0, rows)
    dead = out.sum(axis=-1) == 0
    if np.any(dead):
        out[np.nonzero(dead)[0], rows[dead].argmax(axis=-1)] = 1.0
    return out / out.sum(axis=-1, keepdims=True)


def _sparse_backward(p: BackwardKernel) -> BackwardKernel:
    return BackwardKernel(p.spec, tuple(_sparsify(t) for t in p.tables))


def _sparse_forward(q: ForwardKernel) -> ForwardKernel:
    return ForwardKernel(q.spec, tuple(_sparsify(t) for t in q.tables))


def _deterministic_forward(rng: np.random.Generator, spec: AlphabetSpec) -> ForwardKernel:
    """Forward kernel with one-hot rows: the support-shrinking limit case."""
    tables = []
    for i in range(spec.steps):
        rows = spec.output_history_count(i)
        t = np.zeros((rows, spec.y_sizes[i]))
        t[np.arange(rows), rng.integers(0, spec.y_sizes[i], size=rows)] = 1.0
        tables.append(t)
    return ForwardKernel(spec, tuple(tables))


def _lsc_sequence(q_limit: ForwardKernel) -> tuple[np.ndarray, ...]:
    """Step tables, stacked on a leading axis, of kernels whose path
    conditionals walk geometrically into the limit: one refactor of every
    ``eps * uniform + (1 - eps) * limit``."""
    c_start = condition_on_path(ForwardKernel.uniform(q_limit.spec))
    return _mixture_tables(c_start, condition_on_path(q_limit), _LSC_EPSILONS)


def _dual_formula_gap(p: BackwardKernel, q: ForwardKernel) -> float:
    joint = build_joint(p, q)
    total = float(sum(per_step_information(p, q, joint=joint)))
    div = float(directed_information_divergence(p, q, joint=joint))
    return abs(total - div)


def _no_feedback_slack(p: BackwardKernel, q: ForwardKernel, collapse: bool) -> float:
    """``|DI - MI|`` for a feedback-free input (the two must collapse), or
    ``DI - MI`` for any input (DI never exceeds MI); one joint serves both."""
    joint = build_joint(p, q)
    di = float(sum(t.value for t in per_step_information(p, q, joint=joint)))
    mi = float(mutual_information(joint))
    return abs(di - mi) if collapse else di - mi


def _base_payload(suite: str, index: int, spec: AlphabetSpec, slack: float, tol: float) -> dict:
    return {
        "suite": suite,
        "case_index": index,
        "spec": spec_to_jsonable(spec),
        "slack": real_to_str(slack),
        "tolerance": real_to_str(tol),
    }


def run_suite(suite: str, seed: int = 0, cases: Optional[int] = None) -> SuiteReport:
    """Run one property suite and report the worst adverse margin."""
    if suite not in SUITE_IDS:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITE_IDS}")
    n_cases = _DEFAULT_CASES[suite] if cases is None else int(cases)
    if n_cases < 1:
        raise DomainError("need at least one case")
    rng = rng_from_seed(seed)
    runner = {
        "dual-formula": _run_dual_formula,
        "convexity": _run_convexity,
        "concavity": _run_concavity,
        "lsc": _run_lsc,
        "no-feedback": _run_no_feedback,
    }[suite]
    return runner(rng, n_cases)


def _run_dual_formula(rng: np.random.Generator, n_cases: int) -> SuiteReport:
    tol = DUAL_FORMULA_TOL
    worst, worst_case = 0.0, 0
    failures = []
    for k in range(n_cases):
        spec = random_spec(rng, max_horizon=2, max_size=3)
        p = random_backward_kernel(rng, spec)
        q = random_forward_kernel(rng, spec)
        if k % 4 == 3:  # stress the zero-mass code paths too
            p, q = _sparse_backward(p), _sparse_forward(q)
        gap = _dual_formula_gap(p, q)
        if gap > worst:
            worst, worst_case = gap, k
        if gap > tol:
            payload = _base_payload("dual-formula", k, spec, gap, tol)
            payload["backward_kernel"] = backward_kernel_to_jsonable(p)
            payload["forward_kernel"] = forward_kernel_to_jsonable(q)
            failures.append(payload)
    return SuiteReport(
        "dual-formula", n_cases, not failures, worst, worst_case, tol, tuple(failures)
    )


def _run_convexity(rng: np.random.Generator, n_cases: int) -> SuiteReport:
    tol = MIXTURE_TOL
    worst, worst_case = -math.inf, 0
    failures = []
    for k in range(n_cases):
        spec = _MIXTURE_SPEC
        p = random_backward_kernel(rng, spec)
        q1 = random_forward_kernel(rng, spec)
        q2 = random_forward_kernel(rng, spec)
        audit = check_convexity_in_q(p, q1, q2, _LAMBDA_GRID)
        if audit.max_violation > worst:
            worst, worst_case = audit.max_violation, k
        if not audit.passed:
            payload = _base_payload("convexity", k, spec, audit.max_violation, tol)
            payload["backward_kernel"] = backward_kernel_to_jsonable(p)
            payload["forward_kernel"] = forward_kernel_to_jsonable(q1)
            payload["forward_kernel_b"] = forward_kernel_to_jsonable(q2)
            payload["lambdas"] = [real_to_str(v) for v in _LAMBDA_GRID]
            failures.append(payload)
    return SuiteReport(
        "convexity", n_cases, not failures, worst, worst_case, tol, tuple(failures)
    )


def _run_concavity(rng: np.random.Generator, n_cases: int) -> SuiteReport:
    tol = MIXTURE_TOL
    worst, worst_case = -math.inf, 0
    failures = []
    for k in range(n_cases):
        spec = _MIXTURE_SPEC
        q = random_forward_kernel(rng, spec)
        p1 = random_backward_kernel(rng, spec)
        p2 = random_backward_kernel(rng, spec)
        audit = check_concavity_in_p(q, p1, p2, _LAMBDA_GRID)
        if audit.max_violation > worst:
            worst, worst_case = audit.max_violation, k
        if not audit.passed:
            payload = _base_payload("concavity", k, spec, audit.max_violation, tol)
            payload["forward_kernel"] = forward_kernel_to_jsonable(q)
            payload["backward_kernel"] = backward_kernel_to_jsonable(p1)
            payload["backward_kernel_b"] = backward_kernel_to_jsonable(p2)
            payload["lambdas"] = [real_to_str(v) for v in _LAMBDA_GRID]
            failures.append(payload)
    return SuiteReport(
        "concavity", n_cases, not failures, worst, worst_case, tol, tuple(failures)
    )


def _run_lsc(rng: np.random.Generator, n_cases: int) -> SuiteReport:
    tol = MIXTURE_TOL
    worst, worst_case = -math.inf, 0
    failures = []
    for k in range(n_cases):
        spec = random_spec(rng, max_horizon=2, max_size=3)
        p = random_backward_kernel(rng, spec)
        shrinking = k % 2 == 0
        q_limit = (
            _deterministic_forward(rng, spec)
            if shrinking
            else random_forward_kernel(rng, spec)
        )
        audit = _lsc_audit(p, q_limit, _lsc_sequence(q_limit))
        if audit.violation > worst:
            worst, worst_case = audit.violation, k
        if not audit.passed:
            payload = _base_payload("lsc", k, spec, audit.violation, tol)
            payload["backward_kernel"] = backward_kernel_to_jsonable(p)
            payload["forward_kernel"] = forward_kernel_to_jsonable(q_limit)
            payload["mode"] = "shrinking-support" if shrinking else "full-support"
            payload["start"] = "uniform"
            failures.append(payload)
    return SuiteReport(
        "lsc", n_cases, not failures, worst, worst_case, tol, tuple(failures)
    )


def _run_no_feedback(rng: np.random.Generator, n_cases: int) -> SuiteReport:
    tol = DUAL_FORMULA_TOL
    worst, worst_case = -math.inf, 0
    failures = []
    half = (n_cases + 1) // 2
    for k in range(n_cases):
        spec = random_spec(rng, max_horizon=2, max_size=3)
        collapse = k < half
        if collapse:
            p: BackwardKernel = random_feedback_free_kernel(rng, spec)
        else:
            p = random_backward_kernel(rng, spec)
        q = random_forward_kernel(rng, spec)
        slack = _no_feedback_slack(p, q, collapse)
        if slack > worst:
            worst, worst_case = slack, k
        if slack > tol:
            payload = _base_payload("no-feedback", k, spec, slack, tol)
            payload["backward_kernel"] = backward_kernel_to_jsonable(p)
            payload["forward_kernel"] = forward_kernel_to_jsonable(q)
            payload["mode"] = "collapse" if collapse else "ordering"
            failures.append(payload)
    return SuiteReport(
        "no-feedback", n_cases, not failures, worst, worst_case, tol, tuple(failures)
    )


def replay(payload: dict) -> float:
    """Re-run a single failure payload; returns the measured slack."""
    if not isinstance(payload, dict) or "suite" not in payload:
        raise ProblemFileError("replay payload must be an object with a 'suite' key")
    suite = payload["suite"]
    if suite not in SUITE_IDS:
        raise ProblemFileError(f"replay payload names unknown suite {suite!r}")
    spec = spec_from_jsonable(payload.get("spec"))
    if suite == "dual-formula":
        p = backward_kernel_from_jsonable(spec, payload["backward_kernel"])
        q = forward_kernel_from_jsonable(spec, payload["forward_kernel"])
        return _dual_formula_gap(p, q)
    if suite == "convexity":
        p = backward_kernel_from_jsonable(spec, payload["backward_kernel"])
        q1 = forward_kernel_from_jsonable(spec, payload["forward_kernel"])
        q2 = forward_kernel_from_jsonable(spec, payload["forward_kernel_b"])
        grid = [parse_real(v, "lambdas") for v in payload["lambdas"]]
        return check_convexity_in_q(p, q1, q2, grid).max_violation
    if suite == "concavity":
        q = forward_kernel_from_jsonable(spec, payload["forward_kernel"])
        p1 = backward_kernel_from_jsonable(spec, payload["backward_kernel"])
        p2 = backward_kernel_from_jsonable(spec, payload["backward_kernel_b"])
        grid = [parse_real(v, "lambdas") for v in payload["lambdas"]]
        return check_concavity_in_p(q, p1, p2, grid).max_violation
    if suite == "lsc":
        p = backward_kernel_from_jsonable(spec, payload["backward_kernel"])
        q_limit = forward_kernel_from_jsonable(spec, payload["forward_kernel"])
        return _lsc_audit(p, q_limit, _lsc_sequence(q_limit)).violation
    p = backward_kernel_from_jsonable(spec, payload["backward_kernel"])
    q = forward_kernel_from_jsonable(spec, payload["forward_kernel"])
    return _no_feedback_slack(p, q, payload.get("mode") == "collapse")
