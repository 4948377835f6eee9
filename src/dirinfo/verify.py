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
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ProblemFileError
from .information import (
    DUAL_FORMULA_TOL,
    MIXTURE_TOL,
    _lsc_audit,
    _routes,
    check_concavity_in_p,
    check_convexity_in_q,
    mutual_information,
    per_step_information,
)
from .measures import (
    AlphabetSpec,
    BackwardKernel,
    ForwardKernel,
    _check_count,
    _frozen,
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
    forward_kernel_from_jsonable,
    kernel_to_jsonable,
    parse_real,
    real_to_str,
    spec_from_jsonable,
    spec_to_jsonable,
)

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


def _sparse(kernel, threshold: float = 0.15):
    """The kernel with entries below ``threshold`` zeroed out and its rows
    renormalized.  A row's largest entry is at least one over its width,
    so at a threshold of at most 1/3 no row of width 3 or less dies."""
    tables = []
    for rows in kernel.tables:
        out = np.where(rows < threshold, 0.0, rows)
        tables.append(_frozen(out / out.sum(axis=-1, keepdims=True)))
    return type(kernel)(kernel.spec, tuple(tables))


def _deterministic_forward(rng: np.random.Generator, spec: AlphabetSpec) -> ForwardKernel:
    """Forward kernel with one-hot rows: the support-shrinking limit case."""
    tables = []
    for i in range(spec.steps):
        rows = spec.output_history_count(i)
        t = np.zeros((rows, spec.y_sizes[i]))
        t[np.arange(rows), rng.integers(0, spec.y_sizes[i], size=rows)] = 1.0
        tables.append(_frozen(t))
    return ForwardKernel(spec, tuple(tables))


def _lsc_sequence(q_limit: ForwardKernel) -> tuple[np.ndarray, ...]:
    """Step tables, stacked on a leading axis, of kernels whose path
    conditionals walk geometrically into the limit: one refactor of every
    ``eps * uniform + (1 - eps) * limit``."""
    c_start = condition_on_path(ForwardKernel.uniform(q_limit.spec))
    return _mixture_tables(c_start, condition_on_path(q_limit), _LSC_EPSILONS)


def _draw_pair(rng: np.random.Generator, k: int, cases: int):
    spec = random_spec(rng, max_horizon=2, max_size=3)
    p = random_backward_kernel(rng, spec)
    q = random_forward_kernel(rng, spec)
    if k % 4 == 3:  # stress the zero-mass code paths too
        p, q = _sparse(p), _sparse(q)
    return spec, {"backward_kernel": p, "forward_kernel": q}


def _dual_formula_gap(case: dict) -> float:
    terms, div = _routes(case["backward_kernel"], case["forward_kernel"])
    return abs(float(sum(terms)) - float(div))


def _draw_convexity(rng: np.random.Generator, k: int, cases: int):
    p = random_backward_kernel(rng, _MIXTURE_SPEC)
    q1, q2 = random_forward_kernel(rng, _MIXTURE_SPEC), random_forward_kernel(rng, _MIXTURE_SPEC)
    return _MIXTURE_SPEC, {
        "backward_kernel": p, "forward_kernel": q1, "forward_kernel_b": q2, "lambdas": _LAMBDA_GRID
    }


def _convexity_slack(case: dict) -> float:
    return check_convexity_in_q(
        case["backward_kernel"], case["forward_kernel"], case["forward_kernel_b"], case["lambdas"]
    ).max_violation


def _draw_concavity(rng: np.random.Generator, k: int, cases: int):
    q = random_forward_kernel(rng, _MIXTURE_SPEC)
    p1, p2 = random_backward_kernel(rng, _MIXTURE_SPEC), random_backward_kernel(rng, _MIXTURE_SPEC)
    return _MIXTURE_SPEC, {
        "forward_kernel": q, "backward_kernel": p1, "backward_kernel_b": p2, "lambdas": _LAMBDA_GRID
    }


def _concavity_slack(case: dict) -> float:
    return check_concavity_in_p(
        case["forward_kernel"], case["backward_kernel"], case["backward_kernel_b"], case["lambdas"]
    ).max_violation


def _draw_lsc(rng: np.random.Generator, k: int, cases: int):
    spec = random_spec(rng, max_horizon=2, max_size=3)
    p = random_backward_kernel(rng, spec)
    shrinking = k % 2 == 0
    q_limit = _deterministic_forward(rng, spec) if shrinking else random_forward_kernel(rng, spec)
    mode = "shrinking-support" if shrinking else "full-support"
    return spec, {"backward_kernel": p, "forward_kernel": q_limit, "mode": mode, "start": "uniform"}


def _lsc_violation(case: dict) -> float:
    q_limit = case["forward_kernel"]
    return _lsc_audit(case["backward_kernel"], q_limit, _lsc_sequence(q_limit)).violation


def _draw_no_feedback(rng: np.random.Generator, k: int, cases: int):
    spec = random_spec(rng, max_horizon=2, max_size=3)
    collapse = k < (cases + 1) // 2
    p = (random_feedback_free_kernel if collapse else random_backward_kernel)(rng, spec)
    q = random_forward_kernel(rng, spec)
    mode = "collapse" if collapse else "ordering"
    return spec, {"backward_kernel": p, "forward_kernel": q, "mode": mode}


def _no_feedback_slack(case: dict) -> float:
    """``|DI - MI|`` for a feedback-free input (mode ``collapse``: the two
    must collapse), or ``DI - MI`` for any input (mode ``ordering``, the
    default: DI never exceeds MI); one joint serves both."""
    mode = case.get("mode", "ordering")
    if mode not in ("collapse", "ordering"):
        raise ProblemFileError(f'mode: expected "collapse" or "ordering", got {mode!r}')
    p, q = case["backward_kernel"], case["forward_kernel"]
    joint = build_joint(p, q)
    di = float(sum(t.value for t in per_step_information(p, q, joint=joint)))
    mi = float(mutual_information(joint))
    return abs(di - mi) if mode == "collapse" else di - mi


@dataclass(frozen=True)
class _Suite:
    """A suite draws case ``k`` of ``cases`` as ``(spec, case)``, where
    ``case`` holds, under their payload keys, exactly the objects a failure
    payload carries; it measures a case as its adverse slack.  Replay
    decodes a payload into a case and measures it the same way."""

    cases: int
    tol: Callable[[], float]  # read when the suite runs, so a patched constant counts
    draw: Callable[[np.random.Generator, int, int], tuple[AlphabetSpec, dict]]
    measure: Callable[[dict], float]


_SUITES = {
    "dual-formula": _Suite(200, lambda: DUAL_FORMULA_TOL, _draw_pair, _dual_formula_gap),
    "convexity": _Suite(50, lambda: MIXTURE_TOL, _draw_convexity, _convexity_slack),
    "concavity": _Suite(50, lambda: MIXTURE_TOL, _draw_concavity, _concavity_slack),
    "lsc": _Suite(20, lambda: MIXTURE_TOL, _draw_lsc, _lsc_violation),
    "no-feedback": _Suite(100, lambda: DUAL_FORMULA_TOL, _draw_no_feedback, _no_feedback_slack),
}
SUITE_IDS = tuple(_SUITES)


def _encode(value):
    if isinstance(value, (BackwardKernel, ForwardKernel)):
        return kernel_to_jsonable(value)
    if isinstance(value, tuple):
        return [real_to_str(v) for v in value]
    return value


def _decode(spec: AlphabetSpec, key: str, value):
    if key.startswith("backward_kernel"):
        return backward_kernel_from_jsonable(spec, value)
    if key.startswith("forward_kernel"):
        return forward_kernel_from_jsonable(spec, value)
    if key == "lambdas":
        if not isinstance(value, list):
            raise ProblemFileError("lambdas: expected a list of reals")
        return tuple(parse_real(v, "lambdas") for v in value)
    return value


class _Case(dict):
    """A replayed case: a key the measurement needs but the payload lacks
    is a bad input file, not a crash."""

    def __missing__(self, key):
        raise ProblemFileError(f"replay payload lacks {key!r}")


def run_suite(suite: str, seed: int = 0, cases: Optional[int] = None) -> SuiteReport:
    """Run one property suite from a nonnegative ``seed`` and report the
    worst adverse margin."""
    if suite not in SUITE_IDS:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITE_IDS}")
    entry = _SUITES[suite]
    n_cases = entry.cases if cases is None else _check_count(cases, "cases", 1)
    if seed is not None:
        _check_count(seed, "seed")
    rng = rng_from_seed(seed)
    tol = entry.tol()
    worst, worst_case = -math.inf, 0
    failures = []
    for k in range(n_cases):
        spec, case = entry.draw(rng, k, n_cases)
        slack = entry.measure(case)
        if slack > worst:
            worst, worst_case = slack, k
        if not slack <= tol:  # a NaN slack fails too
            failures.append({
                "suite": suite,
                "case_index": k,
                "spec": spec_to_jsonable(spec),
                "slack": real_to_str(slack),
                "tolerance": real_to_str(tol),
                **{key: _encode(value) for key, value in case.items()},
            })
    return SuiteReport(suite, n_cases, not failures, worst, worst_case, tol, tuple(failures))


def replay(payload: dict) -> float:
    """Re-run a single failure payload; returns the measured slack."""
    if not isinstance(payload, dict) or "suite" not in payload:
        raise ProblemFileError("replay payload must be an object with a 'suite' key")
    suite = payload["suite"]
    if suite not in SUITE_IDS:
        raise ProblemFileError(f"replay payload names unknown suite {suite!r}")
    spec = spec_from_jsonable(payload.get("spec"))
    case = _Case({key: _decode(spec, key, value) for key, value in payload.items()})
    return _SUITES[suite].measure(case)
