"""Directed information functionals and executable property audits.

Two independent evaluation routes are implemented: a sum of per-step
conditional mutual informations, and a single relative entropy against the
product of the input kernel with the output marginal.  They must agree to
``DUAL_FORMULA_TOL``; a larger gap is reported as an error rather than
silently absorbed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, FormulaDisagreement, NonConvergentSequence, SpecMismatch
from .measures import (
    AlphabetSpec,
    BackwardKernel,
    ConditionedFamily,
    ForwardKernel,
    InfoValue,
    JointMeasure,
    _check_joint_mass,
    _check_rows,
    _joint_weights,
    _marginal_weights,
    _mass_log_ratio,
    _mixture_tables,
    _path_weights,
    _require_same_spec,
    _sum_axis,
    _tied_shape,
    _xy_matrix,
    build_joint,
    condition_on_path,
    kl_divergence,
    marginal_x,
    marginal_y,
    product_pi_forward,
)

DUAL_FORMULA_TOL = 1e-9
MIXTURE_TOL = 1e-9
TV_LIMIT_TOL = 1e-6
_TV_MONOTONE_SLACK = 1e-12


def _joint_of(p: BackwardKernel, q: ForwardKernel, joint: Optional[JointMeasure]) -> JointMeasure:
    """The caller's joint of ``(p, q)``, checked for its spec, or a new one."""
    spec = _require_same_spec(p, q)
    if joint is None:
        return build_joint(p, q)
    if joint.spec != spec:
        raise SpecMismatch(f"joint is on {joint.spec}, kernels are on {spec}")
    return joint


def per_step_information(
    p: BackwardKernel, q: ForwardKernel, *, joint: Optional[JointMeasure] = None
) -> tuple[InfoValue, ...]:
    """Conditional mutual information between the input prefix and the
    current output given past outputs, one term per step.

    ``joint`` is ``build_joint(p, q)`` when the caller already holds it.
    The terms come from successive marginals, last step first: each drops
    one trailing axis of the one before, so all steps together cost a few
    passes over the cells.  Step ``i`` is
    ``E log P(y_i | x^i, y^{i-1}) - E log P(y_i | y^{i-1})``, taken on
    these conditionals rather than as a difference of joint entropies, so
    a term that should vanish does so to rounding in the conditionals.
    """
    joint = _joint_of(p, q, joint)
    return tuple(InfoValue(t) for t in _per_step_terms(joint.weights, joint.spec.steps))


def _per_step_terms(w: np.ndarray, steps: int) -> list:
    """The terms of :func:`per_step_information`, first step first, for
    interleaved joint weights ``w``.  Joints stacked on leading axes of
    ``w`` give one array of terms per step over those axes.  Every term
    passes :class:`InfoValue`'s rule: NaN, or a negative value beyond
    rounding, raises; a rounding-sized negative becomes 0."""
    lead = w.ndim - 2 * steps
    j = w                                               # law of (x^i, y^i), i = n first
    c = _marginal_weights(w, steps, 1)                  # law of y^i
    terms = []
    for _ in range(steps):
        b = _sum_axis(j, -1)                            # law of (x^i, y^{i-1})
        d = _sum_axis(c, -1)                            # law of y^{i-1}
        t = _mass_log_ratio(j, b[..., None], lead) - _mass_log_ratio(c, d[..., None], lead)
        if not np.all(t >= 0):
            t = np.vectorize(lambda v: InfoValue(v).value, otypes=[float])(t)
        terms.append(t)
        j, c = _sum_axis(b, -1), d
    return terms[::-1]


def _directed_information_stack(
    spec: AlphabetSpec, p_tables: Sequence[np.ndarray], q_tables: Sequence[np.ndarray]
) -> np.ndarray:
    """Sum-route directed information of kernel pairs whose step tables
    are stacked on one leading axis (either side may be one kernel's
    plain tables), from one stacked joint.  The terms are added in step
    order, as :func:`directed_information` adds them."""
    w = _joint_weights(spec, p_tables, q_tables)
    _check_joint_mass(w, w.ndim - 2 * spec.steps)
    return sum(_per_step_terms(w, spec.steps))


def directed_information_divergence(
    p: BackwardKernel, q: ForwardKernel, *, joint: Optional[JointMeasure] = None
) -> InfoValue:
    """Directed information as one relative entropy: the joint against the
    product of the input kernel with the joint's own output marginal.

    ``joint`` is ``build_joint(p, q)`` when the caller already holds it.
    """
    joint = _joint_of(p, q, joint)
    return kl_divergence(joint, product_pi_forward(p, marginal_y(joint)))


@dataclass(frozen=True)
class DirectedInfoReport:
    """Both evaluation routes plus the per-step decomposition, in nats."""

    sum_form: InfoValue
    divergence_form: InfoValue
    per_step_terms: tuple[InfoValue, ...]
    normalized: float

    def __post_init__(self):
        total = sum(t.value for t in self.per_step_terms)
        if math.isfinite(total) and abs(total - self.sum_form.value) > 1e-9:
            raise FormulaDisagreement(
                f"per-step terms sum to {total}, reported sum form is {self.sum_form.value}"
            )
        a, b = self.sum_form.value, self.divergence_form.value
        if math.isinf(a) != math.isinf(b):
            raise FormulaDisagreement(f"one route is infinite, the other is not: {a} vs {b}")
        if math.isfinite(a) and abs(a - b) > DUAL_FORMULA_TOL:
            raise FormulaDisagreement(
                f"evaluation routes disagree: sum form {a!r}, divergence form {b!r}"
            )


def directed_information_sum(p: BackwardKernel, q: ForwardKernel) -> DirectedInfoReport:
    """Directed information with both routes evaluated and cross-checked."""
    spec = _require_same_spec(p, q)
    joint = build_joint(p, q)
    terms = per_step_information(p, q, joint=joint)
    total = InfoValue(float(sum(t.value for t in terms)))
    div = directed_information_divergence(p, q, joint=joint)
    return DirectedInfoReport(total, div, terms, total.value / spec.steps)


def directed_information(p: BackwardKernel, q: ForwardKernel) -> float:
    """Plain float value of the sum route, the package's default evaluator."""
    return float(sum(t.value for t in per_step_information(p, q)))


def mutual_information(joint: JointMeasure) -> InfoValue:
    """Mutual information between full input and output paths, in nats."""
    mu = marginal_x(joint).weights.reshape(_tied_shape(joint.spec, 0))
    nu = marginal_y(joint).weights.reshape(_tied_shape(joint.spec, 1))
    return kl_divergence(joint, mu * nu)


# ---------------------------------------------------------------------------
# mixture audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureAudit:
    """Outcome of checking directed information along one mixture segment.

    ``violations[k]`` is how far the value at ``lambdas[k]`` lands on the
    wrong side of the chord; the audit passes when the worst one stays
    within tolerance.
    """

    direction: str  # "convex-in-output" or "concave-in-input"
    lambdas: tuple[float, ...]
    endpoint_a: float
    endpoint_b: float
    mixture_values: tuple[float, ...]
    violations: tuple[float, ...]
    max_violation: float
    tolerance: float = MIXTURE_TOL

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def _check_lambda_grid(lambda_grid: Sequence[float]) -> tuple[float, ...]:
    grid = tuple(float(v) for v in lambda_grid)
    if not grid:
        raise DomainError("lambda grid must not be empty")
    return grid


def _mixture_audit(direction: str, fixed, a, b, lambda_grid: Sequence[float]) -> MixtureAudit:
    """Audit along the segment from kernel ``a`` to kernel ``b`` of one
    side, the other side's kernel held at ``fixed``.  The two endpoints,
    then each mixture of the grid, are built and evaluated as one stack."""
    spec = _require_same_spec(fixed, a, b)
    grid = _check_lambda_grid(lambda_grid)
    mixes = _mixture_tables(condition_on_path(a), condition_on_path(b), grid)
    stack = tuple(np.concatenate([ta[None], tb[None], tm]) for ta, tb, tm in zip(a.tables, b.tables, mixes))
    if direction == "convex-in-output":
        values = _directed_information_stack(spec, fixed.tables, stack)
    else:
        values = _directed_information_stack(spec, stack, fixed.tables)
    v1, v2 = float(values[0]), float(values[1])
    mix = values[2:]
    lam = np.array(grid)
    chord = lam * v1 + (1.0 - lam) * v2
    violations = (mix - chord if direction == "convex-in-output" else chord - mix).tolist()
    return MixtureAudit(
        direction=direction,
        lambdas=grid,
        endpoint_a=v1,
        endpoint_b=v2,
        mixture_values=tuple(mix.tolist()),
        violations=tuple(violations),
        max_violation=max(violations),
    )


def check_convexity_in_q(
    p: BackwardKernel,
    q1: ForwardKernel,
    q2: ForwardKernel,
    lambda_grid: Sequence[float],
) -> MixtureAudit:
    """Audit convexity in the output argument along one mixture segment.

    Mixtures are taken between whole-path conditional families, then
    refactored into per-step kernels; mixing the step tables directly would
    test a different (and false) statement.  The segment, endpoints
    included, is refactored, built and evaluated as one stack; each value
    equals the per-kernel ``directed_information`` to rounding.
    """
    return _mixture_audit("convex-in-output", p, q1, q2, lambda_grid)


def check_concavity_in_p(
    q: ForwardKernel,
    p1: BackwardKernel,
    p2: BackwardKernel,
    lambda_grid: Sequence[float],
) -> MixtureAudit:
    """Audit concavity in the input argument along one mixture segment.

    As with the convex direction, the mixture is taken at the whole-path
    conditional level and refactored back into step tables, and the
    segment is evaluated as one stack that equals per-kernel evaluation to
    rounding.
    """
    return _mixture_audit("concave-in-input", q, p1, p2, lambda_grid)


# ---------------------------------------------------------------------------
# semicontinuity audit
# ---------------------------------------------------------------------------


def tv_distance(a: ConditionedFamily, b: ConditionedFamily) -> float:
    """Worst-row total variation distance between two conditioned families."""
    _require_same_spec(a, b)
    if a.given != b.given:
        raise DomainError(f"families condition on {a.given!r} and {b.given!r}")
    return float(_worst_row_tv(a.table, b.table))


def _worst_row_tv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Worst-row total variation between conditioned tables, over any
    leading axes they have."""
    d = a - b
    return 0.5 * np.abs(d, out=d).sum(axis=-1).max(axis=-1)


@dataclass(frozen=True)
class LscAudit:
    """Outcome of a lower-semicontinuity check along one kernel sequence.

    The sequence must approach the limit kernel in (monotone) total
    variation; the audit then asks that the limit value not exceed the tail
    of the value sequence by more than the tolerance.
    """

    tv_distances: tuple[float, ...]
    sequence_values: tuple[float, ...]
    limit_value: float
    tail_infimum: float
    violation: float
    tolerance: float = MIXTURE_TOL

    @property
    def passed(self) -> bool:
        return self.violation <= self.tolerance


def check_lower_semicontinuity(
    p: BackwardKernel,
    q_limit: ForwardKernel,
    q_sequence: Sequence[ForwardKernel],
) -> LscAudit:
    """Audit lower semicontinuity of the value along a convergent sequence.

    Raises :class:`NonConvergentSequence` unless the total variation gaps
    are nonincreasing and the final gap is below ``TV_LIMIT_TOL``.  The
    tail infimum is taken over the last quarter of the sequence (at least
    one element).
    """
    _require_same_spec(p, q_limit, *q_sequence)
    if not q_sequence:
        raise DomainError("need at least one sequence element")
    q_stack = tuple(np.stack(t) for t in zip(*(q.tables for q in q_sequence)))
    return _lsc_audit(p, q_limit, q_stack)


def _tv_distances_to(c_limit: ConditionedFamily, q_stack: Sequence[np.ndarray]) -> list:
    """:func:`tv_distance` from each stacked forward kernel's path
    conditional to ``c_limit``.  Returning frees the path tables before
    the audit builds its joints, which keeps the audit's peak memory down."""
    spec = c_limit.spec
    paths = _xy_matrix(spec, _path_weights(spec, q_stack, 1))
    _check_rows(paths, "conditioned family")
    return _worst_row_tv(paths, c_limit.table).tolist()


def _lsc_audit(
    p: BackwardKernel, q_limit: ForwardKernel, q_stack: Sequence[np.ndarray]
) -> LscAudit:
    """:func:`check_lower_semicontinuity` on a sequence given as step
    tables stacked on a leading axis.  Distances and values come from one
    stack each and equal per-kernel evaluation to rounding."""
    spec = _require_same_spec(p, q_limit)
    tvs = _tv_distances_to(condition_on_path(q_limit), q_stack)
    for earlier, later in zip(tvs, tvs[1:]):
        if later > earlier + _TV_MONOTONE_SLACK:
            raise NonConvergentSequence(
                f"total variation increased along the sequence: {earlier} -> {later}"
            )
    if tvs[-1] > TV_LIMIT_TOL:
        raise NonConvergentSequence(
            f"sequence stops {tvs[-1]:.3e} away from the limit, above {TV_LIMIT_TOL:g}"
        )
    values = _directed_information_stack(spec, p.tables, q_stack).tolist()
    # the limit as a stack of one, rather than a copy of the whole
    # sequence with the limit appended
    limit_value = float(
        _directed_information_stack(spec, p.tables, tuple(t[None] for t in q_limit.tables))[0]
    )
    tail = values[-max(1, len(values) // 4):]
    tail_inf = min(tail)
    return LscAudit(
        tv_distances=tuple(tvs),
        sequence_values=tuple(values),
        limit_value=limit_value,
        tail_infimum=tail_inf,
        violation=limit_value - tail_inf,
    )
