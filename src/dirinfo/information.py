"""Directed information functionals and executable property audits.

Two independent evaluation routes are implemented: a sum of per-step
conditional mutual informations, and a single relative entropy against the
product of the input kernel with the output marginal.  They must agree to
``DUAL_FORMULA_TOL``; a larger gap is reported as an error rather than
silently absorbed.

Both routes walk the joint one cache-sized block at a time (see
``measures._joint_blocks``), so beyond the kernels an evaluation holds a
few blocks and the output marginal, never the whole joint.  The first pass
gives each step's input half from the blocks, or from their masses for the
steps that end before a block starts, and adds up the output marginal,
whose laws give every step's output half.  The divergence route takes a
second pass that splits the product's logarithm into its two factors,
``log a + log nu``: each block adds ``sum w log(w / a)`` against the
input-path weights ``a`` at its prefix, less ``sum m log nu`` over its
own output marginal ``m``, so the product is never formed.  One first pass
serves both routes, for :func:`directed_information_sum` and the
dual-formula suite alike, and it is also the sum route of the stacked
mixture and continuity audits, over the blocks of joints stacked on
leading axes.  A joint that fits in one block is walked whole, by the same
steps.
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
    Pmf,
    _block_prefix_len,
    _check_cells,
    _check_laws,
    _divergence_sum,
    _input_path_blocks,
    _joint_blocks,
    _log_ratio_sum,
    _marginal_weights,
    _mass_log_ratio,
    _mixture_tables,
    _path_table,
    _require_same_spec,
    _sum_axis,
    _tied_shape,
    condition_on_path,
    kl_divergence,
    marginal_x,
    marginal_y,
)

DUAL_FORMULA_TOL = 1e-9
MIXTURE_TOL = 1e-9
TV_LIMIT_TOL = 1e-6
_TV_MONOTONE_SLACK = 1e-12


def _blocks(p: BackwardKernel, q: ForwardKernel, joint: Optional[JointMeasure]):
    """The blocks of the joint of ``(p, q)``: views of the caller's
    ``joint``, checked for its spec, or built from the kernels' tables."""
    spec = _require_same_spec(p, q)
    if joint is None:
        return _joint_blocks(spec, p.tables, q.tables)
    if joint.spec != spec:
        raise SpecMismatch(f"joint is on {joint.spec}, kernels are on {spec}")
    return _joint_blocks(spec, p.tables, q.tables, joint.weights)


def _step_laws(j: np.ndarray, count: int):
    """Yield the laws ``(j_i, b_i)`` of the last ``count`` steps of the
    interleaved law ``j``, last step first: ``j_i`` on the axes through
    ``y_i`` and ``b_i`` through ``x_i``, each the one before summed over
    its trailing axis.  Each pair is made only when the one before is
    used up, so the caller holds one at a time."""
    for k in range(count):
        if k:
            j = _sum_axis(b, -1)
        b = _sum_axis(j, -1)
        yield j, b


def _output_terms(c: np.ndarray, steps: int, lead: int = 0) -> list:
    """``E log P(y_i | y^{i-1})`` of every step, last step first, from the
    output-path law ``c`` (one axis per step, after ``lead`` leading
    axes)."""
    terms = []
    for _ in range(steps):
        d = _sum_axis(c, -1)                            # law of y^{i-1}
        terms.append(_mass_log_ratio(c, d[..., None], lead))
        c = d
    return terms


def _first_pass(spec: AlphabetSpec, blocks, lead_shape: tuple = ()):
    """One walk over the blocks of a joint, or of joints stacked on the
    leading axes ``lead_shape``: the output-path law, with one axis per
    step after those axes, and the input half ``E log P(y_i | x^i,
    y^{i-1})`` of every step, as an array over the steps and then those
    axes.

    A step whose ``y_i`` axis lies in the blocks gets its half block by
    block.  The blocks' masses form the law of the prefixes, which gives
    the steps that end before a block starts.  Each block is checked for
    finite, nonnegative cells, and each joint's mass, the sum of its
    blocks', for 1.
    """
    steps, stop, lead = spec.steps, _block_prefix_len(spec), len(lead_shape)
    deep = range(stop // 2, steps)  # the steps whose y axis is in each block
    masses = np.empty(lead_shape + spec.interleaved_shape[:stop])
    nu = np.zeros(lead_shape + spec.y_sizes)
    inputs = np.zeros((steps,) + lead_shape)
    stack = (slice(None),) * lead  # every joint of the stack
    for prefix, w in blocks:
        marginal = _marginal_weights(w, steps, 1, stop)
        masses[stack + prefix] = totals = marginal.reshape(lead_shape + (-1,)).sum(axis=-1)
        _check_cells(w, totals.sum(), "joint")
        nu[stack + prefix[1::2]] += marginal
        for i, (j, b) in zip(reversed(deep), _step_laws(w, len(deep))):
            inputs[i] += _mass_log_ratio(j, b[..., None], lead)
    _check_laws(masses, "joint", lead=lead)
    # the prefix law through y_{k-1}, k = stop // 2, gives steps 0..k-1
    prefixes = _sum_axis(masses, -1) if stop % 2 else masses
    for i, (j, b) in zip(reversed(range(stop // 2)), _step_laws(prefixes, stop // 2)):
        inputs[i] += _mass_log_ratio(j, b[..., None], lead)
    return nu, inputs


def _terms(nu: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """The per-step terms, input half minus output half, as an array over
    the steps and any leading axes, each taken by :class:`InfoValue`'s
    rule: NaN, or a negative value beyond rounding, raises; a
    rounding-sized negative becomes 0."""
    terms = inputs - np.array(_output_terms(nu, len(inputs), inputs.ndim - 1)[::-1])
    if not terms.min() >= 0:  # NaN fails too
        terms = np.vectorize(lambda v: InfoValue(v).value, otypes=[float])(terms)
    return terms


def per_step_information(
    p: BackwardKernel, q: ForwardKernel, *, joint: Optional[JointMeasure] = None
) -> tuple[InfoValue, ...]:
    """Conditional mutual information between the input prefix and the
    current output given past outputs, one term per step.

    ``joint`` is ``build_joint(p, q)`` when the caller already holds it;
    its blocks are then views, else they are built from the kernels.  Step
    ``i`` is ``E log P(y_i | x^i, y^{i-1}) - E log P(y_i | y^{i-1})``,
    taken on these conditionals rather than as a difference of joint
    entropies, so a term that should vanish does so to rounding in the
    conditionals.  Each half comes from successive marginals, last step
    first: each drops one trailing axis of the one before, so all steps
    together cost a few passes over the cells.
    """
    return tuple(map(InfoValue, _terms(*_first_pass(p.spec, _blocks(p, q, joint)))))


def _directed_information_stack(
    spec: AlphabetSpec, p_tables: Sequence[np.ndarray], q_tables: Sequence[np.ndarray]
) -> np.ndarray:
    """Sum-route directed information of kernel pairs whose step tables
    are stacked on one leading axis (either side may be one kernel's
    plain tables), from the first pass of every single evaluation, over
    the stacked joints' blocks.  The terms are added in step order, as
    :func:`directed_information` adds them."""
    lead_shape = max(p_tables[0].shape[:-2], q_tables[0].shape[:-2], key=len)
    blocks = _joint_blocks(spec, p_tables, q_tables)
    return sum(_terms(*_first_pass(spec, blocks, lead_shape)))


def _divergence_pass(
    p: BackwardKernel, q: ForwardKernel, joint: Optional[JointMeasure], nu: np.ndarray
) -> InfoValue:
    """The divergence route's second walk, which takes the product's
    logarithm from its two factors, ``log a + log nu``, and never forms
    the product: each block ``w`` of the joint adds ``sum w log(w / a) -
    sum_y m log nu``.  Here ``a`` is the block of the input-path weights
    of ``p`` at the same prefix, ``m`` the block's own output marginal,
    and ``nu`` the output law, first taken as a :class:`Pmf`, with ``log
    nu`` read as 0 where ``nu`` is 0.  On the kernels' own joint ``w <=
    a`` cell by cell, so no quotient overflows, and ``nu >= m``, so ``log
    nu`` is finite wherever there is mass.  A caller's ``joint`` with
    mass over ``a = 0`` makes the route infinite; one whose quotient
    overflows takes the difference of logarithms in
    ``measures._divergence_sum``."""
    spec = p.spec
    nu = Pmf(nu.reshape(-1)).weights.reshape(spec.y_sizes)
    log_nu = np.log(nu, out=np.zeros_like(nu), where=nu > 0)
    total = 0.0
    for (prefix, w), a in zip(_blocks(p, q, joint), _input_path_blocks(spec, p.tables)):
        m = _marginal_weights(w, spec.steps, 1, len(prefix))
        total += _divergence_sum(w, a) - m.reshape(-1) @ log_nu[prefix[1::2]].reshape(-1)
    return InfoValue(total)


def directed_information_divergence(
    p: BackwardKernel, q: ForwardKernel, *, joint: Optional[JointMeasure] = None
) -> InfoValue:
    """Directed information as one relative entropy: the joint against the
    product of the input kernel with the joint's own output marginal.

    ``joint`` is ``build_joint(p, q)`` when the caller already holds it;
    its blocks are then views, else they are built from the kernels.
    """
    return _divergence_pass(p, q, joint, _first_pass(p.spec, _blocks(p, q, joint))[0])


def _routes(p: BackwardKernel, q: ForwardKernel) -> tuple[tuple[InfoValue, ...], InfoValue]:
    """The per-step terms and the divergence route of ``(p, q)``, from one
    first pass over their joint and the divergence route's second pass."""
    nu, inputs = _first_pass(p.spec, _blocks(p, q, None))
    return tuple(map(InfoValue, _terms(nu, inputs))), _divergence_pass(p, q, None, nu)


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
    """Directed information with both routes evaluated and cross-checked.
    One first pass over the joint serves both routes."""
    terms, div = _routes(p, q)  # which checks that p and q share a spec
    total = InfoValue(float(sum(t.value for t in terms)))
    return DirectedInfoReport(total, div, terms, total.value / p.spec.steps)


def directed_information(p: BackwardKernel, q: ForwardKernel) -> float:
    """Plain float value of the sum route, the package's default evaluator."""
    return float(sum(t.value for t in per_step_information(p, q)))


def mutual_information(joint: JointMeasure) -> InfoValue:
    """Mutual information between full input and output paths, in nats.

    Where a cell of ``mu * nu`` underflows to 0 under mass, the product's
    logarithm is taken as ``log mu + log nu``, as the divergence route
    does, so the value stays finite: both marginals have mass wherever the
    joint does."""
    mu = marginal_x(joint).weights.reshape(_tied_shape(joint.spec, 0))
    nu = marginal_y(joint).weights.reshape(_tied_shape(joint.spec, 1))
    value = kl_divergence(joint, mu * nu)
    if value.value == math.inf:  # a product cell underflowed to 0 under mass
        with np.errstate(divide="ignore"):
            return InfoValue(_log_ratio_sum(joint.weights, np.log(mu) + np.log(nu)))
    return value


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
    paths = _path_table(c_limit.spec, q_stack, 1)
    _check_laws(paths, "conditioned family")
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
