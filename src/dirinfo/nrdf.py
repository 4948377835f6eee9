"""Finite-horizon reconstruction optimization: minimize directed information
over forward kernels subject to an expected-distortion budget.

The solver alternates two exact minimizations (Csiszar-Tusnady) of the
Lagrangian ``I + s E d``: with the output law ``nu`` fixed, one soft
backward induction gives the exact minimizing causal kernel, for additive
and path-level distortions alike; then ``nu`` becomes the output law of
the new joint.  One iteration is one such tilt of ``nu`` whose slope ``s``
is matched to the budget by the shared multiplier search, as capacity
matches its cost multiplier; the law update is over-relaxed by
:func:`~dirinfo.solver.relax`, a step ``mu`` on ``log nu``, with the new
joint's ``-I`` as the merit.  Each tilt also certifies a lower bound on
the least Lagrangian, since its value is convex in ``nu``; the bound holds
at any ``nu`` and so, less the slope times the budget, on the value, and
the run stops on that certified gap.  A simplex-grid oracle validates
results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, InfeasibleConstraint, SpecMismatch
from .information import directed_information
from .measures import (
    AlphabetSpec,
    BackwardKernel,
    ForwardKernel,
    InfoValue,
    Pmf,
    _constraint_table,
    _frozen,
    _path_weights,
    _side_axes,
    _side_laws,
    _side_major,
    _tied_rows,
    _tied_shape,
    build_joint,
    ignores_output_history,
)
from .solver import (
    DEFAULT_CONFIG,
    FEASIBILITY_SLACK,
    SolverConfig,
    checked_budget,
    entropy_route,
    freeze_budget_table,
    grid_search,
    induction,
    log_where_positive,
    logsumexp,
    match_budget,
    relax,
    split_infinite,
    weight_table,
)


@dataclass(frozen=True, eq=False)
class SourceSpec:
    """An input process with no feedback: a backward kernel whose step
    tables are constant across output histories (Markov-in-x source)."""

    kernel: BackwardKernel

    def __post_init__(self):
        if not ignores_output_history(self.kernel):
            raise DomainError("source tables must not depend on output history")
        spec = self.kernel.spec
        tied = tuple(_frozen(_tied_rows(spec, 0, i, t).copy()) for i, t in enumerate(self.kernel.tables))
        object.__setattr__(self, "step_tables", tied)

    @classmethod
    def from_step_tables(
        cls, spec: AlphabetSpec, tables: Sequence[np.ndarray]
    ) -> "SourceSpec":
        """Build from per-step tables keyed by ``x^{i-1}`` alone."""
        return cls(BackwardKernel.from_feedback_free_tables(spec, tables))

    @property
    def spec(self) -> AlphabetSpec:
        return self.kernel.spec

    def marginal(self) -> Pmf:
        """Law of the full input path."""
        return Pmf(_path_weights(self.spec, self.step_tables, 0, tied=True).reshape(-1))


@dataclass(frozen=True, eq=False)
class DistortionConstraint:
    """Distortion table over (input path, output path) pairs with a budget.

    Entries are nonnegative and may be ``+inf`` for forbidden
    reconstructions.
    """

    distortion_table: np.ndarray
    budget: float

    def __post_init__(self):
        freeze_budget_table(self, "distortion_table", "distortion")


@dataclass(frozen=True, eq=False)
class NrdfResult:
    """Solver outcome: minimal value in nats, the minimizing kernel, and
    bookkeeping."""

    value: InfoValue
    argmin: ForwardKernel
    iterations: int
    distortion_slack: float
    converged: bool


def _resolve_budget(d: DistortionConstraint, budget: Optional[float]) -> float:
    """The budget a solve or oracle runs at: ``d.budget`` unless one is
    given, which must then be a finite nonnegative real."""
    return d.budget if budget is None else checked_budget(budget, "distortion budget")


def expected_distortion(src: SourceSpec, q: ForwardKernel, d: DistortionConstraint) -> float:
    """Expected distortion of the source-reconstruction joint; ``+inf``
    when mass reaches a forbidden cell."""
    if src.spec != q.spec:
        raise SpecMismatch("source and kernel specs differ")
    table = _constraint_table(q.spec, d.distortion_table, "distortion")
    return float(weight_table(build_joint(src.kernel, q).weights, table).sum())


def _distortion_dp(prob: _NrdfProblem):
    """Backward induction for the least achievable expected distortion.

    Returns the value together with the greedy deterministic reconstruction
    tables (one-hot rows) that attain it.
    """
    value, best = induction(-prob.d, prob.laws)
    choices = [_frozen(np.eye(k)[y.reshape(-1)]) for k, y in zip(prob.spec.y_sizes, best)]  # one-hot rows
    return 0.0 - float(value), choices  # a floor of 0 as 0.0, not -0.0


def min_expected_distortion(src: SourceSpec, d: DistortionConstraint) -> float:
    """Least expected distortion over all reconstruction kernels."""
    value, _ = _distortion_dp(_NrdfProblem(src, d))
    return value


def _input_free_floor(src: SourceSpec, d: DistortionConstraint) -> tuple[float, int]:
    """Least expected distortion over reconstructions that ignore the
    input, attained by a fixed output path; returns (value, path code)."""
    mu = src.marginal().weights
    per_path = weight_table(mu[:, None], d.distortion_table).sum(axis=0)
    k = int(per_path.argmin())
    return float(per_path[k]), k


def _constant_path_kernel(spec: AlphabetSpec, path_code: int) -> ForwardKernel:
    digits = np.unravel_index(path_code, spec.y_sizes)
    tables = [np.eye(spec.y_sizes[i])[[y] * spec.y_prefix_count(i)] for i, y in enumerate(digits)]
    return ForwardKernel.from_input_free_tables(spec, tables)


class _Update(NamedTuple):
    """One tilt: an alternating update at the slope ``s``."""

    log_nu: np.ndarray  # output-path law of the new joint
    log_c: np.ndarray  # its ratio to the normalized law tilted against
    log_q: list  # the new kernel's step tables, log domain
    di: float
    dist: float
    bound: float  # certified lower bound on the least Lagrangian at s


class _NrdfProblem:
    """A source and a distortion table laid out for the backward induction.

    Step ``i`` works on the interleaved prefix ``(x_0, y_0, ..., x_i,
    y_i)``; source steps carry size-1 ``y`` axes and output-law steps
    size-1 ``x`` axes, so both broadcast against it.
    """

    def __init__(self, src: SourceSpec, d: DistortionConstraint):
        spec = src.spec
        self.spec = spec
        self.d = np.ascontiguousarray(_constraint_table(spec, d.distortion_table, "distortion"))
        self.laws = _side_laws(spec, src.step_tables, 0, tied=True)  # the controller picks each y_i
        with np.errstate(divide="ignore"):
            self.log_mu = [np.log(t) for t in self.laws[::2]]
        self.y_shape = _tied_shape(spec, 1)

    @np.errstate(divide="ignore", invalid="ignore")
    def tilt(self, log_nu: np.ndarray, s: float) -> _Update:
        """The exact minimizing kernel at slope ``s`` against the output law
        ``nu``, its certificate, and the output law of the new joint.

        A soft :func:`induction` from the terminal ``log nu(y^n) - s d``,
        averaging over ``x_i`` under the source, gives the causal kernel
        that minimizes ``E log(Q / nu) + s E d`` as its policies: ``log Q_i =
        log nu_i - U_i - log Z_i`` with ``Z_i = sum_{y_i} nu_i exp(-U_i)``,
        where ``U_n = s d`` and ``U_{i-1}`` is the source's mean of ``V_i =
        -log Z_i``, since the induction's value on the axes up to ``y_i`` is
        ``log nu(y^i) - U_i``; its value at the root is ``-V``.  The minimum
        ``V`` is convex in ``nu`` with gradient ``-c``, where ``c(y) = sum_x
        mu(x) Q(y || x) / nu(y)``; so no law does better than ``V + 1 - max
        c``.  The new joint's output law ``nu c`` sums its weights ``mu_i
        Q_i`` over the inputs, in logs, as everything here is: probabilities
        underflow at large ``s``.  ``log_nu`` need not be normalized.
        """
        log_nu = log_nu - logsumexp(log_nu.reshape(-1))  # normalized
        neg_v, log_q = induction(log_nu.reshape(self.y_shape) - s * self.d, self.laws, soft=True)
        v = -float(neg_v)
        joint = np.zeros(())
        for log_mu, log_q_i in zip(self.log_mu, log_q):
            joint = (joint[..., None] + log_mu)[..., None] + log_q_i
        new_log_nu = logsumexp(joint, axis=_side_axes(0, joint.ndim)).reshape(log_nu.shape)
        log_c = np.where(np.isneginf(new_log_nu), -np.inf, new_log_nu - log_nu)
        nu = np.exp(new_log_nu)
        dist = float(weight_table(np.exp(joint), self.d).sum())
        di = v - float(np.vdot(nu, np.where(nu > 0, log_c, 0.0))) - s * dist
        return _Update(new_log_nu, log_c, log_q, di, dist, v - math.expm1(float(log_c.max())))

    def kernel(self, log_q: list) -> ForwardKernel:
        """The kernel of log step tables; a row with ``Z_i = 0``, which is
        never reached, holds the induction's uniform policy."""
        return ForwardKernel._from_log_tables(self.spec, log_q)


# Kept only because the traced benchmark (``perfbench/spans.py``) binds this
# name when it installs; it never calls the stub.  ROADMAP item 1 removes it
# together with the tracer's new targets.
def _solve_fixed_s(*args, **kwargs):
    raise NotImplementedError("the per-slope solve was retired; see solve_nrdf")


def solve_nrdf(
    src: SourceSpec,
    d: DistortionConstraint,
    budget: Optional[float] = None,
    cfg: Optional[SolverConfig] = None,
) -> NrdfResult:
    """Minimize directed information over reconstruction kernels subject to
    expected distortion at most ``budget`` (default: ``d.budget``).

    Feasibility is certified against the greedy minimum-distortion kernel.
    When an input-ignoring reconstruction meets the budget to within
    ``1e-9`` the value is zero and that kernel is returned.  Otherwise one
    :func:`~dirinfo.solver.relax` run updates the output law ``nu``, with
    the new joint's ``-I`` as its merit.  Each evaluation is one tilt
    against ``nu`` whose slope ``s`` is matched to the budget (to the least
    distortion, if that is above it) by :func:`~dirinfo.solver.match_budget`
    from the last matched slope; the next law is ``nu c^mu``.  Every tilt,
    probes included, certifies that the value is at least ``bound(s) - s *
    budget``; the run stops once the best tilt within budget is within
    ``cfg.multiplier_tol`` of the best such bound, which is what
    ``converged`` means, or after ``cfg.max_iters`` updates, which
    ``iterations`` counts, undone ones included.  ``cfg.tol`` is not read.
    """
    cfg = cfg or DEFAULT_CONFIG
    spec = src.spec
    target = _resolve_budget(d, budget)
    prob = _NrdfProblem(src, d)
    floor, greedy_tables = _distortion_dp(prob)
    if floor > target + FEASIBILITY_SLACK:
        raise InfeasibleConstraint(
            f"minimum achievable distortion {floor:.9g} exceeds budget {target:.9g}"
        )
    free_floor, best_path = _input_free_floor(src, d)
    if free_floor <= target + FEASIBILITY_SLACK:
        kernel = _constant_path_kernel(spec, best_path)
        return NrdfResult(InfoValue(0.0), kernel, 0, target - free_floor, True)

    aim = max(target, floor)
    updates = 0
    lower = 0.0  # the best certified lower bound on the value
    feasible = None  # (di, dist, log_q) of the best tilt within budget

    def tilt(log_nu, s):
        nonlocal lower, feasible
        if s == 0.0:  # exact, as zero-rate kernels ignore the input; a tilt meets 0 * inf
            return None, free_floor  # over budget, or the shortcut above would have returned
        step = prob.tilt(log_nu, s)
        lower = max(lower, step.bound - s * target)
        if step.dist <= aim and (feasible is None or step.di <= feasible[0]):
            feasible = (step.di, step.dist, step.log_q)
        return step, step.dist

    def evaluate(x):  # x: an output law and the slope matched before it
        step, _, s = match_budget(lambda s: tilt(x[0], s), aim, x[1], 0.01 * cfg.multiplier_tol)
        return -step.di, step, s

    def advance(x, point, mu):
        nonlocal updates
        _, step, s = point
        updates += 1
        if mu == 1.0:
            return step.log_nu, s
        log_nu = x[0] + mu * step.log_c
        return log_nu - logsumexp(log_nu.reshape(-1)), s

    def done(x, point, k):
        return feasible[0] - lower <= cfg.multiplier_tol

    try:
        relax(evaluate, advance, (np.zeros(spec.y_sizes), 1.0), done, cfg.max_iters)
    except InfeasibleConstraint:
        # give the guaranteed-feasible greedy kernel rather than an
        # iterate that violates the budget
        kernel = ForwardKernel(spec, tuple(greedy_tables))
        value = directed_information(src.kernel, kernel)
        return NrdfResult(InfoValue(value), kernel, updates, target - floor, False)
    di, dist, log_q = feasible
    kernel = prob.kernel(log_q)
    value = directed_information(src.kernel, kernel)
    return NrdfResult(
        InfoValue(value), kernel, updates, target - dist, di - lower <= cfg.multiplier_tol
    )


# ---------------------------------------------------------------------------
# grid oracle and budget sweeps
# ---------------------------------------------------------------------------


def _batch_terms(prob: _NrdfProblem, src: SourceSpec, pools, low):
    """``evaluate(high)``: the directed information and expected
    distortion, each of shape ``(len(high[0]), len(low[0]))``, of the
    reconstruction kernels that join each row of ``high`` with each of
    ``low`` (see :func:`~dirinfo.solver.grid_batches`), whose step-``i``
    rows pick from ``pools[i]``.

    A kernel's ``Q(y^n || x^n)`` is the product of its two parts', and
    ``log Q`` their sum.  So per output path, the high parts' ``Q`` times
    the low parts' joints (with the source) gives the output laws; and
    over every cell, the high ``Q`` times those joints weighted by the low
    ``log Q`` and by :func:`split_infinite` of the distortion gives the
    low share of ``E log Q`` and the expected distortion, and the high ``Q
    log Q`` times the low joints the high share of ``E log Q``.
    """
    spec = prob.spec
    paths = (spec.num_y_paths, spec.num_x_paths)

    def laws(idx):  # Q(y^n || x^n) of each row of idx, interleaved
        return _path_weights(spec, [np.take(pool, j, axis=0) for pool, j in zip(pools, idx)], 1)

    def by_path(a):  # (count, y^n x^n, ...) from (count, x_0, y_0, ..., x_n, y_n, ...)
        a = _side_major(spec, a, 1, lead=1)
        return a.reshape((len(a), math.prod(paths)) + a.shape[2 * spec.steps + 1:])

    q = laws(low)
    joint = q * _path_weights(spec, src.step_tables, 0, tied=True)
    # (y^n x^n, term, low): the low joints times the low log Q and the split distortion
    terms = np.concatenate([(joint * log_where_positive(q))[..., None], joint[..., None] * split_infinite(prob.d)], -1)
    right = by_path(terms).transpose(1, 2, 0).reshape(math.prod(paths), -1)
    joint = by_path(joint).T.copy()  # (y^n x^n, low)

    def evaluate(high):
        q = by_path(laws(high))
        nu = q.reshape((len(q),) + paths).swapaxes(0, 1) @ joint.reshape(paths + (-1,))
        sums = (q @ right).reshape(len(q), 3, -1)
        mean_log_q = sums[:, 0] + (q * log_where_positive(q)) @ joint
        return entropy_route(mean_log_q, nu[:, :, None], sums[:, 1:])

    return evaluate


def brute_force_nrdf(
    src: SourceSpec,
    d: DistortionConstraint,
    budget: Optional[float] = None,
    grid_resolution: int = 100,
    *,
    max_grid_points: int = 2_000_000,
) -> InfoValue:
    """Exhaustive minimum of directed information over reconstruction
    kernels with simplex rows in multiples of ``1/grid_resolution`` that
    meet the budget.

    Enumerates every combination of grid rows in blocks of bounded size,
    so a call's memory stays bounded whatever the size of the grid.  Each
    kernel's value is ``E log Q(y^n || x^n) - sum_y nu log nu`` (``H(Y^n)
    - H(Y^n || X^n)``).  Raises
    :class:`GridTooLarge` when the combination count exceeds
    ``max_grid_points``, and :class:`InfeasibleConstraint` when no grid
    kernel meets the budget.
    """
    prob = _NrdfProblem(src, d)
    target = _resolve_budget(d, budget)
    return InfoValue(grid_search(
        src.spec, 1, False, lambda pools, low: _batch_terms(prob, src, pools, low), target,
        -1.0, grid_resolution, max_grid_points,
    ))


def rd_curve(
    src: SourceSpec,
    d: DistortionConstraint,
    budgets: Sequence[float],
    cfg: Optional[SolverConfig] = None,
) -> list[tuple[float, float]]:
    """Solve across a strictly ascending budget grid; returns
    (budget, value-in-nats) pairs.  Solver errors at any point propagate."""
    points = [_resolve_budget(d, b) for b in budgets]
    if not points:
        raise DomainError("budget grid must not be empty")
    for earlier, later in zip(points, points[1:]):
        if later <= earlier:
            raise DomainError("budget grid must be strictly ascending")
    out = []
    for b in points:
        result = solve_nrdf(src, d, budget=b, cfg=cfg)
        out.append((b, result.value.value))
    return out
