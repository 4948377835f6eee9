"""Finite-horizon reconstruction optimization: minimize directed information
over forward kernels subject to an expected-distortion budget.

At a fixed slope ``s`` the Lagrangian ``I + s E d`` is minimized by
alternating minimization (Csiszar-Tusnady): with the output law ``nu``
fixed, one soft backward induction gives the exact minimizing causal
kernel, for additive and path-level distortions alike; then ``nu`` becomes
the output law of the new joint.  Each update also certifies a lower bound
on the least Lagrangian, since its value is convex in ``nu``.  The shared
multiplier search matches the slope to the budget and stops on a certified
gap; a simplex-grid oracle validates results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, InfeasibleConstraint, SpecMismatch
from .indexing import decode
from .information import directed_information
from .measures import (
    AlphabetSpec,
    BackwardKernel,
    ForwardKernel,
    InfoValue,
    Pmf,
    _from_xy_matrix,
    _normalize_rows,
    _sum_axis,
    ignores_output_history,
    product_pi_backward,
)
from .solver import (
    DEFAULT_CONFIG,
    FEASIBILITY_SLACK,
    SolverConfig,
    checked_budget,
    entropy_route,
    freeze_budget_table,
    grid_batches,
    log_where_positive,
    logsumexp,
    match_budget,
    simplex_grid,
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
        tied = []
        for i, t in enumerate(self.kernel.tables):
            arr = t.reshape(spec.interleaved_shape[: 2 * i] + (spec.x_sizes[i],))
            y_ax = tuple(range(1, 2 * i, 2))
            if y_ax:
                arr = arr.mean(axis=y_ax)
            arr = arr.reshape(spec.x_prefix_count(i), spec.x_sizes[i]).copy()
            arr.setflags(write=False)
            tied.append(arr)
        object.__setattr__(self, "step_tables", tuple(tied))

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
        spec = self.spec
        arr = np.ones((1,) * spec.steps)
        for i, t in enumerate(self.step_tables):
            fshape = spec.x_sizes[:i] + (spec.x_sizes[i],) + (1,) * (spec.steps - i - 1)
            arr = arr * t.reshape(fshape)
        return Pmf(arr.reshape(-1))


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


def _check_table_shape(spec: AlphabetSpec, d: DistortionConstraint):
    want = (spec.num_x_paths, spec.num_y_paths)
    if d.distortion_table.shape != want:
        raise SpecMismatch(
            f"distortion table has shape {d.distortion_table.shape}, expected {want}"
        )


def _resolve_budget(d: DistortionConstraint, budget: Optional[float]) -> float:
    """The budget a solve or oracle runs at: ``d.budget`` unless one is
    given, which must then be a finite nonnegative real."""
    return d.budget if budget is None else checked_budget(budget, "distortion budget")


def expected_distortion(src: SourceSpec, q: ForwardKernel, d: DistortionConstraint) -> float:
    """Expected distortion of the source-reconstruction joint; ``+inf``
    when mass reaches a forbidden cell."""
    if src.spec != q.spec:
        raise SpecMismatch("source and kernel specs differ")
    _check_table_shape(q.spec, d)
    w = product_pi_backward(src.marginal(), q).weights
    return float(weight_table(w, _from_xy_matrix(q.spec, d.distortion_table)).sum())


def _distortion_dp(src: SourceSpec, d: DistortionConstraint):
    """Backward induction for the least achievable expected distortion.

    Returns the value together with the greedy deterministic reconstruction
    tables (one-hot rows) that attain it.
    """
    spec = src.spec
    _check_table_shape(spec, d)
    v = _from_xy_matrix(spec, d.distortion_table)
    choices: list[np.ndarray] = [None] * spec.steps  # type: ignore[list-item]
    for i in range(spec.horizon_n, -1, -1):
        rows = v.reshape(spec.output_history_count(i), spec.y_sizes[i])
        choices[i] = np.eye(spec.y_sizes[i])[rows.argmin(axis=-1)]  # one-hot rows
        u = rows.min(axis=-1).reshape(spec.input_history_count(i), spec.x_sizes[i])
        v = weight_table(src.kernel.tables[i], u).sum(axis=-1)
    return float(np.asarray(v).reshape(-1)[0]), choices


def min_expected_distortion(src: SourceSpec, d: DistortionConstraint) -> float:
    """Least expected distortion over all reconstruction kernels."""
    value, _ = _distortion_dp(src, d)
    return value


def _input_free_floor(src: SourceSpec, d: DistortionConstraint) -> tuple[float, int]:
    """Least expected distortion over reconstructions that ignore the
    input, attained by a fixed output path; returns (value, path code)."""
    mu = src.marginal().weights
    per_path = weight_table(mu[:, None], d.distortion_table).sum(axis=0)
    k = int(per_path.argmin())
    return float(per_path[k]), k


def _constant_path_kernel(spec: AlphabetSpec, path_code: int) -> ForwardKernel:
    digits = decode(path_code, spec.y_sizes)
    tables = [np.eye(spec.y_sizes[i])[[y] * spec.y_prefix_count(i)] for i, y in enumerate(digits)]
    return ForwardKernel.from_input_free_tables(spec, tables)


class _Update(NamedTuple):
    """One alternating update at a fixed slope ``s``."""

    log_nu: np.ndarray  # output-path law of the new joint
    log_q: list  # the new kernel's step tables, log domain
    di: float
    dist: float
    lagrangian: float  # di + s * dist
    bound: float  # certified lower bound on the least Lagrangian at s


class _NrdfProblem:
    """A source and a distortion table laid out for the backward induction.

    Step ``i`` works on the interleaved prefix ``(x_0, y_0, ..., x_i,
    y_i)``; source steps carry size-1 ``y`` axes and output-law steps
    size-1 ``x`` axes, so both broadcast against it.
    """

    def __init__(self, src: SourceSpec, d: DistortionConstraint):
        spec = src.spec
        _check_table_shape(spec, d)
        self.spec = spec
        self.d = np.ascontiguousarray(_from_xy_matrix(spec, d.distortion_table))
        self.mu = [
            t.reshape(tuple(v for k in spec.x_sizes[:i] for v in (k, 1)) + (spec.x_sizes[i],))
            for i, t in enumerate(src.step_tables)
        ]
        with np.errstate(divide="ignore"):
            self.log_mu = [np.log(t) for t in self.mu]
        self.y_shape = tuple(v for k in spec.y_sizes for v in (1, k))

    @np.errstate(divide="ignore", invalid="ignore")
    def tilt(self, log_nu: np.ndarray, s: float) -> _Update:
        """The exact minimizing kernel at slope ``s`` against the output law
        ``nu``, its certificate, and the output law of the new joint.

        A soft backward induction from ``U_n = s d`` gives the causal kernel
        that minimizes ``E log(Q / nu) + s E d``: ``log Q_i = log nu_i - U_i
        - log Z_i`` with ``Z_i = sum_{y_i} nu_i exp(-U_i)``, and ``U_{i-1}``
        is the source's mean of ``V_i = -log Z_i``.  The minimum ``V`` is
        convex in ``nu`` with gradient ``-c``, where ``c(y) = sum_x mu(x)
        prod_i exp(-U_i - log Z_i)``; so no law does better than ``V + 1 -
        max c``.  The new joint's output law is ``nu c``.  Everything stays
        in logs, because probabilities underflow at large ``s``.  ``log_nu``
        need not be normalized.
        """
        spec = self.spec
        steps = spec.steps
        # log nu(y_i | y^{i-1}), uniform after a null prefix
        conds = []
        m = log_nu
        for i in reversed(range(steps)):
            prev = logsumexp(m)
            cond = np.where(
                (prev == -np.inf)[..., None], -math.log(spec.y_sizes[i]), m - prev[..., None]
            )
            conds.append(cond.reshape(self.y_shape[: 2 * i + 2]))
            m = prev
        conds.reverse()
        log_nu = log_nu - m  # normalized

        u = s * self.d
        log_q, gain = [None] * steps, [None] * steps
        for i in reversed(range(steps)):
            a = conds[i] - u
            log_z = logsumexp(a)
            log_q[i] = a - log_z[..., None]
            gain[i] = -u - log_z[..., None]  # log(Q_i / nu_i)
            u = weight_table(self.mu[i], -log_z).sum(axis=-1)
        v = float(u)

        # log mu(x) Q(y||x) / nu(y), prefix by prefix; a cell that is
        # -inf on one step and +inf on a later one is never reached
        acc = np.zeros(())
        for i in range(steps):
            acc = acc[..., None] + self.log_mu[i]
            acc = acc[..., None] + gain[i]
        acc = np.where(np.isnan(acc), -np.inf, acc)
        top = acc
        for i in range(steps):
            top = top.max(axis=i)  # over x_i, once x_0..x_{i-1} are gone
        top = np.where(np.isfinite(top), top, 0.0)
        e = np.exp(acc - top.reshape(self.y_shape))
        total = e
        for i in range(steps):
            total = _sum_axis(total, i)
        log_c = np.log(total) + top

        new_log_nu = log_nu + log_c
        nu = np.exp(new_log_nu)
        w = e * np.exp(top + log_nu).reshape(self.y_shape)
        dist = float(weight_table(w, self.d).sum())
        lagrangian = v - float(np.vdot(nu, np.where(nu > 0, log_c, 0.0)))
        bound = v - math.expm1(float(log_c.max()))
        return _Update(new_log_nu, log_q, lagrangian - s * dist, dist, lagrangian, bound)

    def kernel(self, log_q: list) -> ForwardKernel:
        """The kernel of log step tables; a row with ``Z_i = 0`` is never
        reached and is made uniform."""
        spec = self.spec
        tables = []
        for i, lq in enumerate(log_q):
            rows = np.exp(lq).reshape(spec.output_history_count(i), spec.y_sizes[i])
            tables.append(_normalize_rows(np.nan_to_num(rows), spec.y_sizes[i]))
        return ForwardKernel(spec, tuple(tables))


def _solve_fixed_s(prob: _NrdfProblem, s: float, cfg: SolverConfig, log_nu: np.ndarray):
    """Alternate updates at slope ``s`` from the output law ``log_nu`` until
    the Lagrangian is within ``cfg.tol`` of the best certified bound.
    Returns the last update, that bound and the number of updates."""
    bound = -math.inf
    for iters in range(1, cfg.max_iters + 1):
        step = prob.tilt(log_nu, s)
        log_nu = step.log_nu
        bound = max(bound, step.bound)
        if step.lagrangian - bound <= cfg.tol:
            break
    return step, bound, iters


class _Certified(Exception):
    """Ends the slope search once the value is certified."""


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
    ``1e-9`` the value is zero and that kernel is returned.  Otherwise the
    slope ``s`` is matched to the budget by false position, a whole solve
    per slope.  Each slope certifies a lower bound ``bound(s)`` on the least
    Lagrangian, so the value is at least ``bound(s) - s * budget``.  Within
    budget, an iterate is within ``cfg.tol`` plus ``s`` times the unspent
    budget of that bound; the search stops once that product is at most
    ``cfg.multiplier_tol - cfg.tol``, or once the best iterate within budget
    is within ``cfg.multiplier_tol`` of the best such bound, which is what
    ``converged`` means.  The returned kernel meets the budget to within
    ``1e-9``.
    """
    cfg = cfg or DEFAULT_CONFIG
    spec = src.spec
    target = _resolve_budget(d, budget)
    floor, greedy_tables = _distortion_dp(src, d)
    if floor > target + FEASIBILITY_SLACK:
        raise InfeasibleConstraint(
            f"minimum achievable distortion {floor:.9g} exceeds budget {target:.9g}"
        )
    free_floor, best_path = _input_free_floor(src, d)
    if free_floor <= target + FEASIBILITY_SLACK:
        kernel = _constant_path_kernel(spec, best_path)
        return NrdfResult(InfoValue(0.0), kernel, 0, target - free_floor, True)

    prob = _NrdfProblem(src, d)
    log_nu = np.zeros(spec.y_sizes)  # uniform
    total = 0
    lower = 0.0  # the best certified lower bound on the value
    feasible = None  # (di, dist, log_q) of the best update within budget

    def visit(s: float):
        nonlocal log_nu, total, lower, feasible
        if s == 0.0:  # exact, as zero-rate kernels ignore the input; a tilt meets 0 * inf
            return None, free_floor  # over budget, or the shortcut above would have returned
        step, bound, iters = _solve_fixed_s(prob, s, cfg, log_nu)
        log_nu, total = step.log_nu, total + iters
        lower = max(lower, bound - s * target)
        if step.dist <= target + FEASIBILITY_SLACK and (feasible is None or step.di <= feasible[0]):
            feasible = (step.di, step.dist, step.log_q)
        if feasible is not None and feasible[0] - lower <= cfg.multiplier_tol:
            raise _Certified
        return None, step.dist

    try:
        match_budget(visit, target + FEASIBILITY_SLACK, 1.0, cfg.multiplier_tol - cfg.tol)
    except _Certified:
        pass
    except InfeasibleConstraint:
        # give the guaranteed-feasible greedy kernel rather than an
        # iterate that violates the budget
        kernel = ForwardKernel(spec, tuple(greedy_tables))
        value = directed_information(src.kernel, kernel)
        return NrdfResult(InfoValue(value), kernel, total, target - floor, False)
    di, dist, log_q = feasible
    kernel = prob.kernel(log_q)
    value = directed_information(src.kernel, kernel)
    return NrdfResult(
        InfoValue(value), kernel, total, target - dist, di - lower <= cfg.multiplier_tol
    )


# ---------------------------------------------------------------------------
# grid oracle and budget sweeps
# ---------------------------------------------------------------------------


def _batch_terms(src: SourceSpec, d: DistortionConstraint, pools):
    """``evaluate(idx)``: the directed information and expected distortion
    of a batch of reconstruction kernels, whose step-``i`` rows ``idx[i]``,
    of shape ``(batch, rows)``, picks from ``pools[i]``.

    ``sum_{y_i} q log q`` is taken once per pool row; the prefix-by-prefix
    joint build weights it by the law of ``(x^i, y^{i-1})``.  The joint
    times the one-hot matrix of each cell's output path gives the output
    law, and times :func:`split_infinite` of the distortion the expected
    distortion.
    """
    spec = src.spec
    shape = spec.interleaved_shape
    mu = [t.reshape(shape[: 2 * i + 1]) for i, t in enumerate(src.kernel.tables)]
    neg_entropy = [(p * log_where_positive(p)).sum(axis=-1) for p in pools]
    paths = np.broadcast_to(np.eye(spec.num_y_paths), (spec.num_x_paths,) + (spec.num_y_paths,) * 2)
    perm = tuple(a for i in range(spec.steps) for a in (i, spec.steps + i)) + (2 * spec.steps,)
    paths, split = (
        m.reshape(spec.x_sizes + spec.y_sizes + (-1,)).transpose(perm).reshape(spec.total_cells, -1)
        for m in (paths, split_infinite(d.distortion_table))
    )

    def evaluate(idx):
        w, mean_log_q = np.ones(()), 0.0
        for i, j in enumerate(idx):
            w = w[..., None] * mu[i]  # the law of (x^i, y^{i-1})
            prefix = w.reshape(w.shape[: w.ndim - 2 * i - 1] + (-1,))
            mean_log_q = mean_log_q + np.einsum("...r,...r->...", np.take(neg_entropy[i], j), prefix)
            w = w[..., None] * np.take(pools[i], j, axis=0).reshape((len(j),) + shape[: 2 * i + 2])
        w = w.reshape(len(w), -1)
        return entropy_route(mean_log_q, (w @ paths)[None], w @ split)

    return evaluate


def brute_force_nrdf(
    src: SourceSpec,
    d: DistortionConstraint,
    budget: Optional[float] = None,
    grid_resolution: int = 100,
    *,
    max_grid_points: int = 2_000_000,
    chunk_cells: int = 2_000_000,
) -> InfoValue:
    """Exhaustive minimum of directed information over reconstruction
    kernels with simplex rows in multiples of ``1/grid_resolution`` that
    meet the budget.

    Each kernel's value is ``E log Q(y^n || x^n) - sum_y nu log nu``
    (``H(Y^n) - H(Y^n || X^n)``): ``sum_{y_i} q log q`` is taken once per
    simplex-grid point and looked up by each row's grid index.  Raises
    :class:`GridTooLarge` when the combination count exceeds
    ``max_grid_points``, and :class:`InfeasibleConstraint` when no grid
    kernel meets the budget.
    """
    spec = src.spec
    _check_table_shape(spec, d)
    target = _resolve_budget(d, budget)
    batches = grid_batches(
        [spec.output_history_count(i) for i in range(spec.steps)],
        spec.y_sizes,
        grid_resolution,
        max_grid_points,
        chunk_cells,
        spec.total_cells,
    )
    grids = {k: simplex_grid(grid_resolution, k) for k in set(spec.y_sizes)}
    evaluate = _batch_terms(src, d, [grids[k] for k in spec.y_sizes])
    best = math.inf
    for idx in batches:
        di, dist = evaluate(idx)
        di = di[dist <= target + FEASIBILITY_SLACK]
        if len(di):
            best = min(best, float(di.min()))

    if best == math.inf:
        raise InfeasibleConstraint("no grid kernel meets the budget")
    return InfoValue(best)


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
