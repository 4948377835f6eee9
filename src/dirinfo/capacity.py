"""Finite-horizon input optimization: maximize directed information over
backward kernels, optionally under an expected-cost budget.

The objective is concave in the path-level input measure, so entropic
mirror ascent with a monotonicity certificate finds the maximum; the
budgeted case wraps the ascent in a bisection on the Lagrange multiplier.
A simplex-grid oracle provides independent validation of solver output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InfeasibleConstraint, SpecMismatch
from .information import directed_information
from .measures import (
    AlphabetSpec,
    BackwardKernel,
    ForwardKernel,
    InfoValue,
    _expand_x_keyed_table,
    _input_path_weights,
    _output_path_weights,
    _require_same_spec,
    build_joint,
)
from .solver import (
    DEFAULT_CONFIG,
    SolverConfig,
    grid_batches,
    joint_terms,
    log_where_positive,
    marginalize_to_input_tables,
    monotone_improve,
    weight_table,
)

# Constraint feasibility slack on returned optimizers.
FEASIBILITY_SLACK = 1e-9

_BRACKET_GROWTH = 4.0
_BRACKET_CAP = 1e12
_MAX_OUTER_ROUNDS = 200
# final refinement at the resolved multiplier: tighter plateau detection,
# bounded iteration count
_POLISH_TOL_FACTOR = 1e-4
_POLISH_ITERS = 4000


@dataclass(frozen=True, eq=False)
class PowerConstraint:
    """Cost table over (input path, output history) pairs with a budget.

    ``cost_table[x-path, y-history]`` is the price of ending at ``x^n``
    having seen ``y^{n-1}``; entries are nonnegative and may be ``+inf``
    to forbid a cell outright.
    """

    cost_table: np.ndarray
    budget: float

    def __post_init__(self):
        t = np.asarray(self.cost_table, dtype=float)
        if t.ndim != 2:
            raise DomainError(f"cost table must be 2-D, got shape {t.shape}")
        if np.any(np.isnan(t)) or np.any(t < 0):
            raise DomainError("cost entries must be >= 0 (NaN not allowed)")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "cost_table", t)
        b = float(self.budget)
        if not math.isfinite(b) or b < 0:
            raise DomainError(f"budget must be a finite nonnegative real, got {b!r}")
        object.__setattr__(self, "budget", b)


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Solver outcome: optimal value in nats, the maximizing kernel, and
    bookkeeping.  ``constraint_slack`` is ``None`` for unconstrained runs."""

    value: InfoValue
    argmax: BackwardKernel
    iterations: int
    constraint_slack: Optional[float]
    converged: bool


def _cost_interleaved(spec: AlphabetSpec, constraint: PowerConstraint) -> np.ndarray:
    """Cost table rearranged to broadcast against interleaved joint weights
    (trailing ``y_n`` axis kept at size 1)."""
    want = (spec.num_x_paths, spec.num_y_histories)
    if constraint.cost_table.shape != want:
        raise SpecMismatch(
            f"cost table has shape {constraint.cost_table.shape}, expected {want}"
        )
    n = spec.horizon_n
    arr = constraint.cost_table.reshape(spec.x_sizes + spec.y_sizes[:n])
    perm = [a for i in range(n) for a in (i, spec.steps + i)] + [n]
    return arr.transpose(perm)[..., None]


def expected_cost(p: BackwardKernel, q: ForwardKernel, c: PowerConstraint) -> float:
    """Expected cost of the joint induced by ``(p, q)``; ``+inf`` when mass
    sits on a forbidden cell."""
    spec = _require_same_spec(p, q)
    g = _cost_interleaved(spec, c)
    return float(weight_table(build_joint(p, q).weights, g).sum())


def min_expected_cost(q: ForwardKernel, c: PowerConstraint) -> float:
    """Least expected cost over all input kernels, by backward induction.

    The inner minimization is over the current input symbol given the full
    interleaved history, so the value is attained by a deterministic
    feedback strategy.
    """
    spec = q.spec
    g = _cost_interleaved(spec, c)
    n = spec.horizon_n
    rows = g[..., 0].reshape(spec.input_history_count(n), spec.x_sizes[n])
    v = rows.min(axis=-1)
    for i in range(n - 1, -1, -1):
        vr = v.reshape(spec.output_history_count(i), spec.y_sizes[i])
        ev = weight_table(q.tables[i], vr).sum(axis=-1)
        v = ev.reshape(spec.input_history_count(i), spec.x_sizes[i]).min(axis=-1)
    return float(v[0])


def _min_cost_without_feedback(q: ForwardKernel, c: PowerConstraint) -> float:
    """Least expected cost over input strategies that ignore outputs,
    i.e. the best fixed input path."""
    spec = q.spec
    want = (spec.num_x_paths, spec.num_y_histories)
    if c.cost_table.shape != want:
        raise SpecMismatch(f"cost table has shape {c.cost_table.shape}, expected {want}")
    qp = _output_path_weights(spec, q.tables).sum(axis=-1)  # response law of y^{n-1}
    ndim = qp.ndim
    perm = tuple(range(0, ndim, 2)) + tuple(range(1, ndim, 2))
    mat = qp.transpose(perm).reshape(spec.num_x_paths, spec.num_y_histories)
    return float(weight_table(mat, c.cost_table).sum(axis=-1).min())


class _CapacityProblem:
    """Dense evaluation pipeline for a fixed forward kernel.

    Holds the channel path weights and the cost layout; exposes merit and
    gradient closures over the free input tables (tied across output
    histories in no-feedback mode).
    """

    def __init__(self, q: ForwardKernel, constraint: Optional[PowerConstraint],
                 no_feedback: bool):
        spec = q.spec
        self.spec = spec
        self.q = q
        self.no_feedback = no_feedback
        self.constraint = constraint
        self.qp = _output_path_weights(spec, q.tables)
        self.log_qp = log_where_positive(self.qp)
        self.g = _cost_interleaved(spec, constraint) if constraint is not None else None
        self.masks = self._entry_masks()

    def _entry_masks(self):
        """Per-step allowed-entry masks; only the final step can collide
        with an infinite cost cell directly, and those inputs are zeroed."""
        spec = self.spec
        masks: list = [None] * spec.steps
        if self.g is None or not np.any(np.isinf(self.g)):
            return masks
        n = spec.horizon_n
        allowed = np.isfinite(self.g[..., 0]).reshape(
            spec.input_history_count(n), spec.x_sizes[n]
        )
        if self.no_feedback:
            prefix = spec.interleaved_shape[: 2 * n] + (spec.x_sizes[n],)
            y_ax = tuple(range(1, 2 * n, 2))
            af = allowed.reshape(prefix)
            tied = af.all(axis=y_ax) if y_ax else af
            allowed = tied.reshape(spec.x_prefix_count(n), spec.x_sizes[n])
        if np.any(~allowed.any(axis=-1)):
            raise InfeasibleConstraint(
                "an input history has no finite-cost symbol at the final step"
            )
        masks[n] = allowed.astype(float)
        return masks

    def row_count(self, i: int) -> int:
        if self.no_feedback:
            return self.spec.x_prefix_count(i)
        return self.spec.input_history_count(i)

    def initial_tables(self) -> list[np.ndarray]:
        out = []
        for i in range(self.spec.steps):
            t = np.ones((self.row_count(i), self.spec.x_sizes[i]))
            if self.masks[i] is not None:
                t = t * self.masks[i]
            out.append(t / t.sum(axis=-1, keepdims=True))
        return out

    def expand(self, tables: list[np.ndarray]) -> list[np.ndarray]:
        if not self.no_feedback:
            return list(tables)
        return [
            _expand_x_keyed_table(self.spec, i, t) for i, t in enumerate(tables)
        ]

    def _joint(self, tables: list[np.ndarray]) -> np.ndarray:
        return _input_path_weights(self.spec, self.expand(tables)) * self.qp

    def stats(self, tables: list[np.ndarray]) -> tuple[float, float]:
        _, di, cost = joint_terms(self._joint(tables), self.log_qp, self.g)
        return float(di), float(cost)

    def merit_fn(self, lam: float):
        def merit(tables):
            di, cost = self.stats(tables)
            return di - lam * cost

        return merit

    def gradient_fn(self, lam: float):
        spec = self.spec

        def gradient(tables):
            w = self._joint(tables)
            lr, _, _ = joint_terms(w, self.log_qp)
            t_arr = w * (lr - 1.0)
            if self.g is not None and lam != 0.0:
                t_arr = t_arr - lam * weight_table(w, self.g)
            margs = marginalize_to_input_tables(t_arr, spec)
            grads = []
            for i, m in enumerate(margs):
                if self.no_feedback:
                    prefix = spec.interleaved_shape[: 2 * i] + (spec.x_sizes[i],)
                    y_ax = tuple(range(1, 2 * i, 2))
                    m = m.reshape(prefix)
                    if y_ax:
                        m = m.sum(axis=y_ax)
                    m = m.reshape(spec.x_prefix_count(i), spec.x_sizes[i])
                base = tables[i]
                grads.append(np.where(base > 0, m / np.where(base > 0, base, 1.0), 0.0))
            return grads

        return gradient


def _ascend(prob: _CapacityProblem, lam: float, tables, cfg: SolverConfig):
    tables, _, iters, conv = monotone_improve(
        prob.merit_fn(lam), prob.gradient_fn(lam), tables, 1.0, cfg.tol, cfg.max_iters
    )
    di, cost = prob.stats(tables)
    return tables, di, cost, iters, conv


def _finish(prob: _CapacityProblem, tables, iterations: int, converged: bool,
            cost: Optional[float]) -> CapacityResult:
    kernel = BackwardKernel(prob.spec, tuple(prob.expand(tables)))
    value = directed_information(kernel, prob.q)
    slack = None if prob.constraint is None else prob.constraint.budget - cost
    return CapacityResult(InfoValue(value), kernel, iterations, slack, converged)


def solve_capacity(
    q: ForwardKernel,
    c: Optional[PowerConstraint] = None,
    cfg: Optional[SolverConfig] = None,
    *,
    no_feedback: bool = False,
) -> CapacityResult:
    """Maximize directed information over input kernels for the channel ``q``.

    With a constraint, feasibility is certified first via the minimum-cost
    strategy, then a Lagrangian ascent is bisected on the multiplier until
    the budget gap of the best feasible iterate falls within
    ``cfg.multiplier_tol`` (or the value gap between the bisection bracket
    sides closes).  ``no_feedback=True`` ties each step's table across
    output histories, restricting the search to feedback-free inputs.
    Histories whose every final-step symbol has infinite cost are rejected
    as infeasible rather than searched around.
    """
    cfg = cfg or DEFAULT_CONFIG
    prob = _CapacityProblem(q, c, no_feedback)
    if c is not None:
        floor = _min_cost_without_feedback(q, c) if no_feedback else min_expected_cost(q, c)
        if floor > c.budget + FEASIBILITY_SLACK:
            raise InfeasibleConstraint(
                f"minimum achievable cost {floor:.9g} exceeds budget {c.budget:.9g}"
            )
    tables, di, cost, iters, conv = _ascend(prob, 0.0, prob.initial_tables(), cfg)
    total = iters
    if c is None:
        return _finish(prob, tables, total, conv, None)
    if cost <= c.budget + FEASIBILITY_SLACK:
        return _finish(prob, tables, total, conv, cost)

    budget = c.budget
    lo, lo_di = 0.0, di  # infeasible side; its value upper-bounds the optimum
    hi = 1.0
    warm = tables
    feasible = None  # (di, cost, tables, converged)
    while feasible is None:
        warm, di, cost, iters, conv = _ascend(prob, hi, warm, cfg)
        total += iters
        if cost <= budget + FEASIBILITY_SLACK:
            feasible = (di, cost, [t.copy() for t in warm], conv)
            break
        lo, lo_di = hi, di
        hi *= _BRACKET_GROWTH
        if hi > _BRACKET_CAP:
            raise InfeasibleConstraint(
                "multiplier bracket exhausted without reaching the budget"
            )

    def stop_met() -> bool:
        # any of: budget met to tolerance, multiplier resolved to
        # tolerance, or the primal values on the two bracket sides agree
        if (budget - feasible[1]) <= cfg.multiplier_tol:
            return True
        if hi - lo <= cfg.multiplier_tol * max(1.0, hi):
            return True
        return lo_di - feasible[0] <= max(1e-10, cfg.tol * max(1.0, abs(feasible[0])))

    met = stop_met()
    rounds = 0
    while not met and rounds < _MAX_OUTER_ROUNDS:
        mid = 0.5 * (lo + hi)
        warm, di, cost, iters, conv = _ascend(prob, mid, warm, cfg)
        total += iters
        rounds += 1
        if cost <= budget + FEASIBILITY_SLACK:
            hi = mid
            if di >= feasible[0]:
                feasible = (di, cost, [t.copy() for t in warm], conv)
        else:
            lo, lo_di = mid, di
        met = stop_met()

    # a warm-started ascent can stall on a merit plateau well before the
    # budget is pinned down; one tight pass at the resolved multiplier
    # recovers the remaining accuracy
    lam_sel = 0.5 * (lo + hi)
    di_sel, cost_sel, tables_sel, conv_sel = feasible
    tabs, _, iters, conv_p = monotone_improve(
        prob.merit_fn(lam_sel),
        prob.gradient_fn(lam_sel),
        [t.copy() for t in tables_sel],
        1.0,
        cfg.tol * _POLISH_TOL_FACTOR,
        min(_POLISH_ITERS, cfg.max_iters),
    )
    total += iters
    di_p, cost_p = prob.stats(tabs)
    if cost_p <= budget + FEASIBILITY_SLACK and di_p >= di_sel:
        feasible = (di_p, cost_p, tabs, conv_p)
        met = stop_met()
    _, cost_sel, tables_sel, conv_sel = feasible
    return _finish(prob, tables_sel, total, conv_sel and met, cost_sel)


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------


def brute_force_capacity(
    q: ForwardKernel,
    c: Optional[PowerConstraint] = None,
    grid_resolution: int = 100,
    *,
    no_feedback: bool = False,
    max_grid_points: int = 2_000_000,
    chunk_cells: int = 2_000_000,
) -> InfoValue:
    """Exhaustive maximum of directed information over input kernels whose
    simplex rows have entries in multiples of ``1/grid_resolution``.

    Enumerates every combination of grid rows (all steps, all histories),
    evaluating in vectorized chunks.  Raises :class:`GridTooLarge` when the
    combination count exceeds ``max_grid_points``.
    """
    spec = q.spec
    prob = _CapacityProblem(q, c, no_feedback)
    batches = grid_batches(
        [prob.row_count(i) for i in range(spec.steps)],
        spec.x_sizes,
        grid_resolution,
        max_grid_points,
        chunk_cells,
        spec.total_cells,
    )
    ndim = 2 * spec.steps
    best = -math.inf
    feasible_seen = c is None
    for tabs in batches:
        nb = len(tabs[0])
        w = np.ones((nb,) + (1,) * ndim)
        for i, tab in enumerate(tabs):  # tab: (nb, rows, x_i)
            if no_feedback:
                prefix = tuple(
                    spec.x_sizes[a // 2] if a % 2 == 0 else 1 for a in range(2 * i)
                )
            else:
                prefix = spec.interleaved_shape[: 2 * i]
            fshape = (nb,) + prefix + (spec.x_sizes[i],) + (1,) * (ndim - 2 * i - 1)
            w = w * tab.reshape(fshape)
        w = w * prob.qp
        _, di, cost = joint_terms(w, prob.log_qp, prob.g, batch=True)
        if c is not None:
            ok = cost <= c.budget + FEASIBILITY_SLACK
            if np.any(ok):
                feasible_seen = True
                best = max(best, float(di[ok].max()))
        else:
            best = max(best, float(di.max()))

    if not feasible_seen:
        raise InfeasibleConstraint("no grid kernel meets the budget")
    return InfoValue(best)
