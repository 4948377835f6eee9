"""Finite-horizon input optimization: maximize directed information over
backward kernels, optionally under an expected-cost budget.

The solver is Blahut-Arimoto for directed information (Naiss & Permuter),
in logs: each update is one soft backward induction from the posterior of
the current joint, with the cost multiplier matched to the budget.  A dual
bound from the output law certifies the gap it stops on.  A simplex-grid
oracle provides independent validation of solver output.
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
    _output_path_weights,
    _require_same_spec,
    _xy_matrix,
    build_joint,
)
from .solver import (
    DEFAULT_CONFIG,
    SolverConfig,
    grid_batches,
    joint_terms,
    log_where_positive,
    logsumexp,
    weight_table,
)

# Budget slack of the feasibility floor check and of the grid oracle.
FEASIBILITY_SLACK = 1e-9

_BRACKET_CAP = 1e12
# updates between evaluations of the certificate
_CERT_EVERY = 10
# false-position steps allowed per budget match
_MATCH_ROUNDS = 100


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


def _best_strategy(q: ForwardKernel, terminal: np.ndarray, log_q=None) -> float:
    """``max`` over deterministic feedback strategies of ``E[terminal]``
    (an interleaved array), plus ``E log Q(y^n || x^n)`` given the step
    tables' logs: the mean over ``y_i`` (``0 * inf = 0``), then the max over
    ``x_i``."""
    spec = q.spec
    v = terminal
    for i in reversed(range(spec.steps)):
        qi = q.tables[i]
        vr = v.reshape(qi.shape)
        if log_q is not None:
            vr = vr + log_q[i]
        ev = weight_table(qi, vr).sum(axis=-1)
        v = ev.reshape(spec.input_history_count(i), spec.x_sizes[i]).max(axis=-1)
    return float(v[0])


def min_expected_cost(q: ForwardKernel, c: PowerConstraint) -> float:
    """Least expected cost over all input kernels, by backward induction;
    a deterministic feedback strategy attains it."""
    g = _cost_interleaved(q.spec, c)
    return -_best_strategy(q, -np.broadcast_to(g, q.spec.interleaved_shape))


def _path_costs(q: ForwardKernel, c: PowerConstraint) -> np.ndarray:
    """Expected cost of each fixed input path."""
    spec = q.spec
    want = (spec.num_x_paths, spec.num_y_histories)
    if c.cost_table.shape != want:
        raise SpecMismatch(f"cost table has shape {c.cost_table.shape}, expected {want}")
    qp = _output_path_weights(spec, q.tables).sum(axis=-1)  # response law of y^{n-1}
    ndim = qp.ndim
    perm = tuple(range(0, ndim, 2)) + tuple(range(1, ndim, 2))
    mat = qp.transpose(perm).reshape(spec.num_x_paths, spec.num_y_histories)
    return weight_table(mat, c.cost_table).sum(axis=-1)


def _min_cost_without_feedback(q: ForwardKernel, c: PowerConstraint) -> float:
    """Least expected cost over input strategies that ignore outputs,
    i.e. the best fixed input path."""
    return float(_path_costs(q, c).min())


def _match_budget(update, budget: float, lam: float, tol: float):
    """``(state, cost, lam)`` of the update ``update(lam) -> (state,
    cost)`` at ``lam = 0`` if that is feasible, else at the root of ``cost =
    budget`` (cost falls continuously in ``lam``), found by false position
    (Illinois) from a bracket grown out of the last ``lam``, on its feasible
    side, to an unspent budget times ``lam`` of ``tol / 100``."""
    def at(x):
        state, cost = update(x)
        return x, cost - budget, state, cost

    def done(p):
        return p[1] <= 0 and -p[1] * p[0] <= 0.01 * tol

    lo, hi = None, at(lam)  # (lam, cost - budget, state, cost): infeasible, feasible
    if done(hi):
        return hi[2:] + (lam,)
    if hi[1] <= 0:  # feasible with budget to spare, so try lam = 0
        lo = at(0.0)
        if lo[1] <= 0:
            return lo[2:] + (0.0,)
    else:
        lo, hi = hi, None
    while hi is None:
        x = 2.0 * lo[0] if lo[0] > 0 else 1.0
        if x > _BRACKET_CAP:
            raise InfeasibleConstraint("multiplier bracket exhausted without reaching the budget")
        p = at(x)
        lo, hi = (p, None) if p[1] > 0 else (lo, p)
    f_lo, f_hi, side = lo[1], hi[1], 0
    for _ in range(_MATCH_ROUNDS):
        if done(hi) or hi[0] - lo[0] <= 1e-15 * hi[0]:
            break
        p = at(hi[0] - f_hi * (hi[0] - lo[0]) / (f_hi - f_lo))
        if p[1] > 0:  # Illinois: halve the end kept twice in a row
            lo, f_lo, f_hi, side = p, p[1], f_hi * (0.5 if side > 0 else 1.0), 1
        else:
            hi, f_hi, f_lo, side = p, p[1], f_lo * (0.5 if side < 0 else 1.0), -1
    return hi[2:] + (hi[0],)


class _CapacityProblem:
    """A channel and an optional budget laid out for the updates.  The
    state is the list of log step tables, or without feedback the log law
    of the input path.  A cost of ``+inf`` forbids an input: it starts at
    log-probability ``-inf`` and every update keeps it there."""

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
        n = spec.horizon_n
        if no_feedback:
            self.qm = np.ascontiguousarray(_xy_matrix(spec, self.qp))  # Q(y^n | x^n)
            self.neg_entropy = (self.qm * log_where_positive(self.qm)).sum(axis=-1)
            cost = np.zeros(spec.num_x_paths) if constraint is None else _path_costs(q, constraint)
            rows = (spec.x_prefix_count(n), spec.x_sizes[n])
        else:
            rows = (spec.input_history_count(n), spec.x_sizes[n])
            cost = np.zeros(rows) if self.g is None else self.g
        if not np.isfinite(cost).reshape(rows).any(axis=-1).all():
            raise InfeasibleConstraint(
                "an input history has no finite-cost symbol at the final step"
            )
        # laid out like the state: the input path, or the final step's table
        self.allowed = np.isfinite(cost).reshape(-1 if no_feedback else rows)
        self.cost = np.where(self.allowed, cost.reshape(self.allowed.shape), 0.0)
        self.budget = 0.0 if constraint is None else constraint.budget
        with np.errstate(divide="ignore"):
            self.log_q = np.log(self.qm if no_feedback else self.qp)  # -inf off the support
        self.log_tables = [log_where_positive(t) for t in q.tables]
        self.rows = [(spec.input_history_count(i), spec.x_sizes[i]) for i in range(spec.steps)]

    def row_count(self, i: int) -> int:
        if self.no_feedback:
            return self.spec.x_prefix_count(i)
        return self.spec.input_history_count(i)

    def start(self):
        """Uniform input over what is not forbidden."""
        with np.errstate(divide="ignore"):
            last = np.log(self.allowed / self.allowed.sum(axis=-1, keepdims=True))
        if self.no_feedback:
            return last
        return [np.full(r, -math.log(r[1])) for r in self.rows[:-1]] + [last]

    @np.errstate(divide="ignore", invalid="ignore")
    def posterior(self, state):
        """The current input's log output law (0 where it has no mass), its
        directed information, and the next update's reward: the mean of
        ``log P(x^n | y^n)`` over ``y_n``, or over ``y^n`` without feedback."""
        spec = self.spec
        if self.no_feedback:
            log_nu = logsumexp(state[:, None] + self.log_q, axis=0)
            log_nu = np.where(np.isfinite(log_nu), log_nu, 0.0)
            d = self.neg_entropy - self.qm @ log_nu  # D(Q(.|x^n) || nu)
            return log_nu, float(np.exp(state) @ d), state + d
        shape = spec.interleaved_shape
        ndim = len(shape)
        lp = np.zeros((1,) * ndim)
        for i, t in enumerate(state):
            lp = lp + t.reshape(shape[: 2 * i] + (spec.x_sizes[i],) + (1,) * (ndim - 2 * i - 1))
        log_joint = lp + self.log_q
        log_nu = logsumexp(log_joint, axis=tuple(range(0, ndim, 2)), keepdims=True)
        log_nu = np.where(np.isfinite(log_nu), log_nu, 0.0)
        ratio = self.log_qp - log_nu
        di = float(np.vdot(np.exp(log_joint), ratio))
        post = np.where(self.qp > 0, lp + ratio, 0.0)
        qn = self.q.tables[-1]
        a = (qn * post.reshape(qn.shape)).sum(axis=-1)
        return log_nu, di, a.reshape(self.allowed.shape)

    def update(self, a: np.ndarray, lam: float):
        """The input that maximizes ``E log P(x^n | y^n) - lam E c`` plus its
        own entropy, and its expected cost."""
        w = a - lam * self.cost if lam else a
        if self.no_feedback:
            new = w - logsumexp(w)
            return new, float(np.exp(new) @ self.cost)
        # soft backward induction, with the new input's cost-to-go ``k``
        log_p = [None] * self.spec.steps
        e = None if self.constraint is None else self.cost
        for i in reversed(range(self.spec.steps)):
            if i < self.spec.horizon_n:
                qi = self.q.tables[i]
                w = (qi * v.reshape(qi.shape)).sum(axis=-1).reshape(self.rows[i])
                if e is not None:
                    e = (qi * k.reshape(qi.shape)).sum(axis=-1).reshape(self.rows[i])
            v = logsumexp(w)
            log_p[i] = w - v[:, None]
            if e is not None:
                k = (np.exp(log_p[i]) * e).sum(axis=-1)
        return log_p, 0.0 if e is None else float(k[0])

    def bound(self, log_nu: np.ndarray, lam: float) -> float:
        """``max`` over deterministic strategies of ``E[log Q - log nu - lam
        (c - budget)]``, an upper bound on the capacity."""
        barrier = np.where(self.allowed, -lam * self.cost, -np.inf)
        if self.no_feedback:
            d = self.neg_entropy - self.qm @ log_nu
            return float((barrier + d).max()) + lam * self.budget
        spec = self.spec
        terminal = barrier.reshape(spec.interleaved_shape[:-1] + (1,)) - log_nu
        return _best_strategy(self.q, terminal, self.log_tables) + lam * self.budget

    def kernel(self, state) -> BackwardKernel:
        spec = self.spec
        if self.no_feedback:  # log P(x^i) - log P(x^{i-1}), tied across y^{i-1}
            m, state = state.reshape(spec.x_sizes), [None] * spec.steps
            for i in reversed(range(spec.steps)):
                prev = logsumexp(m, keepdims=True)
                tied = (m - prev).reshape(spec.x_prefix_count(i), spec.x_sizes[i])
                state[i], m = _expand_x_keyed_table(spec, i, tied), prev[..., 0]
        return BackwardKernel(spec, tuple(np.exp(t) for t in state))


def solve_capacity(
    q: ForwardKernel,
    c: Optional[PowerConstraint] = None,
    cfg: Optional[SolverConfig] = None,
    *,
    no_feedback: bool = False,
) -> CapacityResult:
    """Maximize directed information over input kernels for the channel ``q``.

    With a constraint, feasibility is certified first via the minimum-cost
    strategy.  ``converged`` means a certified upper bound, checked every
    ``10`` updates and at the last, is within ``cfg.tol`` nats of the value.
    ``no_feedback=True`` ties each step's table across output histories.
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
    state, lam, iters, gap = prob.start(), 0.0, 0, math.inf
    while True:
        log_nu, di, a = prob.posterior(state)
        if iters and (iters % _CERT_EVERY == 0 or iters == cfg.max_iters):
            gap = prob.bound(log_nu, lam) - di
            if gap <= cfg.tol or iters == cfg.max_iters:
                break
        # without a budget every update costs 0 against a budget of 0
        state, cost, lam = _match_budget(lambda x: prob.update(a, x), prob.budget, lam, cfg.tol)
        iters += 1
    kernel = prob.kernel(state)
    value = directed_information(kernel, q)
    slack = None if c is None else c.budget - cost
    return CapacityResult(InfoValue(value), kernel, iters, slack, gap <= cfg.tol)


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
