"""Finite-horizon input optimization: maximize directed information over
backward kernels, optionally under an expected-cost budget.

The solver is Blahut-Arimoto for directed information (Naiss & Permuter),
in logs and over-relaxed (Matz & Duhamel): each update is one soft backward
induction from the posterior of the current joint, its information term
scaled by a step ``mu >= 1``, with the cost multiplier matched to the
budget.  An over-relaxed step that lowers the value is undone and retaken
at ``mu = 1``.  A dual bound from the output law, at the multiplier over
``mu``, certifies the gap it stops on.  A simplex-grid oracle provides
independent validation of solver output.
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
    FEASIBILITY_SLACK,
    SolverConfig,
    entropy_route,
    grid_batches,
    log_where_positive,
    logsumexp,
    match_budget,
    simplex_grid,
    split_infinite,
    weight_table,
)

# updates between evaluations of the certificate
_CERT_EVERY = 10
# over-relaxation: the step mu grows by this factor per update, up to the cap
_MU_GROWTH = 1.1
_MU_CAP = 4.0


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
    def posterior(self, state, mu: float):
        """The current input's log output law (0 where it has no mass), its
        directed information, and the next update's reward: the mean of
        ``log P + mu log(Q / nu)`` over ``y_n``, or over ``y^n`` without
        feedback, which at ``mu = 1`` is ``log P(x^n | y^n)``."""
        spec = self.spec
        if self.no_feedback:
            log_nu = logsumexp(state[:, None] + self.log_q, axis=0)
            log_nu = np.where(np.isfinite(log_nu), log_nu, 0.0)
            d = self.neg_entropy - self.qm @ log_nu  # D(Q(.|x^n) || nu)
            return log_nu, float(np.exp(state) @ d), state + mu * d
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
        post = np.where(self.qp > 0, lp + mu * ratio, 0.0)
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
        # a log-probability near -3e4, as long horizons give rarely used
        # inputs, leaves exp of its row off 1 by about ulp(3e4) = 4e-12
        tables = [np.exp(t) for t in state]
        return BackwardKernel(spec, tuple(t / t.sum(axis=-1, keepdims=True) for t in tables))


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
    The step ``mu`` starts at 1 and grows by ``1.1`` per update up to ``4``;
    an update with ``mu > 1`` that lowers the value is undone, counted in
    ``iterations``, and retaken from the kept iterate at ``mu = 1``.
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
    state, iters, gap = prob.start(), 0, math.inf
    # the multiplier (over mu) and the cost of the step that made ``state``,
    # that step's mu, and the iterate before it with its value
    lam, cost, step, kept = 0.0, 0.0, 1.0, None
    while True:
        mu = min(step * _MU_GROWTH, _MU_CAP) if iters else 1.0
        log_nu, di, a = prob.posterior(state, mu)
        if step > 1.0 and di < kept[1]:  # undo an over-relaxed step that lost value
            state, _, cost, lam = kept
            mu = 1.0
            log_nu, di, a = prob.posterior(state, mu)
        if iters and (iters % _CERT_EVERY == 0 or iters == cfg.max_iters):
            gap = prob.bound(log_nu, lam) - di
            if gap <= cfg.tol or iters == cfg.max_iters:
                break
        kept = (state, di, cost, lam)
        # without a budget every update costs 0 against a budget of 0
        state, cost, lam = match_budget(
            lambda x: prob.update(a, x), prob.budget, lam * mu, 0.01 * cfg.tol
        )
        lam, step = lam / mu, mu
        iters += 1
    kernel = prob.kernel(state)
    value = directed_information(kernel, q)
    slack = None if c is None else c.budget - cost
    return CapacityResult(InfoValue(value), kernel, iters, slack, gap <= cfg.tol)


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------


def _batch_terms(prob: _CapacityProblem, pools):
    """``evaluate(idx)``: the directed information and expected cost of a
    batch of input kernels, whose step-``i`` rows (in the state's order)
    ``idx[i]``, of shape ``(batch, rows)``, picks from ``pools[i]``.

    The batch's law of ``x^n`` is laid out per output history ``y^{n-1}``
    (one without feedback), so one product per history with the channel
    gives the output law, and one with ``sum_{y_n} Q log Q`` and
    :func:`split_infinite` of ``sum_{y_n} Q c`` gives the two means.
    """
    spec = prob.spec
    n = spec.horizon_n
    if prob.no_feedback:
        channel = prob.qm[None]
        cost = np.where(prob.allowed, prob.cost, np.inf)
        means = np.concatenate([prob.neg_entropy[:, None], split_infinite(cost)], axis=-1)
    else:  # (y^{n-1}, x^n, .) from the interleaved (x_0, y_0, ..., x_n, .)
        perm = tuple(range(1, 2 * n, 2)) + tuple(range(0, 2 * n + 1, 2)) + (2 * n + 1,)
        g = 0.0 if prob.g is None else prob.g
        means = np.concatenate([
            (prob.qp * prob.log_qp).sum(axis=-1, keepdims=True),
            split_infinite(weight_table(prob.qp, g).sum(axis=-1)),
        ], axis=-1).transpose(perm).reshape(-1, 3)
        channel = prob.qp.transpose(perm).reshape(spec.num_y_histories, spec.num_x_paths, -1)

    def evaluate(idx):
        law = 1.0
        for i, j in enumerate(idx):
            nb = len(j)
            if prob.no_feedback:  # (batch, x^i)
                t = np.take(pools[i], j.reshape((nb,) + spec.x_sizes[:i]), axis=0)
            else:  # (batch, y^{i-1}, x^i): the rows' output histories first
                j = j.reshape((nb,) + spec.interleaved_shape[: 2 * i])
                j = j.transpose((0,) + tuple(range(2, 2 * i + 1, 2)) + tuple(range(1, 2 * i, 2)))
                t = np.take(pools[i], j, axis=0)[(slice(None),) * (i + 1) + (None,) * (n - i)]
            law = law * t[(...,) + (None,) * (n - i)]
        law = law.reshape(nb, len(channel), -1)
        tail = law.reshape(nb, -1) @ means
        return entropy_route(tail[:, 0], law.transpose(1, 0, 2) @ channel, tail[:, 1:])

    return evaluate


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

    Enumerates every combination of grid rows (all steps, all histories)
    in vectorized chunks.  Each kernel's value is ``E log Q(y^n || x^n) -
    sum_y nu log nu`` (``H(Y^n) - H(Y^n || X^n)``), so only its output law
    ``nu`` is formed, by a product of its input-path law with the channel,
    per output history ``y^{n-1}``.  Raises :class:`GridTooLarge` when the
    combination count exceeds ``max_grid_points``, and
    :class:`InfeasibleConstraint` when no grid kernel meets the budget.
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
    grids = {k: simplex_grid(grid_resolution, k) for k in set(spec.x_sizes)}
    evaluate = _batch_terms(prob, [grids[k] for k in spec.x_sizes])
    best = -math.inf
    for idx in batches:
        di, cost = evaluate(idx)
        if c is not None:
            di = di[cost <= c.budget + FEASIBILITY_SLACK]
        if len(di):
            best = max(best, float(di.max()))

    if best == -math.inf:
        raise InfeasibleConstraint("no grid kernel meets the budget")
    return InfoValue(best)
