"""Finite-horizon input optimization: maximize directed information over
backward kernels, optionally under an expected-cost budget.

The solver is Blahut-Arimoto for directed information (Naiss & Permuter),
in logs and over-relaxed by :func:`~dirinfo.solver.relax` with the value
as its merit: each update is one soft backward induction from the
posterior of the current joint, its information term scaled by the step
``mu``, with the cost multiplier matched to the budget by one safeguarded
secant search (:func:`~dirinfo.solver.match_budget`) that starts from the
last match's multiplier and secant slope.  A dual bound from the output
law, at the multiplier over ``mu``, certifies the gap it stops on.  A
simplex-grid oracle validates solver output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .information import directed_information
from .measures import (
    AlphabetSpec,
    BackwardKernel,
    ForwardKernel,
    InfoValue,
    _constraint_table,
    _expand_tied_table,
    _path_table,
    _path_weights,
    _prefix_len,
    _require_same_spec,
    _side_axes,
    _side_laws,
    _side_major,
    _step_shape,
)
from .solver import (
    DEFAULT_CONFIG,
    FEASIBILITY_SLACK,
    SolverConfig,
    check_floor,
    entropy_route,
    expected_table,
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

# updates between evaluations of the certificate
_CERT_EVERY = 10


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
        freeze_budget_table(self, "cost_table", "cost")


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
    """Cost table, checked, laid to broadcast against interleaved joint
    weights (trailing ``y_n`` axis kept at size 1)."""
    return _constraint_table(spec, constraint.cost_table, "cost", _prefix_len(0, spec.horizon_n))


def expected_cost(p: BackwardKernel, q: ForwardKernel, c: PowerConstraint) -> float:
    """Expected cost of the joint induced by ``(p, q)``; ``+inf`` when mass
    sits on a forbidden cell."""
    return expected_table(p, q, _cost_interleaved(_require_same_spec(p, q), c))


def min_expected_cost(q: ForwardKernel, c: PowerConstraint) -> float:
    """Least expected cost over all input kernels, by backward induction;
    a deterministic feedback strategy attains it."""
    value, _ = induction(-_cost_interleaved(q.spec, c), _side_laws(q.spec, q.tables, 1))
    return 0.0 - float(value)  # a floor of 0 as 0.0, not -0.0


def _min_cost_without_feedback(prob: _CapacityProblem) -> float:
    """Least expected cost over input strategies that ignore outputs, i.e.
    the best fixed input path, read from the costs of the problem's one-step
    layout."""
    return float(np.where(prob.allowed, prob.cost, np.inf).min())


class _CapacityProblem:
    """A channel and an optional budget laid out for the updates.

    The state is the list of the input's log step tables on ``layout``:
    the channel's own spec, or without feedback one step whose input is
    the path ``x^n`` and whose channel is ``Q(y^n | x^n)``.  There directed
    information is mutual information (Massey), so the same updates solve
    both problems; only :meth:`kernel` ties the path law back into step
    tables.  Each update is one soft :func:`induction` from the terminal
    ``lp + mu d - lam c`` on the final step's axes ``(x_0, y_0, ..., x_n)``,
    with ``lp`` the input's log-probability of ``x^n`` given ``y^{n-1}``
    and ``d = sum_{y_n} q_n log(Q(y^n || x^n) / nu(y^n))`` (see
    :meth:`posterior`).  A cost of ``+inf`` forbids an input: it starts at
    log-probability ``-inf`` and every update keeps it there.

    ``histories_reached``, read off the channel, says that every history
    has ``Q(y^{n-1} || x^{n-1}) > 0``, so that the updates skip their
    guard for an unreached one, for the same floats.
    """

    def __init__(self, q: ForwardKernel, constraint: Optional[PowerConstraint],
                 no_feedback: bool):
        self.spec = q.spec
        self.no_feedback = no_feedback
        self.constraint = constraint
        g = None if constraint is None else _cost_interleaved(q.spec, constraint)
        if no_feedback:
            # one step from x^n to y^n, held as arrays: a row of the product
            # of n + 1 kernel rows, each within PMF_TOL / (4 (n + 1)), may
            # miss 1 by PMF_TOL / 4 plus rounding, past the one-step
            # layout's kernel check of PMF_TOL / 4
            layout = AlphabetSpec(0, (q.spec.num_x_paths,), (q.spec.num_y_paths,))
            tables = (_path_table(q.spec, q.tables, 1),)
            if g is not None:  # the expected cost of each fixed input path
                g = _side_major(q.spec, g, 0).reshape(q.spec.num_x_paths, -1)
                g = weight_table(tables[0].reshape(g.shape + (-1,)).sum(axis=-1), g).sum(axis=-1)
        else:
            layout, tables = q.spec, q.tables
        self.layout = layout
        self.laws = _side_laws(layout, tables, 1)[:-1]  # through x_n; y_n's is q_last
        # the final step's (x_0, y_0, ..., x_n) axes, then y_n
        self.head = layout.interleaved_shape[:-1]
        cost = np.zeros(self.head) if g is None else g.reshape(self.head)
        self.allowed = np.isfinite(cost)
        self.cost = np.where(self.allowed, cost, 0.0)
        # lam times the top cost overflows first, so below that update skips
        # the errstate context: entering it on every budgeted update took a
        # no-feedback update at binary n = 2 from 11.7 to 13.2 us, and the
        # perfbench capacity wall_s up 1.8%
        self.top_cost = float(self.cost.max())
        self.budget = 0.0 if constraint is None else constraint.budget
        self.q_prev = _path_weights(layout, tables[:-1], 1)[..., None]  # Q(y^{n-1} || x^{n-1})
        self.q_last = tables[-1].reshape(self.head + (1, layout.y_sizes[-1]))  # rows for a matmul
        self.qp = self.q_prev[..., None] * self.q_last[..., 0, :]  # Q(y^n || x^n)
        with np.errstate(divide="ignore"):
            self.log_q = np.log(self.qp)  # -inf off the support
        self.reached = self.q_prev > 0
        self.histories_reached = bool(self.reached.all())
        self.step_shapes = [_step_shape(layout, 0, i, len(self.head)) for i in range(layout.steps)]
        self.mean_log_q = (self.q_last[..., 0, :] * log_where_positive(self.qp)).sum(axis=-1)

    def start(self):
        """The input of a zero reward, by the updates' soft :func:`induction`:
        uniform over what is allowed, and ``-inf`` also on each choice that
        can lead to a history which allows no final symbol."""
        with np.errstate(divide="ignore"):
            return induction(np.log(self.allowed), self.laws, soft=True)[1]

    def _log_law(self, state) -> np.ndarray:
        """The input's log-probability of ``x^n`` given ``y^{n-1}``, on the
        final step's axes."""
        lp = 0.0
        for t, shape in zip(state, self.step_shapes):
            lp = lp + t.reshape(shape)
        return lp

    def posterior(self, state):
        """``(di, lp, d)``: the current input's directed information ``sum
        Q(y^{n-1} || x^{n-1}) e^lp d``, i.e. ``H(Y^n) - H(Y^n || X^n)``, its
        log-probability ``lp`` of ``x^n`` given ``y^{n-1}``, and ``d =
        sum_{y_n} q_n log(Q(y^n || x^n) / nu)``, with ``log nu`` read as 0
        where the output law has no mass."""
        lp = self._log_law(state)
        terms, axes = lp[..., None] + self.log_q, _side_axes(0, lp.ndim)
        log_nu, guarded = logsumexp(terms, axes, keepdims=True)
        if guarded:
            log_nu = np.where(np.isfinite(log_nu), log_nu, 0.0)
        d = self.mean_log_q - (self.q_last @ log_nu[..., None])[..., 0, 0]
        return float(np.vdot(self.q_prev * np.exp(lp), d)), lp, d

    def update(self, lp: np.ndarray, d: np.ndarray, mu: float, lam: float):
        """The input that maximizes ``E a - lam E c`` plus its own entropy,
        and its expected cost, for the reward ``a = lp + mu d`` where
        ``Q(y^{n-1} || x^{n-1}) > 0`` (0 elsewhere): at ``mu = 1`` the mean
        of ``log P(x^n | y^n)`` over ``y_n``."""
        a = lp + mu * d
        if not self.histories_reached:
            a = np.where(self.reached, a, 0.0)
        if lam * self.top_cost == math.inf:  # a cell priced past the float range is -inf, as the guards expect
            with np.errstate(over="ignore"):
                a = a - lam * self.cost
        elif lam:
            a = a - lam * self.cost
        _, log_p = induction(a, self.laws, soft=True)
        if self.constraint is None:
            return log_p, 0.0
        return log_p, float(np.vdot(self.q_prev * np.exp(self._log_law(log_p)), self.cost))

    def bound(self, d: np.ndarray, lam: float) -> float:
        """``max`` over deterministic strategies of ``E[log Q - log nu - lam
        (c - budget)]``, an upper bound on the capacity: a hard
        :func:`induction` from the terminal ``d - lam c`` on the final
        step's axes, ``d`` of :meth:`posterior` being the mean of ``log Q
        - log nu`` over ``y_n``, and ``-inf`` on a forbidden input."""
        with np.errstate(over="ignore"):  # a cell priced past the float range is -inf
            terminal = np.where(self.allowed, d - lam * self.cost, -np.inf)
        value, _ = induction(terminal, self.laws)
        return float(value) + lam * self.budget

    def kernel(self, state) -> BackwardKernel:
        spec = self.spec
        if self.no_feedback:  # log P(x_i | x^{i-1}), tied across y^{i-1}
            _, tied = induction(state[0].reshape(spec.x_sizes), [None] * spec.steps, soft=True)
            state = [
                _expand_tied_table(spec, 0, i, t.reshape(-1, spec.x_sizes[i]))
                for i, t in enumerate(tied)
            ]
        # a log-probability near -3e4, as long horizons give rarely used
        # inputs, leaves exp of its row off 1 by about ulp(3e4) = 4e-12
        return BackwardKernel._from_log_tables(spec, state)


def solve_capacity(
    q: ForwardKernel,
    c: Optional[PowerConstraint] = None,
    cfg: Optional[SolverConfig] = None,
    *,
    no_feedback: bool = False,
) -> CapacityResult:
    """Maximize directed information over input kernels for the channel ``q``.

    With a constraint, feasibility is certified first via the minimum-cost
    strategy.  The updates run and stop as :func:`~dirinfo.solver.relax`
    says, ``iterations`` counting them; the gap it stops on is that of a
    dual bound from the current output law, taken every ``10`` updates and
    at the last, and ``converged`` means it is within ``cfg.tol`` nats.
    ``no_feedback=True`` ties each step's table across output histories: it
    solves for the law of the input path on the one-step channel ``Q(y^n |
    x^n)``.  Its one refusal is its oracle's: :class:`InfeasibleConstraint`
    when the least expected cost (over fixed input paths, without
    feedback) exceeds the budget plus ``FEASIBILITY_SLACK``.  A budget
    within that slack below the least cost is met at the budget plus the
    slack, so ``constraint_slack`` is then negative.
    """
    cfg = cfg or DEFAULT_CONFIG
    prob = _CapacityProblem(q, c, no_feedback)
    if c is not None:
        floor = _min_cost_without_feedback(prob) if no_feedback else min_expected_cost(q, c)
        check_floor(floor, c.budget, "cost")
        if floor > c.budget:
            prob.budget = c.budget + FEASIBILITY_SLACK

    def advance(x, point, mu):
        # x: a state with its update's cost, multiplier and secant slope of
        # cost against the multiplier, both over mu; without a budget every
        # update costs 0 against a budget of 0
        _, lp, d = point
        state, cost, lam, slope = match_budget(
            lambda lam: prob.update(lp, d, mu, lam), prob.budget, x[2] * mu, 0.01 * cfg.tol, x[3] / mu
        )
        return state, cost, lam / mu, slope * mu

    def certify(x, point, k):
        if k and (k % _CERT_EVERY == 0 or k == cfg.max_iters):
            return prob.bound(point[2], x[2]) - point[0]
        return None

    start = (prob.start(), 0.0, 0.0, math.nan)
    (state, cost, _, _), _, iters, gap = relax(
        lambda x: prob.posterior(x[0]), advance, start, certify, cfg.tol, cfg.max_iters
    )
    kernel = prob.kernel(state)
    value = directed_information(kernel, q)
    slack = None if c is None else c.budget - cost
    return CapacityResult(InfoValue(value), kernel, iters, slack, gap <= cfg.tol)


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------


def _batch_terms(prob: _CapacityProblem, pools, low):
    """``evaluate(high)``: the directed information and expected cost, each
    of shape ``(len(high[0]), len(low[0]))``, of the input kernels that
    join each row of ``high`` with each of ``low`` (see
    :func:`~dirinfo.solver.grid_batches`), whose step-``i`` rows, in the
    state's order, pick from ``pools[i]``.

    A kernel's law of ``x^n`` per output history ``y^{n-1}`` of the
    problem's layout (one without feedback) is the product of the two
    parts' laws.  So per history, the high laws times the low laws times
    the channel give the output laws; and over every ``(y^{n-1}, x^n)``,
    the high laws times the low laws times ``sum_{y_n} Q log Q`` and
    :func:`split_infinite` of ``sum_{y_n} Q c`` give the two means.
    """
    spec, layout = prob.spec, prob.layout
    histories, paths = layout.num_y_histories, layout.num_x_paths
    # (y^{m-1}, x^m, .) from the interleaved (x_0, y_0, ..., x_m, .) of the layout
    stop = _prefix_len(0, layout.horizon_n)
    cost = np.where(prob.allowed, prob.cost, np.inf)[..., None]
    channel = _side_major(layout, prob.qp, 1, stop).reshape(histories, paths, -1)
    means = _side_major(layout, np.concatenate([
        (prob.q_prev * prob.mean_log_q)[..., None],
        split_infinite(weight_table(prob.qp, cost).sum(axis=-1)),
    ], axis=-1), 1, stop).reshape(histories * paths, -1)

    def laws(idx):  # (count, y^{n-1}, x^n)
        tables = [np.take(pool, j, axis=0) for pool, j in zip(pools, idx)]
        law = _path_weights(spec, tables, 0, tied=prob.no_feedback)
        return _side_major(spec, law, 1, _prefix_len(0, spec.horizon_n), lead=1).reshape(-1, histories, paths)

    low_laws = laws(low).reshape(len(low[0]), -1).T  # (y^{n-1} x^n, low)
    # the channel's rows, and the means, times the low laws
    channel = (channel[..., None] * low_laws.reshape(histories, paths, 1, -1)).reshape(histories, paths, -1)
    means = (means[..., None] * low_laws[:, None]).reshape(histories * paths, -1)

    def evaluate(high):
        law = laws(high)
        nu = (law.transpose(1, 0, 2) @ channel).reshape(histories, len(law), -1, len(low[0]))
        tail = (law.reshape(len(law), -1) @ means).reshape(len(law), 3, -1)
        return entropy_route(tail[:, 0], nu, tail[:, 1:])

    return evaluate


def brute_force_capacity(
    q: ForwardKernel,
    c: Optional[PowerConstraint] = None,
    grid_resolution: int = 100,
    *,
    no_feedback: bool = False,
    max_grid_points: int = 2_000_000,
) -> InfoValue:
    """Exhaustive maximum of directed information over input kernels whose
    simplex rows have entries in multiples of ``1/grid_resolution``.

    Enumerates every combination of grid rows (all steps, all histories)
    in blocks of bounded size, so a call's memory stays bounded whatever
    the size of the grid.  Each kernel's value is ``E log Q(y^n || x^n) -
    sum_y nu log nu`` (``H(Y^n) - H(Y^n || X^n)``), so only its output law
    ``nu`` is formed, by a product of its input-path law with the channel,
    per output history ``y^{n-1}``.  Raises :class:`GridTooLarge` when the
    combination count exceeds ``max_grid_points``, and
    :class:`InfeasibleConstraint` when no grid kernel meets the budget.
    """
    prob = _CapacityProblem(q, c, no_feedback)
    return InfoValue(grid_search(
        q.spec, 0, no_feedback, lambda pools, low: _batch_terms(prob, pools, low),
        None if c is None else c.budget, 1.0, grid_resolution, max_grid_points,
    ))
