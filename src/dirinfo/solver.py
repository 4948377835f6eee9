"""Shared optimizer plumbing for the extremum solvers and the grid oracles.

Both problems optimize one functional, the directed information of the
joint of an input and a channel kernel plus an expected cost or
distortion: capacity varies the input kernel, NRDF the channel kernel.
The solvers share the configuration, the checks of a cost or distortion
table and its budget, the expectation of that table under a joint, block
by block, the multiplier search, the log-sum-exp, and the one relaxed
iteration and one backward induction that both run (capacity's update,
certificate and least cost, NRDF's tilt and least distortion).  Each
update matches its multiplier to the budget by one safeguarded secant
loop that falls back to bisection, and each match starts from the last
one's multiplier and the secant slope it ended on, which the solvers
carry in their iterates.
The grid oracles share one grid search, over the simplex-grid rows of
either side's kernel, and the evaluation kernel, which reads each block of
joints as ``H(Y^n) - H(Y^n || X^n)``, i.e. ``E log Q(y^n || x^n) - sum_y nu
log nu``; each oracle supplies only its block evaluator.  The search
enumerates the grid in blocks of ``GRID_BLOCK_CELLS`` cells, each the
product of a few settings of the leading rows with every setting of the
trailing ones, so the memory of a call stays bounded whatever the size of
the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, GridTooLarge, InfeasibleConstraint
from .measures import AlphabetSpec, BackwardKernel, ForwardKernel, _check_count, _joint_blocks, _table_shape

# Kept only because the traced benchmark (``perfbench/spans.py``) binds
# these two names when it installs; it never calls the stub.  ROADMAP
# item 1 removes both together with the tracer's new targets.
MERIT_SLACK = 1e-12


def monotone_improve(*args, **kwargs):
    raise NotImplementedError("entropic mirror ascent was retired; see solver.relax")


# Budget slack of the feasibility checks and of the grid oracles.
FEASIBILITY_SLACK = 1e-9
# Cells of one grid-oracle block, ``point_cells`` per combination it
# stands for (see grid_batches): small enough that a block's arrays stay
# in a core's caches, large enough to spread numpy's per-call cost.  On a
# 2-core x86_64 VM the capacity benchmark oracle ran fastest at
# 2**16-2**17 and the NRDF one at 2**15-2**19; both slowed from 2**14
# down (CHANGES.md has the sweep).
GRID_BLOCK_CELLS = 2 ** 17

# the multiplier search gives up past this multiplier
_BRACKET_CAP = 1e12
# steps allowed per budget match once it has a bracket
_MATCH_ROUNDS = 100
# the step schedule of :func:`relax`
_MU_GROWTH = 1.1
_MU_CAP = 4.0


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the iterative solvers.

    Each solve is one :func:`relax` run.  A capacity update is one soft
    backward induction of the input kernel, an NRDF update one tilt of the
    output law; each matches its multiplier to the budget as it goes.  Each
    solver reads one certified gap in nats on its returned value: ``tol``
    for capacity and ``multiplier_tol`` for NRDF, the other going unread.
    ``max_iters`` caps the updates of one solve, undone ones included.
    """

    tol: float = 1e-9
    max_iters: int = 100_000
    multiplier_tol: float = 1e-6

    def __post_init__(self):
        for name in ("tol", "multiplier_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be a finite positive real, got {value!r}")
        _check_count(self.max_iters, "max_iters", 1)


DEFAULT_CONFIG = SolverConfig()


def relax(evaluate: Callable, advance: Callable, x, certify: Callable, tol: float, max_iters: int):
    """The over-relaxed iteration (Matz & Duhamel) of both solvers: the last
    kept ``(x, point, k, gap)``, after ``k`` updates, undone ones included.

    ``point = evaluate(x)`` has the merit ``point[0]``, and ``advance(x,
    point, mu)`` is the next iterate, taken with the step ``mu``, which
    starts at 1 and grows by a factor of 1.1 per update, up to 4.  An update
    with ``mu > 1`` that lowers the merit is undone and retaken from the
    kept iterate at ``mu = 1``, where the schedule restarts.  ``certify(x,
    point, k)`` is asked of the start, after each update, and of the kept
    iterate again after an undo; it gives a certified gap, or ``None`` to
    keep the last one it gave (``inf`` before any).  The run stops once
    that gap is within ``tol``, or after ``max_iters`` updates.
    """
    point, k, step, kept, gap = evaluate(x), 0, 1.0, None, math.inf  # step: the mu that made x
    while True:
        if step > 1.0 and point[0] < kept[1][0]:  # undo a relaxed update that lost merit
            (x, point), mu = kept, 1.0
        else:
            mu = min(step * _MU_GROWTH, _MU_CAP) if k else 1.0
        certified = certify(x, point, k)
        gap = gap if certified is None else certified
        if gap <= tol or k == max_iters:
            return x, point, k, gap
        kept, step = (x, point), mu
        x = advance(x, point, mu)
        point, k = evaluate(x), k + 1


# ---------------------------------------------------------------------------
# budgets and the multiplier search
# ---------------------------------------------------------------------------


def freeze_budget_table(obj, field: str, what: str) -> None:
    """Store on the frozen constraint ``obj`` a read-only float copy of its
    2-D table ``field`` (entries ``>= 0``, ``+inf`` allowed, no NaN) and its
    checked ``budget``; ``what`` names the table in the errors."""
    t = np.array(getattr(obj, field), dtype=float)
    if t.ndim != 2:
        raise DomainError(f"{what} table must be 2-D, got shape {t.shape}")
    if np.any(np.isnan(t)) or np.any(t < 0):
        raise DomainError(f"{what} entries must be >= 0 (NaN not allowed)")
    t.setflags(write=False)
    object.__setattr__(obj, field, t)
    object.__setattr__(obj, "budget", checked_budget(obj.budget))


def checked_budget(value, name: str = "budget") -> float:
    """``value`` as a float, which must be finite and ``>= 0``."""
    b = float(value)
    if not math.isfinite(b) or b < 0:
        raise DomainError(f"{name} must be a finite nonnegative real, got {b!r}")
    return b


def check_floor(floor: float, budget: float, what: str) -> None:
    """Raise :class:`InfeasibleConstraint` when the least expected ``what``
    (cost or distortion), ``floor``, exceeds ``budget`` plus
    ``FEASIBILITY_SLACK``."""
    if floor > budget + FEASIBILITY_SLACK:
        raise InfeasibleConstraint(f"minimum achievable {what} {floor:.9g} exceeds budget {budget:.9g}")


def match_budget(update, budget: float, lam: float, slack: float, slope: float):
    """``(state, cost, lam, slope)`` of the update ``update(lam) -> (state,
    cost)`` at ``lam = 0`` if that is feasible, else at the root of ``cost =
    budget`` (cost falls continuously in ``lam``), on its feasible side, to
    an unspent budget times ``lam`` of at most ``slack``.  The returned
    ``slope`` is the secant slope of cost against ``lam`` through the last
    two probes, or the given one if the first probe stops the search.

    The first probe is at the given ``lam``.  Each step aims inside the stop
    window ``budget - slack / lam <= cost <= budget``, taken no wider than
    at ``lam = 1``: the first along ``slope`` (finite and negative, as the
    last search of a nearby update returns; else the search starts cold and
    takes no step until it has a bracket), each later one along the secant
    through the last two probes.  A step is kept if it lands strictly
    inside the bracket, or inside ``(0, 1e12)`` before there is one, and,
    once there is one, is shorter than half the step before last (Brent's
    rule).  Otherwise the search bisects the bracket, or, without one, tries
    ``lam = 0`` from the feasible side or doubles ``lam`` from the
    infeasible side.  Raises :class:`InfeasibleConstraint` if no ``lam`` up
    to ``1e12`` is feasible.
    """
    lo = hi = prev = last = None  # the bracket's infeasible and feasible ends; the last two probes

    def probe(x):  # a probe: lam, cost - budget, the length of the step to it, state and cost
        nonlocal lo, hi, prev, last
        state, cost = update(x)
        prev, last = last, (x, cost - budget, abs(x - last[0]) if last else math.inf, state, cost)
        if last[1] > 0:
            lo = last
        else:
            hi = last

    def secant():
        return (last[1] - prev[1]) / (last[0] - prev[0])

    warm, rounds = -math.inf < slope < 0, 0  # NaN fails the test
    probe(lam)
    while hi is None or -hi[1] * hi[0] > slack:
        bracket = lo is not None and hi is not None
        if bracket and (rounds == _MATCH_ROUNDS or hi[0] - lo[0] <= 1e-15 * hi[0]):
            break
        rounds += bracket
        slope = slope if prev is None else secant()
        x = math.nan  # a step never kept
        if (warm or bracket) and -math.inf < slope < 0:
            root = last[0] - last[1] / slope  # the window is slack / root wide, at most slack
            x = last[0] - (last[1] + 0.5 * slack / max(root, 1.0)) / slope
        if not ((lo[0] if lo else 0.0) < x < (hi[0] if hi else _BRACKET_CAP)
                and (not bracket or abs(x - last[0]) < 0.5 * prev[2])):
            if bracket:
                x = 0.5 * (lo[0] + hi[0])
            elif lo is None:  # feasible with budget to spare
                x = 0.0
            else:
                x = 2.0 * lo[0] if lo[0] > 0 else 1.0
                if x > _BRACKET_CAP:
                    raise InfeasibleConstraint("multiplier bracket exhausted without reaching the budget")
        probe(x)
    return hi[3:] + (hi[0], slope if prev is None else secant())


# ---------------------------------------------------------------------------
# the evaluation kernel
# ---------------------------------------------------------------------------


def log_where_positive(a: np.ndarray) -> np.ndarray:
    """``log a`` on the positive cells of ``a`` and 0 elsewhere."""
    return np.log(np.where(a > 0, a, 1.0))


def logsumexp(a: np.ndarray, axis=-1, keepdims: bool = False):
    """``(lse, guarded)``: ``log sum exp`` over ``axis``, shifted by each
    row's largest entry so that nothing underflows, and whether the guard
    ran.  It runs only where some row's largest entry is not finite: a
    shift of 0 there and a sum floored at 1 make a row that is all ``-inf``
    ``-inf``.  Rows with a finite largest entry take the same floats
    either way."""
    top = a.max(axis=axis, keepdims=True)
    if np.isfinite(top).all():
        return _shifted_logsumexp(a, top, axis, keepdims), False
    s = np.exp(a - np.where(np.isfinite(top), top, 0.0)).sum(axis=axis, keepdims=keepdims)
    # the top entry adds exp(0) = 1, so only a row that is all -inf sums
    # below 1: it sums to 0, and log 1 + top makes it -inf without log(0)
    return np.log(np.maximum(s, 1.0)) + (top if keepdims else top.reshape(s.shape)), True


def finite_logsumexp(a: np.ndarray, axis=-1, keepdims: bool = False) -> np.ndarray:
    """The log-sum-exp of :func:`logsumexp` for an array whose every reduced
    row has a finite largest entry, without the check."""
    return _shifted_logsumexp(a, a.max(axis=axis, keepdims=True), axis, keepdims)


def _shifted_logsumexp(a: np.ndarray, top: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    # top: the finite largest entry of each row, so the sum, which it adds
    # exp(0) = 1 to, is at least 1
    s = np.exp(a - top).sum(axis=axis, keepdims=keepdims)
    return np.log(s) + (top if keepdims else top.reshape(s.shape))


def induction(v: np.ndarray, laws: Sequence[Optional[np.ndarray]], soft: bool = False):
    """Backward induction over the axes of ``v``, from the last to the first.

    ``laws[k]`` is ``None`` where the controller picks axis ``k``, which it
    reduces by ``max``, or by log-sum-exp when ``soft``; elsewhere it is
    nature's law of that axis, an array that broadcasts against the axes up
    to ``k``, and the axis is averaged under it.  Returns the value (a 0-d
    array) and, for each controller axis in order, the best symbol (hard)
    or the log policy (soft) on the axes up to it.

    A ``-inf`` cell is met only when the terminal has a non-finite cell,
    so the guards for it run only then: a law of 0 on it weighs 0, a soft
    row that is all ``-inf`` gets the uniform policy, and its log-sum-exp
    is :func:`logsumexp`'s.  A finite terminal takes
    :func:`finite_logsumexp`, whose floats are the same.
    """
    finite = bool(np.isfinite(v).all())
    moves = []
    for law in reversed(laws):
        if law is not None:
            v = (law * v if finite else weight_table(law, v)).sum(axis=-1)
        elif soft:
            lse = finite_logsumexp(v, keepdims=True) if finite else logsumexp(v, keepdims=True)[0]
            if finite:
                moves.append(v - lse)
            else:
                uniform = np.full_like(v, -math.log(v.shape[-1]))
                moves.append(np.subtract(v, lse, out=uniform, where=np.isfinite(lse)))
            v = lse[..., 0]
        else:
            moves.append(v.argmax(axis=-1))
            v = v.max(axis=-1)
    return v, moves[::-1]


def weight_table(w: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``w * table`` on the support of ``w`` and 0 elsewhere, so that
    ``0 * inf = 0`` while mass on an infinite cell gives ``+inf``."""
    with np.errstate(invalid="ignore"):
        return np.where(w > 0, w * table, 0.0)


def expected_table(p: BackwardKernel, q: ForwardKernel, table: np.ndarray) -> float:
    """Expectation of the interleaved ``table`` under the joint of ``p`` and
    ``q`` (on one spec), one block at a time (see ``measures._joint_blocks``):
    ``+inf`` when mass reaches an infinite cell, as under :func:`weight_table`."""
    blocks = _joint_blocks(p.spec, p.tables, q.tables)
    return float(sum(weight_table(w, table[prefix]).sum() for prefix, w in blocks))


def split_infinite(table: np.ndarray) -> np.ndarray:
    """``table`` with its ``+inf`` cells read as 0, stacked on a new last
    axis with the indicator of those cells.  Nonnegative weights times it,
    summed, give the finite part of an expectation and the mass that
    reaches an infinite cell, which :func:`entropy_route` reads back."""
    infinite = np.isinf(table)
    return np.stack([np.where(infinite, 0.0, table), infinite.astype(float)], axis=-1)


def entropy_route(mean_log_q: np.ndarray, nu: np.ndarray, sums: np.ndarray):
    """Directed information and an expected table of a batch of joints by
    ``I(X^n -> Y^n) = E log Q(y^n || x^n) - sum_y nu log nu``.

    The joints lie on two axes, as the grid oracles' blocks give them
    (see :func:`grid_search`).  ``mean_log_q`` holds each joint's ``E log
    Q``; ``nu`` its output law, of shape ``(blocks, high, paths, low)`` for
    a law split into blocks of output paths; and ``sums``, of shape
    ``(high, 2, low)``, a product of its weights with
    :func:`split_infinite` of the table, so that the expectation is
    ``+inf`` exactly when mass reaches an infinite cell, as under
    :func:`weight_table`.
    """
    log_nu = np.log(nu, out=np.zeros_like(nu), where=nu > 0)
    info = mean_log_q - np.einsum("hakb,hakb->ab", nu, log_nu)
    return info, np.where(sums[:, 1] > 0, np.inf, sums[:, 0])


# ---------------------------------------------------------------------------
# simplex grids for the brute-force oracles
# ---------------------------------------------------------------------------


def simplex_grid(resolution: int, dim: int) -> np.ndarray:
    """All probability vectors with entries that are multiples of
    ``1/resolution``, shape ``(comb(resolution + dim - 1, dim - 1), dim)``."""
    if dim < 1 or resolution < 1:
        raise DomainError("simplex grid needs dim >= 1 and resolution >= 1")
    if dim == 1:
        return np.ones((1, 1))
    # column by column: each point so far opens a run 0..left of next entries
    left, columns = np.array([resolution]), []
    for _ in range(dim - 1):
        runs = left + 1
        ends = np.cumsum(runs)
        entry = np.arange(ends[-1]) - np.repeat(ends - runs, runs)
        columns = [np.repeat(c, runs) for c in columns] + [entry]
        left = np.repeat(left, runs) - entry
    return np.stack(columns + [left], axis=1) / resolution


def grid_batches(
    rows: Sequence[int],
    sizes: Sequence[int],
    resolution: int,
    max_grid_points: int,
    point_cells: int,
) -> tuple[list[np.ndarray], Iterator[list[np.ndarray]]]:
    """Every combination of simplex-grid rows, as ``(low, blocks)``.

    Step ``i`` has ``rows[i]`` free rows, each ranging over the points of
    ``simplex_grid(resolution, sizes[i])``.  Combination ``c`` gives each
    row, in order (step 0's rows first), the digit of ``c`` in the mixed
    radix of the rows' grid sizes, the last row's fastest, as
    ``np.unravel_index`` would.  ``low`` sets the trailing rows, as many
    as fit in one block, in each of their settings in turn; each block
    that ``blocks`` yields sets the leading rows for a run of consecutive
    codes and stands for each of its settings joined with each of
    ``low``'s, in that order.  So the blocks give every combination once,
    in order, and each stands for at most ``GRID_BLOCK_CELLS //
    point_cells`` combinations (at least one), ``point_cells`` being the
    size of the array one combination expands to.  ``low`` and each block
    are one integer array per step, of shape ``(count, rows[i])``, whose
    entries index that step's grid, or equal its size at a row that the
    other part sets.  Raises :class:`DomainError` (``resolution`` not a
    positive integer) or :class:`GridTooLarge` (more than
    ``max_grid_points`` combinations) before any block is made.
    """
    _check_count(resolution, "grid_resolution", 1)
    radices = [math.comb(resolution + dim - 1, dim - 1) for r, dim in zip(rows, sizes) for _ in range(r)]
    total = math.prod(radices)
    if total > max_grid_points:
        raise GridTooLarge(
            f"{total} grid combinations exceed the cap of {max_grid_points}"
        )
    batch = max(1, GRID_BLOCK_CELLS // max(1, point_cells))
    split, count = len(radices), 1  # low sets rows split.. in count ways
    while split and count * radices[split - 1] <= batch:
        split, count = split - 1, count * radices[split - 1]
    starts = np.cumsum((0,) + tuple(rows))

    def part(codes, first, stop):  # rows first..stop-1 read codes, the rest their grid's size
        digits = np.tile(np.array(radices, dtype=np.intp), (len(codes), 1))
        for k in reversed(range(first, stop)):
            digits[:, k] = codes % radices[k]
            codes = codes // radices[k]
        return [digits[:, a:b] for a, b in zip(starts, starts[1:])]

    def blocks():
        leading, per_block = total // count, batch // count
        for start in range(0, leading, per_block):
            yield part(np.arange(start, min(start + per_block, leading)), 0, split)

    # a generator of its own, so the checks above run at the call
    return part(np.arange(count), split, len(radices)), blocks()


def grid_search(spec: AlphabetSpec, side: int, tied: bool, terms: Callable, budget: Optional[float],
                sign: float, resolution: int, max_grid_points: int) -> float:
    """The largest (``sign`` 1) or least (``sign`` -1) value over kernels of
    ``side`` whose rows (keyed by the side's own history when ``tied``) are
    simplex-grid points and whose expected cost is within ``budget`` (when
    given) plus ``FEASIBILITY_SLACK``.  ``terms(pools, low)`` gives the
    oracle's ``evaluate(high) -> (values, costs)`` over the kernels that
    join each row of ``high`` with each of ``low`` (see :func:`grid_batches`),
    whose step-``i`` rows pick from ``pools[i]``: the grid's points, then a
    row of ones for an index the other part sets.  Raises as
    :func:`grid_batches` does, or :class:`InfeasibleConstraint` when no
    grid kernel meets the budget.
    """
    shapes = [_table_shape(spec, side, i, tied) for i in range(spec.steps)]
    rows, sizes = zip(*shapes)
    low, blocks = grid_batches(rows, sizes, resolution, max_grid_points, spec.total_cells)
    pools = {k: np.vstack([simplex_grid(resolution, k), np.ones(k)]) for k in set(sizes)}
    evaluate = terms([pools[k] for k in sizes], low)
    best = -math.inf
    for high in blocks:
        value, cost = evaluate(high)
        if budget is not None:
            value = value[cost <= budget + FEASIBILITY_SLACK]
        if value.size:
            best = max(best, float((sign * value).max()))
    if best == -math.inf:
        raise InfeasibleConstraint("no grid kernel meets the budget")
    return sign * best
