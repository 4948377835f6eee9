"""Shared optimizer plumbing for the extremum solvers and the grid oracles.

Both problems optimize one functional, the directed information of the
joint of an input and a channel kernel plus an expected cost or
distortion: capacity varies the input kernel, NRDF the channel kernel.
The solvers share the configuration, the checks of a cost or distortion
table and its budget, the multiplier search that prices the budget, and
the log-sum-exp.  The grid oracles share the simplex-grid enumerator and
the evaluation kernel, which reads each batch of joints as ``H(Y^n) -
H(Y^n || X^n)``, i.e. ``E log Q(y^n || x^n) - sum_y nu log nu``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError, GridTooLarge, InfeasibleConstraint

# Entropic mirror ascent: ``exp_update_rows``, ``StepSchedule``,
# ``monotone_improve`` and ``MERIT_SLACK`` are no longer called by either
# solver.  They stay because the traced benchmark (``perfbench/spans.py``)
# looks up ``monotone_improve`` and ``MERIT_SLACK`` when it installs.

# Acceptance slack for the monotone-merit check; a candidate step may not
# worsen the merit by more than this.
MERIT_SLACK = 1e-12

_EXP_CLIP = 700.0

# Budget slack of the feasibility checks and of the grid oracles.
FEASIBILITY_SLACK = 1e-9

# the multiplier search gives up past this multiplier
_BRACKET_CAP = 1e12
# false-position steps allowed per budget match
_MATCH_ROUNDS = 100


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the iterative solvers.

    For capacity, ``tol`` is the certified gap in nats on the returned
    value and ``multiplier_tol`` is not read; for NRDF both are certified
    gaps in nats, on the Lagrangian at one slope and on the returned value.
    ``max_iters`` caps the updates of one solve (of one slope for NRDF).
    """

    tol: float = 1e-9
    max_iters: int = 100_000
    multiplier_tol: float = 1e-6

    def __post_init__(self):
        if not self.tol > 0:
            raise DomainError("tol must be positive")
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")
        if not self.multiplier_tol > 0:
            raise DomainError("multiplier_tol must be positive")


DEFAULT_CONFIG = SolverConfig()


def exp_update_rows(rows: np.ndarray, grad: np.ndarray, step: float) -> np.ndarray:
    """One multiplicative-weights step on each probability row.

    Computes ``rows * exp(step * grad)`` row-normalized, with the exponent
    shifted so the largest entry is 0; exact zeros in ``rows`` stay zero.
    """
    z = step * grad
    z = z - z.max(axis=-1, keepdims=True)
    w = rows * np.exp(np.clip(z, -_EXP_CLIP, 0.0))
    den = w.sum(axis=-1, keepdims=True)
    # the max-shift guarantees at least one untouched positive entry per
    # live row, so a zero denominator only happens for all-zero rows
    safe = np.where(den > 0, den, 1.0)
    return np.where(den > 0, w / safe, rows)


@dataclass
class StepSchedule:
    """Diminishing step sizes ``base / sqrt(t)`` with restart-on-reject.

    A rejected candidate halves the base and resets the clock; long accept
    streaks cautiously grow it back.
    """

    base: float = 1.0
    max_base: float = 64.0
    t: int = 1
    streak: int = 0

    def current(self) -> float:
        return self.base / math.sqrt(self.t)

    def accept(self):
        self.t += 1
        self.streak += 1
        if self.streak >= 30:
            self.base = min(self.base * 2.0, self.max_base)
            self.streak = 0

    def reject(self):
        self.base *= 0.5
        self.t = 1
        self.streak = 0

    @property
    def exhausted(self) -> bool:
        return self.base < 1e-13


def monotone_improve(
    evaluate: Callable[[list[np.ndarray]], float],
    gradient: Callable[[list[np.ndarray]], list[np.ndarray]],
    tables: list[np.ndarray],
    sign: float,
    tol: float,
    max_iters: int,
) -> tuple[list[np.ndarray], float, int, bool]:
    """Entropic mirror ascent (+1) or descent (-1) over stacked simplex rows.

    Returns ``(tables, merit, iterations, converged)`` where the merit is
    ``sign * objective`` maximized.  Convergence means five consecutive
    accepted steps with relative merit change below ``tol``, or the step
    size collapsing to numerical stationarity.
    """
    merit = sign * evaluate(tables)
    sched = StepSchedule()
    quiet = 0
    iters = 0
    converged = False
    while iters < max_iters:
        grads = gradient(tables)
        iters += 1
        step = sched.current()
        cand = [exp_update_rows(t, sign * g, step) for t, g in zip(tables, grads)]
        cand_merit = sign * evaluate(cand)
        if cand_merit >= merit - MERIT_SLACK:
            delta = cand_merit - merit
            tables = cand
            merit = cand_merit
            sched.accept()
            if abs(delta) <= tol * max(1.0, abs(merit)):
                quiet += 1
                if quiet >= 5:
                    converged = True
                    break
            else:
                quiet = 0
        else:
            sched.reject()
            quiet = 0
            if sched.exhausted:
                converged = True
                break
    return tables, sign * merit, iters, converged


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


def match_budget(update, budget: float, lam: float, slack: float):
    """``(state, cost, lam)`` of the update ``update(lam) -> (state,
    cost)`` at ``lam = 0`` if that is feasible, else at the root of ``cost =
    budget`` (cost falls continuously in ``lam``), found by false position
    (Illinois) from a bracket grown out of the last ``lam``, on its feasible
    side, to an unspent budget times ``lam`` of at most ``slack``; a step
    that would not land strictly inside the bracket (as against an infinite
    cost) bisects it.  Raises :class:`InfeasibleConstraint` if no ``lam`` up
    to ``1e12`` is feasible."""
    def at(x):
        state, cost = update(x)
        return x, cost - budget, state, cost

    def done(p):
        return p[1] <= 0 and -p[1] * p[0] <= slack

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
        x = hi[0] - f_hi * (hi[0] - lo[0]) / (f_hi - f_lo)
        if not lo[0] < x < hi[0]:  # rounded onto an end, or an infinite cost
            x = 0.5 * (lo[0] + hi[0])
        p = at(x)
        if p[1] > 0:  # Illinois: halve the end kept twice in a row
            lo, f_lo, f_hi, side = p, p[1], f_hi * (0.5 if side > 0 else 1.0), 1
        else:
            hi, f_hi, f_lo, side = p, p[1], f_lo * (0.5 if side < 0 else 1.0), -1
    return hi[2:] + (hi[0],)


# ---------------------------------------------------------------------------
# the evaluation kernel
# ---------------------------------------------------------------------------


def log_where_positive(a: np.ndarray) -> np.ndarray:
    """``log a`` on the positive cells of ``a`` and 0 elsewhere."""
    return np.log(np.where(a > 0, a, 1.0))


def logsumexp(a: np.ndarray, axis=-1, keepdims: bool = False) -> np.ndarray:
    """``log sum exp`` over ``axis``, shifted by the largest entry so that
    nothing underflows; ``-inf`` where every entry is ``-inf``."""
    top = a.max(axis=axis, keepdims=True)
    s = np.exp(a - np.where(np.isfinite(top), top, 0.0)).sum(axis=axis, keepdims=keepdims)
    # the top entry adds exp(0) = 1, so only a row that is all -inf sums
    # below 1: it sums to 0, and log 1 + top makes it -inf without log(0)
    return np.log(np.maximum(s, 1.0)) + (top if keepdims else top.reshape(s.shape))


def weight_table(w: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``w * table`` on the support of ``w`` and 0 elsewhere, so that
    ``0 * inf = 0`` while mass on an infinite cell gives ``+inf``."""
    with np.errstate(invalid="ignore"):
        return np.where(w > 0, w * table, 0.0)


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

    ``mean_log_q`` holds each joint's ``E log Q``; ``nu`` its output law,
    of shape ``(blocks, batch, paths)`` for a law split into blocks of
    output paths; and ``sums`` a product of its weights with
    :func:`split_infinite` of the table, so that the expectation is
    ``+inf`` exactly when mass reaches an infinite cell, as under
    :func:`weight_table`.
    """
    log_nu = np.log(nu, out=np.zeros_like(nu), where=nu > 0)
    info = mean_log_q - np.einsum("hbk,hbk->b", nu, log_nu)
    return info, np.where(sums[..., 1] > 0, np.inf, sums[..., 0])


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
    points = []
    for cuts in combinations(range(resolution + dim - 1), dim - 1):
        edges = (-1,) + cuts + (resolution + dim - 1,)  # stars between bars
        points.append([b - a - 1 for a, b in zip(edges, edges[1:])])
    return np.asarray(points, dtype=float) / resolution


def grid_batches(
    rows: Sequence[int],
    sizes: Sequence[int],
    resolution: int,
    max_grid_points: int,
    chunk_cells: int,
    point_cells: int,
) -> Iterator[list[np.ndarray]]:
    """Every combination of simplex-grid rows, in batches of indices.

    Step ``i`` has ``rows[i]`` free rows, each ranging over the points of
    ``simplex_grid(resolution, sizes[i])``.  Each batch is one integer
    array per step, of shape ``(batch, rows[i])``, whose entries index that
    grid, and holds ``chunk_cells // point_cells`` combinations (at least
    one), where ``point_cells`` is the size of the array one combination
    expands to.  Raises :class:`DomainError` (``resolution`` not a positive
    integer) or :class:`GridTooLarge` (more than ``max_grid_points``
    combinations) before any batch is made.
    """
    if isinstance(resolution, bool) or not isinstance(resolution, (int, np.integer)) or resolution < 1:
        raise DomainError(f"grid_resolution must be a positive integer, got {resolution!r}")
    radices = [math.comb(resolution + dim - 1, dim - 1) for r, dim in zip(rows, sizes) for _ in range(r)]
    total = math.prod(radices)
    if total > max_grid_points:
        raise GridTooLarge(
            f"{total} grid combinations exceed the cap of {max_grid_points}"
        )
    batch = max(1, chunk_cells // max(1, point_cells))
    starts = np.cumsum((0,) + tuple(rows))
    live = [k for k, radix in enumerate(radices) if radix > 1]  # one-point grids stay at 0

    def batches():
        for start in range(0, total, batch):
            codes = np.arange(start, min(start + batch, total))
            digits = np.zeros((len(codes), len(radices)), dtype=np.intp)
            if live:
                digits[:, live] = np.stack(np.unravel_index(codes, [radices[k] for k in live]), axis=-1)
            yield [digits[:, a:b] for a, b in zip(starts, starts[1:])]

    # a generator of its own, so the checks above run at the call
    return batches()
