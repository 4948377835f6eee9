"""Shared optimizer plumbing for the extremum solvers.

Both solvers evaluate one functional, the directed information of the
joint of an input and a channel kernel plus an expected cost or
distortion: capacity varies the input kernel, NRDF the channel kernel.
The configuration, the log-sum-exp, the evaluation kernel and the
simplex-grid enumerator that the solvers and the grid oracles share live
here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, GridTooLarge

# Entropic mirror ascent: ``exp_update_rows``, ``StepSchedule``,
# ``monotone_improve`` and ``MERIT_SLACK`` are no longer called by either
# solver.  They stay because the traced benchmark (``perfbench/spans.py``)
# looks up ``monotone_improve`` and ``MERIT_SLACK`` when it installs.

# Acceptance slack for the monotone-merit check; a candidate step may not
# worsen the merit by more than this.
MERIT_SLACK = 1e-12

_EXP_CLIP = 700.0


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
# the evaluation kernel
# ---------------------------------------------------------------------------


def log_where_positive(a: np.ndarray) -> np.ndarray:
    """``log a`` on the positive cells of ``a`` and 0 elsewhere."""
    return np.log(np.where(a > 0, a, 1.0))


def logsumexp(a: np.ndarray, axis=-1, keepdims: bool = False) -> np.ndarray:
    """``log sum exp`` over ``axis``, shifted by the largest entry so that
    nothing underflows; ``-inf`` where every entry is ``-inf``."""
    top = a.max(axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - top).sum(axis=axis, keepdims=True)) + top
    return out if keepdims else np.squeeze(out, axis=axis)


def weight_table(w: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``w * table`` on the support of ``w`` and 0 elsewhere, so that
    ``0 * inf = 0`` while mass on an infinite cell gives ``+inf``."""
    with np.errstate(invalid="ignore"):
        return np.where(w > 0, w * table, 0.0)


def joint_terms(
    w: np.ndarray,
    log_q: np.ndarray,
    table: Optional[np.ndarray] = None,
    *,
    batch: bool = False,
):
    """Directed information and an expected table of one interleaved joint.

    ``w = a * Q`` holds input-path weights times channel-path weights and
    ``log_q`` is ``log Q`` on the support of ``Q``; ``table`` (a cost or
    distortion, possibly ``+inf``) broadcasts against ``w``.  Returns
    ``(log_ratio, info, expectation)``: ``log(Q / nu)`` on the support of
    ``w`` and 0 elsewhere, with ``nu`` the output marginal of ``w``;
    ``sum w log(Q / nu)``; and ``sum w * table`` under :func:`weight_table`
    (0 without a table).  Sums run over every axis, or with ``batch`` over
    every axis but a leading one that indexes separate joints.
    """
    lead = 1 if batch else 0
    nu = w.sum(axis=tuple(range(lead, w.ndim, 2)), keepdims=True)
    log_ratio = np.where(w > 0, log_q - log_where_positive(nu), 0.0)
    axes = tuple(range(1, w.ndim)) if batch else None
    info = (w * log_ratio).sum(axis=axes)
    expectation = 0.0 if table is None else weight_table(w, table).sum(axis=axes)
    return log_ratio, info, expectation


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
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + dim - 2 - prev)
        points.append(parts)
    return np.asarray(points, dtype=float) / resolution


def grid_batches(
    rows: Sequence[int],
    sizes: Sequence[int],
    resolution: int,
    max_grid_points: int,
    chunk_cells: int,
    point_cells: int,
) -> Iterator[list[np.ndarray]]:
    """Every combination of simplex-grid rows, in batches.

    Step ``i`` has ``rows[i]`` free rows, each ranging over
    ``simplex_grid(resolution, sizes[i])``.  Each batch is one table per
    step, of shape ``(batch, rows[i], sizes[i])``, and holds
    ``chunk_cells // point_cells`` combinations (at least one), where
    ``point_cells`` is the size of the array one combination expands to.
    Raises :class:`DomainError` or :class:`GridTooLarge` (more than
    ``max_grid_points`` combinations) before any batch is made.
    """
    resolution = int(resolution)
    if resolution < 1:
        raise DomainError("grid_resolution must be at least 1")
    grids = {dim: simplex_grid(resolution, dim) for dim in set(sizes)}
    radices = [len(grids[dim]) for r, dim in zip(rows, sizes) for _ in range(r)]
    total = math.prod(radices)
    if total > max_grid_points:
        raise GridTooLarge(
            f"{total} grid combinations exceed the cap of {max_grid_points}"
        )
    batch = max(1, chunk_cells // max(1, point_cells))

    def batches():
        for start in range(0, total, batch):
            rem = np.arange(start, min(start + batch, total))
            digits = []
            for radix in reversed(radices):
                rem, d = np.divmod(rem, radix)
                digits.append(d)
            digits.reverse()
            tables = []
            pos = 0
            for r, dim in zip(rows, sizes):
                tables.append(grids[dim][np.stack(digits[pos: pos + r], axis=1)])
                pos += r
            yield tables

    # a generator of its own, so the checks above run at the call
    return batches()
