"""Finite-horizon reconstruction optimization: minimize directed information
over forward kernels subject to an expected-distortion budget.

The objective is convex in the path-level reconstruction measure.  The
workhorse is an alternating scheme: recompute the output-marginal step
conditionals, then exponentially tilt each reconstruction row against the
distortion increment (per-letter when the table decomposes additively,
whole-path otherwise), falling back to entropic mirror descent whenever a
tilt step fails to decrease the Lagrangian.  A bisection on the multiplier
meets the budget; a simplex-grid oracle validates results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, InfeasibleConstraint, SpecMismatch
from .indexing import decode
from .information import directed_information
from .measures import (
    AlphabetSpec,
    BackwardKernel,
    ConditionedFamily,
    ForwardKernel,
    InfoValue,
    Pmf,
    _expand_y_keyed_table,
    _from_xy_matrix,
    _input_path_weights,
    _normalize_rows,
    _output_path_weights,
    _x_axes,
    ignores_output_history,
    product_pi_backward,
    refactor_to_kernel,
)
from .solver import (
    DEFAULT_CONFIG,
    MERIT_SLACK,
    SolverConfig,
    grid_batches,
    joint_terms,
    log_where_positive,
    marginalize_to_output_tables,
    monotone_improve,
    weight_table,
)

FEASIBILITY_SLACK = 1e-9

_BRACKET_GROWTH = 2.0
_BRACKET_CAP = 1e12
_MAX_OUTER_ROUNDS = 200
_ADDITIVITY_TOL = 1e-9


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
        t = np.asarray(self.distortion_table, dtype=float)
        if t.ndim != 2:
            raise DomainError(f"distortion table must be 2-D, got shape {t.shape}")
        if np.any(np.isnan(t)) or np.any(t < 0):
            raise DomainError("distortion entries must be >= 0 (NaN not allowed)")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "distortion_table", t)
        b = float(self.budget)
        if not math.isfinite(b) or b < 0:
            raise DomainError(f"budget must be a finite nonnegative real, got {b!r}")
        object.__setattr__(self, "budget", b)


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
    if budget is None:
        return d.budget
    b = float(budget)
    if not math.isfinite(b) or b < 0:
        raise DomainError(f"distortion budget must be a finite nonnegative real, got {b!r}")
    return b


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
        pick = rows.argmin(axis=-1)
        onehot = np.zeros_like(rows, dtype=float)
        onehot[np.arange(rows.shape[0]), pick] = 1.0
        choices[i] = onehot
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
    tables = []
    for i in range(spec.steps):
        t = np.zeros((spec.y_prefix_count(i), spec.y_sizes[i]))
        t[:, digits[i]] = 1.0
        tables.append(t)
    return ForwardKernel.from_input_free_tables(spec, tables)


def _per_letter_terms(spec: AlphabetSpec, table: np.ndarray) -> Optional[list[np.ndarray]]:
    """Additive decomposition d = sum_i g_i(x_i, y_i) if one exists.

    Returns per-step (x_i, y_i) increments (unique up to additive
    constants, which cancel in exponential tilts) or None.
    """
    if not np.all(np.isfinite(table)):
        return None
    d = table.reshape(spec.x_sizes + spec.y_sizes)
    steps = spec.steps
    terms = []
    for i in range(steps):
        axes = tuple(a for a in range(d.ndim) if a not in (i, steps + i))
        terms.append(d.mean(axis=axes))
    recon = np.zeros(d.shape)
    for i, g in enumerate(terms):
        fshape = tuple(
            d.shape[a] if a in (i, steps + i) else 1 for a in range(d.ndim)
        )
        recon = recon + g.reshape(fshape)
    recon = recon - spec.horizon_n * d.mean()
    scale = max(1.0, float(np.abs(d).max()))
    if float(np.abs(recon - d).max()) > _ADDITIVITY_TOL * scale:
        return None
    return terms


def _step_conditionals(spec: AlphabetSpec, nu_flat: np.ndarray) -> list[np.ndarray]:
    """Per-step conditionals of an output-path law, uniform on null rows."""
    arr = nu_flat.reshape(spec.y_sizes)
    out = []
    for i in range(spec.steps):
        m = arr.sum(axis=tuple(range(i + 1, spec.steps)))
        rows = m.reshape(spec.y_prefix_count(i), spec.y_sizes[i])
        out.append(_normalize_rows(rows, spec.y_sizes[i]))
    return out


class _NrdfProblem:
    """Dense evaluation pipeline for a fixed source and distortion table."""

    def __init__(self, src: SourceSpec, d: DistortionConstraint):
        spec = src.spec
        _check_table_shape(spec, d)
        self.spec = spec
        self.src = src
        self.mu_pp = _input_path_weights(spec, src.kernel.tables)
        self.d_flat = d.distortion_table
        self.d_int = _from_xy_matrix(spec, d.distortion_table)
        self.letters = _per_letter_terms(spec, d.distortion_table)
        self.x_axes = _x_axes(2 * spec.steps)

    def _joint(self, tables: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        qp = _output_path_weights(self.spec, tables)
        return self.mu_pp * qp, log_where_positive(qp)

    def stats(self, tables: list[np.ndarray]) -> tuple[float, float]:
        _, di, dist = joint_terms(*self._joint(tables), self.d_int)
        return float(di), float(dist)

    def merit_fn(self, s: float):
        def merit(tables):
            di, dist = self.stats(tables)
            return di + s * dist

        return merit

    def gradient_fn(self, s: float):
        spec = self.spec

        def gradient(tables):
            w, log_q = self._joint(tables)
            lr, _, _ = joint_terms(w, log_q)
            t_arr = w * lr
            if s != 0.0:
                t_arr = t_arr + s * weight_table(w, self.d_int)
            margs = marginalize_to_output_tables(t_arr, spec)
            return [
                np.where(t > 0, m / np.where(t > 0, t, 1.0), 0.0)
                for m, t in zip(margs, tables)
            ]

        return gradient

    def tilt(self, tables: list[np.ndarray], s: float) -> list[np.ndarray]:
        """One alternating update: refresh the output law, then tilt rows
        by the exponentiated distortion increment."""
        spec = self.spec
        w = self.mu_pp * _output_path_weights(spec, tables)
        nu_flat = w.sum(axis=self.x_axes).reshape(-1)
        if self.letters is None:
            return self._tilt_path(nu_flat, s)
        conds = _step_conditionals(spec, nu_flat)
        out = []
        for i in range(spec.steps):
            base = _expand_y_keyed_table(spec, i, conds[i])
            fac = np.exp(-s * self.letters[i])  # finite by construction
            rows = (
                base.reshape(-1, spec.x_sizes[i], spec.y_sizes[i]) * fac[None]
            ).reshape(spec.output_history_count(i), spec.y_sizes[i])
            out.append(_normalize_rows(rows, spec.y_sizes[i]))
        return out

    def _tilt_path(self, nu_flat: np.ndarray, s: float) -> list[np.ndarray]:
        with np.errstate(invalid="ignore"):
            z = -s * self.d_flat
        z = np.where(np.isnan(z), 0.0, z)  # 0 * inf exponent treated as 0
        rows = nu_flat[None, :] * np.exp(z)
        den = rows.sum(axis=-1, keepdims=True)
        if np.any(den == 0):
            # greedy fallback: concentrate on the least-distortion cells
            low = self.d_flat.min(axis=-1, keepdims=True)
            greedy = (self.d_flat == low).astype(float)
            greedy = greedy / greedy.sum(axis=-1, keepdims=True)
            rows = np.where(den > 0, rows / np.where(den > 0, den, 1.0), greedy)
        else:
            rows = rows / den
        fam = ConditionedFamily(self.spec, "x", rows)
        return list(refactor_to_kernel(fam).tables)

    def uniform_tables(self) -> list[np.ndarray]:
        spec = self.spec
        return [
            np.full((spec.output_history_count(i), spec.y_sizes[i]), 1.0 / spec.y_sizes[i])
            for i in range(spec.steps)
        ]


def _solve_fixed_s(prob: _NrdfProblem, s: float, cfg: SolverConfig, tables):
    """Tilt iterations while they decrease the Lagrangian, then a mirror
    descent polish that certifies the descent property."""
    merit = prob.merit_fn(s)
    value = merit(tables)
    iters = 0
    quiet = 0
    while iters < cfg.max_iters:
        cand = prob.tilt(tables, s)
        iters += 1
        cand_value = merit(cand)
        if not cand_value <= value + MERIT_SLACK:
            break
        delta = value - cand_value
        tables, value = cand, cand_value
        if abs(delta) <= cfg.tol * max(1.0, abs(value)):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    polish_budget = max(25, cfg.max_iters - iters)
    tables, _, polish_iters, converged = monotone_improve(
        merit, prob.gradient_fn(s), tables, -1.0, cfg.tol, polish_budget
    )
    di, dist = prob.stats(tables)
    return tables, di, dist, iters + polish_iters, converged


def solve_nrdf(
    src: SourceSpec,
    d: DistortionConstraint,
    budget: Optional[float] = None,
    cfg: Optional[SolverConfig] = None,
) -> NrdfResult:
    """Minimize directed information over reconstruction kernels subject to
    expected distortion at most ``budget`` (default: ``d.budget``).

    Feasibility is certified against the greedy minimum-distortion kernel.
    When the best input-ignoring reconstruction already meets the budget
    the value is exactly zero and that kernel is returned.  Otherwise the
    multiplier is bisected until the best feasible iterate sits within
    ``cfg.multiplier_tol`` of the budget (or the bracket's value gap
    closes).  The returned kernel always satisfies the budget to within
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
    if free_floor <= target:
        kernel = _constant_path_kernel(spec, best_path)
        return NrdfResult(InfoValue(0.0), kernel, 0, target - free_floor, True)

    prob = _NrdfProblem(src, d)
    total = 0
    lo, lo_di = 0.0, 0.0  # relaxed side; its value lower-bounds the optimum
    hi = 1.0
    warm = prob.uniform_tables()
    feasible = None  # (di, dist, tables, converged)
    while feasible is None:
        warm, di, dist, iters, conv = _solve_fixed_s(prob, hi, cfg, warm)
        total += iters
        if dist <= target + FEASIBILITY_SLACK:
            feasible = (di, dist, [t.copy() for t in warm], conv)
            break
        lo, lo_di = hi, di
        hi *= _BRACKET_GROWTH
        if hi > _BRACKET_CAP:
            # give the guaranteed-feasible greedy kernel rather than an
            # iterate that violates the budget
            kernel = ForwardKernel(spec, tuple(greedy_tables))
            value = directed_information(src.kernel, kernel)
            return NrdfResult(
                InfoValue(value), kernel, total, target - floor, False
            )

    def value_gap_closed() -> bool:
        return feasible[0] - lo_di <= max(1e-10, cfg.tol * max(1.0, abs(feasible[0])))

    met = (target - feasible[1]) <= cfg.multiplier_tol or value_gap_closed()
    rounds = 0
    while not met and rounds < _MAX_OUTER_ROUNDS:
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        warm, di, dist, iters, conv = _solve_fixed_s(prob, mid, cfg, warm)
        total += iters
        rounds += 1
        if dist <= target + FEASIBILITY_SLACK:
            hi = mid
            if di <= feasible[0]:
                feasible = (di, dist, [t.copy() for t in warm], conv)
            met = (target - feasible[1]) <= cfg.multiplier_tol or value_gap_closed()
        else:
            lo, lo_di = mid, di
            met = value_gap_closed()
    _, dist_sel, tables_sel, conv_sel = feasible
    kernel = ForwardKernel(spec, tuple(tables_sel))
    value = directed_information(src.kernel, kernel)
    return NrdfResult(
        InfoValue(value), kernel, total, target - dist_sel, conv_sel and met
    )


# ---------------------------------------------------------------------------
# grid oracle and budget sweeps
# ---------------------------------------------------------------------------


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
    meet the budget."""
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
    mu_pp = _input_path_weights(spec, src.kernel.tables)
    d_int = _from_xy_matrix(spec, d.distortion_table)
    ndim = 2 * spec.steps
    best = math.inf
    feasible_seen = False
    for tabs in batches:
        nb = len(tabs[0])
        qp = np.ones((nb,) + (1,) * ndim)
        for i, tab in enumerate(tabs):  # tab: (nb, rows, y_i)
            fshape = (
                (nb,)
                + spec.interleaved_shape[: 2 * i + 1]
                + (spec.y_sizes[i],)
                + (1,) * (ndim - 2 * i - 2)
            )
            qp = qp * tab.reshape(fshape)
        w = mu_pp * qp
        _, di, dist = joint_terms(w, log_where_positive(qp), d_int, batch=True)
        ok = dist <= target + FEASIBILITY_SLACK
        if np.any(ok):
            feasible_seen = True
            best = min(best, float(di[ok].min()))

    if not feasible_seen:
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
