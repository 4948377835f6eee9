"""Finite-horizon causal measure algebra.

Kernels are families of per-step stochastic tables over a shared
:class:`AlphabetSpec`.  Every dense object lives on one canonical layout:
the interleaved coordinate order ``(x_0, y_0, ..., x_n, y_n)``, row-major,
so a history's table row index equals the mixed-radix code of its
interleaved prefix.  Values are immutable after construction and all
operations are pure functions; nothing here mutates its arguments.

This module owns that layout: the rest of the package takes its
mixed-radix codes, step shapes, tied shapes, path-major reorderings, the
layout of cost and distortion tables and the induction laws of either side
from the helpers in the "interleaved layout" section.  The input and output
kernels are one construction applied to either side, so
:class:`BackwardKernel` and :class:`ForwardKernel` share one class body.

Entropy-like quantities are in nats.  The conventions ``0 log 0 = 0`` and
``x log(x/0) = +inf`` for ``x > 0`` apply throughout.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, SpecMismatch

# Mass-conservation tolerance.  Inputs outside it are rejected, never
# silently renormalized.  A kernel's rows are held to PMF_TOL / (4 (n + 1)),
# so that the joints, path conditionals and output marginals built from up
# to 2 (n + 1) of its rows and another kernel's stay within PMF_TOL.
PMF_TOL = 1e-12

# Ceiling on dense cell counts; override with the DIRINFO_CELL_CAP
# environment variable.
DEFAULT_CELL_CAP = 10_000_000

# Divergences are clamped to zero only within this band; anything more
# negative is treated as a genuine domain error, not rounding dust.
_NEG_CLAMP = 1e-12


def active_cell_cap() -> int:
    """Current dense-size ceiling, honouring ``DIRINFO_CELL_CAP`` if set."""
    raw = os.environ.get("DIRINFO_CELL_CAP", "").strip()
    if not raw:
        return DEFAULT_CELL_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"DIRINFO_CELL_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise DomainError("DIRINFO_CELL_CAP must be positive")
    return cap


def _check_count(value, name: str, least: int = 0) -> int:
    """``value`` as an ``int`` if it is an integer (an ``int`` or a numpy
    integer, not a ``bool``) of at least ``least``; else a
    :class:`DomainError` that names the parameter ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# alphabet spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphabetSpec:
    """Time index set ``{0, ..., n}`` with per-step alphabet sizes.

    ``x_sizes[i]`` is ``|X_i|`` and ``y_sizes[i]`` is ``|Y_i|``.  The dense
    cell count ``prod(x_sizes) * prod(y_sizes)`` must stay at or below the
    active cap; larger requests are rejected at construction.
    """

    horizon_n: int
    x_sizes: tuple[int, ...]
    y_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "horizon_n", _check_count(self.horizon_n, "horizon_n"))
        for name in ("x_sizes", "y_sizes"):
            sizes = tuple(_check_count(s, f"{name}[{i}]", 1) for i, s in enumerate(getattr(self, name)))
            object.__setattr__(self, name, sizes)
        steps = self.horizon_n + 1
        if len(self.x_sizes) != steps or len(self.y_sizes) != steps:
            raise DomainError(
                f"need {steps} alphabet sizes per side, got "
                f"{len(self.x_sizes)} for X and {len(self.y_sizes)} for Y"
            )
        cap = active_cell_cap()
        if self.total_cells > cap:
            raise DomainError(
                f"dense joint would need {self.total_cells} cells, above the cap of {cap}"
            )

    # -- sizes ---------------------------------------------------------

    @property
    def steps(self) -> int:
        return self.horizon_n + 1

    @property
    def num_x_paths(self) -> int:
        return math.prod(self.x_sizes)

    @property
    def num_y_paths(self) -> int:
        return math.prod(self.y_sizes)

    @property
    def num_y_histories(self) -> int:
        """Paths of ``Y_0..Y_{n-1}``, the conditioning set of a backward family."""
        return self.y_prefix_count(self.horizon_n)

    @property
    def total_cells(self) -> int:
        return self.num_x_paths * self.num_y_paths

    @cached_property
    def interleaved_shape(self) -> tuple[int, ...]:
        shape = []
        for xs, ys in zip(self.x_sizes, self.y_sizes):
            shape.append(xs)
            shape.append(ys)
        return tuple(shape)

    # -- history counts --------------------------------------------------

    def x_prefix_count(self, i: int) -> int:
        return math.prod(self.x_sizes[:i])

    def y_prefix_count(self, i: int) -> int:
        return math.prod(self.y_sizes[:i])

    def input_history_count(self, i: int) -> int:
        """Rows of the step-``i`` input table, histories ``(x^{i-1}, y^{i-1})``."""
        return self.x_prefix_count(i) * self.y_prefix_count(i)

    def output_history_count(self, i: int) -> int:
        """Rows of the step-``i`` output table, histories ``(x^i, y^{i-1})``."""
        return self.input_history_count(i) * self.x_sizes[i]


def _require_same_spec(*objs) -> AlphabetSpec:
    spec = objs[0].spec
    for o in objs[1:]:
        if o.spec != spec:
            raise SpecMismatch(f"alphabet specs differ: {spec} vs {o.spec}")
    return spec


# ---------------------------------------------------------------------------
# interleaved layout
# ---------------------------------------------------------------------------
#
# Side 0 is the input and side 1 the output.  The step-``i`` table of side
# ``s`` ends on axis ``2i + s``; a side's tied shape keeps that side's sizes
# on its own axes and puts 1 on the other side's.


def _side_sizes(spec: AlphabetSpec, side: int) -> tuple[int, ...]:
    return spec.y_sizes if side else spec.x_sizes


def _prefix_len(side: int, i: int) -> int:
    """Interleaved axes up to and including the step-``i`` axis of ``side``."""
    return 2 * i + side + 1


def _tied_shape(spec: AlphabetSpec, side: int) -> tuple[int, ...]:
    return tuple(k if a % 2 == side else 1 for a, k in enumerate(spec.interleaved_shape))


def _step_shape(spec: AlphabetSpec, side: int, i: int, ndim: int = 0, tied: bool = False) -> tuple:
    """The interleaved axes of the step-``i`` table of ``side``, padded with
    1s to ``ndim`` axes; ``tied`` takes them from the side's tied shape."""
    stop = _prefix_len(side, i)
    shape = _tied_shape(spec, side) if tied else spec.interleaved_shape
    return shape[:stop] + (1,) * (ndim - stop)


def _table_shape(spec: AlphabetSpec, side: int, i: int, tied: bool = False) -> tuple[int, int]:
    """``(rows, symbols)`` of the step-``i`` table of ``side``; ``tied``
    keys the rows by the side's own history alone."""
    shape = _step_shape(spec, side, i, tied=tied)
    return math.prod(shape[:-1]), shape[-1]


def _side_axes(side: int, stop: int) -> tuple[int, ...]:
    """The axes of ``side`` among the first ``stop`` interleaved axes."""
    return tuple(range(side, stop, 2))


def _side_major(
    spec: AlphabetSpec, arr: np.ndarray, first: int = 0, stop: Optional[int] = None,
    lead: int = 0, inverse: bool = False,
) -> np.ndarray:
    """View of ``arr`` with the first ``stop`` (default: all) interleaved
    axes after its ``lead`` leading ones reordered side-major: side
    ``first``'s axes, then the other side's; later axes stay.

    ``inverse`` undoes this on path codes: the two axes of ``arr`` after
    ``lead`` index the paths of side ``first`` and of the other side over
    those axes, and become them in interleaved order.
    """
    stop = 2 * spec.steps if stop is None else stop
    order = _side_axes(first, stop) + _side_axes(1 - first, stop)
    if inverse:
        sizes = tuple(spec.interleaved_shape[a] for a in order)
        arr = arr.reshape(arr.shape[:lead] + sizes + arr.shape[lead + 2:])
        order = sorted(range(stop), key=order.__getitem__)
    rest = tuple(range(lead + stop, arr.ndim))
    return arr.transpose(tuple(range(lead)) + tuple(lead + a for a in order) + rest)


def _constraint_table(spec: AlphabetSpec, table: np.ndarray, what: str, stop: Optional[int] = None):
    """A ``what`` table whose rows are input paths and columns output paths
    over the first ``stop`` (default: all) interleaved axes, checked against
    ``spec`` and laid onto those axes; later axes are kept at 1."""
    ndim = 2 * spec.steps
    stop = ndim if stop is None else stop
    want = tuple(math.prod(spec.interleaved_shape[a] for a in _side_axes(s, stop)) for s in (0, 1))
    if table.shape != want:
        raise SpecMismatch(f"{what} table has shape {table.shape}, expected {want}")
    laid = _side_major(spec, table, 0, stop, inverse=True)
    return laid.reshape(laid.shape + (1,) * (ndim - stop))


def _side_laws(spec: AlphabetSpec, tables: Sequence[np.ndarray], side: int, tied: bool = False) -> list:
    """The step tables of ``side`` as nature's laws of its interleaved axes
    for :func:`solver.induction`, with ``None`` (the controller) on the
    other side's axes; ``tied`` tables are keyed by the side's own history."""
    laws = []
    for i, t in enumerate(tables):
        law = t.reshape(_step_shape(spec, side, i, tied=tied))
        laws += [None, law] if side else [law, None]
    return laws


def _path_weights(spec: AlphabetSpec, tables: Sequence[np.ndarray], side: int, tied: bool = False):
    """Product of one side's step tables as an interleaved array: input
    tables leave the ``y_n`` axis 1, and tables keyed by the side's own
    history (``tied``) leave every axis of the other side 1.  Tables
    stacked on leading axes give a stack of products."""
    ndim = 2 * spec.steps
    arr = np.ones((1,) * ndim)
    for i, t in enumerate(tables):
        arr = arr * t.reshape(t.shape[:-2] + _step_shape(spec, side, i, ndim, tied))
    return arr


def _expand_tied_table(spec: AlphabetSpec, side: int, i: int, tied: np.ndarray) -> np.ndarray:
    """Replicate a step table of ``side`` keyed by the side's own history
    across every axis of the other side in its prefix, into a new frozen
    array (see :func:`_frozen`)."""
    want = _table_shape(spec, side, i, tied=True)
    if tied.shape != want:
        raise SpecMismatch(f"step {i} table has shape {tied.shape}, expected {want}")
    out = np.empty(_table_shape(spec, side, i))
    out.reshape(_step_shape(spec, side, i))[...] = tied.reshape(_step_shape(spec, side, i, tied=True))
    return _frozen(out)


def _tied_rows(spec: AlphabetSpec, side: int, i: int, table: np.ndarray) -> np.ndarray:
    """A step table of ``side`` at index 0 of the other side's axes of its
    prefix: rows keyed by the side's own history alone.  One replica, not
    their mean, which can round, so a tied table gives back its own rows."""
    arr = table.reshape(_step_shape(spec, side, i))
    other = _side_axes(1 - side, _prefix_len(side, i))
    first = tuple(slice(None, 1) if a in other else slice(None) for a in range(arr.ndim))
    return arr[first].reshape(_table_shape(spec, side, i, tied=True))


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a read-only float array that no other reference can write.

    Value types take every array through :func:`_law_array`, which ends
    here: a float array that is already read-only and owns its memory (see
    :func:`_frozen`) is adopted as it is; anything else, such as an array
    the caller handed over, is copied.
    """
    if (
        isinstance(arr, np.ndarray)
        and arr.dtype == np.float64
        and not arr.flags.writeable
        and arr.base is None
    ):
        return arr
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array the package has just built, and holds no other
    reference to, as read-only, so that :func:`_as_readonly` adopts it
    uncopied.  Only an array that owns its memory is adopted: a view, such
    as a reshape of a fresh array, is still copied."""
    arr.setflags(write=False)
    return arr


def _check_laws(w: np.ndarray, what: str, tol: float = PMF_TOL, lead: Optional[int] = None) -> None:
    """Check that the float array ``w`` holds probability laws: finite,
    nonnegative, of mass 1 within ``tol``.  The laws are the rows on its
    trailing axis or, given ``lead``, the joints stacked on its first
    ``lead`` axes."""
    if lead is None:
        totals = _sum_axis(w, -1)
    else:
        # numpy's pairwise sum over each joint's cells, one pass and no
        # vector of ones as long as the joint
        totals = w.reshape(w.shape[:lead] + (-1,)).sum(axis=-1)
    gap = np.abs(totals - 1.0)
    worst = gap.max()
    # A finite worst gap rules out NaN and infinite entries, so the
    # entry-wise test runs only when it is not finite.
    if not math.isfinite(worst) and not np.all(np.isfinite(w)):
        raise DomainError(f"{what} contains non-finite entries")
    if w.min() < 0:
        raise DomainError(f"{what} contains negative entries")
    if worst > tol:
        if lead is None:
            raise DomainError(f"{what} rows must sum to 1 within {tol:g}; worst gap {worst:.3e}")
        raise DomainError(f"{what} mass is {float(totals.flat[gap.argmax()])!r}, not 1 within {tol:g}")


def _law_array(
    arr, shape: Optional[tuple], what: str, tol: float = PMF_TOL, lead: Optional[int] = None
) -> np.ndarray:
    """The one path by which value types take a law: ``arr`` as a float
    array of ``shape`` (any shape if ``None``), checked by
    :func:`_check_laws` and taken by :func:`_as_readonly`."""
    w = np.asarray(arr, dtype=float)
    if shape is not None and w.shape != shape:
        raise SpecMismatch(f"{what} has shape {w.shape}, expected {shape}")
    _check_laws(w, what, tol, lead)
    return _as_readonly(w)


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability vector on a finite set, dense and immutable."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise DomainError(f"Pmf weights must be one-dimensional, got shape {w.shape}")
        if w.size == 0:
            raise DomainError("Pmf must have at least one outcome")
        object.__setattr__(self, "weights", _law_array(w, None, "Pmf"))

    @property
    def size(self) -> int:
        return self.weights.size

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class InfoValue:
    """A nonnegative, possibly infinite information quantity in nats."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v):
            raise DomainError("information value is NaN")
        if v < 0:
            if v < -_NEG_CLAMP:
                raise DomainError(f"information value {v} is negative beyond rounding tolerance")
            v = 0.0
        object.__setattr__(self, "value", v)

    @property
    def bits(self) -> float:
        return self.value / math.log(2.0)

    def __float__(self) -> float:
        return self.value

    def __add__(self, other: "InfoValue") -> "InfoValue":
        if not isinstance(other, InfoValue):
            return NotImplemented
        return InfoValue(self.value + other.value)

    def __radd__(self, other):
        # lets sum() work with its integer start value
        if other == 0:
            return self
        return NotImplemented


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _check_tables(
    spec: AlphabetSpec,
    tables: Sequence[np.ndarray],
    side: int,
    what: str,
    lead: tuple[int, ...] = (),
) -> tuple[np.ndarray, ...]:
    """Validate the step tables of ``side`` to the kernel tolerance (see
    ``PMF_TOL``); with ``lead``, each table stacks that many kernels' tables
    on its leading axes."""
    if len(tables) != spec.steps:
        raise SpecMismatch(f"{what} needs {spec.steps} step tables, got {len(tables)}")
    tol = PMF_TOL / (4 * spec.steps)
    return tuple(
        _law_array(t, lead + _table_shape(spec, side, i), f"{what} table {i}", tol)
        for i, t in enumerate(tables)
    )


@dataclass(frozen=True, eq=False)
class _StepKernel:
    """Per-step laws of one side of the interleaved layout.

    ``tables[i]`` has one row per interleaved prefix before the step's own
    axis ``2i + side`` (row index = mixed-radix code of the prefix) and one
    column per symbol of the step's own alphabet.
    """

    spec: AlphabetSpec
    tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "tables", _check_tables(self.spec, self.tables, self._side, self._what))

    @classmethod
    def uniform(cls, spec: AlphabetSpec):
        side, sizes = cls._side, _side_sizes(spec, cls._side)
        tables = (_frozen(np.full(_table_shape(spec, side, i), 1.0 / k)) for i, k in enumerate(sizes))
        return cls(spec, tuple(tables))

    @classmethod
    def _from_log_tables(cls, spec: AlphabetSpec, log_tables: Sequence[np.ndarray]):
        """The kernel of log step tables, each row exponentiated and
        normalized; a row without mass becomes uniform."""
        shapes = (_table_shape(spec, cls._side, i) for i in range(spec.steps))
        tables = (_frozen(_normalize_rows(np.exp(t).reshape(s), s[1])) for t, s in zip(log_tables, shapes))
        return cls(spec, tuple(tables))

    @classmethod
    def _from_tied_tables(cls, spec: AlphabetSpec, tables: Sequence[np.ndarray]):
        """Build a kernel from tables keyed by the side's own history alone,
        replicated across the other side's."""
        if len(tables) != spec.steps:
            raise SpecMismatch(f"need {spec.steps} step tables, got {len(tables)}")
        side = cls._side
        full = (_expand_tied_table(spec, side, i, np.asarray(t, dtype=float)) for i, t in enumerate(tables))
        return cls(spec, tuple(full))


class BackwardKernel(_StepKernel):
    """Per-step input laws ``p_i(x_i | x^{i-1}, y^{i-1})``.

    ``tables[i]`` has one row per interleaved history prefix (row index =
    mixed-radix code of ``(x_0, y_0, ..., x_{i-1}, y_{i-1})``) and one
    column per symbol of ``X_i``.  The step-0 table has a single row.
    """

    _side, _what = 0, "backward kernel"

    @classmethod
    def from_feedback_free_tables(
        cls, spec: AlphabetSpec, tables: Sequence[np.ndarray]
    ) -> "BackwardKernel":
        """Build a kernel that ignores output history.

        ``tables[i]`` is keyed by ``x^{i-1}`` alone, shape
        ``(x_prefix_count(i), x_sizes[i])``; it is replicated across all
        ``y^{i-1}``.
        """
        return cls._from_tied_tables(spec, tables)


class ForwardKernel(_StepKernel):
    """Per-step output laws ``q_i(y_i | x^i, y^{i-1})``.

    ``tables[i]`` has one row per interleaved history prefix extended by the
    current input (row index = mixed-radix code of
    ``(x_0, y_0, ..., x_{i-1}, y_{i-1}, x_i)``) and one column per symbol
    of ``Y_i``.
    """

    _side, _what = 1, "forward kernel"

    @classmethod
    def from_input_free_tables(
        cls, spec: AlphabetSpec, tables: Sequence[np.ndarray]
    ) -> "ForwardKernel":
        """Build a kernel that ignores the whole input path.

        ``tables[i]`` is keyed by ``y^{i-1}`` alone, shape
        ``(y_prefix_count(i), y_sizes[i])``.
        """
        return cls._from_tied_tables(spec, tables)


def ignores_output_history(kernel: BackwardKernel, tol: float = 1e-12) -> bool:
    """True when every step table of ``kernel`` is constant across ``y^{i-1}``:
    each replica of a row is within ``tol`` of the one at ``y^{i-1} = 0``."""
    spec = kernel.spec
    for i, t in enumerate(kernel.tables):
        ref = _expand_tied_table(spec, 0, i, _tied_rows(spec, 0, i, t))
        if float(np.abs(t - ref).max()) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# dense measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JointMeasure:
    """Dense probability measure on the full path space, interleaved layout."""

    spec: AlphabetSpec
    weights: np.ndarray

    def __post_init__(self):
        w = _law_array(self.weights, self.spec.interleaved_shape, "joint", lead=0)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True, eq=False)
class ConditionedFamily:
    """Whole-path conditional laws, one probability row per conditioning path.

    ``given="x"`` holds ``Q(y^n | x^n)`` with rows indexed by ``X``-paths;
    ``given="y"`` holds ``P(x^n | y^{n-1})`` with rows indexed by
    ``Y_0..Y_{n-1}``-paths.  This is the level at which mixtures of kernels
    are taken; mixing per-step tables is not the same operation.
    """

    spec: AlphabetSpec
    given: Literal["x", "y"]
    table: np.ndarray

    def __post_init__(self):
        if self.given == "x":
            want = (self.spec.num_x_paths, self.spec.num_y_paths)
        elif self.given == "y":
            want = (self.spec.num_y_histories, self.spec.num_x_paths)
        else:
            raise DomainError(f'given must be "x" or "y", got {self.given!r}')
        object.__setattr__(self, "table", _law_array(self.table, want, "conditioned family"))


# ---------------------------------------------------------------------------
# layout helpers
# ---------------------------------------------------------------------------


def _sum_axis(w: np.ndarray, axis: int) -> np.ndarray:
    """Sum a C-ordered array over one axis in a single pass over its cells.

    A trailing axis is reduced by a matrix-vector product with ones, which
    beats numpy's ``sum`` there by an order of magnitude; any other by
    ``sum``.  Summing several axes one at a time this way beats a
    multi-axis ``sum``, which walks the array with short strides.
    """
    k = w.shape[axis]
    if axis in (-1, w.ndim - 1):
        return (w.reshape(-1, k) @ np.ones(k)).reshape(w.shape[:-1])
    return w.sum(axis=axis)


def _mass_log_ratio(mass: np.ndarray, den: np.ndarray, lead: int = 0):
    """``sum m log(m / d)`` over all but the first ``lead`` axes of
    ``mass``, with ``den`` broadcast against it and ``0 log(0 / d) = 0``;
    a float, or an array over the leading axes.

    Cells without mass get the quotient 1, so no masked copy is made.  A
    cell with mass over a zero ``den`` gives ``+inf`` (and a numpy
    warning, which callers that expect it silence).  Each sum is one
    row-by-column product, as fast as ``vdot`` on a single array.
    """
    ratio = np.divide(mass, den, out=np.ones_like(mass), where=mass > 0)
    np.log(ratio, out=ratio)
    lead_shape = mass.shape[:lead]
    return (mass.reshape(lead_shape + (1, -1)) @ ratio.reshape(lead_shape + (-1, 1)))[..., 0, 0]


def joint_path_matrix(joint: JointMeasure) -> np.ndarray:
    """Joint weights as a matrix with X-path rows and Y-path columns."""
    spec = joint.spec
    return _side_major(spec, joint.weights).reshape(spec.num_x_paths, spec.num_y_paths)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def build_joint(p: BackwardKernel, q: ForwardKernel) -> JointMeasure:
    """Joint path law induced by interleaving input and output steps.

    Cell ``(x^n, y^n)`` carries ``prod_i p_i(x_i|...) q_i(y_i|...)``.  The
    law is built prefix by prefix: a step table's row index is the code of
    the prefix it extends, so each step multiplies the prefix law by one
    table, and the whole build costs about two passes over the cells.
    """
    spec = _require_same_spec(p, q)
    return JointMeasure(spec, _frozen(_joint_weights(spec, p.tables, q.tables)))


def _joint_weights(
    spec: AlphabetSpec, p_tables: Sequence[np.ndarray], q_tables: Sequence[np.ndarray]
) -> np.ndarray:
    """The prefix-by-prefix product of :func:`build_joint`.  Either side's
    tables may stack kernels on one shared leading shape; the result then
    stacks the joints on it."""
    w = np.ones(())
    for i, (pt, qt) in enumerate(zip(p_tables, q_tables)):
        w = w[..., None] * pt.reshape(pt.shape[:-2] + _step_shape(spec, 0, i))
        w = w[..., None] * qt.reshape(qt.shape[:-2] + _step_shape(spec, 1, i))
    return w


def marginal_x(joint: JointMeasure) -> Pmf:
    """Input-path marginal, indexed by the row-major code of ``x^n``."""
    return Pmf(_marginal_weights(joint.weights, joint.spec.steps, 0).reshape(-1))


def marginal_y(joint: JointMeasure) -> Pmf:
    """Output-path marginal, indexed by the row-major code of ``y^n``."""
    return Pmf(_marginal_weights(joint.weights, joint.spec.steps, 1).reshape(-1))


def _marginal_weights(w: np.ndarray, steps: int, side: int) -> np.ndarray:
    """Path marginal of ``side`` of the interleaved weights ``w`` as an
    array with one axis per step of that side, after any leading axes
    ``w`` has."""
    lead = w.ndim - 2 * steps
    for i in range(steps):
        # the other side's step-i axis, once its earlier axes are gone
        w = _sum_axis(w, lead + i + 1 - side)
    return w


def product_pi_forward(p: BackwardKernel, nu: Pmf) -> JointMeasure:
    """Product of an input kernel with an output-path law: ``p (x|y) * nu(y)``.

    ``nu`` is copied across the input axes in whole contiguous blocks, the
    last time into the array the joint adopts, then scaled one ``y_n``
    column at a time by the input-path weights; a single broadcast over
    all axes would loop over only ``|Y_n|`` cells at a time.
    """
    spec = p.spec
    if nu.size != spec.num_y_paths:
        raise SpecMismatch(
            f"nu has {nu.size} outcomes, expected {spec.num_y_paths} output paths"
        )
    w = nu.weights
    for i in reversed(range(1, spec.steps)):
        # (y^{i-1}, 1, y_i, x_{i+1}, ...) -> (y^{i-1}, x_i, y_i, x_{i+1}, ...)
        w = np.repeat(w.reshape(spec.y_prefix_count(i), 1, -1), spec.x_sizes[i], axis=1)
    out = np.empty(spec.interleaved_shape)  # step 0's copy, as the loop's would be
    out.reshape(spec.x_sizes[0], -1)[...] = w.reshape(-1)
    cols = out.reshape(-1, spec.y_sizes[-1])
    a = _path_weights(spec, p.tables, 0).reshape(-1)
    for j in range(spec.y_sizes[-1]):
        cols[:, j] *= a
    return JointMeasure(spec, _frozen(out))


def product_pi_backward(mu: Pmf, q: ForwardKernel) -> JointMeasure:
    """Product of an input-path law with an output kernel: ``mu(x) * q(y|x)``."""
    spec = q.spec
    if mu.size != spec.num_x_paths:
        raise SpecMismatch(
            f"mu has {mu.size} outcomes, expected {spec.num_x_paths} input paths"
        )
    w = mu.weights.reshape(_tied_shape(spec, 0)) * _path_weights(spec, q.tables, 1)
    return JointMeasure(spec, _frozen(w))


DenseLike = Union[Pmf, JointMeasure, np.ndarray]


def _dense_weights(obj: DenseLike) -> np.ndarray:
    if isinstance(obj, Pmf):
        return obj.weights
    if isinstance(obj, JointMeasure):
        return obj.weights.reshape(-1)
    w = np.asarray(obj, dtype=float).reshape(-1)
    if not np.all((w >= 0) & (w < np.inf)):  # NaN fails both
        raise DomainError("an array operand must have finite nonnegative entries")
    return w


def kl_divergence(a: DenseLike, b: DenseLike) -> InfoValue:
    """Relative entropy ``D(a || b)`` in nats over a shared index space.

    Cells with ``a = 0`` contribute nothing; a cell with ``a > 0`` and
    ``b = 0`` makes the divergence infinite.  An array operand need not sum
    to 1, but a negative or non-finite entry raises :class:`DomainError`.
    """
    wa = _dense_weights(a)
    wb = _dense_weights(b)
    if wa.shape != wb.shape:
        raise SpecMismatch(f"operands index different spaces: {wa.shape} vs {wb.shape}")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        total = _mass_log_ratio(wa, wb)
    if math.isfinite(total):
        return InfoValue(total)
    pos = wa > 0
    if np.any(pos & (wb <= 0)):
        return InfoValue(math.inf)
    # Some quotient left the float range (b subnormal against a, or the
    # reverse); the difference of logarithms stays finite.
    logs = np.log(wa, out=np.zeros_like(wa), where=pos)
    logs -= np.log(wb, out=np.zeros_like(wb), where=pos)
    return InfoValue(float(wa @ logs))


# ---------------------------------------------------------------------------
# extraction, conditioning, mixing, refactoring
# ---------------------------------------------------------------------------


def extract_backward_family(joint: JointMeasure) -> BackwardKernel:
    """Per-step input conditionals of a joint; uniform rows where the
    conditioning history has zero mass."""
    return BackwardKernel(joint.spec, _conditionals(joint.spec, joint.weights, 0))


def extract_forward_family(joint: JointMeasure) -> ForwardKernel:
    """Per-step output conditionals of a joint; uniform rows where the
    conditioning history has zero mass."""
    return ForwardKernel(joint.spec, _conditionals(joint.spec, joint.weights, 1))


def _conditionals(spec: AlphabetSpec, w: np.ndarray, side: int, lead: int = 0) -> tuple[np.ndarray, ...]:
    """The step conditionals of ``side`` of the interleaved axes of ``w``
    (those up to the side's last step at least) after its ``lead`` leading
    ones: ``w`` summed over the axes after each step's, rows normalized,
    uniform where they sum to 0."""
    lead_shape = w.shape[:lead]
    tables = []
    for i, k in enumerate(_side_sizes(spec, side)):
        later = tuple(range(lead + _prefix_len(side, i), w.ndim))
        m = w.sum(axis=later) if later else w  # an empty sum would copy a strided view
        tables.append(_frozen(_normalize_rows(m.reshape(lead_shape + _table_shape(spec, side, i)), k)))
    return tuple(tables)


def _normalize_rows(rows: np.ndarray, width: int) -> np.ndarray:
    """``rows`` scaled to sum to 1 along the trailing axis, as a new array;
    uniform where a row sums to 0."""
    den = rows.sum(axis=-1, keepdims=True)
    return np.divide(rows, den, out=np.full_like(rows, 1.0 / width), where=den > 0)


def condition_on_path(kernel: Union[BackwardKernel, ForwardKernel]) -> ConditionedFamily:
    """Collapse a per-step family into whole-path conditional rows.

    A forward kernel becomes ``Q(y^n | x^n)``; a backward kernel becomes
    ``P(x^n | y^{n-1})``.  Either way the rows are the other side's paths.
    """
    if not isinstance(kernel, _StepKernel):
        raise TypeError(f"expected a kernel, got {type(kernel).__name__}")
    side = kernel._side
    table = _frozen(_path_table(kernel.spec, kernel.tables, side))
    return ConditionedFamily(kernel.spec, "x" if side else "y", table)


def _path_table(spec: AlphabetSpec, tables: Sequence[np.ndarray], side: int) -> np.ndarray:
    """The rows of :func:`condition_on_path` for the step tables of
    ``side``; tables stacked on leading axes give tables stacked on them.
    The table owns its memory, whatever the layout, so that
    :func:`_frozen` can hand it over uncopied."""
    lead = tables[0].ndim - 2
    w = _path_weights(spec, tables, side)  # a backward kernel's y_n axis is 1
    rows = _side_major(spec, w, 1 - side, lead=lead)
    cols = math.prod(_side_sizes(spec, side))
    table = np.empty(w.shape[:lead] + (math.prod(rows.shape[lead:]) // cols, cols))
    table.reshape(rows.shape)[...] = rows  # a reshape of a fresh array is a view of it
    return table


def mix_conditioned(
    a: ConditionedFamily, b: ConditionedFamily, lam: float
) -> ConditionedFamily:
    """Convex combination ``lam * a + (1 - lam) * b`` at the path level."""
    return ConditionedFamily(a.spec, a.given, _mix_tables(a, b, lam))


def _mix_tables(a: ConditionedFamily, b: ConditionedFamily, lams) -> np.ndarray:
    """``lam * a + (1 - lam) * b`` for a weight or an array of weights,
    stacked on the weights' shape."""
    _require_same_spec(a, b)
    if a.given != b.given:
        raise SpecMismatch(f"cannot mix families conditioned on {a.given!r} and {b.given!r}")
    lam = np.asarray(lams, dtype=float)
    bad = lam[~((lam >= 0.0) & (lam <= 1.0))]
    if bad.size:
        raise DomainError(f"mixture weight must lie in [0, 1], got {float(bad[0])!r}")
    lam = lam[..., None, None]
    mixed = lam * a.table
    mixed += (1.0 - lam) * b.table
    return mixed


def _mixture_tables(
    a: ConditionedFamily, b: ConditionedFamily, lams: Sequence[float]
) -> tuple[np.ndarray, ...]:
    """Step tables of ``refactor_to_kernel(mix_conditioned(a, b, lam))``
    for every ``lam``, stacked on a leading axis in one pass.  The mixed
    rows and the step tables are validated like the families and kernels
    they stand for."""
    mixed = _mix_tables(a, b, lams)
    _check_laws(mixed, "conditioned family")
    kernel, tables = _refactor_tables(a.spec, a.given, mixed)
    return _check_tables(a.spec, tables, kernel._side, kernel._what, mixed.shape[:-2])


def refactor_to_kernel(family: ConditionedFamily) -> Union[BackwardKernel, ForwardKernel]:
    """Rewrite whole-path conditional rows as a per-step kernel.

    The result is the extracted family of the table laid out interleaved:
    the step-``i`` table is the conditional of the family's marginal after
    averaging uniformly over conditioning coordinates beyond the step's own
    history, and that mean is a sum over them divided by one constant per
    row, which cancels when the row is normalized.  For families that
    already factor causally this inverts :func:`condition_on_path` exactly;
    rows whose denominator vanishes fall back to uniform.
    """
    kernel, tables = _refactor_tables(family.spec, family.given, family.table)
    return kernel(family.spec, tables)


def _refactor_tables(spec: AlphabetSpec, given: str, table: np.ndarray):
    """The kernel class and the step tables of :func:`refactor_to_kernel`
    for a conditioned table of shape ``(..., rows, cols)``, the tables
    stacked on the same leading axes."""
    kernel = ForwardKernel if given == "x" else BackwardKernel
    side, lead = kernel._side, table.ndim - 2
    # the rows are the other side's paths, Q(y^n | x^n) or P(x^n | y^{n-1}),
    # laid out on the interleaved axes up to the kernel's last step
    cond = _side_major(spec, table, 1 - side, _prefix_len(side, spec.horizon_n), lead, inverse=True)
    return kernel, _conditionals(spec, cond, side, lead)
