"""Seeded random generators for specs, kernels, and measures.

All draws route through ``numpy.random.Generator`` so any suite run is
reproducible from a single integer seed.  Row distributions are Dirichlet
with an optional mass floor to keep logs bounded in stress tests.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .measures import AlphabetSpec, BackwardKernel, ForwardKernel, Pmf, _frozen, _table_shape


def rng_from_seed(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def _rows(rng: np.random.Generator, shape: tuple[int, int], min_mass: float) -> np.ndarray:
    """Dirichlet rows lifted to at least ``min_mass``, as a frozen array
    (see :func:`~dirinfo.measures._frozen`) that a kernel adopts."""
    rows = rng.dirichlet(np.ones(shape[1]), size=shape[0])
    if min_mass > 0.0:
        rows *= 1.0 - shape[1] * min_mass
        rows += min_mass
    # Defensive renormalization against accumulated rounding, in place.
    # numpy adds fewer than 8 terms left to right, so below that width
    # adding the columns in order gives its row sums bit for bit, without
    # its slow pass along a short trailing axis.
    cols = rows.T
    rows /= (sum(cols[1:], cols[0]) if len(cols) < 8 else rows.sum(axis=-1))[:, None]
    return _frozen(rows)


def random_pmf(rng: np.random.Generator, size: int, min_mass: float = 0.0) -> Pmf:
    return Pmf(_rows(rng, (1, size), min_mass)[0])


def _random_kernel(
    rng: np.random.Generator, spec: AlphabetSpec, kernel: type, min_mass: float, tied: bool = False
):
    """A ``kernel`` of random step tables, drawn step by step; ``tied``
    tables are keyed by the kernel side's own history alone."""
    side = kernel._side
    tables = tuple(_rows(rng, _table_shape(spec, side, i, tied), min_mass) for i in range(spec.steps))
    return kernel._from_tied_tables(spec, tables) if tied else kernel(spec, tables)


def random_backward_kernel(
    rng: np.random.Generator, spec: AlphabetSpec, min_mass: float = 0.0
) -> BackwardKernel:
    return _random_kernel(rng, spec, BackwardKernel, min_mass)


def random_forward_kernel(
    rng: np.random.Generator, spec: AlphabetSpec, min_mass: float = 0.0
) -> ForwardKernel:
    return _random_kernel(rng, spec, ForwardKernel, min_mass)


def random_feedback_free_kernel(
    rng: np.random.Generator, spec: AlphabetSpec, min_mass: float = 0.0
) -> BackwardKernel:
    """Input law whose step tables ignore the output history."""
    return _random_kernel(rng, spec, BackwardKernel, min_mass, tied=True)


def random_input_free_kernel(
    rng: np.random.Generator, spec: AlphabetSpec, min_mass: float = 0.0
) -> ForwardKernel:
    """Channel whose step tables ignore the input entirely."""
    return _random_kernel(rng, spec, ForwardKernel, min_mass, tied=True)


def random_spec(
    rng: np.random.Generator, max_horizon: int = 2, max_size: int = 3
) -> AlphabetSpec:
    """Small random problem shape: horizon up to ``max_horizon`` and
    alphabet sizes in 2..``max_size``."""
    n = int(rng.integers(0, max_horizon + 1))
    xs = tuple(int(rng.integers(2, max_size + 1)) for _ in range(n + 1))
    ys = tuple(int(rng.integers(2, max_size + 1)) for _ in range(n + 1))
    return AlphabetSpec(n, xs, ys)
