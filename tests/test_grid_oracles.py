"""The grid oracles against a pure-Python grid search over the same kernels.

``oracles.oracle_grid_capacity`` and ``oracles.oracle_grid_nrdf`` enumerate
every kernel whose rows are simplex-grid points, build each joint path by
path and evaluate it with the dict-based reference evaluators.  The
package's oracles must agree to 1e-12 and raise the same errors.
"""
import math
import random
import tracemalloc

import numpy as np
import pytest

import dirinfo as di
from dirinfo import sampling, solver
from dirinfo.capacity import PowerConstraint, brute_force_capacity, expected_cost
from dirinfo.nrdf import DistortionConstraint, SourceSpec, brute_force_nrdf

from helpers import forward_kernel_from_fn, random_kernel_fn
from oracles import (
    all_paths,
    capacity_grid_rows,
    nrdf_grid_rows,
    oracle_grid_capacity,
    oracle_grid_nrdf,
    oracle_grid_size,
)


def _outcome(call):
    try:
        return float(call())
    except (di.GridTooLarge, di.InfeasibleConstraint) as exc:
        return type(exc)


def _expected(rows, resolution, max_grid_points, search):
    if oracle_grid_size(rows, resolution) > max_grid_points:
        return di.GridTooLarge
    best = search()
    return di.InfeasibleConstraint if best is None else best


def _assert_same(got, want):
    if isinstance(want, float):
        assert isinstance(got, float), got
        assert got == pytest.approx(want, abs=1e-12)
    else:
        assert got is want


def _table(fn, rows, cols):
    return np.array([[fn(a, b) for b in all_paths(cols)] for a in all_paths(rows)], dtype=float)


def _deterministic(i, xs, ys):
    # the output repeats the input, flipped after an output of 1
    y = (xs[-1] + (ys[-1] if ys else 0)) % 2
    return [1.0 - y, float(y)]


def _final_symbol(xs, ys):
    return float(xs[-1])


def _forbid_prefix(prefix):
    def cost(xs, ys):
        return math.inf if xs[: len(prefix)] == prefix else 0.3 * sum(xs) + 0.1 * sum(ys)
    return cost


def _paid_history(xs, ys):
    # a price on x_0, x_n and y_0, so that rows and columns of the table
    # both matter
    return 0.5 * xs[0] + float(xs[-1]) + 0.2 * ys[0]


CAPACITY_CASES = {
    # name: (x_sizes, y_sizes, channel, cost or None, budget, resolution, no_feedback)
    "deterministic": ((2, 2), (2, 2), _deterministic, None, 0.0, 2, False),
    "deterministic-no-feedback": ((2, 2), (2, 2), _deterministic, None, 0.0, 3, True),
    "sparse": ((2, 2), (2, 2), "sparse", None, 0.0, 2, False),
    "sparse-no-feedback": ((2, 2), (2, 2), "sparse", None, 0.0, 4, True),
    "inf-cost-row": ((2, 2), (2, 2), "dense", _forbid_prefix((1, 1)), 0.37, 2, False),
    "inf-cost-row-no-feedback": ((2, 2), (2, 2), "sparse", _forbid_prefix((1, 1)), 0.37, 3, True),
    # every path after x_0 = 1 is forbidden, which an input avoids by
    # putting no mass on x_0 = 1
    "inf-cost-prefix-no-feedback": ((2, 2), (2, 2), "dense", _forbid_prefix((1,)), 0.37, 3, True),
    "inf-cost-prefix-no-feedback-sparse": ((2, 2), (2, 2), "sparse", _forbid_prefix((1,)), 0.37, 3, True),
    "budget": ((2, 2), (2, 2), _deterministic, _final_symbol, 0.25, 2, False),
    "ternary": ((3,), (2,), "dense", None, 0.0, 4, False),
    "ternary-budget": ((3,), (3,), "sparse", _final_symbol, 0.6, 4, False),
    "infeasible": ((2,), (2,), "dense", lambda xs, ys: 1.0 + xs[-1], 0.5, 4, False),
    # unequal per-step alphabets; at resolution 1 every feedback kernel is
    # deterministic, with directed information 0, and at resolution 2 the
    # input sizes (2, 3) give 139,968 feedback kernels, too many for the
    # pure-Python search, so the feedback case keeps x at (2, 2)
    "unequal-alphabets": ((2, 2), (3, 2), "dense", _paid_history, 0.5, 2, False),
    "unequal-alphabets-no-feedback": ((2, 3), (3, 2), "dense", _paid_history, 0.8, 2, True),
}


def _capacity_case(name):
    """The channel function, kernel and constraint of ``CAPACITY_CASES[name]``."""
    xs, ys, channel, cost_fn, budget = CAPACITY_CASES[name][:5]
    spec = di.AlphabetSpec(len(xs) - 1, xs, ys)
    if isinstance(channel, str):
        channel = random_kernel_fn(random.Random(name), ys, sparse=channel == "sparse")
    c = None if cost_fn is None else PowerConstraint(_table(cost_fn, xs, ys[:-1]), budget)
    return channel, forward_kernel_from_fn(spec, channel), c


# Cells per oracle block: 7 splits every grid into blocks of one
# combination, the default holds each grid here in one block or a few,
# and 2**40 any grid in one; "capped" keeps the default block and caps the
# grid at 100 combinations.
BLOCKS = ["7-cells", "default", "whole-grid", "capped"]


def _blocks(monkeypatch, blocks):
    """The grid cap of the case ``blocks``, with its block size set."""
    cells = {"7-cells": 7, "whole-grid": 2**40}.get(blocks)
    if cells is not None:
        monkeypatch.setattr(solver, "GRID_BLOCK_CELLS", cells)
    return 100 if blocks == "capped" else 2_000_000


@pytest.mark.parametrize("name", sorted(CAPACITY_CASES))
@pytest.mark.parametrize("blocks", BLOCKS)
def test_capacity_oracle_matches_the_pure_python_search(name, blocks, monkeypatch):
    xs, ys, _, cost_fn, budget, res, no_feedback = CAPACITY_CASES[name]
    channel, q, c = _capacity_case(name)
    max_grid_points = _blocks(monkeypatch, blocks)
    got = _outcome(lambda: brute_force_capacity(
        q, c, grid_resolution=res, no_feedback=no_feedback, max_grid_points=max_grid_points,
    ))
    want = _expected(
        capacity_grid_rows(xs, ys, no_feedback), res, max_grid_points,
        lambda: oracle_grid_capacity(xs, ys, channel, res, cost_fn, budget, no_feedback),
    )
    _assert_same(got, want)


@pytest.mark.parametrize("name", ["inf-cost-prefix-no-feedback", "inf-cost-prefix-no-feedback-sparse"])
def test_no_feedback_solver_avoids_a_forbidden_prefix(name):
    _, q, c = _capacity_case(name)
    result = di.solve_capacity(q, c, no_feedback=True)
    assert result.converged
    res = CAPACITY_CASES[name][5]
    assert float(result.value) >= float(brute_force_capacity(q, c, grid_resolution=res, no_feedback=True)) - 1e-12
    assert expected_cost(result.argmax, q, c) <= c.budget + 1e-9


def _hamming(xs, ys):
    return float(sum(a != b for a, b in zip(xs, ys)))


def _forbid_cell(x, y):
    def dist(xs, ys):
        return math.inf if (xs, ys) == (x, y) else _hamming(xs, ys)
    return dist


NRDF_CASES = {
    # name: (x_sizes, y_sizes, source rows by step, distortion, budget, resolution)
    "inf-cell": ((2,), (2,), [[[0.5, 0.5]]], _forbid_cell((0,), (1,)), 0.3, 4),
    "markov": ((1, 2), (2, 2), [[[1.0]], [[0.7, 0.3]]], _forbid_cell((0, 1), (1, 0)), 0.2, 2),
    "ternary-zero-mass": ((3,), (2,), [[[0.5, 0.5, 0.0]]],
                          lambda xs, ys: math.inf if xs == (2,) else float(xs[0] != ys[0]), 0.4, 4),
    "infeasible": ((2,), (2,), [[[0.5, 0.5]]], lambda xs, ys: 1.0 + _hamming(xs, ys), 0.5, 4),
    "unequal-alphabets": ((1, 2), (3, 2), [[[1.0]], [[0.7, 0.3]]],
                          lambda xs, ys: float(xs[1] != ys[1]) + 0.25 * ys[0], 0.2, 2),
}


@pytest.mark.parametrize("name", sorted(NRDF_CASES))
@pytest.mark.parametrize("blocks", BLOCKS)
def test_nrdf_oracle_matches_the_pure_python_search(name, blocks, monkeypatch):
    xs, ys, rows, dist_fn, budget, res = NRDF_CASES[name]
    max_grid_points = _blocks(monkeypatch, blocks)
    spec = di.AlphabetSpec(len(xs) - 1, xs, ys)
    src = SourceSpec.from_step_tables(spec, [np.array(t) for t in rows])
    codes = [{p: k for k, p in enumerate(all_paths(xs[:i]))} for i in range(len(xs))]

    def p_fn(i, x_prefix, y_prefix):
        return rows[i][codes[i][x_prefix]]

    d = DistortionConstraint(_table(dist_fn, xs, ys), budget)
    got = _outcome(lambda: brute_force_nrdf(src, d, grid_resolution=res, max_grid_points=max_grid_points))
    want = _expected(
        nrdf_grid_rows(xs, ys), res, max_grid_points,
        lambda: oracle_grid_nrdf(xs, ys, p_fn, dist_fn, budget, res),
    )
    _assert_same(got, want)


def _peak_mb(call):
    """The most memory ``call`` holds at once, in MB, as tracemalloc sees
    numpy's buffers."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_oracle_memory_stays_bounded_on_large_grids():
    # 251,001 kernels of the uniform binary source under Hamming distortion,
    # and 161,051 inputs of the seed-1 binary n=1 channel (the benchmark's
    # grid oracles): a call used to hold arrays for about 500,000 cells at
    # once, over 30 MB
    spec = di.AlphabetSpec(0, (2,), (2,))
    src = SourceSpec(di.BackwardKernel.uniform(spec))
    hamming = DistortionConstraint(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.2)
    assert _peak_mb(lambda: brute_force_nrdf(src, hamming, grid_resolution=500)) < 8
    spec = di.AlphabetSpec(1, (2, 2), (2, 2))
    q = sampling.random_forward_kernel(sampling.rng_from_seed(1), spec, min_mass=0.01)
    assert _peak_mb(lambda: brute_force_capacity(q, grid_resolution=10)) < 8
