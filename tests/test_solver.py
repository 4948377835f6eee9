import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirinfo as di
from dirinfo.solver import (
    MERIT_SLACK,
    SolverConfig,
    StepSchedule,
    exp_update_rows,
    grid_batches,
    joint_terms,
    logsumexp,
    monotone_improve,
    simplex_grid,
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_defaults_and_validation():
    cfg = SolverConfig()
    assert cfg.tol == 1e-9 and cfg.multiplier_tol == 1e-6
    for bad in (
        dict(tol=0.0),
        dict(tol=-1e-9),
        dict(max_iters=0),
        dict(multiplier_tol=0.0),
    ):
        with pytest.raises(di.DomainError):
            SolverConfig(**bad)


# ---------------------------------------------------------------------------
# multiplicative updates
# ---------------------------------------------------------------------------


def test_exp_update_keeps_rows_stochastic_and_zeros_fixed():
    rows = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
    grad = np.array([[1.0, -1.0, 100.0], [0.0, 0.0, 0.0]])
    out = exp_update_rows(rows, grad, 0.7)
    assert np.allclose(out.sum(axis=1), 1.0)
    assert out[0, 2] == 0.0
    assert out[0, 0] > rows[0, 0]
    # zero gradient leaves the row untouched
    assert np.allclose(out[1], rows[1])


def test_exp_update_survives_infinite_penalties():
    rows = np.array([[0.25, 0.25, 0.5]])
    grad = np.array([[0.0, -np.inf, 0.0]])
    out = exp_update_rows(rows, grad, 1.0)
    assert np.all(np.isfinite(out))
    assert out[0, 1] == pytest.approx(0.0, abs=1e-300)
    assert np.allclose(out.sum(axis=1), 1.0)


def test_exp_update_zero_step_is_identity_on_support():
    rng = np.random.default_rng(0)
    rows = rng.dirichlet(np.ones(4), size=3)
    grad = rng.normal(size=(3, 4))
    out = exp_update_rows(rows, grad, 0.0)
    assert np.allclose(out, rows)


def test_step_schedule_halves_on_reject_and_grows_slowly():
    s = StepSchedule()
    start = s.current()
    s.reject()
    assert s.current() == pytest.approx(start / 2)
    for _ in range(30):
        s.accept()
    assert s.base == pytest.approx(1.0)  # grew back from 0.5
    assert not s.exhausted
    for _ in range(60):
        s.reject()
    assert s.exhausted


# ---------------------------------------------------------------------------
# the monotone inner loop on a problem with a known answer
# ---------------------------------------------------------------------------


def test_monotone_improve_maximizes_entropy():
    # max of sum(-p log p) over the 4-simplex is log 4 at uniform
    def value(tables):
        p = tables[0][0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(p > 0, p * np.log(p), 0.0)
        return -float(t.sum())

    def grad(tables):
        p = tables[0][0]
        with np.errstate(divide="ignore"):
            g = -np.log(np.where(p > 0, p, 1.0)) - 1.0
        return [g[None, :]]

    start = [np.array([[0.7, 0.1, 0.1, 0.1]])]
    tabs, merit, iters, conv = monotone_improve(value, grad, start, 1.0, 1e-12, 10_000)
    assert conv
    assert merit == pytest.approx(math.log(4), abs=1e-9)
    assert np.allclose(tabs[0], 0.25, atol=1e-5)


def test_monotone_improve_never_regresses():
    # every accepted merit must be within MERIT_SLACK of monotone
    seen = []

    def value(tables):
        p = tables[0][0]
        v = -float(((p - np.array([0.1, 0.2, 0.7])) ** 2).sum())
        return v

    def grad(tables):
        p = tables[0][0]
        return [(-2.0 * (p - np.array([0.1, 0.2, 0.7])))[None, :]]

    def tracked(tables):
        v = value(tables)
        seen.append(v)
        return v

    start = [np.array([[1 / 3, 1 / 3, 1 / 3]])]
    _, merit, _, conv = monotone_improve(tracked, grad, start, 1.0, 1e-11, 5_000)
    assert conv
    assert merit == pytest.approx(0.0, abs=1e-8)
    best = seen[0]
    for v in seen[1:]:
        if v >= best - MERIT_SLACK:
            best = max(best, v)
    assert merit <= best + 1e-15


def test_monotone_improve_descends_with_negative_sign():
    def value(tables):
        p = tables[0][0]
        return float((p * np.array([3.0, 1.0, 2.0])).sum())

    def grad(tables):
        return [np.array([[3.0, 1.0, 2.0]])]

    start = [np.full((1, 3), 1 / 3)]
    tabs, merit, _, conv = monotone_improve(value, grad, start, -1.0, 1e-12, 10_000)
    assert conv
    assert merit == pytest.approx(1.0, abs=1e-6)
    assert tabs[0][0, 1] == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# simplex grids
# ---------------------------------------------------------------------------


@given(st.integers(1, 12), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_simplex_grid_counts_and_sums(res, dim):
    g = simplex_grid(res, dim)
    assert g.shape == (math.comb(res + dim - 1, dim - 1), dim)
    assert np.allclose(g.sum(axis=1), 1.0)
    assert np.all(g >= 0)
    # all points distinct
    assert len({tuple(row) for row in g}) == g.shape[0]


def test_simplex_grid_small_cases():
    g = simplex_grid(2, 2)
    assert sorted(map(tuple, g)) == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
    assert simplex_grid(7, 1).tolist() == [[1.0]]
    with pytest.raises(di.DomainError):
        simplex_grid(0, 2)
    with pytest.raises(di.DomainError):
        simplex_grid(3, 0)


def test_grid_batches_enumerate_every_combination_once():
    # one row on the 2-simplex, then two rows on the 3-simplex; batches of 3
    seen = []
    for tabs in grid_batches((1, 2), (2, 3), 2, 10**6, chunk_cells=7, point_cells=2):
        assert [t.shape[1:] for t in tabs] == [(1, 2), (2, 3)]
        assert len(tabs[0]) <= 3
        for k in range(len(tabs[0])):
            seen.append(tuple(np.concatenate([t[k].ravel() for t in tabs])))
    assert len(seen) == 3 * 6 * 6
    assert len(set(seen)) == len(seen)


def test_grid_batches_raise_before_enumerating():
    with pytest.raises(di.GridTooLarge):
        grid_batches((1, 2), (2, 3), 2, 107, 100, 1)
    with pytest.raises(di.DomainError):
        grid_batches((1,), (2,), 0, 10, 100, 1)


# ---------------------------------------------------------------------------
# the evaluation kernel
# ---------------------------------------------------------------------------


def test_joint_terms_match_the_evaluator_batched_or_not():
    from dirinfo.measures import _output_path_weights, build_joint
    from dirinfo.sampling import random_backward_kernel, random_forward_kernel, rng_from_seed

    rng = rng_from_seed(5)
    spec = di.AlphabetSpec(1, (2, 3), (3, 2))
    q = random_forward_kernel(rng, spec)
    p_free = random_backward_kernel(rng, spec)
    p_zero = di.BackwardKernel(spec, (np.array([[1.0, 0.0]]), p_free.tables[1]))
    log_q = np.log(_output_path_weights(spec, q.tables))
    cost = np.ones(spec.interleaved_shape)
    cost[1] = np.inf  # reached only when x_0 = 1 has mass
    kernels = (p_zero, p_free)
    ws = [build_joint(p, q).weights for p in kernels]
    _, info, spent = joint_terms(np.stack(ws), log_q, cost, batch=True)
    for k, (p, w) in enumerate(zip(kernels, ws)):
        log_ratio, one_info, one_spent = joint_terms(w, log_q, cost)
        assert float(one_info) == pytest.approx(di.directed_information(p, q), abs=1e-12)
        assert info[k] == pytest.approx(float(one_info), abs=1e-15)
        assert spent[k] == one_spent
        assert np.all(log_ratio[w == 0] == 0.0)
    assert spent[0] == pytest.approx(1.0, abs=1e-15) and spent[1] == np.inf
    assert joint_terms(ws[0], log_q)[2] == 0.0


def test_logsumexp_is_shifted_and_keeps_empty_rows():
    a = np.array([[0.0, -1.0, -np.inf], [-np.inf, -np.inf, -np.inf], [-1000.0, -1001.0, -1002.0]])
    got = logsumexp(a)
    assert got[0] == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-15)
    assert got[1] == -np.inf
    assert got[2] == pytest.approx(-1000.0 + math.log(1.0 + math.exp(-1.0) + math.exp(-2.0)), abs=1e-12)
    cube = np.log(np.arange(1.0, 25.0)).reshape(2, 3, 4)
    both = logsumexp(cube, axis=(0, 2), keepdims=True)
    assert both.shape == (1, 3, 1)
    assert np.allclose(np.exp(both).ravel(), np.exp(cube).sum(axis=(0, 2)), rtol=1e-14)
