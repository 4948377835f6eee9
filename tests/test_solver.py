import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirinfo as di
from dirinfo.solver import (
    SolverConfig,
    grid_batches,
    induction,
    logsumexp,
    match_budget,
    relax,
    simplex_grid,
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_defaults_and_validation():
    cfg = SolverConfig()
    assert cfg.tol == 1e-9 and cfg.multiplier_tol == 1e-6
    assert SolverConfig(max_iters=np.int64(3)).max_iters == 3
    for bad in (
        dict(tol=0.0),
        dict(tol=-1e-9),
        dict(tol=math.inf),
        dict(tol=math.nan),
        dict(max_iters=0),
        dict(max_iters=3.5),
        dict(max_iters=True),
        dict(multiplier_tol=0.0),
        dict(multiplier_tol=math.inf),
    ):
        with pytest.raises(di.DomainError):
            SolverConfig(**bad)


# ---------------------------------------------------------------------------
# the multiplier search
# ---------------------------------------------------------------------------


def falling_cost(probes):
    """A continuous decreasing cost ``1 / (1 + lam)``; the state names the
    multiplier it was made at, and every probe is recorded."""
    def update(lam):
        probes.append(lam)
        return ("state", lam), 1.0 / (1.0 + lam)

    return update


@pytest.mark.parametrize("start", [0.0, 0.5, 1.0, 30.0])
def test_match_budget_returns_zero_when_zero_is_feasible(start):
    probes = []
    state, cost, lam = match_budget(falling_cost(probes), 1.5, start, 1e-12)
    assert lam == 0.0 and cost == 1.0 and state == ("state", 0.0)
    assert probes[-1] == 0.0 and len(probes) <= 2


@pytest.mark.parametrize("slack", [1e-3, 1e-8, 1e-11])
@pytest.mark.parametrize("start", [0.0, 0.5, 1.0, 9.0, 1e4])
def test_match_budget_stops_on_the_feasible_side_within_the_slack(start, slack):
    # cost = budget at lam = 9
    probes = []
    state, cost, lam = match_budget(falling_cost(probes), 0.1, start, slack)
    assert state == ("state", lam) and cost == 1.0 / (1.0 + lam)
    assert cost <= 0.1
    assert lam * (0.1 - cost) <= slack
    assert min(probes) >= 0.0 and len(probes) < 60


def test_match_budget_raises_when_the_budget_is_out_of_reach():
    # the cost meets the budget only at lam = 1e13, past the cap of 1e12
    probes = []
    with pytest.raises(di.InfeasibleConstraint):
        match_budget(falling_cost(probes), 1e-13, 1.0, 1e-9)
    assert max(probes) <= 1e12 and 2.0 * max(probes) > 1e12
    with pytest.raises(di.InfeasibleConstraint):
        match_budget(lambda lam: (None, 2.0), 1.0, 1.0, 1e-9)


def test_match_budget_bisects_away_from_an_infinite_cost():
    # infeasible only at lam = 0, where the cost is infinite: false position
    # against it would probe the feasible end again and again
    probes = []

    def update(lam):
        probes.append(lam)
        return None, math.inf if lam == 0.0 else 0.0

    _, cost, lam = match_budget(update, 0.3, 1.0, 1e-6)
    assert cost == 0.0 and 0.0 < lam and lam * 0.3 <= 1e-6
    assert len(probes) < 30 and len(set(probes)) == len(probes)


# ---------------------------------------------------------------------------
# the relaxed iteration on a toy map with a known merit
# ---------------------------------------------------------------------------


def _shrink(rate, steps):
    """``relax``'s callables for the iterate ``x`` moving ``mu`` times the
    way to the fixed point of ``x -> rate * x`` from wherever it is, with
    merit ``-|x|``; each update's ``(x, mu)`` goes on ``steps``."""

    def advance(x, point, mu):
        steps.append((x, mu))
        return x + mu * (rate * x - x)

    return (lambda x: (-abs(x),)), advance


def test_relax_grows_the_step_to_its_cap_and_honours_max_iters():
    steps = []
    evaluate, advance = _shrink(0.9, steps)  # no step up to 4 overshoots
    x, point, k = relax(evaluate, advance, 1.0, lambda x, point, k: False, 20)
    assert k == len(steps) == 20
    mus = [mu for _, mu in steps]
    assert mus == pytest.approx([min(1.1 ** i, 4.0) for i in range(20)], rel=1e-12)
    assert mus[0] == 1.0 and mus[-1] == 4.0
    assert point == (-abs(x),) and x == pytest.approx(math.prod(1.0 - 0.1 * mu for mu in mus))


def test_relax_undoes_an_update_that_loses_merit_and_retakes_it_at_one():
    # with rate 0.2 a step mu > 2.5 overshoots past -x: first at mu = 1.1^10
    steps = []
    evaluate, advance = _shrink(0.2, steps)
    relax(evaluate, advance, 1.0, lambda x, point, k: False, 20)
    undone = [j for j, (x, mu) in enumerate(steps) if abs(x + mu * (0.2 * x - x)) > abs(x)]
    assert undone[0] == 10 and steps[10][1] == pytest.approx(1.1 ** 10)
    for j in undone:
        assert steps[j][1] > 1.0
        assert steps[j + 1] == (steps[j][0], 1.0)  # from the kept iterate, at mu = 1
        assert steps[j + 2][1] == pytest.approx(1.1)
    # the undone update counts toward max_iters, and the kept iterate is returned
    steps.clear()
    x, point, k = relax(evaluate, advance, 1.0, lambda x, point, k: False, 11)
    assert k == len(steps) == 11
    assert x == steps[10][0] and point == (-abs(x),)


def test_relax_asks_done_of_the_restored_iterate_after_an_undo():
    steps, asked = [], []
    evaluate, advance = _shrink(0.2, steps)

    def done(x, point, k):
        asked.append((x, k))
        return k == 11

    x, point, k = relax(evaluate, advance, 1.0, done, 100)
    assert [j for _, j in asked] == list(range(12))
    assert k == 11 and asked[-1] == (steps[10][0], 11) and x == steps[10][0]


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
    # one row on the 2-simplex (3 points), then two rows on the 3-simplex
    # (6 points); batches of 3 index arrays, one per step
    seen = []
    for idx in grid_batches((1, 2), (2, 3), 2, 10**6, chunk_cells=7, point_cells=2):
        assert [j.shape[1:] for j in idx] == [(1,), (2,)]
        assert len(idx[0]) == len(idx[1]) <= 3
        assert all(np.issubdtype(j.dtype, np.integer) for j in idx)
        for k in range(len(idx[0])):
            seen.append(tuple(np.concatenate([j[k] for j in idx])))
    assert len(seen) == 3 * 6 * 6
    assert len(set(seen)) == len(seen)
    assert {s[0] for s in seen} == set(range(3)) and {v for s in seen for v in s[1:]} == set(range(6))


def test_grid_batches_hold_one_point_grids_at_zero():
    # 70 rows on the 1-simplex (one point each) ride along with two free
    # rows, more rows than numpy unravels at once
    seen = []
    for idx in grid_batches((70, 2), (1, 3), 1, 10**6, chunk_cells=4, point_cells=1):
        assert not idx[0].any() and idx[0].shape[1:] == (70,)
        seen.extend(map(tuple, idx[1]))
    assert sorted(seen) == [(a, b) for a in range(3) for b in range(3)]


def test_grid_batches_raise_before_enumerating():
    with pytest.raises(di.GridTooLarge):
        grid_batches((1, 2), (2, 3), 2, 107, 100, 1)
    with pytest.raises(di.DomainError):
        grid_batches((1,), (2,), 0, 10, 100, 1)


@pytest.mark.parametrize("bad", [0, -3, 2.7, 3.0, True, False, "3", None, np.float64(2.0)])
def test_grid_resolution_must_be_a_positive_int(bad):
    with pytest.raises(di.DomainError, match="grid_resolution"):
        grid_batches((1,), (2,), bad, 10**6, 100, 1)
    spec = di.AlphabetSpec(0, (2,), (2,))
    q = di.ForwardKernel(spec, (np.array([[0.9, 0.1], [0.2, 0.8]]),))
    with pytest.raises(di.DomainError, match="grid_resolution"):
        di.brute_force_capacity(q, grid_resolution=bad)
    src = di.SourceSpec(di.BackwardKernel.uniform(spec))
    d = di.DistortionConstraint(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.25)
    with pytest.raises(di.DomainError, match="grid_resolution"):
        di.brute_force_nrdf(src, d, grid_resolution=bad)


def test_grid_resolution_takes_numpy_integers():
    spec = di.AlphabetSpec(0, (2,), (2,))
    q = di.ForwardKernel(spec, (np.array([[0.9, 0.1], [0.2, 0.8]]),))
    want = float(di.brute_force_capacity(q, grid_resolution=7))
    assert float(di.brute_force_capacity(q, grid_resolution=np.int64(7))) == want


# ---------------------------------------------------------------------------
# the evaluation kernel
# ---------------------------------------------------------------------------


def test_entropy_route_matches_the_evaluator_batched_or_not():
    # both grid oracles' batch evaluators against the package's evaluator,
    # a batch of two kernels against each kernel alone: one kernel leaves a
    # row without mass, and an infinite cell counts only when it has mass
    from dirinfo.capacity import PowerConstraint, _batch_terms, _CapacityProblem, expected_cost
    from dirinfo.nrdf import _batch_terms as _nrdf_batch_terms
    from dirinfo.nrdf import _NrdfProblem, expected_distortion
    from dirinfo.sampling import (
        random_backward_kernel,
        random_feedback_free_kernel,
        random_forward_kernel,
        rng_from_seed,
    )

    def batch(evaluator, tables):
        # the kernels' step tables stacked into pools, each kernel's rows
        # picked by index
        pools = [np.concatenate(ts) for ts in zip(*tables)]
        return evaluator(pools)([np.arange(len(p)).reshape(len(tables), -1) for p in pools])

    def check(evaluator, tables, value, spent):
        info, cost = batch(evaluator, tables)
        for k, kernel in enumerate(tables):
            one_info, one_cost = batch(evaluator, [kernel])
            assert one_info[0] == pytest.approx(value(kernel), abs=1e-12)
            assert info[k] == pytest.approx(one_info[0], abs=1e-15)
            assert cost[k] == pytest.approx(one_cost[0], abs=1e-15)
            assert one_cost[0] == pytest.approx(spent(kernel), abs=1e-15)
        assert cost[0] == pytest.approx(1.0, abs=1e-15) and cost[1] == np.inf

    rng = rng_from_seed(5)
    spec = di.AlphabetSpec(1, (2, 3), (3, 2))
    q = random_forward_kernel(rng, spec)
    cost = np.ones((spec.num_x_paths, spec.num_y_histories))
    cost[3] = np.inf  # x^1 = (1, 0), reached only when x_0 = 1 has mass
    c = PowerConstraint(cost, budget=1.0)

    # with feedback: tables as the kernel holds them
    free = random_backward_kernel(rng, spec).tables
    check(
        lambda pools: _batch_terms(_CapacityProblem(q, c, no_feedback=False), pools),
        [(np.array([[1.0, 0.0]]), free[1]), free],
        lambda t: di.directed_information(di.BackwardKernel(spec, t), q),
        lambda t: expected_cost(di.BackwardKernel(spec, t), q, c),
    )

    # without feedback: tables keyed by x^{i-1} alone
    tied = [t[:: spec.y_prefix_count(i)] for i, t in enumerate(random_feedback_free_kernel(rng, spec).tables)]
    check(
        lambda pools: _batch_terms(_CapacityProblem(q, c, no_feedback=True), pools),
        [(np.array([[1.0, 0.0]]), tied[1]), tied],
        lambda t: di.directed_information(di.BackwardKernel.from_feedback_free_tables(spec, t), q),
        lambda t: expected_cost(di.BackwardKernel.from_feedback_free_tables(spec, t), q, c),
    )

    # reconstruction: a source with a zero-mass symbol, and an infinite
    # distortion that only a kernel with mass on y^1 = (0, 0) reaches
    src = di.SourceSpec.from_step_tables(spec, [np.array([[0.6, 0.4]]), np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])])
    table = np.ones((spec.num_x_paths, spec.num_y_paths))
    table[0, 0] = np.inf  # x^1 = (0, 0), y^1 = (0, 0)
    table[2, :] = np.inf  # x^1 = (0, 2), which the source never emits
    d = di.DistortionConstraint(table, 1.0)
    free = random_forward_kernel(rng, spec).tables
    check(
        lambda pools: _nrdf_batch_terms(_NrdfProblem(src, d), pools),
        [(np.tile([[0.0, 0.3, 0.7]], (2, 1)), free[1]), free],
        lambda t: di.directed_information(src.kernel, di.ForwardKernel(spec, t)),
        lambda t: expected_distortion(src, di.ForwardKernel(spec, t), d),
    )


def test_logsumexp_is_shifted_and_keeps_empty_rows():
    a = np.array([[0.0, -1.0, -np.inf], [-np.inf, -np.inf, -np.inf], [-1000.0, -1001.0, -1002.0]])
    with np.errstate(all="raise"):  # an empty row takes no log(0)
        got = logsumexp(a)
    assert got[0] == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-15)
    assert got[1] == -np.inf
    assert got[2] == pytest.approx(-1000.0 + math.log(1.0 + math.exp(-1.0) + math.exp(-2.0)), abs=1e-12)
    cube = np.log(np.arange(1.0, 25.0)).reshape(2, 3, 4)
    both = logsumexp(cube, axis=(0, 2), keepdims=True)
    assert both.shape == (1, 3, 1)
    assert np.array_equal(logsumexp(cube, axis=(0, 2)), both.ravel())
    assert np.allclose(np.exp(both).ravel(), np.exp(cube).sum(axis=(0, 2)), rtol=1e-14)


# ---------------------------------------------------------------------------
# backward induction
# ---------------------------------------------------------------------------


def test_induction_weighs_a_minus_inf_cell_zero_only_where_its_law_is_zero():
    v = np.array([[3.0, -np.inf], [2.0, 1.0]])  # (controller, nature)
    value, (move,) = induction(v, [None, np.array([1.0, 0.0])])
    assert float(value) == 3.0 and move == 0
    value, (move,) = induction(v, [None, np.array([0.5, 0.5])])
    assert float(value) == 1.5 and move == 1
    value, _ = induction(v[0], [np.array([0.5, 0.5])])
    assert float(value) == -np.inf


def test_induction_soft_policies_exponentiate_to_rows_of_a_kernel():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(2, 3, 4))
    law = rng.dirichlet(np.ones(3), size=2)
    for dead in (False, True):
        if dead:
            v[1, 2] = -np.inf  # a row with no finite entry
        value, (first, last) = induction(v, [None, law, None], soft=True)
        assert first.shape == (2,) and last.shape == (2, 3, 4)
        assert math.isfinite(float(value))
        for p in (first, last):
            assert np.allclose(np.exp(p).sum(axis=-1), 1.0, rtol=0.0, atol=1e-14)
    assert np.array_equal(last[1, 2], np.full(4, -math.log(4)))


def test_induction_soft_value_over_controller_axes_is_the_log_sum_exp():
    v = 30.0 * np.random.default_rng(1).normal(size=(2, 3, 4))
    value, moves = induction(v, [None] * 3, soft=True)
    assert len(moves) == 3
    assert float(value) == pytest.approx(float(logsumexp(v.reshape(-1))), abs=1e-12)


def test_induction_hard_moves_are_argmaxes():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(3, 2, 4))
    law = rng.dirichlet(np.ones(2), size=3)
    value, (first, last) = induction(v, [None, law, None])
    assert np.array_equal(last, v.argmax(axis=-1))
    mean = (law * v.max(axis=-1)).sum(axis=-1)
    assert first == mean.argmax() and float(value) == mean.max()
