import math
import random
from collections import defaultdict

import numpy as np
import pytest

import dirinfo as di
from dirinfo.capacity import (
    CapacityResult,
    _CapacityProblem,
    PowerConstraint,
    brute_force_capacity,
    expected_cost,
    min_expected_cost,
    solve_capacity,
)
from dirinfo.sampling import (
    random_backward_kernel,
    random_forward_kernel,
    rng_from_seed,
)
from dirinfo.solver import SolverConfig, logsumexp

from helpers import backward_kernel_from_fn, forward_kernel_from_fn, random_kernel_fn
from oracles import (
    all_paths,
    oracle_dual_bound,
    oracle_expected_cost,
    oracle_joint,
    oracle_lagrangian_bound,
    oracle_strategy_terms,
)


def hb(t: float) -> float:
    return -t * math.log(t) - (1 - t) * math.log(1 - t)


SPEC1 = di.AlphabetSpec(0, (2,), (2,))


def bsc(eps: float) -> di.ForwardKernel:
    return di.ForwardKernel(SPEC1, (np.array([[1 - eps, eps], [eps, 1 - eps]]),))


def fair_input() -> di.BackwardKernel:
    return di.BackwardKernel(SPEC1, (np.array([[0.5, 0.5]]),))


# ---------------------------------------------------------------------------
# expected cost
# ---------------------------------------------------------------------------


def test_expected_cost_zero_and_constant_tables():
    q = bsc(0.2)
    p = fair_input()
    zero = PowerConstraint(np.zeros((2, 1)), budget=1.0)
    assert expected_cost(p, q, zero) == 0.0
    const = PowerConstraint(np.full((2, 1), 3.25), budget=10.0)
    assert expected_cost(p, q, const) == pytest.approx(3.25, abs=1e-15)


def test_expected_cost_single_letter_matches_oracle():
    # cost g(x) = x with a uniform input puts mass 0.5 on cost 1
    q = bsc(0.1)
    p = fair_input()
    c = PowerConstraint(np.array([[0.0], [1.0]]), budget=1.0)
    assert expected_cost(p, q, c) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_expected_cost_matches_pure_python_oracle(seed):
    rnd = random.Random(seed)
    spec = di.AlphabetSpec(1, (2, 3), (2, 2))
    p_fn = random_kernel_fn(rnd, spec.x_sizes)
    q_fn = random_kernel_fn(rnd, spec.y_sizes)
    p = backward_kernel_from_fn(spec, p_fn)
    q = forward_kernel_from_fn(spec, q_fn)
    table = np.asarray(
        [
            [rnd.uniform(0.0, 2.0) for _ in range(spec.num_y_histories)]
            for _ in range(spec.num_x_paths)
        ]
    )
    # cost keyed on the full input path and the output history before y_n
    c = PowerConstraint(table, budget=5.0)
    joint = oracle_joint(spec.x_sizes, spec.y_sizes, p_fn, q_fn)

    def cost_fn(xs, y_hist):
        row = 0
        for i, v in enumerate(xs):
            row = row * spec.x_sizes[i] + v
        col = 0
        for i, v in enumerate(y_hist):
            col = col * spec.y_sizes[i] + v
        return table[row, col]

    want = oracle_expected_cost(joint, cost_fn)
    assert expected_cost(p, q, c) == pytest.approx(want, abs=1e-12)


def test_cost_table_shape_and_value_validation():
    with pytest.raises(di.SpecMismatch):
        expected_cost(fair_input(), bsc(0.1), PowerConstraint(np.zeros((3, 1)), 1.0))
    with pytest.raises(di.DomainError):
        PowerConstraint(np.array([[-0.5], [0.0]]), budget=1.0)
    with pytest.raises(di.DomainError):
        PowerConstraint(np.array([[np.nan], [0.0]]), budget=1.0)
    with pytest.raises(di.DomainError):
        PowerConstraint(np.zeros((2, 1)), budget=-1.0)
    with pytest.raises(di.DomainError):
        PowerConstraint(np.zeros((2, 1)), budget=math.nan)
    # +inf cost cells are allowed (hard exclusions)
    PowerConstraint(np.array([[np.inf], [0.0]]), budget=1.0)


def test_infinite_cost_counts_once_mass_touches_it():
    c = PowerConstraint(np.array([[np.inf], [0.0]]), budget=1.0)
    q = bsc(0.1)
    assert expected_cost(fair_input(), q, c) == np.inf
    avoid = di.BackwardKernel(SPEC1, (np.array([[0.0, 1.0]]),))
    assert expected_cost(avoid, q, c) == 0.0
    assert min_expected_cost(q, c) == 0.0


# ---------------------------------------------------------------------------
# unconstrained anchors
# ---------------------------------------------------------------------------


def test_identity_channel_capacity_is_ln2_with_uniform_argmax():
    q = di.ForwardKernel(SPEC1, (np.eye(2),))
    res = solve_capacity(q)
    assert res.converged
    assert res.constraint_slack is None
    assert float(res.value) == pytest.approx(math.log(2), abs=1e-9)
    assert np.allclose(res.argmax.tables[0], 0.5, atol=1e-6)


def test_output_independent_channel_has_zero_capacity():
    q = di.ForwardKernel(SPEC1, (np.array([[0.3, 0.7], [0.3, 0.7]]),))
    res = solve_capacity(q)
    assert res.converged
    assert float(res.value) == pytest.approx(0.0, abs=1e-9)


def test_bsc_capacity_matches_formula():
    res = solve_capacity(bsc(0.1))
    want = math.log(2) - hb(0.1)
    assert res.converged
    assert float(res.value) == pytest.approx(want, abs=1e-9)
    assert np.allclose(res.argmax.tables[0], 0.5, atol=1e-5)


def test_brute_force_anchors():
    q_id = di.ForwardKernel(SPEC1, (np.eye(2),))
    assert float(brute_force_capacity(q_id, grid_resolution=10)) == pytest.approx(
        math.log(2), abs=1e-12
    )
    q_flat = di.ForwardKernel(SPEC1, (np.array([[0.3, 0.7], [0.3, 0.7]]),))
    assert float(brute_force_capacity(q_flat, grid_resolution=10)) == pytest.approx(
        0.0, abs=1e-12
    )
    got = float(brute_force_capacity(bsc(0.1), grid_resolution=100))
    assert got == pytest.approx(math.log(2) - hb(0.1), abs=1e-3)


def test_solver_brackets_brute_force():
    # solver value within [brute - 1e-6, brute + grid gap + 1e-3]
    rng = rng_from_seed(17)
    spec = di.AlphabetSpec(0, (3,), (2,))
    for _ in range(4):
        q = random_forward_kernel(rng, spec)
        res = solve_capacity(q)
        brute = float(brute_force_capacity(q, grid_resolution=60))
        assert float(res.value) >= brute - 1e-6
        assert float(res.value) <= brute + 1e-3 + math.log(2) / 60


def test_two_step_solver_beats_brute_grid():
    rng = rng_from_seed(23)
    spec = di.AlphabetSpec(1, (2, 2), (2, 2))
    q = random_forward_kernel(rng, spec)
    res = solve_capacity(q)
    brute = float(brute_force_capacity(q, grid_resolution=8))
    assert res.converged
    assert float(res.value) >= brute - 1e-6


def test_grid_guard_raises_when_enumeration_explodes():
    spec = di.AlphabetSpec(1, (3, 3), (3, 3))
    rng = rng_from_seed(3)
    q = random_forward_kernel(rng, spec)
    with pytest.raises(di.GridTooLarge):
        brute_force_capacity(q, grid_resolution=40)


# ---------------------------------------------------------------------------
# power constraints
# ---------------------------------------------------------------------------


def cost_x() -> PowerConstraint:
    return PowerConstraint(np.array([[0.0], [1.0]]), budget=0.3)


def test_constrained_bsc_matches_closed_form():
    # BSC(0.1) with E[X] <= 0.3 caps the input bias at 0.3:
    # C(P) = H_b(P * 0.9 + (1 - P) * 0.1) - H_b(0.1)
    res = solve_capacity(bsc(0.1), cost_x())
    want = hb(0.3 * 0.9 + 0.7 * 0.1) - hb(0.1)
    assert res.converged
    assert res.constraint_slack is not None and res.constraint_slack >= -1e-9
    assert float(res.value) == pytest.approx(want, abs=2e-6)
    brute = float(brute_force_capacity(bsc(0.1), cost_x(), grid_resolution=200))
    assert brute == pytest.approx(want, abs=1e-12)  # 0.3 sits on the grid
    assert float(res.value) >= brute - 2e-6
    assert float(res.value) <= brute + 1e-3 + math.log(2) / 200


def test_constrained_value_is_monotone_in_budget():
    vals = []
    for budget in (0.1, 0.2, 0.35, 0.5, 1.0):
        c = PowerConstraint(np.array([[0.0], [1.0]]), budget=budget)
        vals.append(float(solve_capacity(bsc(0.1), c).value))
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-7
    # by budget 0.5 the unconstrained optimum (uniform input) is feasible
    assert vals[-1] == pytest.approx(math.log(2) - hb(0.1), abs=1e-6)


def test_slack_constraint_reduces_to_unconstrained():
    c = PowerConstraint(np.array([[0.0], [1.0]]), budget=5.0)
    res = solve_capacity(bsc(0.1), c)
    assert res.converged
    assert float(res.value) == pytest.approx(math.log(2) - hb(0.1), abs=1e-8)
    assert res.constraint_slack == pytest.approx(4.5, abs=1e-3)


def test_infeasible_budget_raises():
    # every input path costs at least 2, budget says 1
    c = PowerConstraint(np.full((2, 1), 2.0), budget=1.0)
    with pytest.raises(di.InfeasibleConstraint):
        solve_capacity(bsc(0.1), c)
    with pytest.raises(di.InfeasibleConstraint):
        brute_force_capacity(bsc(0.1), c, grid_resolution=10)


def test_all_infinite_row_is_infeasible():
    c = PowerConstraint(np.array([[np.inf], [np.inf]]), budget=100.0)
    with pytest.raises(di.InfeasibleConstraint):
        solve_capacity(bsc(0.1), c)


def test_oracle_searches_around_an_unreachable_forbidden_history():
    # y_i = x_i, so (x_0, y_0) = (0, 1) never occurs; both x_1 after it cost
    # +inf.  The solver refuses such a history, the oracle must not.
    spec = di.AlphabetSpec(1, (2, 2), (2, 2))
    q = forward_kernel_from_fn(spec, lambda i, xs, ys: [1.0 - xs[-1], float(xs[-1])])
    table = np.zeros((spec.num_x_paths, spec.num_y_histories))
    table[:2, 1] = np.inf  # x^1 = (0, x_1) after y_0 = 1
    c = PowerConstraint(table, budget=0.5)
    assert float(brute_force_capacity(q, c, grid_resolution=4)) == pytest.approx(2 * math.log(2), abs=1e-12)
    with pytest.raises(di.InfeasibleConstraint):
        solve_capacity(q, c)


def test_infinite_cost_cell_is_avoided():
    # x = 0 is forbidden; capacity collapses to 0 since only x = 1 remains
    c = PowerConstraint(np.array([[np.inf], [0.0]]), budget=1.0)
    res = solve_capacity(bsc(0.1), c)
    assert float(res.value) == pytest.approx(0.0, abs=1e-6)
    assert res.argmax.tables[0][0, 0] <= 1e-9


def test_brute_force_respects_constraint():
    got = float(brute_force_capacity(bsc(0.1), cost_x(), grid_resolution=100))
    want = hb(0.3 * 0.9 + 0.7 * 0.1) - hb(0.1)
    assert got == pytest.approx(want, abs=1e-3)


# ---------------------------------------------------------------------------
# feedback vs no feedback
# ---------------------------------------------------------------------------


def z_channel_pair() -> di.ForwardKernel:
    # two steps; the second letter's behaviour flips with the first output,
    # so feedback genuinely helps
    spec = di.AlphabetSpec(1, (2, 2), (2, 2))
    q0 = np.array([[0.5, 0.5], [0.5, 0.5]])
    # rows ordered by (x0, y0, x1): after y0 = 0 the pair (x1 -> y1) is a
    # Z-channel pinned at 0, after y0 = 1 the mirror image pinned at 1
    q1 = np.array(
        [
            [1.0, 0.0],
            [0.5, 0.5],
            [0.5, 0.5],
            [0.0, 1.0],
            [1.0, 0.0],
            [0.5, 0.5],
            [0.5, 0.5],
            [0.0, 1.0],
        ]
    )
    return di.ForwardKernel(spec, (q0, q1))


def test_feedback_never_hurts():
    q = z_channel_pair()
    fb = solve_capacity(q)
    nofb = solve_capacity(q, no_feedback=True)
    assert float(fb.value) >= float(nofb.value) - 1e-9
    from dirinfo.measures import ignores_output_history

    assert ignores_output_history(nofb.argmax)


def test_no_feedback_anchor_values():
    q = z_channel_pair()
    fb = solve_capacity(q)
    nofb = solve_capacity(q, no_feedback=True)
    # with feedback the argmax adapts to y_0 and achieves ln(5/4) per pair
    assert float(fb.value) == pytest.approx(math.log(5.0 / 4.0), abs=1e-6)
    # without feedback the best product input gives H_b(1/4) - ln(2)/2
    want = hb(0.25) - 0.5 * math.log(2)
    assert float(nofb.value) == pytest.approx(want, abs=1e-6)
    assert float(fb.value) > float(nofb.value) + 5e-3


def test_no_feedback_brute_force_agrees():
    q = z_channel_pair()
    nofb = float(brute_force_capacity(q, no_feedback=True, grid_resolution=40))
    want = hb(0.25) - 0.5 * math.log(2)
    assert nofb == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# result plumbing
# ---------------------------------------------------------------------------


def test_result_fields_are_coherent():
    res = solve_capacity(bsc(0.25), cost_x(), SolverConfig(max_iters=20_000))
    assert isinstance(res, CapacityResult)
    assert res.iterations >= 1
    assert isinstance(res.value, di.InfoValue)
    # the returned argmax reproduces the reported value exactly
    again = di.directed_information(res.argmax, bsc(0.25))
    assert float(res.value) == pytest.approx(again, abs=1e-12)
    # and honours the budget
    assert expected_cost(res.argmax, bsc(0.25), cost_x()) <= 0.3 + 1e-9


def test_returned_kernel_rows_sum_to_one_after_large_log_rewards():
    # long horizons drive the log-probabilities of rarely used inputs near
    # -3e4 (seed-1 binary n=5 does); a row normalized in logs there sums to
    # 1 only within 1.8e-12 once exponentiated, past the kernel check's 1e-12
    w = np.array([-30000.0, -30001.88])
    log_row = w - logsumexp(w)
    assert abs(np.exp(log_row).sum() - 1.0) > 1e-12
    for no_feedback in (False, True):
        prob = _CapacityProblem(bsc(0.1), None, no_feedback)
        kernel = prob.kernel([log_row[None, :]])
        assert abs(kernel.tables[0].sum() - 1.0) <= 1e-15


def test_argmax_is_input_distribution_over_same_spec():
    res = solve_capacity(bsc(0.1))
    assert res.argmax.spec == SPEC1
    assert isinstance(res.argmax, di.BackwardKernel)


# ---------------------------------------------------------------------------
# certified optima on the seed-1 family.  The expected values are
# Blahut-Arimoto optima, each confirmed to 1e-8 by a dual
# (inf-over-output-law) bound; mirror ascent stopped on a merit plateau
# short of them and still reported converged=True.
# ---------------------------------------------------------------------------


def _seed1_channel(n: int, size: int) -> di.ForwardKernel:
    spec = di.AlphabetSpec(n, (size,) * (n + 1), (size,) * (n + 1))
    return random_forward_kernel(rng_from_seed(1), spec, min_mass=0.01)


def test_quaternary_seed1_channel_reaches_certified_capacity():
    result = solve_capacity(_seed1_channel(1, 4))
    assert result.converged
    assert float(result.value) == pytest.approx(0.686679, abs=1e-5)


def _final_symbol_budget(spec: di.AlphabetSpec) -> PowerConstraint:
    cost = np.zeros((spec.num_x_paths, spec.num_y_histories))
    cost[:, :] = (np.arange(spec.num_x_paths) % 2)[:, None]  # the final input symbol
    return PowerConstraint(cost, 0.2)


def _mixture_witness(spec: di.AlphabetSpec) -> di.BackwardKernel:
    """Path-level mixture, at weight 0.4, of the uniform input (cost 0.5)
    and the input uniform on x_0, x_1 with x_2 = 0 (cost 0)."""
    uniform = di.BackwardKernel.uniform(spec)
    free = uniform.tables[:2] + (np.tile([1.0, 0.0], (spec.input_history_count(2), 1)),)
    mixed = di.mix_conditioned(
        di.condition_on_path(uniform),
        di.condition_on_path(di.BackwardKernel(spec, free)),
        0.4,
    )
    return di.refactor_to_kernel(mixed)


def test_constrained_feedback_witness_meets_the_budget():
    q = _seed1_channel(2, 2)
    witness = _mixture_witness(q.spec)
    assert expected_cost(witness, q, _final_symbol_budget(q.spec)) == pytest.approx(0.2, abs=1e-12)
    assert di.directed_information(witness, q) == pytest.approx(0.431512, abs=1e-6)


def test_constrained_feedback_reaches_the_witness():
    q = _seed1_channel(2, 2)
    result = solve_capacity(q, _final_symbol_budget(q.spec))
    assert result.converged
    witness = di.directed_information(_mixture_witness(q.spec), q)
    assert float(result.value) >= witness - 1e-6


def test_constrained_no_feedback_reaches_certified_capacity():
    q = _seed1_channel(2, 2)
    result = solve_capacity(q, _final_symbol_budget(q.spec), no_feedback=True)
    assert result.converged
    assert result.constraint_slack >= -1e-9
    assert float(result.value) == pytest.approx(0.464418, abs=1e-5)


@pytest.mark.parametrize("n, want", [(2, 0.535823), (3, 0.745857)])
def test_binary_seed1_channel_reaches_certified_capacity(n, want):
    result = solve_capacity(_seed1_channel(n, 2))
    assert result.converged
    assert float(result.value) == pytest.approx(want, abs=1e-6)


def test_constrained_feedback_reaches_certified_capacity():
    q = _seed1_channel(2, 2)
    budget = _final_symbol_budget(q.spec)
    result = solve_capacity(q, budget)
    assert result.converged
    assert float(result.value) == pytest.approx(0.502357, abs=1e-6)
    assert expected_cost(result.argmax, q, budget) <= 0.2 + 1e-9


@pytest.mark.parametrize("budget", [None, 0.2, 1.0])
def test_value_never_falls_and_slack_is_the_returned_kernels(budget):
    # a budget of 0.2 binds; one of 1.0 never does, so the cost moves
    # from step to step and an undone step's cost would show in the slack
    q = _seed1_channel(2, 2)
    c = None if budget is None else PowerConstraint(_final_symbol_budget(q.spec).cost_table, budget)
    runs = [solve_capacity(q, c, SolverConfig(max_iters=k)) for k in range(1, 61)]
    values = [float(r.value) for r in runs]
    assert all(b >= a for a, b in zip(values, values[1:]))
    # a run whose last step was undone returns the kernel of the run before it
    undone = [
        k for k, (a, b) in enumerate(zip(runs, runs[1:]), start=2)
        if all(np.array_equal(s, t) for s, t in zip(a.argmax.tables, b.argmax.tables))
    ]
    assert undone
    # an undone step counts toward max_iters and iterations
    assert [r.iterations for r in runs] == list(range(1, 61))
    for r in runs if c is not None else ():
        spent = expected_cost(r.argmax, q, c)
        assert r.constraint_slack == pytest.approx(c.budget - spent, abs=1e-12)


def test_an_undo_reuses_the_kept_evaluation(monkeypatch):
    # the budget-0.2 solve above undoes steps; each undo restores the kept
    # iterate's posterior, so there is one posterior per update and one of
    # the start
    q = _seed1_channel(2, 2)
    calls, steps = [], []
    posterior, update = _CapacityProblem.posterior, _CapacityProblem.update

    def posterior_spy(self, *args):
        calls.append(1)
        return posterior(self, *args)

    def update_spy(self, lp, d, mu, lam):
        steps.append(mu)
        return update(self, lp, d, mu, lam)

    monkeypatch.setattr(_CapacityProblem, "posterior", posterior_spy)
    monkeypatch.setattr(_CapacityProblem, "update", update_spy)
    result = solve_capacity(q, _final_symbol_budget(q.spec))
    assert result.converged
    assert any(a > 1.0 and b == 1.0 for a, b in zip(steps, steps[1:]))  # a retake
    assert len(calls) == result.iterations + 1


def test_boundary_optimum_is_certified():
    # the optimal first input puts no mass on one symbol; plain
    # Blahut-Arimoto is still uncertified after 100,000 updates here
    spec = di.AlphabetSpec(1, (4, 4), (4, 4))
    q = random_forward_kernel(rng_from_seed(12), spec, min_mass=0.01)
    result = solve_capacity(q, cfg=SolverConfig(max_iters=40_000))
    assert result.converged
    assert float(result.value) == pytest.approx(0.724931, abs=1e-6)


def test_iteration_cap_is_honoured_and_iterates_stay_feasible():
    q = _seed1_channel(2, 2)
    budget = _final_symbol_budget(q.spec)
    result = solve_capacity(q, budget, SolverConfig(max_iters=3))
    assert 1 <= result.iterations <= 3
    assert not result.converged  # three updates do not certify 1e-9
    assert expected_cost(result.argmax, q, budget) <= 0.2 + 1e-9


def test_a_numpy_integer_iteration_cap_acts_as_the_int():
    q = _seed1_channel(2, 2)
    budget = _final_symbol_budget(q.spec)
    for k in (1, 2, 3, 7):
        want = solve_capacity(q, budget, SolverConfig(max_iters=k))
        got = solve_capacity(q, budget, SolverConfig(max_iters=np.int64(k)))
        assert got.iterations == want.iterations == k
        assert float(got.value) == float(want.value)
        assert all(np.array_equal(s, t) for s, t in zip(got.argmax.tables, want.argmax.tables))


# ---------------------------------------------------------------------------
# the certificate: the solver's dual bound against plain loops over every
# deterministic feedback strategy (tests/oracles.py)
# ---------------------------------------------------------------------------


def _fn_of(spec, tables):
    """A kernel's tables as a callable keyed by history tuples."""

    def fn(i, xs, ys):
        row = 0
        for j, x in enumerate(xs):
            row = row * spec.x_sizes[j] + x
            if j < len(ys):
                row = row * spec.y_sizes[j] + ys[j]
        return list(tables[i][row])

    return fn


def _output_law(spec, p, q):
    joint = oracle_joint(spec.x_sizes, spec.y_sizes, _fn_of(spec, p.tables), _fn_of(spec, q.tables))
    nu = defaultdict(float)
    for (_, ys), w in joint.items():
        nu[ys] += w
    return nu


def _src_bound(q, c, nu, lam):
    spec = q.spec
    law = np.array([nu[ys] for ys in all_paths(spec.y_sizes)])
    log_nu = np.log(law).reshape(tuple(v for k in spec.y_sizes for v in (1, k)))
    return _CapacityProblem(q, c, no_feedback=False).bound(log_nu, lam)


def _random_case(seed):
    """A binary channel at n = seed % 2, zero-mass rows on every third seed,
    and on odd seeds a cost with one ``+inf`` final symbol per history."""
    rnd = random.Random(seed)
    n = seed % 2
    spec = di.AlphabetSpec(n, (2,) * (n + 1), (2,) * (n + 1))
    q_fn = random_kernel_fn(rnd, spec.y_sizes, sparse=seed % 3 == 0)
    q = forward_kernel_from_fn(spec, q_fn)
    table = np.array(
        [[rnd.uniform(0.0, 2.0) for _ in range(spec.num_y_histories)] for _ in range(spec.num_x_paths)]
    )
    if seed % 2:
        forbid = [rnd.randrange(2) for _ in range(spec.num_y_histories * spec.num_x_paths // 2)]
        for k, x_last in enumerate(forbid):
            prefix, col = divmod(k, spec.num_y_histories)
            table[2 * prefix + x_last, col] = np.inf

    def cost_fn(xs, y_hist):
        row = col = 0
        for i, v in enumerate(xs):
            row = row * spec.x_sizes[i] + v
        for i, v in enumerate(y_hist):
            col = col * spec.y_sizes[i] + v
        return float(table[row, col])

    # a budget a quarter of the way from the cheapest strategy to the dearest
    flat = {ys: 1.0 for ys in all_paths(spec.y_sizes)}
    costs = [e for _, e in oracle_strategy_terms(spec.x_sizes, spec.y_sizes, q_fn, flat, cost_fn)]
    finite = [e for e in costs if not math.isinf(e)]
    c = PowerConstraint(table, budget=min(finite) + 0.25 * (max(finite) - min(finite)))
    return spec, q_fn, q, c, cost_fn


@pytest.mark.parametrize("seed", range(8))
def test_certificate_equals_the_strategy_oracle(seed):
    spec, q_fn, q, c, cost_fn = _random_case(seed)
    rnd = random.Random(100 + seed)
    raw = {ys: rnd.uniform(0.2, 1.0) for ys in all_paths(spec.y_sizes)}
    total = sum(raw.values())
    nu = {ys: v / total for ys, v in raw.items()}
    terms = oracle_strategy_terms(spec.x_sizes, spec.y_sizes, q_fn, nu, cost_fn)
    for lam in (0.0, 0.3, 2.5):
        want = oracle_lagrangian_bound(terms, lam, c.budget)
        assert _src_bound(q, c, nu, lam) == pytest.approx(want, abs=1e-12)
    free = oracle_strategy_terms(spec.x_sizes, spec.y_sizes, q_fn, nu)
    assert _src_bound(q, None, nu, 0.0) == pytest.approx(oracle_lagrangian_bound(free, 0.0), abs=1e-12)
    # every bound is at least every grid kernel's value
    assert oracle_dual_bound(terms, c.budget) >= float(brute_force_capacity(q, c, grid_resolution=6)) - 1e-12
    assert oracle_lagrangian_bound(free, 0.0) >= float(brute_force_capacity(q, grid_resolution=6)) - 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_min_expected_cost_equals_the_strategy_oracle(seed):
    spec, q_fn, q, c, cost_fn = _random_case(seed)
    flat = {ys: 1.0 for ys in all_paths(spec.y_sizes)}
    costs = [e for _, e in oracle_strategy_terms(spec.x_sizes, spec.y_sizes, q_fn, flat, cost_fn)]
    assert min_expected_cost(q, c) == pytest.approx(min(costs), abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("constrained", [False, True])
def test_converged_means_a_certified_gap(seed, constrained):
    spec, q_fn, q, c, cost_fn = _random_case(seed)
    c = c if constrained else None
    cfg = SolverConfig(tol=1e-8)
    result = solve_capacity(q, c, cfg)
    assert result.converged
    value = float(result.value)
    nu = _output_law(spec, result.argmax, q)
    terms = oracle_strategy_terms(spec.x_sizes, spec.y_sizes, q_fn, nu, cost_fn if c else None)
    bound = oracle_dual_bound(terms, c.budget if c else 0.0)
    assert -1e-12 <= bound - value <= cfg.tol
    assert value >= float(brute_force_capacity(q, c, grid_resolution=6)) - 1e-12
    if c is not None:
        assert result.constraint_slack >= 0.0
        assert expected_cost(result.argmax, q, c) <= c.budget + 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_relaxed_steps_certify_at_the_multiplier_over_mu(seed, monkeypatch):
    # each budget here pins the optimal input, which the first update meets;
    # from the third update on the multiplier is read at the optimum, so the
    # certificate must be tight whatever mu made the iterate, which holds
    # only at the multiplier over mu
    spec, q_fn, q, c, cost_fn = _random_case(seed)
    steps = []
    update = _CapacityProblem.update

    def spy(self, lp, d, mu, lam):
        steps.append(mu)
        return update(self, lp, d, mu, lam)

    monkeypatch.setattr(_CapacityProblem, "update", spy)
    for k in range(3, 21):
        result = solve_capacity(q, c, SolverConfig(tol=1e-8, max_iters=k))
        assert result.converged
        nu = _output_law(spec, result.argmax, q)
        terms = oracle_strategy_terms(spec.x_sizes, spec.y_sizes, q_fn, nu, cost_fn)
        assert -1e-12 <= oracle_dual_bound(terms, c.budget) - float(result.value) <= 1e-8
    assert max(steps) > 1.0


@pytest.mark.parametrize("seed", range(4))
def test_zero_mass_channel_rows_solve_with_and_without_feedback(seed):
    rnd = random.Random(seed)
    spec = di.AlphabetSpec(1, (2, 3), (3, 2))
    q = forward_kernel_from_fn(spec, random_kernel_fn(rnd, spec.y_sizes, sparse=True))
    assert any(np.any(t == 0) for t in q.tables)
    fb = solve_capacity(q)
    nofb = solve_capacity(q, no_feedback=True)
    assert fb.converged and nofb.converged
    assert float(fb.value) >= float(brute_force_capacity(q, grid_resolution=2)) - 1e-12
    assert float(nofb.value) >= float(brute_force_capacity(q, grid_resolution=6, no_feedback=True)) - 1e-12
    assert float(fb.value) >= float(nofb.value) - 1e-9


@pytest.mark.parametrize("n", [0, 1, 2])
def test_identity_channel_carries_one_bit_per_use(n):
    spec = di.AlphabetSpec(n, (2,) * (n + 1), (2,) * (n + 1))
    q = forward_kernel_from_fn(spec, lambda i, xs, ys: [1.0 - xs[-1], float(xs[-1])])
    for no_feedback in (False, True):
        result = solve_capacity(q, no_feedback=no_feedback)
        assert result.converged
        assert float(result.value) == pytest.approx((n + 1) * math.log(2), abs=1e-9)


def test_infinite_cost_cell_is_never_used_under_a_binding_budget():
    # x_1 = 1 is forbidden after y_0 = 0; the budget binds on the rest
    spec = di.AlphabetSpec(1, (2, 2), (2, 2))
    q = _seed1_channel(1, 2)
    table = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [np.inf, 1.0]])
    c = PowerConstraint(table, budget=0.1)
    for no_feedback in (False, True):
        result = solve_capacity(q, c, no_feedback=no_feedback)
        assert result.converged
        spent = expected_cost(result.argmax, q, c)
        assert spent <= 0.1 + 1e-9
        grid = float(brute_force_capacity(q, c, grid_resolution=8, no_feedback=no_feedback))
        assert float(result.value) >= grid - 1e-12
    assert spec == q.spec


def test_budget_exactly_at_the_floor():
    # two uses of a BSC, paying for the final input: at budget 0 the second
    # use must send 0, so only the first carries information
    eps = 0.1
    spec = di.AlphabetSpec(1, (2, 2), (2, 2))
    q = forward_kernel_from_fn(spec, lambda i, xs, ys: [1 - eps, eps] if xs[-1] == 0 else [eps, 1 - eps])
    cost = np.tile((np.arange(spec.num_x_paths) % 2)[:, None], (1, spec.num_y_histories)).astype(float)
    c = PowerConstraint(cost, budget=0.0)
    assert min_expected_cost(q, c) == 0.0
    for no_feedback in (False, True):
        result = solve_capacity(q, c, no_feedback=no_feedback)
        assert result.converged
        assert float(result.value) == pytest.approx(math.log(2) - hb(eps), abs=1e-9)
        assert expected_cost(result.argmax, q, c) <= 1e-9
