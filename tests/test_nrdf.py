import itertools
import math
import random

import numpy as np
import pytest

import dirinfo as di
import dirinfo.nrdf as nrdf
from dirinfo.nrdf import (
    DistortionConstraint,
    NrdfResult,
    SourceSpec,
    _NrdfProblem,
    brute_force_nrdf,
    expected_distortion,
    min_expected_distortion,
    rd_curve,
    solve_nrdf,
)
from dirinfo.sampling import random_feedback_free_kernel, rng_from_seed
from dirinfo.solver import DEFAULT_CONFIG, FEASIBILITY_SLACK, SolverConfig

from helpers import forward_kernel_from_fn, hb, random_kernel_fn, spy_on_guards
from oracles import oracle_expected_distortion, oracle_joint


SPEC1 = di.AlphabetSpec(0, (2,), (2,))
SPEC2 = di.AlphabetSpec(1, (2, 2), (2, 2))
# a seed-3 Markov source at n=1
MARKOV_N1 = SourceSpec(random_feedback_free_kernel(rng_from_seed(3), SPEC2, min_mass=0.05))


def uniform_binary_source(spec: di.AlphabetSpec) -> SourceSpec:
    tables = [
        np.full((spec.x_prefix_count(i), spec.x_sizes[i]), 1.0 / spec.x_sizes[i])
        for i in range(spec.steps)
    ]
    return SourceSpec.from_step_tables(spec, tables)


def biased_source(bias: float) -> SourceSpec:
    return SourceSpec.from_step_tables(SPEC1, [np.array([[1 - bias, bias]])])


def hamming_paths(spec: di.AlphabetSpec) -> np.ndarray:
    # per-letter Hamming distance summed along the path
    nx, ny = spec.num_x_paths, spec.num_y_paths
    table = np.zeros((nx, ny))
    for xi in range(nx):
        xs = _digits(xi, spec.x_sizes)
        for yi in range(ny):
            ys = _digits(yi, spec.y_sizes)
            table[xi, yi] = sum(1.0 for a, b in zip(xs, ys) if a != b)
    return table


def _digits(code: int, sizes) -> list:
    out = []
    for s in reversed(sizes):
        out.append(code % s)
        code //= s
    return out[::-1]


# ---------------------------------------------------------------------------
# expected distortion
# ---------------------------------------------------------------------------


def test_zero_distortion_table_gives_zero():
    src = uniform_binary_source(SPEC2)
    d = DistortionConstraint(np.zeros((4, 4)), budget=1.0)
    q = forward_kernel_from_fn(SPEC2, lambda i, xs, ys: [0.5, 0.5])
    assert expected_distortion(src, q, d) == 0.0


def test_identity_reproduction_has_zero_hamming_distortion():
    src = uniform_binary_source(SPEC1)
    d = DistortionConstraint(hamming_paths(SPEC1), budget=1.0)
    q = di.ForwardKernel(SPEC1, (np.eye(2),))
    assert expected_distortion(src, q, d) == 0.0


def test_bsc_reproduction_distortion_is_flip_rate_per_letter():
    # uniform source, channel flips each letter with probability 0.1:
    # summed Hamming distortion is 0.1 per step
    for spec in (SPEC1, SPEC2):
        src = uniform_binary_source(spec)
        d = DistortionConstraint(hamming_paths(spec), budget=10.0)
        q = forward_kernel_from_fn(
            spec, lambda i, xs, ys: [0.9, 0.1] if xs[i] == 0 else [0.1, 0.9]
        )
        want = 0.1 * spec.steps
        assert expected_distortion(src, q, d) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_expected_distortion_matches_pure_python_oracle(seed):
    rnd = random.Random(seed)
    spec = di.AlphabetSpec(1, (2, 2), (2, 3))
    src_fn = random_kernel_fn(rnd, spec.x_sizes)
    q_fn = random_kernel_fn(rnd, spec.y_sizes)

    # the source only sees its own past; drop the y argument
    def src_steps(i, xs, ys):
        return src_fn(i, xs, ())

    tables = None
    src = SourceSpec.from_step_tables(
        spec,
        [
            np.asarray(
                [
                    src_fn(i, tuple(_digits(r, spec.x_sizes[:i])), ())
                    for r in range(int(np.prod(spec.x_sizes[:i], dtype=int)))
                ]
            )
            for i in range(spec.steps)
        ],
    )
    q = forward_kernel_from_fn(spec, q_fn)
    table = np.asarray(
        [
            [rnd.uniform(0.0, 3.0) for _ in range(spec.num_y_paths)]
            for _ in range(spec.num_x_paths)
        ]
    )
    d = DistortionConstraint(table, budget=10.0)
    joint = oracle_joint(spec.x_sizes, spec.y_sizes, src_steps, q_fn)

    def dist_fn(xs, ys):
        row = 0
        for i, v in enumerate(xs):
            row = row * spec.x_sizes[i] + v
        col = 0
        for i, v in enumerate(ys):
            col = col * spec.y_sizes[i] + v
        return table[row, col]

    want = oracle_expected_distortion(joint, dist_fn)
    assert expected_distortion(src, q, d) == pytest.approx(want, abs=1e-12)


def test_distortion_validation():
    with pytest.raises(di.DomainError):
        DistortionConstraint(np.array([[-1.0, 0.0], [0.0, 0.0]]), budget=1.0)
    with pytest.raises(di.DomainError):
        DistortionConstraint(np.array([[np.nan, 0.0], [0.0, 0.0]]), budget=1.0)
    with pytest.raises(di.DomainError):
        DistortionConstraint(np.zeros((2, 2)), budget=-0.5)
    with pytest.raises(di.SpecMismatch):
        src = uniform_binary_source(SPEC1)
        q = di.ForwardKernel(SPEC1, (np.eye(2),))
        expected_distortion(src, q, DistortionConstraint(np.zeros((3, 2)), 1.0))
    # infinity marks forbidden reproductions and is accepted
    DistortionConstraint(np.array([[0.0, np.inf], [np.inf, 0.0]]), budget=1.0)


@pytest.mark.parametrize("src_spec, q_spec", [(SPEC1, SPEC2), (SPEC2, SPEC1)], ids=["longer-kernel", "longer-source"])
def test_input_guards(src_spec, q_spec):
    d = DistortionConstraint(hamming_paths(q_spec), 1.0)
    with pytest.raises(di.SpecMismatch, match="source and kernel specs differ"):
        expected_distortion(uniform_binary_source(src_spec), di.ForwardKernel.uniform(q_spec), d)


def test_source_must_ignore_output_history():
    rng = rng_from_seed(0)
    fb = di.BackwardKernel(
        SPEC2,
        (
            np.array([[0.5, 0.5]]),
            np.array([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9], [0.5, 0.5]]),
        ),
    )
    with pytest.raises(di.DomainError):
        SourceSpec(fb)
    # feedback-free kernels are fine
    SourceSpec(random_feedback_free_kernel(rng, SPEC2))


def test_source_keeps_its_tied_rows_exactly():
    # a row replicated over three y_0 histories is stored as given, not as a
    # mean of its replicas, which rounds 0.7 one ulp down; on the stored
    # source an input-free path meets the exactly binding budget at rate 0
    spec = di.AlphabetSpec(1, (1, 2), (3, 2))
    src = SourceSpec.from_step_tables(spec, [np.array([[1.0]]), np.array([[0.7, 0.3]])])
    assert [float(v).hex() for v in src.step_tables[1].ravel()] == [(0.7).hex(), (0.3).hex()]
    table = np.array([[float(x1 != y % 2) for y in range(6)] for x1 in range(2)])
    assert float(brute_force_nrdf(src, DistortionConstraint(table, 0.3), grid_resolution=2)) == 0.0


def test_min_expected_distortion_floor():
    src = uniform_binary_source(SPEC1)
    d = DistortionConstraint(hamming_paths(SPEC1), budget=0.0)
    assert min_expected_distortion(src, d) == 0.0
    assert math.copysign(1.0, min_expected_distortion(src, d)) == 1.0  # not -0.0
    lopsided = DistortionConstraint(np.array([[1.0, 2.0], [3.0, 0.5]]), budget=0.0)
    # best deterministic reproduction: y=0 when x=0 (cost 1), y=1 when x=1 (0.5)
    assert min_expected_distortion(src, lopsided) == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# rate-distortion solutions
# ---------------------------------------------------------------------------


def test_zero_budget_needs_full_path_entropy():
    for spec in (SPEC1, SPEC2):
        src = uniform_binary_source(spec)
        d = DistortionConstraint(hamming_paths(spec), budget=0.0)
        res = solve_nrdf(src, d)
        assert res.converged
        want = spec.steps * math.log(2)
        assert float(res.value) == pytest.approx(want, abs=1e-6)
        # the argmin reproduces the source faithfully
        assert expected_distortion(src, res.argmin, d) <= 1e-7
        assert res.distortion_slack >= -1e-9


def test_generous_budget_gives_exactly_zero_rate():
    for spec in (SPEC1, SPEC2):
        src = uniform_binary_source(spec)
        budget = spec.steps / 2.0
        d = DistortionConstraint(hamming_paths(spec), budget=budget)
        res = solve_nrdf(src, d)
        assert res.converged
        assert float(res.value) == 0.0
        assert res.iterations == 0
        assert res.distortion_slack >= 0.0
        # argmin ignores the input entirely
        from dirinfo.measures import condition_on_path

        rows = condition_on_path(res.argmin).table
        assert np.allclose(rows, rows[0])


def test_single_letter_rd_curve_formula():
    # uniform binary source, Hamming distortion: R(D) = ln 2 - H_b(D)
    src = uniform_binary_source(SPEC1)
    for D in (0.05, 0.1, 0.25, 0.4):
        d = DistortionConstraint(hamming_paths(SPEC1), budget=D)
        res = solve_nrdf(src, d)
        want = math.log(2) - hb(D)
        assert res.converged
        assert float(res.value) == pytest.approx(want, abs=5e-6)
        assert res.distortion_slack >= -1e-9


def test_brute_force_anchors():
    src = uniform_binary_source(SPEC1)
    d0 = DistortionConstraint(hamming_paths(SPEC1), budget=0.0)
    assert float(brute_force_nrdf(src, d0, grid_resolution=10)) == pytest.approx(
        math.log(2), abs=1e-12
    )
    dbig = DistortionConstraint(hamming_paths(SPEC1), budget=0.5)
    assert float(brute_force_nrdf(src, dbig, grid_resolution=10)) == pytest.approx(
        0.0, abs=1e-12
    )
    d01 = DistortionConstraint(hamming_paths(SPEC1), budget=0.1)
    got = float(brute_force_nrdf(src, d01, grid_resolution=200))
    assert got == pytest.approx(math.log(2) - hb(0.1), abs=1e-3)


def test_solver_brackets_brute_force_including_non_additive_distortion():
    src = uniform_binary_source(SPEC2)
    # a path-level distortion that does not decompose per letter: only
    # agreement on the whole path is free, any error costs the same
    table = np.where(np.eye(4) > 0, 0.0, 1.0)
    # ten simplex rows cap the affordable grid at resolution 3; the sharp
    # direction is solver <= brute + tol since every grid point is feasible
    for budget in (0.2, 0.5):
        d = DistortionConstraint(table, budget=budget)
        res = solve_nrdf(src, d)
        brute = float(brute_force_nrdf(src, d, grid_resolution=3))
        gap = 2 * math.log(2) / 3
        assert float(res.value) <= brute + 1e-6
        assert float(res.value) >= brute - (gap + 1e-3)
        assert res.distortion_slack >= -1e-9


def test_two_step_hamming_solution_tracks_single_letter_formula():
    # per-letter Hamming distortion over two steps: the optimum splits the
    # budget evenly, so R(D) = 2 (ln 2 - H_b(D / 2))
    src = uniform_binary_source(SPEC2)
    d = DistortionConstraint(hamming_paths(SPEC2), budget=0.2)
    res = solve_nrdf(src, d)
    want = 2 * (math.log(2) - hb(0.1))
    assert res.converged
    assert float(res.value) == pytest.approx(want, abs=1e-4)


def test_budget_override_argument():
    src = uniform_binary_source(SPEC1)
    d = DistortionConstraint(hamming_paths(SPEC1), budget=0.4)
    res = solve_nrdf(src, d, budget=0.1)
    want = math.log(2) - hb(0.1)
    assert float(res.value) == pytest.approx(want, abs=5e-6)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(di.DomainError):
            solve_nrdf(src, d, budget=bad)
        with pytest.raises(di.DomainError):
            brute_force_nrdf(src, d, budget=bad, grid_resolution=4)


def test_a_budget_under_the_floor_is_refused_only_past_the_slack():
    # the floor 0.75 is met only by the deterministic reproduction
    src = uniform_binary_source(SPEC1)
    table = np.array([[1.0, 2.0], [3.0, 0.5]])
    res = solve_nrdf(src, DistortionConstraint(table, 0.75 - FEASIBILITY_SLACK / 2))
    assert res.converged and -FEASIBILITY_SLACK <= res.distortion_slack < 0.0
    with pytest.raises(di.InfeasibleConstraint, match="minimum achievable distortion"):
        solve_nrdf(src, DistortionConstraint(table, 0.75 - 2 * FEASIBILITY_SLACK))


def test_infeasible_when_floor_exceeds_budget():
    src = uniform_binary_source(SPEC1)
    # every reproduction costs at least 1
    d = DistortionConstraint(np.full((2, 2), 1.0), budget=0.5)
    with pytest.raises(di.InfeasibleConstraint):
        solve_nrdf(src, d)
    with pytest.raises(di.InfeasibleConstraint):
        brute_force_nrdf(src, d, grid_resolution=10)


def test_forbidden_cells_are_respected():
    src = biased_source(0.3)
    # reproducing 0 as 1 is forbidden outright
    table = np.array([[0.0, np.inf], [1.0, 0.0]])
    d = DistortionConstraint(table, budget=0.2)
    res = solve_nrdf(src, d)
    assert expected_distortion(src, res.argmin, d) <= 0.2 + 1e-9
    assert res.argmin.tables[0][0, 1] <= 1e-12


@pytest.mark.parametrize("budget", [0.3, 0.45])
def test_forbidden_cell_is_certified_at_the_grid_optimum(budget):
    # every input-ignoring reconstruction has distortion at least 0.5, and
    # a tilt at slope 0 would meet 0 * inf; the grid gives 0.03597376 at 0.45
    src = uniform_binary_source(SPEC1)
    d = DistortionConstraint(np.array([[0.0, 1.0], [np.inf, 0.0]]), budget)
    res = solve_nrdf(src, d)
    assert res.converged
    assert float(res.value) == pytest.approx(
        float(brute_force_nrdf(src, d, grid_resolution=400)), abs=1e-6
    )
    assert res.distortion_slack >= -1e-9


def test_no_solve_tilts_at_slope_zero(monkeypatch):
    slopes = []
    tilt = _NrdfProblem.tilt

    def spy(self, log_nu, s):
        slopes.append(s)
        return tilt(self, log_nu, s)

    monkeypatch.setattr(_NrdfProblem, "tilt", spy)
    inf_table = np.array([[0.0, 1.0], [np.inf, 0.0]])
    rd_curve(uniform_binary_source(SPEC1), DistortionConstraint(inf_table, 0.0), [0.3, 0.45])
    rd_curve(biased_source(0.3), DistortionConstraint(hamming_paths(SPEC1), 0.0), [0.05, 0.2])
    solve_nrdf(MARKOV_N1, DistortionConstraint(hamming_paths(SPEC2), budget=0.2))
    assert slopes and min(slopes) > 0.0


def test_an_exhausted_slope_bracket_returns_the_greedy_kernel(monkeypatch):
    # the budget's slope is ln 19 ~ 2.94, past a bracket capped at 1.5
    monkeypatch.setattr("dirinfo.solver._BRACKET_CAP", 1.5)
    src = uniform_binary_source(SPEC1)
    d = DistortionConstraint(hamming_paths(SPEC1), 0.05)
    result = solve_nrdf(src, d)
    assert not result.converged
    assert result.distortion_slack == 0.05 - min_expected_distortion(src, d)
    assert expected_distortion(src, result.argmin, d) <= 0.05
    assert result.value.value == di.directed_information(src.kernel, result.argmin)
    assert result.value.value == pytest.approx(math.log(2), abs=1e-15)


def test_every_finite_reconstruction_is_faithful():
    # only y = x has finite distortion, so every kernel within budget costs
    # ln 2; no input-free path is finite, so the search must bisect toward
    # slope 0 rather than false-position against an infinite cost
    src = uniform_binary_source(SPEC1)
    d = DistortionConstraint(np.array([[0.0, np.inf], [np.inf, 0.0]]), budget=0.3)
    res = solve_nrdf(src, d)
    assert res.converged
    assert float(res.value) == pytest.approx(math.log(2), abs=1e-6)
    assert res.distortion_slack >= -1e-9


def test_budget_just_under_the_input_free_floor():
    # within the 1e-9 budget slack of the zero-rate floor 0.5
    src = uniform_binary_source(SPEC1)
    d = DistortionConstraint(hamming_paths(SPEC1), budget=0.5 - 5e-10)
    res = solve_nrdf(src, d)
    assert res.converged
    assert float(res.value) == pytest.approx(0.0, abs=1e-6)
    assert res.distortion_slack >= -1e-9


@pytest.mark.parametrize("tol", [1e-6, 1e-5])
def test_search_stops_on_the_certified_gap_when_tol_is_not_below_multiplier_tol(tol):
    # tol is not read: the run stops on the certified gap, bit for bit as
    # at a tol far below multiplier_tol
    d = DistortionConstraint(hamming_paths(SPEC2), budget=0.2)
    res, fine = (solve_nrdf(MARKOV_N1, d, cfg=SolverConfig(tol=t)) for t in (tol, 1e-12))
    assert res.converged
    assert float(res.value) == pytest.approx(0.5969247, abs=2e-6)
    assert (res.value, res.iterations, res.distortion_slack) == (fine.value, fine.iterations, fine.distortion_slack)
    assert all(np.array_equal(a, b) for a, b in zip(res.argmin.tables, fine.argmin.tables))


def test_grid_guard():
    src = uniform_binary_source(SPEC2)
    d = DistortionConstraint(hamming_paths(SPEC2), budget=0.2)
    with pytest.raises(di.GridTooLarge):
        brute_force_nrdf(src, d, grid_resolution=300)


def test_markov_source_is_certified():
    # the value is certified within the default multiplier_tol of 1e-6
    res = solve_nrdf(MARKOV_N1, DistortionConstraint(hamming_paths(SPEC2), budget=0.2))
    assert res.converged
    assert float(res.value) == pytest.approx(0.5969247, abs=2e-6)
    assert res.distortion_slack >= -1e-9


@pytest.mark.parametrize("seed", [8, 14])
def test_markov_n2_is_certified_in_few_tilts(monkeypatch, seed):
    # a whole solve per slope took 5,364 and 1,357 tilts on these sources,
    # most of them regrowing output-law mass that the last slope had
    # driven towards 0; matching the slope at every update takes 325 and 161
    tilts = []
    tilt = _NrdfProblem.tilt

    def spy(self, log_nu, s):
        tilts.append(s)
        return tilt(self, log_nu, s)

    monkeypatch.setattr(_NrdfProblem, "tilt", spy)
    spec = di.AlphabetSpec(2, (2, 2, 2), (2, 2, 2))
    src = SourceSpec(random_feedback_free_kernel(rng_from_seed(seed), spec, min_mass=0.05))
    d = DistortionConstraint(hamming_paths(spec), budget=0.3)
    res = solve_nrdf(src, d)
    assert res.converged
    assert len(tilts) < 1000
    assert expected_distortion(src, res.argmin, d) <= 0.3 + 1e-9


def test_cold_matches_take_few_tilts(monkeypatch):
    # each i.i.d. solve certifies at its first evaluation, so it is one cold
    # match; closing the bracket by false position took 54 and 56 tilts
    # there, its steps landing on either side of the stop window
    tilts = []
    tilt = _NrdfProblem.tilt

    def spy(self, log_nu, s):
        tilts.append(s)
        return tilt(self, log_nu, s)

    monkeypatch.setattr(_NrdfProblem, "tilt", spy)
    for delta in (0.15, 0.2):
        tilts.clear()
        for n in range(6):
            spec = di.AlphabetSpec(n, (2,) * (n + 1), (2,) * (n + 1))
            d = DistortionConstraint(hamming_paths(spec), budget=delta * (n + 1))
            assert solve_nrdf(uniform_binary_source(spec), d).converged
        assert len(tilts) <= 48
    tilts.clear()
    assert solve_nrdf(MARKOV_N1, DistortionConstraint(hamming_paths(SPEC2), budget=0.2)).converged
    assert len(tilts) <= 35


def traced_relax(monkeypatch):
    """Record the evaluations ``(x, point)`` and the updates ``(x, point,
    mu)`` of the solver's relaxed run, in order."""
    evaluations, updates = [], []
    relax = nrdf.relax

    def spy(evaluate, advance, x, certify, tol, max_iters):
        def traced_evaluate(x):
            point = evaluate(x)
            evaluations.append((x, point))
            return point

        def traced_advance(x, point, mu):
            updates.append((x, point, mu))
            return advance(x, point, mu)

        return relax(traced_evaluate, traced_advance, x, certify, tol, max_iters)

    monkeypatch.setattr(nrdf, "relax", spy)
    return evaluations, updates


def test_relaxed_steps_are_undone_and_counted(monkeypatch):
    # the merit is the new joint's -I; an update with mu > 1 whose merit is
    # below the kept one's was over-relaxed, and the next update retakes it
    # from the kept law at mu = 1, which gives the kept tilt's output law
    evaluations, updates = traced_relax(monkeypatch)
    spec = di.AlphabetSpec(2, (2, 2, 2), (2, 2, 2))
    src = SourceSpec(random_feedback_free_kernel(rng_from_seed(8), spec, min_mass=0.05))
    res = solve_nrdf(src, DistortionConstraint(hamming_paths(spec), budget=0.3))
    undone = [
        k for k in range(1, len(evaluations))
        if updates[k - 1][2] > 1.0 and evaluations[k][1][0] < updates[k - 1][1][0]
    ]
    retaken = [k for k in undone if k < len(updates)]
    assert retaken
    for k in retaken:
        x, point, mu = updates[k]
        assert x is updates[k - 1][0] and mu == 1.0
        assert evaluations[k + 1][0][0] is point[1].log_nu
    assert res.converged
    assert res.iterations == len(updates) == len(evaluations) - 1


@pytest.mark.parametrize("max_iters", [1, 2, 3, 5])
def test_max_iters_caps_the_updates_of_a_solve(monkeypatch, max_iters):
    evaluations, updates = traced_relax(monkeypatch)
    cfg = SolverConfig(max_iters=max_iters)
    res = solve_nrdf(MARKOV_N1, DistortionConstraint(hamming_paths(SPEC2), budget=0.2), cfg=cfg)
    assert not res.converged  # the cap binds and is never passed
    assert res.iterations == len(updates) == len(evaluations) - 1 == max_iters
    assert res.distortion_slack >= 0.0


@pytest.mark.parametrize("seed", [8, 78, 105, 143])
def test_biased_coin_is_certified_at_its_closed_form(seed):
    rng = rng_from_seed(seed)
    p = float(rng.uniform(0.15, 0.5))
    budget = float(rng.uniform(0.02, 0.8 * p))
    res = solve_nrdf(biased_source(p), DistortionConstraint(hamming_paths(SPEC1), budget))
    assert res.converged
    assert float(res.value) == pytest.approx(hb(p) - hb(budget), abs=1e-6)


# ---------------------------------------------------------------------------
# the certified lower bound
# ---------------------------------------------------------------------------


def certified_bounds(src, d, slopes, updates=30):
    """(slope, bound) after each of the first updates at each slope, from a
    lopsided output law carried from one slope to the next."""
    prob = _NrdfProblem(src, d)
    log_nu = 3.0 * rng_from_seed(0).standard_normal(src.spec.y_sizes)
    for s in slopes:
        for _ in range(updates):
            step = prob.tilt(log_nu, s)
            log_nu = step.log_nu
            yield s, step.bound


SLOPES = (0.25, 1.0, 2.5, 6.0, 20.0)


def iid_rate(steps: int, budget: float) -> float:
    # (n+1)(ln 2 - H_b(D)) for a uniform binary source under summed Hamming
    letter = budget / steps
    return 0.0 if letter >= 0.5 else steps * (math.log(2) - hb(letter))


def assert_below_rate(bounds, rates):
    # each bound lower-bounds min_D R(D) + s D, for every budget D
    for s, bound in bounds:
        for budget, rate in rates:
            assert bound - s * budget <= rate + 1e-12


@pytest.mark.parametrize("n", [0, 1, 2])
def test_bound_never_exceeds_the_iid_closed_form(n):
    spec = di.AlphabetSpec(n, (2,) * (n + 1), (2,) * (n + 1))
    d = DistortionConstraint(hamming_paths(spec), budget=0.0)
    rates = [(b, iid_rate(spec.steps, b)) for b in np.linspace(0.01, 0.6, 25) * spec.steps]
    assert_below_rate(certified_bounds(uniform_binary_source(spec), d, SLOPES), rates)


def test_bound_never_exceeds_the_grid_oracle_on_a_path_distortion():
    src = uniform_binary_source(SPEC2)
    table = np.where(np.eye(4) > 0, 0.0, 1.0)
    rates = [
        (b, float(brute_force_nrdf(src, DistortionConstraint(table, b), grid_resolution=3)))
        for b in (0.2, 0.5)
    ]
    d = DistortionConstraint(table, budget=0.0)
    assert_below_rate(certified_bounds(src, d, SLOPES), rates)


def zero_mass_source():
    # x_0 = 2 never occurs, so its step-1 row, [1, 0], sits under zero mass;
    # the letters that occur are uniform and independent
    spec = di.AlphabetSpec(1, (3, 2), (3, 2))
    tables = [np.array([[0.5, 0.5, 0.0]]), np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])]
    return SourceSpec.from_step_tables(spec, tables)


def _least_distortion_by_enumeration(src, table):
    """Least expected distortion over every deterministic reconstruction
    ``y_i = g_i(x^i)``: the outputs before ``y_i`` are a function of
    ``x^{i-1}``, so these are all the deterministic kernels."""
    spec = src.spec
    mu = src.marginal().weights
    prefixes = [list(itertools.product(*map(range, spec.x_sizes[: i + 1]))) for i in range(spec.steps)]
    maps = [itertools.product(range(spec.y_sizes[i]), repeat=len(prefixes[i])) for i in range(spec.steps)]
    best = math.inf
    for choice in itertools.product(*maps):
        g = [dict(zip(prefixes[i], choice[i])) for i in range(spec.steps)]
        total = 0.0
        for code, xs in enumerate(itertools.product(*map(range, spec.x_sizes))):
            if mu[code] > 0:
                ys = tuple(g[i][xs[: i + 1]] for i in range(spec.steps))
                total += mu[code] * table[code, np.ravel_multi_index(ys, spec.y_sizes)]
        best = min(best, total)
    return best


@pytest.mark.parametrize("case", ["zero-mass", "zero-mass-inf-rows", "random"])
def test_min_expected_distortion_equals_enumeration(case):
    if case == "random":
        rng = rng_from_seed(5)
        src = SourceSpec(random_feedback_free_kernel(rng, SPEC2, min_mass=0.05))
        table = rng.uniform(0.0, 2.0, size=(SPEC2.num_x_paths, SPEC2.num_y_paths))
        table[1, :3] = np.inf
    else:
        src = zero_mass_source()
        table = hamming_paths(src.spec) + np.arange(src.spec.num_y_paths) / 7.0
        if case == "zero-mass-inf-rows":
            table[4:] = np.inf  # every reconstruction of x_0 = 2, which never occurs
    want = _least_distortion_by_enumeration(src, table)
    assert math.isfinite(want)
    assert min_expected_distortion(src, DistortionConstraint(table, 0.0)) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("forbidden", [False, True], ids=["finite", "inf-rows"])
def test_zero_mass_rows_are_certified(forbidden):
    src = zero_mass_source()
    table = hamming_paths(src.spec)
    if forbidden:
        table[4:] = np.inf  # every reconstruction of x_0 = 2
    # the third reconstruction letter never helps: two uniform binary letters
    rates = [(b, iid_rate(2, b)) for b in np.linspace(0.02, 1.0, 20)]
    assert_below_rate(certified_bounds(src, DistortionConstraint(table, 0.0), SLOPES), rates)
    res = solve_nrdf(src, DistortionConstraint(table, budget=0.3))
    assert res.converged
    assert float(res.value) == pytest.approx(iid_rate(2, 0.3), abs=1e-6)
    assert res.distortion_slack >= -1e-9


@pytest.mark.parametrize("case", ["markov", "zero-mass"])
def test_tilt_guards_only_a_law_that_starves_an_output_path(case, monkeypatch):
    src = MARKOV_N1 if case == "markov" else zero_mass_source()
    prob = _NrdfProblem(src, DistortionConstraint(hamming_paths(src.spec), budget=0.0))
    flags = spy_on_guards(monkeypatch)
    log_nu = 3.0 * rng_from_seed(0).standard_normal(src.spec.y_sizes)
    for s in SLOPES:
        step = prob.tilt(log_nu, s)
        log_nu = step.log_nu + 0.5 * step.log_c
    assert flags and not any(flags)  # a positive law gives every output path mass
    log_nu[(0,) * log_nu.ndim] = -np.inf  # a law with a zero gives that output path no mass
    flags.clear()
    step = prob.tilt(log_nu, 2.5)
    assert flags[-1] and np.isneginf(step.log_nu).any()
    assert np.array_equal(np.isneginf(step.log_c), np.isneginf(step.log_nu)) and not np.isnan(step.log_c).any()
    assert math.isfinite(step.di) and math.isfinite(step.bound)


def test_a_finite_distortion_overflowed_by_its_slope_runs_the_guard(monkeypatch):
    # reconstructing as 2 costs 1e307 whatever the source letter, so at a
    # large slope that output gets no mass although the table is finite; the
    # guard runs, and the answer is that of reconstructing as 2 forbidden.
    # The budget 0.3 binds exactly at the floor, which still leaves x = 2 a
    # free choice between y = 0 and y = 1, so a rate is left to minimize
    spec = di.AlphabetSpec(0, (3,), (3,))
    src = SourceSpec.from_step_tables(spec, [np.array([[0.4, 0.3, 0.3]])])
    table, forbidden = 1.0 - np.eye(3), 1.0 - np.eye(3)
    table[:, 2], forbidden[:, 2] = 1e307, np.inf
    flags = spy_on_guards(monkeypatch)
    for budget in (0.3, 0.3 + 1e-8, 0.5):
        want = solve_nrdf(src, DistortionConstraint(forbidden, budget))
        flags.clear()
        got = solve_nrdf(src, DistortionConstraint(table, budget))
        assert any(flags) and got.converged and want.converged and got.iterations == want.iterations
        assert got.value.value == want.value.value
        for d, res in ((table, got), (forbidden, want)):
            assert expected_distortion(src, res.argmin, DistortionConstraint(d, budget)) <= budget + 1e-9
        if budget < 0.4:  # at the floor 0.3, x = 2 goes to y = 0 with y's own probability 4/7
            assert float(got.value) == pytest.approx(0.7 * hb(4 / 7), abs=1e-6)


def test_budget_binding_at_a_nonzero_floor_is_certified():
    # the floor 0.75 is met only by the deterministic reproduction, whose
    # rate is the full source entropy
    src = uniform_binary_source(SPEC1)
    d = DistortionConstraint(np.array([[1.0, 2.0], [3.0, 0.5]]), budget=0.75)
    assert_below_rate(certified_bounds(src, d, SLOPES + (60.0,)), [(0.75, math.log(2))])
    res = solve_nrdf(src, d)
    assert res.converged
    assert float(res.value) == pytest.approx(math.log(2), abs=1e-6)
    assert res.distortion_slack >= -1e-9


# ---------------------------------------------------------------------------
# the rate-distortion curve
# ---------------------------------------------------------------------------


def test_rd_curve_is_monotone_and_anchored_at_source_entropy():
    src = biased_source(0.3)
    d = DistortionConstraint(hamming_paths(SPEC1), budget=0.0)
    budgets = [0.0, 0.05, 0.1, 0.2, 0.3]
    pts = rd_curve(src, d, budgets)
    assert [b for b, _ in pts] == budgets
    vals = [v for _, v in pts]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-7
    # zero-distortion endpoint equals the source path entropy H_b(0.3)
    assert vals[0] == pytest.approx(hb(0.3), abs=1e-6)
    # beyond the bias the rate is free
    assert vals[-1] == pytest.approx(0.0, abs=1e-9)


def test_rd_curve_is_midpoint_convex():
    src = uniform_binary_source(SPEC1)
    d = DistortionConstraint(hamming_paths(SPEC1), budget=0.0)
    budgets = [0.1, 0.2, 0.3]
    pts = rd_curve(src, d, budgets)
    vals = [v for _, v in pts]
    assert vals[1] <= 0.5 * (vals[0] + vals[2]) + 1e-6


def test_rd_curve_rejects_bad_grids():
    src = uniform_binary_source(SPEC1)
    d = DistortionConstraint(hamming_paths(SPEC1), budget=0.0)
    with pytest.raises(di.DomainError):
        rd_curve(src, d, [])
    with pytest.raises(di.DomainError):
        rd_curve(src, d, [0.2, 0.1])


def test_rd_curve_checks_every_budget_before_solving(monkeypatch):
    import dirinfo.nrdf

    solved = []
    monkeypatch.setattr(dirinfo.nrdf, "_solve_nrdf", lambda *a, **k: solved.append(a))
    src = uniform_binary_source(SPEC1)
    d = DistortionConstraint(hamming_paths(SPEC1), budget=0.0)
    for bad in (math.inf, -0.1, math.nan):
        with pytest.raises(di.DomainError):
            rd_curve(src, d, [0.1, 0.2, bad])
    assert solved == []


@pytest.mark.parametrize("case", ["uniform.n2", "markov.n1"])
def test_rd_curve_starts_each_budget_from_the_last_slope(monkeypatch, case):
    # each point is its own solve's value, to multiplier_tol, in fewer tilts
    # than solves that each start cold
    if case == "uniform.n2":
        spec = di.AlphabetSpec(2, (2, 2, 2), (2, 2, 2))
        src, budgets = uniform_binary_source(spec), [0.3, 0.45, 0.6, 0.75, 0.9]
    else:
        spec, src, budgets = SPEC2, MARKOV_N1, [0.1, 0.2, 0.3]
    d = DistortionConstraint(hamming_paths(spec), budget=0.0)
    tilts = []
    tilt = _NrdfProblem.tilt

    def spy(self, log_nu, s):
        tilts.append(s)
        return tilt(self, log_nu, s)

    monkeypatch.setattr(_NrdfProblem, "tilt", spy)
    curve = rd_curve(src, d, budgets)
    curve_tilts = len(tilts)
    for b, value in curve:
        alone = solve_nrdf(src, d, budget=b)
        assert alone.converged
        assert value == pytest.approx(alone.value.value, abs=DEFAULT_CONFIG.multiplier_tol)
    assert curve_tilts < len(tilts) - curve_tilts


def test_rd_curve_sets_its_problem_up_once(monkeypatch):
    # the least-distortion induction runs once per curve, not per budget
    calls = []
    dp = nrdf._distortion_dp

    def spy(prob):
        calls.append(prob)
        return dp(prob)

    monkeypatch.setattr(nrdf, "_distortion_dp", spy)
    spec = di.AlphabetSpec(2, (2, 2, 2), (2, 2, 2))
    src, d = uniform_binary_source(spec), DistortionConstraint(hamming_paths(spec), budget=0.0)
    curve = rd_curve(src, d, [0.3, 0.45, 0.6, 0.75, 0.9])
    assert len(curve) == 5 and len(calls) == 1
    calls.clear()
    assert min_expected_distortion(src, d) == 0.0 and len(calls) == 1


def test_rd_curve_rejects_a_repeated_budget():
    src = uniform_binary_source(SPEC1)
    d = DistortionConstraint(hamming_paths(SPEC1), budget=0.0)
    with pytest.raises(di.DomainError):
        rd_curve(src, d, [0.1, 0.1])


# ---------------------------------------------------------------------------
# result plumbing
# ---------------------------------------------------------------------------


def test_result_fields_are_coherent():
    src = uniform_binary_source(SPEC1)
    d = DistortionConstraint(hamming_paths(SPEC1), budget=0.15)
    res = solve_nrdf(src, d, cfg=SolverConfig(max_iters=50_000))
    assert isinstance(res, NrdfResult)
    assert isinstance(res.value, di.InfoValue)
    again = di.directed_information(src.kernel, res.argmin)
    assert float(res.value) == pytest.approx(again, abs=1e-12)
    slack = 0.15 - expected_distortion(src, res.argmin, d)
    assert res.distortion_slack == pytest.approx(slack, abs=1e-12)


def test_source_marginal_is_product_of_steps():
    src = biased_source(0.3)
    m = src.marginal()
    assert np.allclose(np.asarray(m.weights).ravel(), [0.7, 0.3])
