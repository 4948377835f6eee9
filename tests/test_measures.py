import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dirinfo as di
from dirinfo import measures
from dirinfo.measures import (
    PMF_TOL,
    active_cell_cap,
    condition_on_path,
    mix_conditioned,
    refactor_to_kernel,
)
from dirinfo.sampling import (
    random_backward_kernel,
    random_feedback_free_kernel,
    random_forward_kernel,
    random_input_free_kernel,
    random_pmf,
    random_spec,
    rng_from_seed,
)

from helpers import (
    backward_kernel_from_fn,
    decode,
    forward_kernel_from_fn,
    random_kernel_fn,
)


# ---------------------------------------------------------------------------
# AlphabetSpec
# ---------------------------------------------------------------------------


def test_spec_basic_counts():
    spec = di.AlphabetSpec(1, (2, 3), (4, 5))
    assert spec.steps == 2
    assert spec.num_x_paths == 6
    assert spec.num_y_paths == 20
    assert spec.num_y_histories == 4
    assert spec.total_cells == 120
    assert spec.interleaved_shape == (2, 4, 3, 5)
    assert spec.input_history_count(0) == 1
    assert spec.input_history_count(1) == 8
    assert spec.output_history_count(0) == 2
    assert spec.output_history_count(1) == 24


def test_spec_validation():
    with pytest.raises(di.DomainError):
        di.AlphabetSpec(-1, (2,), (2,))
    with pytest.raises(di.DomainError):
        di.AlphabetSpec(0, (2, 2), (2,))
    with pytest.raises(di.DomainError):
        di.AlphabetSpec(0, (0,), (2,))


@pytest.mark.parametrize("make, name", [
    pytest.param(lambda: di.AlphabetSpec(0, (2.7,), (2,)), "x_sizes", id="size-float"),
    pytest.param(lambda: di.AlphabetSpec(0, (2,), ("2",)), "y_sizes", id="size-text"),
    pytest.param(lambda: di.AlphabetSpec(0, (True,), (2,)), "x_sizes", id="size-bool"),
    pytest.param(lambda: di.AlphabetSpec(1.0, (2, 2), (2, 2)), "horizon_n", id="horizon-float"),
    pytest.param(lambda: di.AlphabetSpec(False, (2,), (2,)), "horizon_n", id="horizon-bool"),
    pytest.param(lambda: di.SolverConfig(max_iters=3.0), "max_iters", id="max-iters-float"),
    pytest.param(lambda: di.SolverConfig(max_iters=np.int64(0)), "max_iters", id="max-iters-zero"),
    pytest.param(lambda: di.run_suite("lsc", cases=2.9), "cases", id="cases-float"),
    pytest.param(lambda: di.run_suite("lsc", cases=0), "cases", id="cases-zero"),
    pytest.param(lambda: di.run_suite("lsc", seed=1.5), "seed", id="seed-float"),
    pytest.param(lambda: di.run_suite("lsc", seed="3"), "seed", id="seed-text"),
])
def test_counts_are_integers_and_an_error_names_the_parameter(make, name):
    with pytest.raises(di.DomainError, match=name):
        make()


def test_numpy_integer_counts_act_as_the_int():
    spec = di.AlphabetSpec(np.int64(1), (np.int32(2), 3), (2, np.uint8(3)))
    assert spec == di.AlphabetSpec(1, (2, 3), (2, 3))
    assert all(type(v) is int for v in (spec.horizon_n,) + spec.x_sizes + spec.y_sizes)
    assert di.run_suite("lsc", seed=np.int64(2), cases=np.int64(2)) == di.run_suite("lsc", seed=2, cases=2)


def test_cell_cap_env_override(monkeypatch):
    monkeypatch.setenv("DIRINFO_CELL_CAP", "10")
    assert active_cell_cap() == 10
    with pytest.raises(di.DomainError):
        di.AlphabetSpec(1, (2, 2), (2, 2))  # 16 cells > 10
    monkeypatch.delenv("DIRINFO_CELL_CAP")
    di.AlphabetSpec(1, (2, 2), (2, 2))


_S0 = di.AlphabetSpec(0, (2,), (2,))
_S1 = di.AlphabetSpec(1, (2, 2), (2, 2))
_HALF = np.array([[0.5, 0.5]])


@pytest.mark.parametrize("make, error", [
    pytest.param(lambda mp: mp.setenv("DIRINFO_CELL_CAP", "ten") or active_cell_cap(), di.DomainError, id="cap-text"),
    pytest.param(lambda mp: mp.setenv("DIRINFO_CELL_CAP", "0") or active_cell_cap(), di.DomainError, id="cap-zero"),
    pytest.param(lambda mp: di.build_joint(di.BackwardKernel.uniform(_S0), di.ForwardKernel.uniform(_S1)),
                 di.SpecMismatch, id="specs-differ"),
    pytest.param(lambda mp: di.BackwardKernel.from_feedback_free_tables(_S1, [_HALF, _HALF]),
                 di.SpecMismatch, id="tied-table-shape"),
    pytest.param(lambda mp: di.BackwardKernel.from_feedback_free_tables(_S1, [_HALF]),
                 di.SpecMismatch, id="tied-table-count"),
    pytest.param(lambda mp: di.BackwardKernel(_S0, (np.array([[np.nan, 1.0]]),)), di.DomainError, id="non-finite-row"),
    pytest.param(lambda mp: di.Pmf(np.array([])), di.DomainError, id="empty-pmf"),
    pytest.param(lambda mp: di.JointMeasure(_S0, np.full(4, 0.25)), di.SpecMismatch, id="joint-shape"),
    pytest.param(lambda mp: di.JointMeasure(_S0, np.array([[np.inf, 0.0], [0.0, 0.0]])),
                 di.DomainError, id="joint-non-finite"),
    pytest.param(lambda mp: di.ConditionedFamily(_S0, "z", np.eye(2)), di.DomainError, id="family-given"),
    pytest.param(lambda mp: di.ConditionedFamily(_S0, "x", _HALF), di.SpecMismatch, id="family-shape"),
    pytest.param(lambda mp: di.product_pi_forward(di.BackwardKernel.uniform(_S1), di.Pmf(_HALF[0])),
                 di.SpecMismatch, id="nu-size"),
    pytest.param(lambda mp: di.product_pi_backward(di.Pmf(_HALF[0]), di.ForwardKernel.uniform(_S1)),
                 di.SpecMismatch, id="mu-size"),
    pytest.param(lambda mp: di.kl_divergence(di.Pmf(_HALF[0]), np.full(3, 1.0)), di.SpecMismatch, id="kl-spaces"),
    pytest.param(lambda mp: condition_on_path(np.eye(2)), TypeError, id="condition-non-kernel"),
])
def test_input_guards(make, error, monkeypatch):
    with pytest.raises(error):
        make(monkeypatch)


# ---------------------------------------------------------------------------
# Pmf / InfoValue
# ---------------------------------------------------------------------------


def test_pmf_validation():
    di.Pmf(np.array([0.5, 0.5]))
    with pytest.raises(di.DomainError):
        di.Pmf(np.array([0.5, 0.6]))
    with pytest.raises(di.DomainError):
        di.Pmf(np.array([1.5, -0.5]))
    with pytest.raises(di.DomainError):
        di.Pmf(np.array([[0.5, 0.5]]))


def test_pmf_tolerates_tiny_drift():
    di.Pmf(np.array([0.5, 0.5 + 0.5 * PMF_TOL]))
    with pytest.raises(di.DomainError):
        di.Pmf(np.array([0.5, 0.5 + 1e-9]))


def test_info_value_clamps_tiny_negatives():
    assert di.InfoValue(-5e-13).value == 0.0
    assert di.InfoValue(0.25).value == 0.25
    assert float(di.InfoValue(math.inf)) == math.inf
    with pytest.raises(di.DomainError):
        di.InfoValue(-1e-11)
    with pytest.raises(di.DomainError):
        di.InfoValue(math.nan)


def test_info_value_units_and_sum():
    v = di.InfoValue(math.log(2))
    assert v.bits == pytest.approx(1.0, abs=1e-15)
    total = sum([di.InfoValue(0.25), di.InfoValue(0.5)])
    assert isinstance(total, di.InfoValue)
    assert total.value == 0.75


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_kernel_shape_and_row_validation():
    spec = di.AlphabetSpec(0, (2,), (2,))
    di.BackwardKernel(spec, (np.array([[0.5, 0.5]]),))
    with pytest.raises(di.SpecMismatch):
        di.BackwardKernel(spec, (np.array([[0.5, 0.5], [0.5, 0.5]]),))
    with pytest.raises(di.DomainError):
        di.BackwardKernel(spec, (np.array([[0.7, 0.2]]),))
    with pytest.raises(di.SpecMismatch):
        di.ForwardKernel(spec, (np.array([[1.0, 0.0]]),))  # needs 2 rows


@pytest.mark.parametrize("n", [0, 2])
def test_kernels_at_the_row_bound_pass_every_mass_check_downstream(n):
    # each row is held to PMF_TOL / (4 (n + 1)), so that the products of up
    # to 2 (n + 1) rows in joints, path conditionals and output marginals
    # stay within PMF_TOL
    spec = di.AlphabetSpec(n, (2,) * (n + 1), (2,) * (n + 1))
    bound = PMF_TOL / (4 * spec.steps)

    def heavy(kernel, scale=1.0 + 0.9 * bound):
        return type(kernel)(spec, tuple(t * scale for t in kernel.tables))

    rng = rng_from_seed(n)
    p, p2 = (heavy(random_backward_kernel(rng, spec, min_mass=0.05)) for _ in range(2))
    q, q2 = (heavy(random_forward_kernel(rng, spec, min_mass=0.05)) for _ in range(2))
    assert min(float(t.sum(axis=-1).min()) for t in p.tables + q.tables) > 1.0 + 0.8 * bound
    src = di.SourceSpec(heavy(di.BackwardKernel.uniform(spec)))
    hamming = [[sum(a != b for a, b in zip(np.unravel_index(x, spec.x_sizes), np.unravel_index(y, spec.y_sizes)))
                for y in range(spec.num_y_paths)] for x in range(spec.num_x_paths)]
    d = di.DistortionConstraint(np.array(hamming, dtype=float), 0.1 * spec.steps)
    di.directed_information_sum(p, q)
    di.mutual_information(di.build_joint(p, q))
    condition_on_path(p)
    condition_on_path(q)
    di.extract_forward_family(di.build_joint(p, q))
    di.extract_backward_family(di.build_joint(p, q))
    assert di.check_convexity_in_q(p, q, q2, [0.5]).passed
    assert di.check_concavity_in_p(q, p, p2, [0.5]).passed
    assert di.check_lower_semicontinuity(p, q, [q2, q]).passed
    assert 0.0 < di.expected_distortion(src, q, d) < math.inf
    assert di.solve_capacity(q).converged
    assert di.solve_capacity(q, no_feedback=True).converged
    assert di.solve_nrdf(src, d).converged
    # a row at twice the bound is rejected, and its table named
    tables = list(q.tables)
    tables[-1] = tables[-1] / tables[-1].sum(axis=-1, keepdims=True)
    tables[-1][-1] *= 1.0 + 2.0 * bound
    with pytest.raises(di.DomainError, match=f"forward kernel table {n} rows must sum to 1 within"):
        di.ForwardKernel(spec, tuple(tables))


def test_feedback_free_expansion_ignores_output_history():
    rng = rng_from_seed(0)
    spec = di.AlphabetSpec(2, (2, 2, 2), (3, 2, 3))
    tied = [np.full((2 ** i, 2), 0.5) for i in range(3)]
    tied[1] = np.array([[0.9, 0.1], [0.2, 0.8]])
    p = di.BackwardKernel.from_feedback_free_tables(spec, tied)
    assert di.ignores_output_history(p)
    loose = random_backward_kernel(rng, spec)
    assert not di.ignores_output_history(loose)


TIED_SPECS = [
    di.AlphabetSpec(0, (3,), (2,)),
    di.AlphabetSpec(1, (2, 3), (3, 2)),
    di.AlphabetSpec(2, (3, 2, 2), (2, 3, 2)),
    di.AlphabetSpec(3, (2, 3, 2, 3), (3, 2, 3, 2)),
]


@pytest.mark.parametrize("side", ["feedback-free", "input-free"])
@pytest.mark.parametrize("spec", TIED_SPECS, ids=lambda s: f"n{s.horizon_n}")
def test_tied_constructors_match_kernels_of_history_functions(spec, side):
    # unequal per-step sizes, so an x/y swap anywhere in the expansion shows
    backward = side == "feedback-free"
    sizes = spec.x_sizes if backward else spec.y_sizes
    fn = random_kernel_fn(random.Random(spec.horizon_n), sizes)
    tied = [
        np.array([fn(i, decode(c, sizes[:i]), ()) for c in range(math.prod(sizes[:i]))])
        for i in range(spec.steps)
    ]
    if backward:
        got = di.BackwardKernel.from_feedback_free_tables(spec, tied)
        want = backward_kernel_from_fn(spec, lambda i, xs, ys: fn(i, xs, ()))
    else:
        got = di.ForwardKernel.from_input_free_tables(spec, tied)
        want = forward_kernel_from_fn(spec, lambda i, xs, ys: fn(i, ys, ()))
    assert len(got.tables) == spec.steps
    for g, w in zip(got.tables, want.tables):
        assert g.shape == w.shape and np.array_equal(g, w)


def test_tied_tables_are_expanded_into_arrays_the_kernel_adopts(monkeypatch):
    real, expanded = measures._expand_tied_table, []

    def spy(*args):
        expanded.append(real(*args))
        return expanded[-1]

    monkeypatch.setattr(measures, "_expand_tied_table", spy)
    spec = TIED_SPECS[2]
    rng = rng_from_seed(4)
    kernels = random_feedback_free_kernel(rng, spec), random_input_free_kernel(rng, spec)
    tables = kernels[0].tables + kernels[1].tables
    assert len(expanded) == len(tables)
    for got, want in zip(tables, expanded):
        assert got is want
        assert got.base is None and not got.flags.writeable


def test_kernels_copy_the_arrays_their_caller_hands_them():
    spec = di.AlphabetSpec(1, (2, 2), (2, 2))
    plain = [np.array([[0.5, 0.5]]), np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])]
    tied = [np.array([[0.4, 0.6]]), np.array([[0.9, 0.1], [0.2, 0.8]])]
    kernels = di.BackwardKernel(spec, tuple(plain)), di.BackwardKernel.from_feedback_free_tables(spec, tied)
    kept = [t.copy() for k in kernels for t in k.tables]
    for t in plain + tied:
        t[:] = t[:, ::-1].copy()  # still rows of a kernel
    for got, want in zip([t for k in kernels for t in k.tables], kept):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("lead", [None, 1], ids=["rows", "stacked-joints"])
@pytest.mark.parametrize("cell, match", [
    (math.nan, "non-finite"),
    (math.inf, "non-finite"),
    (-0.25, "negative"),
    (0.75, "rows must sum to 1 within|mass is"),
])
def test_check_laws_rejects_every_element_that_is_not_a_law(lead, cell, match):
    # two laws of 12 cells, or 6 rows of 4; only the last cell's is wrong
    w = np.full((2, 3, 4), 0.25 if lead is None else 1.0 / 12)
    measures._check_laws(w, "law", lead=lead)
    w[-1, -1, -1] = cell
    with pytest.raises(di.DomainError, match=f"^law .*({match})"):
        measures._check_laws(w, "law", lead=lead)
    if lead is None:
        with pytest.raises(di.DomainError, match=match):
            di.Pmf(w[-1, -1])
        with pytest.raises(di.DomainError, match=match):
            di.ConditionedFamily(_S1, "y", w.reshape(-1, 4)[-2:])
    else:
        with pytest.raises(di.DomainError, match=match):
            di.JointMeasure(di.AlphabetSpec(0, (3,), (4,)), w[-1])


def test_the_divergence_route_copies_only_the_output_marginal(monkeypatch):
    real, copied = measures._as_readonly, []

    def spy(arr):
        out = real(arr)
        if out is not arr:
            copied.append(arr.size)
        return out

    monkeypatch.setattr(measures, "_as_readonly", spy)
    spec = di.AlphabetSpec(2, (2, 3, 2), (3, 2, 2))
    rng = rng_from_seed(5)
    di.directed_information_sum(random_backward_kernel(rng, spec), random_forward_kernel(rng, spec))
    assert copied and max(copied) <= spec.num_y_paths


def test_the_product_joint_adopts_the_array_it_builds(monkeypatch):
    # a copy owns its memory too, so the joint must hold the very array
    # that product_pi_forward froze
    real, frozen = measures._frozen, []

    def spy(arr):
        frozen.append(real(arr))
        return frozen[-1]

    monkeypatch.setattr(measures, "_frozen", spy)
    spec = di.AlphabetSpec(2, (2, 3, 2), (3, 2, 2))
    rng = rng_from_seed(6)
    p, nu = random_backward_kernel(rng, spec), random_pmf(rng, spec.num_y_paths)
    w = measures.product_pi_forward(p, nu).weights
    assert w is frozen[-1]
    assert w.base is None and not w.flags.writeable


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("make", [random_backward_kernel, random_forward_kernel], ids=["backward", "forward"])
def test_a_conditioned_family_adopts_the_path_table_it_builds(monkeypatch, n, make):
    # at n = 0 a forward kernel's side-major order is the interleaved one,
    # where a reshape alone would give a view
    real, built = measures._path_table, []

    def spy(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(measures, "_path_table", spy)
    spec = di.AlphabetSpec(n, (2, 3)[: n + 1], (3, 2)[: n + 1])
    table = measures.condition_on_path(make(rng_from_seed(7), spec)).table
    assert table is built[-1]
    assert table.base is None and not table.flags.writeable


def test_uniform_kernels():
    spec = di.AlphabetSpec(1, (2, 3), (4, 2))
    p = di.BackwardKernel.uniform(spec)
    q = di.ForwardKernel.uniform(spec)
    assert np.allclose(p.tables[1], 1.0 / 3)
    assert np.allclose(q.tables[0], 0.25)


# ---------------------------------------------------------------------------
# joint construction and factorization round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_build_joint_and_extract_round_trip(seed):
    rng = rng_from_seed(seed)
    spec = random_spec(rng)
    p = random_backward_kernel(rng, spec)
    q = random_forward_kernel(rng, spec)
    joint = di.build_joint(p, q)
    assert joint.weights.sum() == pytest.approx(1.0, abs=1e-12)
    p2 = di.extract_backward_family(joint)
    q2 = di.extract_forward_family(joint)
    for a, b in zip(p.tables, p2.tables):
        assert np.abs(a - b).max() < 1e-10
    for a, b in zip(q.tables, q2.tables):
        assert np.abs(a - b).max() < 1e-10


def test_extract_uses_uniform_on_null_rows():
    spec = di.AlphabetSpec(1, (2, 2), (2, 2))
    # deterministic input concentrates mass; unreachable histories get
    # uniform rows in the extracted family
    p = di.BackwardKernel(
        spec,
        (
            np.array([[1.0, 0.0]]),
            np.tile(np.array([[1.0, 0.0]]), (4, 1)),
        ),
    )
    q = di.ForwardKernel.uniform(spec)
    joint = di.build_joint(p, q)
    p2 = di.extract_backward_family(joint)
    # rows keyed by x0=1 histories are unreachable
    assert np.allclose(p2.tables[1][2:], 0.5)
    assert np.allclose(p2.tables[1][:2], [[1.0, 0.0]])


def test_marginals_and_product_measures():
    rng = rng_from_seed(3)
    spec = random_spec(rng)
    p = random_backward_kernel(rng, spec)
    q = random_forward_kernel(rng, spec)
    joint = di.build_joint(p, q)
    mu = di.marginal_x(joint)
    nu = di.marginal_y(joint)
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert nu.weights.sum() == pytest.approx(1.0, abs=1e-12)
    pi_f = di.product_pi_forward(p, nu)
    assert pi_f.weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(di.marginal_y(pi_f).weights, nu.weights, atol=1e-12)
    pi_b = di.product_pi_backward(mu, q)
    assert pi_b.weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(di.marginal_x(pi_b).weights, mu.weights, atol=1e-12)


def _broadcast_product(tables, side, shape):
    """One broadcast over all axes of ``shape`` per step table of
    ``side``, in step order, the tables' leading axes kept."""
    want = np.ones(())
    for i, t in enumerate(tables):
        stop = 2 * i + side + 1
        want = want * t.reshape(t.shape[:-2] + shape[:stop] + (1,) * (len(shape) - stop))
    return want


@pytest.mark.parametrize("seed", range(8))
def test_product_pi_forward_matches_a_broadcast_over_all_axes(seed):
    rng = rng_from_seed(seed)
    spec = random_spec(rng)
    p = random_backward_kernel(rng, spec)
    nu = random_pmf(rng, spec.num_y_paths)
    want = _broadcast_product(p.tables, 0, spec.interleaved_shape) * nu.weights.reshape(
        measures._tied_shape(spec, 1)
    )
    got = di.product_pi_forward(p, nu).weights
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("side", [0, 1])
def test_tied_tables_give_the_broadcast_product_of_their_tied_shape(side):
    # tables keyed by the side's own history, plain and stacked as the grid
    # oracles stack them (rows picked from a pool); 400 stacked kernels
    # pass _BROADCAST_CELLS, so both ways of extending a product run
    spec = di.AlphabetSpec(2, (2, 3, 2), (3, 2, 2))
    rng = rng_from_seed(70 + side)
    shape = measures._tied_shape(spec, side)
    stacked = []
    for i in range(spec.steps):
        rows, k = measures._table_shape(spec, side, i, tied=True)
        pool = rng.dirichlet(np.ones(k), size=6)
        stacked.append(np.take(pool, rng.integers(0, len(pool), size=(400, rows)), axis=0))
    for tables in ([t[0] for t in stacked], stacked):
        want = _broadcast_product(tables, side, shape)
        got = measures._path_weights(spec, tables, side, tied=True)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("stop", [0, 1, 2, 3])
def test_blocks_hold_the_very_cells_of_the_whole_joint_and_input_path_weights(monkeypatch, stop):
    # 2^14 cells: the products over the later axes pass _BROADCAST_CELLS,
    # so both ways of extending a product by a table run
    spec = di.AlphabetSpec(6, (2,) * 7, (2,) * 7)
    rng = rng_from_seed(8)
    p, q = random_backward_kernel(rng, spec), random_forward_kernel(rng, spec)
    whole = di.build_joint(p, q).weights
    want = np.ones(())  # one broadcast over all axes per table, in step order
    for i, (pt, qt) in enumerate(zip(p.tables, q.tables)):
        want = want[..., None] * pt.reshape(spec.interleaved_shape[:2 * i + 1])
        want = want[..., None] * qt.reshape(spec.interleaved_shape[:2 * i + 2])
    assert np.array_equal(whole, want)
    inputs = measures._path_weights(spec, p.tables, 0)
    monkeypatch.setattr(measures, "JOINT_BLOCK_CELLS", math.prod(spec.interleaved_shape[stop:]))
    blocks = list(measures._joint_blocks(spec, p.tables, q.tables))
    assert [prefix for prefix, _ in blocks] == list(np.ndindex(spec.interleaved_shape[:stop]))
    for (prefix, block), a in zip(blocks, measures._input_path_blocks(spec, p.tables), strict=True):
        assert np.array_equal(block, whole[prefix])
        assert np.array_equal(a, inputs[prefix])


def test_product_pi_backward_of_input_free_channel_is_product():
    spec = di.AlphabetSpec(0, (2,), (3,))
    mu = di.Pmf(np.array([0.3, 0.7]))
    q = di.ForwardKernel.from_input_free_tables(spec, [np.array([[0.2, 0.3, 0.5]])])
    pi = di.product_pi_backward(mu, q)
    mat = di.joint_path_matrix(pi)
    assert np.allclose(mat, np.outer([0.3, 0.7], [0.2, 0.3, 0.5]))


# ---------------------------------------------------------------------------
# KL divergence
# ---------------------------------------------------------------------------


def test_kl_divergence_basics():
    a = di.Pmf(np.array([0.5, 0.5]))
    b = di.Pmf(np.array([0.25, 0.75]))
    v = float(di.kl_divergence(a, b))
    want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert v == pytest.approx(want, abs=1e-15)
    assert float(di.kl_divergence(a, a)) == 0.0


def test_kl_divergence_absolute_continuity():
    a = di.Pmf(np.array([0.5, 0.5]))
    b = di.Pmf(np.array([1.0, 0.0]))
    assert float(di.kl_divergence(a, b)) == math.inf
    # 0 log 0 = 0: support shrinkage in the first argument is fine
    assert float(di.kl_divergence(b, a)) == pytest.approx(math.log(2), abs=1e-15)


def test_kl_divergence_stays_finite_when_a_quotient_overflows():
    # 0.5 / 1e-320 is past the float range; the divergence is about 368 nats
    a = np.array([0.5, 0.5])
    b = np.array([1.0, 1e-320])
    want = 0.5 * math.log(0.5) + 0.5 * (math.log(0.5) - math.log(1e-320))
    assert float(di.kl_divergence(a, b)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("bad", [[-0.5, 1.5], [np.nan, 1.0], [np.inf, 0.5]])
@pytest.mark.parametrize("side", ["a", "b"])
def test_kl_divergence_rejects_negative_or_non_finite_array_entries(bad, side):
    # a negative entry is an error, not a cell that contributes nothing
    good, bad = np.array([0.5, 0.5]), np.array(bad)
    with pytest.raises(di.DomainError):
        di.kl_divergence(*((bad, good) if side == "a" else (good, bad)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_gibbs_inequality(seed, size):
    rng = rng_from_seed(seed)
    a = random_pmf(rng, size)
    b = random_pmf(rng, size)
    assert float(di.kl_divergence(a, b)) >= 0.0


def _masked_log_ratio(mass, den, lead=0):
    # the masked broadcast that _mass_log_ratio keeps for small arrays and
    # arrays with a cell without mass
    ratio = np.divide(mass, den, out=np.ones_like(mass), where=mass > 0)
    np.log(ratio, out=ratio)
    lead_shape = mass.shape[:lead]
    return (mass.reshape(lead_shape + (1, -1)) @ ratio.reshape(lead_shape + (-1, 1)))[..., 0, 0]


@pytest.mark.parametrize("den_kind", ["trailing", "same-shape"])
@pytest.mark.parametrize("shape, lead", [((3,) * 8, 0), ((2,) * 12, 0), ((4,) * 6, 0), ((5, 2, 3, 4, 3, 4), 1)])
@pytest.mark.parametrize("cells", ["dense", "zero-mass", "mass-over-zero"])
def test_mass_log_ratio_past_the_broadcast_threshold_is_the_masked_formula(den_kind, shape, lead, cells):
    # bit for bit: each cell's quotient, its log and the product are the same
    rng = rng_from_seed(71)
    mass = rng.random(shape)
    assert mass.size > measures._BROADCAST_CELLS
    if cells == "zero-mass":
        mass[rng.random(shape) < 0.2] = 0.0
    den = mass.sum(axis=-1)[..., None] if den_kind == "trailing" else rng.random(shape)
    if cells == "mass-over-zero":
        at = np.unravel_index(np.argmax(mass), shape)
        den = den.copy()
        den[at[:-1] + (0,) if den_kind == "trailing" else at] = 0.0
    with np.errstate(divide="ignore"):
        got = measures._mass_log_ratio(mass, den, lead)
        want = _masked_log_ratio(mass, den, lead)
    assert np.shape(got) == shape[:lead]
    assert np.array_equal(got, want)
    assert np.isposinf(got).any() == (cells == "mass-over-zero")


@pytest.mark.parametrize("shape", [(3, 4, 2), (2,) * 12], ids=["small", "past-threshold"])
@pytest.mark.parametrize("cells", ["dense", "zero-mass", "mass-over-zero", "subnormal"])
def test_divergence_sum_takes_a_b_broadcast_along_a_size_one_trailing_axis(shape, cells):
    # the divergence route's use: a joint block against the input-path
    # weights at its prefix, which are 1 wide on the trailing y_n axis
    rng = rng_from_seed(72)
    wa = rng.random(shape)
    if cells == "zero-mass":
        wa[rng.random(shape) < 0.2] = 0.0
    wa /= wa.sum()
    b = rng.random(shape[:-1] + (1,))
    row = np.unravel_index(np.argmax(wa), shape)[:-1] + (0,)  # a row with mass
    if cells == "mass-over-zero":
        b[row] = 0.0
    if cells == "subnormal":
        b[row] = 1e-320  # its quotients leave the float range
    full = np.broadcast_to(b, shape).copy()
    got = measures._divergence_sum(wa, b)
    assert got == measures._divergence_sum(wa, full)
    if cells == "mass-over-zero":
        assert got == math.inf
    else:
        pos = wa > 0
        want = float(np.sum(wa[pos] * (np.log(wa[pos]) - np.log(full[pos]))))
        assert math.isfinite(got) and got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# path-level conditionals and causal mixtures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_condition_refactor_round_trip(seed):
    rng = rng_from_seed(seed)
    spec = random_spec(rng)
    p = random_backward_kernel(rng, spec)
    q = random_forward_kernel(rng, spec)
    p2 = refactor_to_kernel(condition_on_path(p))
    q2 = refactor_to_kernel(condition_on_path(q))
    for a, b in zip(p.tables, p2.tables):
        assert np.abs(a - b).max() < 1e-12
    for a, b in zip(q.tables, q2.tables):
        assert np.abs(a - b).max() < 1e-12


def test_conditioned_family_rows_are_stochastic():
    rng = rng_from_seed(1)
    spec = random_spec(rng)
    q = random_forward_kernel(rng, spec)
    fam = condition_on_path(q)
    assert fam.given == "x"
    assert fam.table.shape == (spec.num_x_paths, spec.num_y_paths)
    assert np.allclose(fam.table.sum(axis=-1), 1.0, atol=1e-12)
    p = random_backward_kernel(rng, spec)
    famp = condition_on_path(p)
    assert famp.given == "y"
    assert famp.table.shape == (spec.num_y_histories, spec.num_x_paths)
    assert np.allclose(famp.table.sum(axis=-1), 1.0, atol=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_mixtures_stay_valid_and_causal(lam):
    # the mixed family refactors to a kernel whose path conditional matches
    # the mixture exactly: causality survives path-level mixing
    rng = rng_from_seed(11)
    spec = random_spec(rng)
    q1 = random_forward_kernel(rng, spec)
    q2 = random_forward_kernel(rng, spec)
    mix = mix_conditioned(condition_on_path(q1), condition_on_path(q2), lam)
    assert np.allclose(mix.table.sum(axis=-1), 1.0, atol=1e-12)
    back = condition_on_path(refactor_to_kernel(mix))
    assert np.abs(back.table - mix.table).max() < 1e-12


def _laid_out(family):
    """The family's rows times a uniform law on its conditioning paths (and
    on ``y_n`` for a backward family), as a joint in interleaved order."""
    spec, n = family.spec, family.spec.horizon_n
    if family.given == "x":  # axes x_0..x_n, y_0..y_n
        w = family.table.reshape(spec.x_sizes + spec.y_sizes) / spec.num_x_paths
        order = [a for i in range(n + 1) for a in (i, n + 1 + i)]
    else:  # axes y_0..y_{n-1}, x_0..x_n, y_n
        w = family.table.reshape(spec.y_sizes[:-1] + spec.x_sizes + (1,)) / spec.num_y_paths
        w = np.broadcast_to(w, w.shape[:-1] + spec.y_sizes[-1:])
        order = [a for i in range(n) for a in (n + i, i)] + [2 * n, 2 * n + 1]
    return di.JointMeasure(spec, np.ascontiguousarray(w.transpose(order)))


def _extracted(family):
    joint = _laid_out(family)
    return (di.extract_forward_family if family.given == "x" else di.extract_backward_family)(joint)


@pytest.mark.parametrize("seed", range(24))
def test_refactoring_is_extracting_the_family_laid_out(seed):
    # the uniform mean over later conditioning coordinates is one constant
    # per row, so it cancels when the row is normalized
    from dirinfo.measures import _mixture_tables
    from dirinfo.verify import _sparse

    rng = rng_from_seed(seed)
    spec = random_spec(rng, max_horizon=2, max_size=3)
    kernels = [random_backward_kernel(rng, spec), random_forward_kernel(rng, spec)]
    if seed % 3 == 2:  # zero-mass rows in the step tables
        kernels = [_sparse(k, 0.3) for k in kernels]
    others = [random_backward_kernel(rng, spec), random_forward_kernel(rng, spec)]
    for kernel, other in zip(kernels, others):
        a = condition_on_path(kernel)
        b = condition_on_path(other)
        families = [a, mix_conditioned(a, b, 0.3)]
        for fam in families:
            for x, y in zip(refactor_to_kernel(fam).tables, _extracted(fam).tables):
                assert np.abs(x - y).max() <= 1e-15
        lams = [0.0, 0.3, 0.8]
        stacked = _mixture_tables(a, b, lams)
        for k, lam in enumerate(lams):
            want = _extracted(mix_conditioned(a, b, lam))
            for x, y in zip(stacked, want.tables):
                assert np.abs(x[k] - y).max() <= 1e-15


def test_mix_rejects_bad_weight():
    rng = rng_from_seed(2)
    spec = random_spec(rng)
    c = condition_on_path(random_forward_kernel(rng, spec))
    with pytest.raises(di.DomainError):
        mix_conditioned(c, c, 1.5)
    with pytest.raises(di.DomainError):
        mix_conditioned(c, c, math.nan)


def test_stacked_mixtures_and_joints_are_validated_per_element():
    from dirinfo.measures import _check_laws, _mixture_tables

    rng = rng_from_seed(3)
    spec = random_spec(rng)
    c = condition_on_path(random_forward_kernel(rng, spec))
    assert _mixture_tables(c, c, [0.0, 0.5, 1.0])[0].shape[0] == 3
    with pytest.raises(di.DomainError, match="got 1.5"):
        _mixture_tables(c, c, [0.5, 1.5])
    with pytest.raises(di.DomainError):
        _mixture_tables(c, c, [math.nan])
    # two joints of mass 0.9 and 1.1: the stack's total is 2, each is wrong
    w = np.full((2,) + spec.interleaved_shape, 1.0 / spec.total_cells)
    _check_laws(w, "joint", lead=1)
    w[0] *= 0.9
    w[1] *= 1.1
    with pytest.raises(di.DomainError, match="joint mass"):
        _check_laws(w, "joint", lead=1)
    with pytest.raises(di.DomainError, match="joint mass"):
        di.JointMeasure(spec, w[1])
    w[1] = -w[1]
    with pytest.raises(di.DomainError, match="negative"):
        _check_laws(w, "joint", lead=1)


def test_mixed_given_rejected():
    rng = rng_from_seed(2)
    spec = random_spec(rng)
    cq = condition_on_path(random_forward_kernel(rng, spec))
    cp = condition_on_path(random_backward_kernel(rng, spec))
    with pytest.raises(di.SpecMismatch):
        mix_conditioned(cq, cp, 0.5)
