import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dirinfo as di
from dirinfo.measures import (
    PMF_TOL,
    active_cell_cap,
    condition_on_path,
    mix_conditioned,
    refactor_to_kernel,
)
from dirinfo.sampling import (
    random_backward_kernel,
    random_forward_kernel,
    random_pmf,
    random_spec,
    rng_from_seed,
)

from helpers import (
    backward_kernel_from_fn,
    decode,
    forward_kernel_from_fn,
    random_kernel_fn,
    random_small_shape,
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


def test_cell_cap_env_override(monkeypatch):
    monkeypatch.setenv("DIRINFO_CELL_CAP", "10")
    assert active_cell_cap() == 10
    with pytest.raises(di.DomainError):
        di.AlphabetSpec(1, (2, 2), (2, 2))  # 16 cells > 10
    monkeypatch.delenv("DIRINFO_CELL_CAP")
    di.AlphabetSpec(1, (2, 2), (2, 2))


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


@pytest.mark.parametrize("seed", range(8))
def test_product_pi_forward_matches_a_broadcast_over_all_axes(seed):
    from dirinfo.measures import _path_weights

    rng = rng_from_seed(seed)
    spec = random_spec(rng)
    p = random_backward_kernel(rng, spec)
    nu = random_pmf(rng, spec.num_y_paths)
    ndim = 2 * spec.steps
    nu_shape = tuple(spec.y_sizes[a // 2] if a % 2 else 1 for a in range(ndim))
    want = _path_weights(spec, p.tables, 0) * nu.weights.reshape(nu_shape)
    got = di.product_pi_forward(p, nu).weights
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_gibbs_inequality(seed, size):
    rng = rng_from_seed(seed)
    a = random_pmf(rng, size)
    b = random_pmf(rng, size)
    assert float(di.kl_divergence(a, b)) >= 0.0


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


def test_mix_rejects_bad_weight():
    rng = rng_from_seed(2)
    spec = random_spec(rng)
    c = condition_on_path(random_forward_kernel(rng, spec))
    with pytest.raises(di.DomainError):
        mix_conditioned(c, c, 1.5)
    with pytest.raises(di.DomainError):
        mix_conditioned(c, c, math.nan)


def test_stacked_mixtures_and_joints_are_validated_per_element():
    from dirinfo.measures import _check_joint_mass, _mixture_tables

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
    _check_joint_mass(w, 1)
    w[0] *= 0.9
    w[1] *= 1.1
    with pytest.raises(di.DomainError, match="joint mass"):
        _check_joint_mass(w, 1)
    with pytest.raises(di.DomainError, match="joint mass"):
        di.JointMeasure(spec, w[1])
    w[1] = -w[1]
    with pytest.raises(di.DomainError, match="negative"):
        _check_joint_mass(w, 1)


def test_mixed_given_rejected():
    rng = rng_from_seed(2)
    spec = random_spec(rng)
    cq = condition_on_path(random_forward_kernel(rng, spec))
    cp = condition_on_path(random_backward_kernel(rng, spec))
    with pytest.raises(di.SpecMismatch):
        mix_conditioned(cq, cp, 0.5)
