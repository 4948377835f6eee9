import numpy as np
import pytest

import dirinfo as di
from dirinfo import sampling
from dirinfo.measures import condition_on_path, ignores_output_history
from dirinfo.sampling import (
    random_backward_kernel,
    random_feedback_free_kernel,
    random_forward_kernel,
    random_input_free_kernel,
    random_pmf,
    random_spec,
    rng_from_seed,
)


def test_same_seed_reproduces_everything():
    a, b = rng_from_seed(5), rng_from_seed(5)
    spec_a, spec_b = random_spec(a), random_spec(b)
    assert spec_a == spec_b
    pa = random_backward_kernel(a, spec_a)
    pb = random_backward_kernel(b, spec_b)
    for ta, tb in zip(pa.tables, pb.tables):
        assert np.array_equal(ta, tb)
    qa = random_forward_kernel(a, spec_a)
    qb = random_forward_kernel(b, spec_b)
    for ta, tb in zip(qa.tables, qb.tables):
        assert np.array_equal(ta, tb)


def test_different_seeds_differ():
    a, b = rng_from_seed(1), rng_from_seed(2)
    spec = di.AlphabetSpec(0, (3,), (3,))
    pa = random_backward_kernel(a, spec)
    pb = random_backward_kernel(b, spec)
    assert not np.allclose(pa.tables[0], pb.tables[0])


@pytest.mark.parametrize("seed", range(8))
def test_sampled_objects_validate_and_have_full_support(seed):
    rng = rng_from_seed(seed)
    spec = random_spec(rng)
    assert 0 <= spec.horizon_n <= 2
    assert all(2 <= s <= 3 for s in spec.x_sizes + spec.y_sizes)
    p = random_backward_kernel(rng, spec)
    q = random_forward_kernel(rng, spec)
    for t in p.tables + q.tables:
        assert np.all(t > 0)
        assert np.allclose(t.sum(axis=1), 1.0)
    pmf = random_pmf(rng, 5, min_mass=1e-3)
    w = np.asarray(pmf.weights)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 1e-3)


def test_feedback_free_samples_ignore_output_history():
    rng = rng_from_seed(11)
    for _ in range(6):
        spec = random_spec(rng)
        p = random_feedback_free_kernel(rng, spec)
        assert ignores_output_history(p)


def test_input_free_samples_ignore_input_path():
    rng = rng_from_seed(12)
    for _ in range(6):
        spec = random_spec(rng)
        q = random_input_free_kernel(rng, spec)
        # conditioned on any input path the output law is identical
        rows = condition_on_path(q).table
        assert np.allclose(rows, rows[0])


def test_horizon_and_size_caps_are_respected():
    rng = rng_from_seed(13)
    for _ in range(20):
        spec = random_spec(rng, max_horizon=1, max_size=2)
        assert spec.horizon_n <= 1
        assert all(s == 2 for s in spec.x_sizes + spec.y_sizes)


@pytest.mark.parametrize("min_mass", [0.0, 0.01])
@pytest.mark.parametrize("width", range(1, 10))
def test_rows_renormalize_bit_for_bit_as_one_division_by_the_row_sums(width, min_mass):
    for count in (1, 5, 1000):
        a, b = rng_from_seed(width * 1000 + count), rng_from_seed(width * 1000 + count)
        want = a.dirichlet(np.ones(width), size=count)
        if min_mass > 0.0:
            want = want * (1.0 - width * min_mass) + min_mass
        want = want / want.sum(axis=-1, keepdims=True)
        got = sampling._rows(b, (count, width), min_mass)
        assert got.tobytes() == want.tobytes(), count


def test_sampled_kernels_adopt_the_rows_they_draw(monkeypatch):
    real, drawn = sampling._rows, []

    def spy(*args):
        drawn.append(real(*args))
        return drawn[-1]

    monkeypatch.setattr(sampling, "_rows", spy)
    spec = di.AlphabetSpec(2, (2, 3, 2), (3, 2, 2))
    rng = rng_from_seed(3)
    p = random_backward_kernel(rng, spec)
    q = random_forward_kernel(rng, spec)
    assert len(drawn) == 6
    for got, want in zip(p.tables + q.tables, drawn):
        assert got is want
        assert got.base is None and not got.flags.writeable
