import math
import random
import re
import tracemalloc

import numpy as np
import pytest

import dirinfo as di
from dirinfo import measures
from dirinfo.information import DUAL_FORMULA_TOL, DirectedInfoReport
from dirinfo.measures import condition_on_path
from dirinfo.sampling import (
    random_backward_kernel,
    random_feedback_free_kernel,
    random_forward_kernel,
    random_input_free_kernel,
    random_spec,
    rng_from_seed,
)
from dirinfo.verify import _no_feedback_slack

from helpers import (
    backward_kernel_from_fn,
    forward_kernel_from_fn,
    hb,
    random_kernel_fn,
    random_small_shape,
)
from oracles import (
    oracle_directed_information,
    oracle_divergence_route,
    oracle_joint,
    oracle_mutual_information,
    oracle_per_step_information,
)


# ---------------------------------------------------------------------------
# closed-form anchors
# ---------------------------------------------------------------------------


def test_identity_channel_gives_ln2():
    spec = di.AlphabetSpec(0, (2,), (2,))
    p = di.BackwardKernel(spec, (np.array([[0.5, 0.5]]),))
    q = di.ForwardKernel(spec, (np.eye(2),))
    assert di.directed_information(p, q) == pytest.approx(math.log(2), abs=1e-15)


def test_bsc_matches_formula():
    spec = di.AlphabetSpec(0, (2,), (2,))
    p = di.BackwardKernel(spec, (np.array([[0.5, 0.5]]),))
    q = di.ForwardKernel(spec, (np.array([[0.9, 0.1], [0.1, 0.9]]),))
    assert di.directed_information(p, q) == pytest.approx(
        math.log(2) - hb(0.1), abs=1e-12
    )


def test_input_free_channel_gives_exact_zero():
    rng = rng_from_seed(9)
    for _ in range(10):
        spec = random_spec(rng)
        p = random_backward_kernel(rng, spec)
        q = random_input_free_kernel(rng, spec)
        assert di.directed_information(p, q) == pytest.approx(0.0, abs=1e-14)


def test_per_step_terms_are_nonnegative_and_sum():
    rng = rng_from_seed(4)
    spec = random_spec(rng)
    p = random_backward_kernel(rng, spec)
    q = random_forward_kernel(rng, spec)
    report = di.directed_information_sum(p, q)
    assert all(float(t) >= 0.0 for t in report.per_step_terms)
    assert float(report.sum_form) == pytest.approx(
        sum(float(t) for t in report.per_step_terms), abs=1e-12
    )
    assert report.normalized == pytest.approx(float(report.sum_form) / spec.steps)


# ---------------------------------------------------------------------------
# oracle cross-checks: both formulas against pure-Python enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_both_routes_match_pure_python_oracle(seed):
    rnd = random.Random(seed)
    spec = random_small_shape(rnd)
    sparse = seed % 3 == 0
    p_fn = random_kernel_fn(rnd, spec.x_sizes, sparse=sparse)
    q_fn = random_kernel_fn(rnd, spec.y_sizes, sparse=sparse)
    p = backward_kernel_from_fn(spec, p_fn)
    q = forward_kernel_from_fn(spec, q_fn)
    joint = oracle_joint(spec.x_sizes, spec.y_sizes, p_fn, q_fn)
    want_sum = oracle_directed_information(joint, spec.steps)
    want_div = oracle_divergence_route(joint, spec.x_sizes, spec.y_sizes, p_fn)
    report = di.directed_information_sum(p, q)
    assert float(report.sum_form) == pytest.approx(want_sum, abs=1e-11)
    assert float(report.divergence_form) == pytest.approx(want_div, abs=1e-11)
    mi = float(di.mutual_information(di.build_joint(p, q)))
    assert mi == pytest.approx(oracle_mutual_information(joint), abs=1e-11)


def deterministic_kernel_fn(rnd, width):
    """Like ``random_kernel_fn``, but every row puts all its mass on one
    symbol."""
    cache = {}

    def fn(i, xs, ys):
        key = (i, xs, ys)
        if key not in cache:
            row = [0.0] * width[i]
            row[rnd.randrange(width[i])] = 1.0
            cache[key] = row
        return cache[key]

    return fn


def ignoring(fn, side):
    """A kernel callable that ignores the ``side`` ("x" or "y") history."""
    if side == "x":
        return lambda i, xs, ys: fn(i, (), ys)
    return lambda i, xs, ys: fn(i, xs, ())


def _edge_case(kind, rnd):
    if kind == "unequal-alphabets":
        spec = di.AlphabetSpec(1, (2, 3), (3, 2))
    else:
        spec = random_small_shape(rnd)
    p_fn = random_kernel_fn(rnd, spec.x_sizes, sparse=kind == "zero-mass-rows")
    q_fn = random_kernel_fn(rnd, spec.y_sizes, sparse=kind == "zero-mass-rows")
    if kind == "deterministic-channel":
        q_fn = deterministic_kernel_fn(rnd, spec.y_sizes)
    elif kind == "input-free-channel":
        q_fn = ignoring(q_fn, "x")
    elif kind == "feedback-free-input":
        p_fn = ignoring(p_fn, "y")
    return spec, p_fn, q_fn


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "kind",
    [
        "zero-mass-rows",
        "deterministic-channel",
        "input-free-channel",
        "feedback-free-input",
        "unequal-alphabets",
    ],
)
def test_routes_and_terms_match_oracle_on_edge_cases(kind, seed):
    rnd = random.Random(1000 + seed)
    spec, p_fn, q_fn = _edge_case(kind, rnd)
    p = backward_kernel_from_fn(spec, p_fn)
    q = forward_kernel_from_fn(spec, q_fn)
    joint = oracle_joint(spec.x_sizes, spec.y_sizes, p_fn, q_fn)
    want_terms = oracle_per_step_information(joint, spec.steps)
    report = di.directed_information_sum(p, q)
    assert len(report.per_step_terms) == spec.steps
    for got, want in zip(report.per_step_terms, want_terms):
        assert float(got) == pytest.approx(want, abs=1e-11)
    assert float(report.sum_form) == pytest.approx(sum(want_terms), abs=1e-11)
    want_div = oracle_divergence_route(joint, spec.x_sizes, spec.y_sizes, p_fn)
    assert float(report.divergence_form) == pytest.approx(want_div, abs=1e-11)


def test_routes_given_the_joint_match_routes_that_build_it():
    rng = rng_from_seed(55)
    for _ in range(10):
        spec = random_spec(rng)
        p = random_backward_kernel(rng, spec)
        q = random_forward_kernel(rng, spec)
        joint = di.build_joint(p, q)
        given = di.per_step_information(p, q, joint=joint)
        built = di.per_step_information(p, q)
        for a, b in zip(given, built):
            assert float(a) == pytest.approx(float(b), abs=1e-15)
        assert float(di.directed_information_divergence(p, q, joint=joint)) == pytest.approx(
            float(di.directed_information_divergence(p, q)), abs=1e-15
        )


def test_routes_reject_a_joint_on_another_spec():
    rng = rng_from_seed(56)
    spec = di.AlphabetSpec(0, (2,), (2,))
    other = di.AlphabetSpec(0, (2,), (3,))
    p = random_backward_kernel(rng, spec)
    q = random_forward_kernel(rng, spec)
    joint = di.build_joint(random_backward_kernel(rng, other), random_forward_kernel(rng, other))
    with pytest.raises(di.SpecMismatch):
        di.per_step_information(p, q, joint=joint)
    with pytest.raises(di.SpecMismatch):
        di.directed_information_divergence(p, q, joint=joint)


def test_directed_information_sum_builds_each_block_once_per_pass(monkeypatch):
    # one first pass serves both routes, and the divergence route's second
    # pass builds each block again; the whole joint is never built
    built, joints = [], []
    real = measures._joint_weights

    def counting(spec, p_tables, q_tables, prefix=()):
        built.append(prefix)
        return real(spec, p_tables, q_tables, prefix)

    monkeypatch.setattr(measures, "_joint_weights", counting)
    monkeypatch.setattr(measures, "build_joint", lambda p, q: joints.append(1))
    monkeypatch.setattr(measures, "JOINT_BLOCK_CELLS", 24)
    rng = rng_from_seed(57)
    spec = di.AlphabetSpec(2, (2, 3, 2), (3, 2, 2))
    di.directed_information_sum(random_backward_kernel(rng, spec), random_forward_kernel(rng, spec))
    blocks = list(np.ndindex(2, 3))  # 144 cells in blocks of 3 * 2 * 2 * 2
    assert built == blocks + blocks
    assert joints == []


def tiny_rows(fn, steps):
    """``fn`` with the first symbol's probability at 1e-155 in every row
    of the given steps, so that a path through two such rows weighs about
    1e-310, below the normal float range."""
    def tiny(i, xs, ys):
        row = fn(i, xs, ys)
        if i not in steps:
            return row
        rest = sum(row[1:])
        return [1e-155] + [v / rest for v in row[1:]]

    return tiny


def _block_case(kind, rnd):
    """A kernel pair as callables on the mixed-alphabet spec, and the
    input kernel of the joint that ``joint=`` hands the routes."""
    spec = di.AlphabetSpec(2, (2, 3, 2), (3, 2, 2))
    p_fn = random_kernel_fn(rnd, spec.x_sizes, sparse=kind == "zero-mass-rows")
    q_fn = random_kernel_fn(rnd, spec.y_sizes, sparse=kind == "zero-mass-rows")
    if kind == "deterministic-channel":
        q_fn = deterministic_kernel_fn(rnd, spec.y_sizes)
    joint_p_fn = p_fn
    if kind == "tiny-rows":
        # a path that the given joint weighs normally carries about 1e-310
        # under p, so its product cell is subnormal and the quotient
        # overflows: that block's divergence takes the difference of logs
        joint_p_fn, p_fn = p_fn, tiny_rows(p_fn, (1, 2))
    return spec, p_fn, q_fn, joint_p_fn


@pytest.mark.parametrize("stop", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["mixed-alphabets", "zero-mass-rows", "deterministic-channel", "tiny-rows"])
def test_blocks_agree_with_one_whole_joint(monkeypatch, kind, stop):
    # blocks that fix the first ``stop`` interleaved axes: odd stops end
    # the prefix after an x axis, even ones after a y axis
    spec, p_fn, q_fn, joint_p_fn = _block_case(kind, random.Random(2000 + stop))
    monkeypatch.setattr(measures, "JOINT_BLOCK_CELLS", math.prod(spec.interleaved_shape[stop:]))
    assert measures._block_prefix_len(spec) == stop
    p = backward_kernel_from_fn(spec, p_fn)
    q = forward_kernel_from_fn(spec, q_fn)
    sizes = spec.x_sizes, spec.y_sizes
    given = di.build_joint(backward_kernel_from_fn(spec, joint_p_fn), q)
    overflowed = []
    real = measures._mass_log_ratio

    def spy(mass, den, lead=0):
        out = real(mass, den, lead)
        overflowed.append(not np.all(np.isfinite(out)))
        return out

    monkeypatch.setattr(measures, "_mass_log_ratio", spy)
    for joint, fn in ((None, p_fn), (given, joint_p_fn)):
        want = oracle_joint(*sizes, fn, q_fn)
        want_terms = oracle_per_step_information(want, spec.steps)
        got = di.per_step_information(p, q, joint=joint)
        assert [float(t) for t in got] == pytest.approx(want_terms, abs=1e-12)
        want_div = oracle_divergence_route(want, *sizes, p_fn)
        assert math.isfinite(want_div)
        overflowed.clear()
        assert float(di.directed_information_divergence(p, q, joint=joint)) == pytest.approx(want_div, abs=1e-12)
        assert any(overflowed) == (kind == "tiny-rows" and joint is given)
    want = oracle_joint(*sizes, p_fn, q_fn)
    report = di.directed_information_sum(p, q)
    assert [float(t) for t in report.per_step_terms] == pytest.approx(
        oracle_per_step_information(want, spec.steps), abs=1e-12
    )
    assert float(report.sum_form) == pytest.approx(oracle_directed_information(want, spec.steps), abs=1e-12)
    assert float(report.divergence_form) == pytest.approx(oracle_divergence_route(want, *sizes, p_fn), abs=1e-12)


@pytest.mark.parametrize("n", [0, 1])
def test_routes_stay_finite_where_the_product_underflows(n):
    # an identity channel under input rows of 1e-200 (n = 0), or of 1e-160
    # twice over, so that an input path weighs a subnormal 1e-320 (n = 1):
    # a product cell a * nu underflows to 0 under a joint cell with mass,
    # and the divergence route takes its logarithm as log a + log nu
    spec = di.AlphabetSpec(n, (2,) * (n + 1), (2,) * (n + 1))
    tiny = 1e-200 if n == 0 else 1e-160

    def p_fn(i, xs, ys):
        return [tiny, 1.0] if i == 0 or xs[0] == 0 else [0.0, 1.0]

    def q_fn(i, xs, ys):
        return [1.0, 0.0] if xs[i] == 0 else [0.0, 1.0]

    p, q = backward_kernel_from_fn(spec, p_fn), forward_kernel_from_fn(spec, q_fn)
    want_terms = oracle_per_step_information(oracle_joint(spec.x_sizes, spec.y_sizes, p_fn, q_fn), spec.steps)
    want = sum(want_terms)
    if n == 0:
        assert want == pytest.approx(4.6051701859880914e-198, rel=1e-12)
    report = di.directed_information_sum(p, q)
    assert [float(t) for t in report.per_step_terms] == pytest.approx(want_terms, rel=1e-12, abs=1e-300)
    assert float(report.sum_form) == pytest.approx(want, rel=1e-12)
    assert float(report.divergence_form) == pytest.approx(want, rel=1e-12)
    assert float(di.directed_information_divergence(p, q)) == float(report.divergence_form)
    assert float(di.directed_information_divergence(p, q, joint=di.build_joint(p, q))) == float(
        report.divergence_form
    )


def test_mutual_information_stays_finite_where_the_product_underflows():
    # the n = 0 case above: a feedback-free input, so MI equals DI, and the
    # no-feedback suite's collapse slack |DI - MI| stays finite
    spec = di.AlphabetSpec(0, (2,), (2,))
    p = di.BackwardKernel(spec, (np.array([[1e-200, 1.0]]),))
    q = di.ForwardKernel(spec, (np.eye(2),))
    info = di.directed_information(p, q)
    assert info == pytest.approx(4.6051701859880914e-198, rel=1e-12)
    assert float(di.mutual_information(di.build_joint(p, q))) == pytest.approx(info, rel=1e-12)
    slack = _no_feedback_slack({"backward_kernel": p, "forward_kernel": q, "mode": "collapse"})
    assert math.isfinite(slack) and slack <= 1e-12 * info


def test_the_routes_hold_a_few_blocks_not_the_joint():
    # 2^20 cells, 8 MB of joint, walked in blocks of 2^17 cells (1 MB): a
    # walk holds a few blocks at once, less than half the joint
    spec = di.AlphabetSpec(9, (2,) * 10, (2,) * 10)
    rng = rng_from_seed(59)
    p, q = random_backward_kernel(rng, spec), random_forward_kernel(rng, spec)
    tracemalloc.start()
    try:
        di.directed_information_sum(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * spec.total_cells / 2


@pytest.mark.parametrize("n, size", [(7, 2), (3, 4), (5, 3)])
def test_input_free_terms_stay_at_zero_on_large_joints(n, size):
    # at least 2^16 cells; InfoValue raises on a term below -1e-12
    spec = di.AlphabetSpec(n, (size,) * (n + 1), (size,) * (n + 1))
    assert spec.total_cells >= 2**16
    rng = rng_from_seed(58)
    for _ in range(3):
        p = random_backward_kernel(rng, spec)
        q = random_input_free_kernel(rng, spec)
        terms = di.per_step_information(p, q)
        assert sum(float(t) for t in terms) == pytest.approx(0.0, abs=1e-14)


def test_dual_formula_tolerance_is_tight():
    rng = rng_from_seed(123)
    worst = 0.0
    for _ in range(50):
        spec = random_spec(rng)
        p = random_backward_kernel(rng, spec)
        q = random_forward_kernel(rng, spec)
        r = di.directed_information_sum(p, q)
        worst = max(worst, abs(float(r.sum_form) - float(r.divergence_form)))
    assert worst <= DUAL_FORMULA_TOL


def test_report_rejects_disagreeing_routes():
    v = di.InfoValue(0.5)
    w = di.InfoValue(0.5 + 1e-6)
    with pytest.raises(di.FormulaDisagreement):
        DirectedInfoReport(
            sum_form=v,
            divergence_form=w,
            per_step_terms=(v,),
            normalized=0.5,
        )


_S0 = di.AlphabetSpec(0, (2,), (2,))


@pytest.mark.parametrize("make, error", [
    pytest.param(lambda: DirectedInfoReport(di.InfoValue(0.5), di.InfoValue(0.5), (di.InfoValue(0.4),), 0.5),
                 di.FormulaDisagreement, id="terms-miss-the-sum"),
    pytest.param(lambda: DirectedInfoReport(di.InfoValue(math.inf), di.InfoValue(0.5), (di.InfoValue(math.inf),), 0.5),
                 di.FormulaDisagreement, id="one-route-infinite"),
    pytest.param(lambda: di.tv_distance(condition_on_path(di.ForwardKernel.uniform(_S0)),
                                        condition_on_path(di.BackwardKernel.uniform(_S0))),
                 di.DomainError, id="tv-given-differs"),
    pytest.param(lambda: di.check_lower_semicontinuity(di.BackwardKernel.uniform(_S0), di.ForwardKernel.uniform(_S0), []),
                 di.DomainError, id="lsc-empty-sequence"),
])
def test_input_guards(make, error):
    with pytest.raises(error):
        make()


# ---------------------------------------------------------------------------
# ordering and collapse
# ---------------------------------------------------------------------------


def test_no_feedback_collapse_and_ordering():
    rng = rng_from_seed(21)
    for _ in range(25):
        spec = random_spec(rng)
        pf = random_feedback_free_kernel(rng, spec)
        q = random_forward_kernel(rng, spec)
        mi = float(di.mutual_information(di.build_joint(pf, q)))
        assert di.directed_information(pf, q) == pytest.approx(mi, abs=1e-9)
        p = random_backward_kernel(rng, spec)
        mi2 = float(di.mutual_information(di.build_joint(p, q)))
        assert di.directed_information(p, q) <= mi2 + 1e-9


# ---------------------------------------------------------------------------
# mixture audits
# ---------------------------------------------------------------------------

GRID = tuple(k / 10 for k in range(11))


def test_convexity_audit_passes_and_degenerate_case_has_zero_slack():
    rng = rng_from_seed(31)
    spec = di.AlphabetSpec(1, (2, 2), (2, 2))
    p = random_backward_kernel(rng, spec)
    q1 = random_forward_kernel(rng, spec)
    q2 = random_forward_kernel(rng, spec)
    audit = di.check_convexity_in_q(p, q1, q2, GRID)
    assert audit.passed
    degenerate = di.check_convexity_in_q(p, q1, q1, GRID)
    assert degenerate.passed
    assert degenerate.max_violation <= 1e-12


def test_concavity_audit_passes():
    rng = rng_from_seed(32)
    spec = di.AlphabetSpec(1, (2, 2), (2, 2))
    q = random_forward_kernel(rng, spec)
    p1 = random_backward_kernel(rng, spec)
    p2 = random_backward_kernel(rng, spec)
    audit = di.check_concavity_in_p(q, p1, p2, GRID)
    assert audit.passed
    assert audit.direction == "concave-in-input"


# The audits evaluate a whole segment as one stack; each value must match
# the per-kernel route to rounding, also on sparse kernels whose rows and
# histories carry zero mass.


def _audit_spec(rng, n):
    sizes = lambda: tuple(int(v) for v in rng.integers(2, 4, size=n + 1))  # noqa: E731
    return di.AlphabetSpec(n, sizes(), sizes())


def _close(got, want):
    assert abs(got - want) <= 1e-14, (got, want)


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_stacked_mixture_audits_equal_the_per_kernel_route(n, sparse):
    from dirinfo.verify import _sparse

    rng = rng_from_seed(60 + 2 * n + sparse)
    spec = _audit_spec(rng, n)
    p1, p2 = random_backward_kernel(rng, spec), random_backward_kernel(rng, spec)
    q1, q2 = random_forward_kernel(rng, spec), random_forward_kernel(rng, spec)
    if sparse:
        p1, q2 = _sparse(p1), _sparse(q2)
    for audit, a, b, value in (
        (di.check_convexity_in_q(p1, q1, q2, GRID), q1, q2,
         lambda k: di.directed_information(p1, k)),
        (di.check_concavity_in_p(q1, p1, p2, GRID), p1, p2,
         lambda k: di.directed_information(k, q1)),
    ):
        _close(audit.endpoint_a, value(a))
        _close(audit.endpoint_b, value(b))
        ca, cb = condition_on_path(a), condition_on_path(b)
        assert len(audit.mixture_values) == len(GRID)
        for lam, got in zip(GRID, audit.mixture_values):
            _close(got, value(di.refactor_to_kernel(di.mix_conditioned(ca, cb, lam))))


@pytest.mark.parametrize("shrinking", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_stacked_lsc_audit_equals_the_per_kernel_route(n, shrinking):
    from dirinfo.information import _lsc_audit
    from dirinfo.verify import (
        _LSC_EPSILONS,
        _deterministic_forward,
        _lsc_sequence,
        _sparse,
    )

    rng = rng_from_seed(70 + 2 * n + shrinking)
    spec = _audit_spec(rng, n)
    p = _sparse(random_backward_kernel(rng, spec))
    q_limit = _deterministic_forward(rng, spec) if shrinking else random_forward_kernel(rng, spec)
    stack = _lsc_sequence(q_limit)
    audit = _lsc_audit(p, q_limit, stack)
    c_start = condition_on_path(di.ForwardKernel.uniform(spec))
    c_limit = condition_on_path(q_limit)
    assert len(audit.sequence_values) == len(audit.tv_distances) == len(_LSC_EPSILONS)
    for eps, got, tv in zip(_LSC_EPSILONS, audit.sequence_values, audit.tv_distances):
        qk = di.refactor_to_kernel(di.mix_conditioned(c_start, c_limit, eps))
        _close(got, di.directed_information(p, qk))
        _close(tv, di.tv_distance(condition_on_path(qk), c_limit))
    _close(audit.limit_value, di.directed_information(p, q_limit))
    kernels = [
        di.ForwardKernel(spec, tuple(t[k] for t in stack)) for k in range(len(_LSC_EPSILONS))
    ]
    assert di.check_lower_semicontinuity(p, q_limit, kernels) == audit


@pytest.mark.parametrize("stop", [1, 2, 3, 4, 5])
def test_stacked_audits_agree_across_blocks(monkeypatch, stop):
    # the stacked audits walk the same blocks as a single evaluation: with
    # blocks that fix the first ``stop`` interleaved axes, each value stays
    # within rounding of the one-block audit and each endpoint is the
    # single evaluation's own
    from dirinfo import information
    from dirinfo.verify import _lsc_sequence

    rnd = random.Random(3000 + stop)
    spec, p_fn, q_fn, _ = _block_case("zero-mass-rows", rnd)
    p1, q1 = backward_kernel_from_fn(spec, p_fn), forward_kernel_from_fn(spec, q_fn)
    p2 = backward_kernel_from_fn(spec, random_kernel_fn(rnd, spec.x_sizes))
    q2 = forward_kernel_from_fn(spec, random_kernel_fn(rnd, spec.y_sizes))
    stack = _lsc_sequence(q1)
    sequence = [di.ForwardKernel(spec, tuple(t[k] for t in stack)) for k in range(len(stack[0]))]

    def audits():
        return (
            di.check_convexity_in_q(p1, q1, q2, GRID),
            di.check_concavity_in_p(q1, p1, p2, GRID),
            di.check_lower_semicontinuity(p1, q1, sequence),
        )

    def values(convex, concave, lsc):
        return [v for a in (convex, concave) for v in (a.endpoint_a, a.endpoint_b) + a.mixture_values] + [
            *lsc.sequence_values, lsc.limit_value,
        ]

    whole = audits()
    monkeypatch.setattr(measures, "JOINT_BLOCK_CELLS", math.prod(spec.interleaved_shape[stop:]))
    assert measures._block_prefix_len(spec) == stop
    seen, real = set(), information._joint_blocks

    def spy(*args):  # each block's prefix length and count of stacking axes
        for prefix, w in real(*args):
            seen.add((len(prefix), w.ndim + len(prefix) - 2 * spec.steps))
            yield prefix, w

    monkeypatch.setattr(information, "_joint_blocks", spy)
    convex, concave, lsc = blocked = audits()
    assert seen == {(stop, 1)}
    assert values(*blocked) == pytest.approx(values(*whole), abs=1e-15, rel=0)
    assert lsc.tv_distances == whole[2].tv_distances
    assert (convex.endpoint_a, convex.endpoint_b) == (di.directed_information(p1, q1), di.directed_information(p1, q2))
    assert (concave.endpoint_a, concave.endpoint_b) == (di.directed_information(p1, q1), di.directed_information(p2, q1))
    assert lsc.limit_value == di.directed_information(p1, q1)


def test_audit_rejects_bad_lambda_grid():
    rng = rng_from_seed(33)
    spec = di.AlphabetSpec(1, (2, 2), (2, 2))
    p = random_backward_kernel(rng, spec)
    q1 = random_forward_kernel(rng, spec)
    for bad, got in (([0.5, 1.5], "1.5"), ([0.5, math.nan, 2.0], "nan"), ([-0.5], "-0.5")):
        message = re.escape(f"mixture weight must lie in [0, 1], got {got}")
        with pytest.raises(di.DomainError, match=message):
            di.check_convexity_in_q(p, q1, q1, bad)
        with pytest.raises(di.DomainError, match=message):
            di.check_concavity_in_p(q1, p, p, bad)
    for audit in (lambda grid: di.check_convexity_in_q(p, q1, q1, grid),
                  lambda grid: di.check_concavity_in_p(q1, p, p, grid)):
        with pytest.raises(di.DomainError, match="lambda grid must not be empty"):
            audit([])


# ---------------------------------------------------------------------------
# semicontinuity
# ---------------------------------------------------------------------------


def test_tv_distance_is_worst_row():
    spec = di.AlphabetSpec(0, (2,), (2,))
    a = condition_on_path(di.ForwardKernel(spec, (np.array([[1.0, 0.0], [0.5, 0.5]]),)))
    b = condition_on_path(di.ForwardKernel(spec, (np.array([[0.0, 1.0], [0.5, 0.5]]),)))
    assert di.tv_distance(a, b) == pytest.approx(1.0)
    assert di.tv_distance(a, a) == 0.0


def test_lsc_constant_sequence_is_equality():
    rng = rng_from_seed(41)
    spec = random_spec(rng)
    p = random_backward_kernel(rng, spec)
    q = random_forward_kernel(rng, spec)
    audit = di.check_lower_semicontinuity(p, q, [q] * 8)
    assert audit.passed
    assert audit.violation == pytest.approx(0.0, abs=1e-15)
    assert audit.tv_distances[-1] == 0.0


def test_lsc_rejects_non_convergent_sequences():
    rng = rng_from_seed(42)
    spec = di.AlphabetSpec(0, (2,), (2,))
    q_limit = di.ForwardKernel(spec, (np.array([[0.9, 0.1], [0.1, 0.9]]),))
    far = di.ForwardKernel(spec, (np.array([[0.5, 0.5], [0.5, 0.5]]),))
    with pytest.raises(di.NonConvergentSequence):
        di.check_lower_semicontinuity(p=random_backward_kernel(rng, spec),
                                      q_limit=q_limit,
                                      q_sequence=[q_limit, far])
    with pytest.raises(di.NonConvergentSequence):
        di.check_lower_semicontinuity(p=random_backward_kernel(rng, spec),
                                      q_limit=q_limit,
                                      q_sequence=[far, far, far])
