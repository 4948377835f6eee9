"""Known-answer tests for the benchmark's independent checks, and a check
that ``BENCHMARK.json`` names exactly the metrics the benchmark prints.

Run with ``python3 -m pytest perfbench/test_checks.py``.  The references
here are closed forms and pure-Python enumeration over paths; nothing
imports ``dirinfo``.
"""
import itertools
import json
import math
import signal
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import calibrate
import checks as ck
import run
import spans


def _code(digits, sizes):
    code = 0
    for d, s in zip(digits, sizes):
        code = code * s + d
    return code


def _rows(rng, count, width):
    return rng.dirichlet(np.ones(width), size=count)


def _random_tables(rng, xs, ys, feedback=True):
    """Input and channel tables in the layout of checks.py."""
    shape = ck.interleaved_shape(xs, ys)
    p, q = [], []
    for i in range(len(xs)):
        rows = math.prod(shape[: 2 * i])
        if feedback:
            p.append(_rows(rng, rows, xs[i]))
        else:  # the same row for every output history
            keyed = _rows(rng, math.prod(xs[:i]), xs[i])
            idx = [
                _code(h[0::2], xs[:i]) for h in itertools.product(*[range(s) for s in shape[: 2 * i]])
            ]
            p.append(keyed[idx])
        q.append(_rows(rng, math.prod(shape[: 2 * i + 1]), ys[i]))
    return p, q


def _enumerate(p, q, xs, ys):
    """Joint path probabilities by direct products over steps."""
    shape = ck.interleaved_shape(xs, ys)
    out = {}
    for path in itertools.product(*[range(s) for s in shape]):
        prob = 1.0
        for i in range(len(xs)):
            prob *= p[i][_code(path[: 2 * i], shape[: 2 * i]), path[2 * i]]
            prob *= q[i][_code(path[: 2 * i + 1], shape[: 2 * i + 1]), path[2 * i + 1]]
        out[path] = prob
    return out


def _marginal(joint, keep):
    out = {}
    for path, prob in joint.items():
        key = tuple(path[a] for a in keep)
        out[key] = out.get(key, 0.0) + prob
    return out


def _enumerated_di_mi(p, q, xs, ys):
    """``sum_i I(X^i; Y_i | Y^{i-1})`` and ``I(X^n; Y^n)`` by enumeration."""
    joint = _enumerate(p, q, xs, ys)
    nd = 2 * len(xs)
    di = 0.0
    for i in range(len(xs)):
        full = list(range(2 * i + 2))
        past_y = list(range(1, 2 * i, 2))
        xs_i = list(range(0, 2 * i + 1, 2))
        a = _marginal(joint, full)
        b = _marginal(joint, xs_i + past_y)
        c = _marginal(joint, past_y + [2 * i + 1])
        d = _marginal(joint, past_y)
        for key, prob in a.items():
            if prob > 0:
                k = dict(zip(full, key))
                di += prob * math.log(
                    prob * d[tuple(k[x] for x in past_y)]
                    / (b[tuple(k[x] for x in xs_i + past_y)] * c[tuple(k[x] for x in past_y + [2 * i + 1])])
                )
    mx = _marginal(joint, list(range(0, nd, 2)))
    my = _marginal(joint, list(range(1, nd, 2)))
    mi = sum(
        prob * math.log(prob / (mx[path[0::2]] * my[path[1::2]])) for path, prob in joint.items() if prob > 0
    )
    return di, mi


@pytest.mark.parametrize("xs,ys", [((2,), (3,)), ((2, 2), (2, 2)), ((3, 2), (2, 3)), ((2, 2, 2), (2, 2, 2))])
def test_information_pair_matches_enumeration(xs, ys):
    rng = np.random.default_rng(7)
    p, q = _random_tables(rng, xs, ys)
    di, mi = ck.information_pair(p, q, xs, ys)
    want_di, want_mi = _enumerated_di_mi(p, q, xs, ys)
    assert di == pytest.approx(want_di, abs=1e-12)
    assert mi == pytest.approx(want_mi, abs=1e-12)
    assert -1e-12 <= di <= mi + 1e-12


def test_zero_mass_cells_are_skipped():
    rng = np.random.default_rng(3)
    xs = ys = (2, 2)
    p, q = _random_tables(rng, xs, ys)
    q[1][0] = [1.0, 0.0]
    p[1][2] = [0.0, 1.0]
    di, mi = ck.information_pair(p, q, xs, ys)
    want_di, want_mi = _enumerated_di_mi(p, q, xs, ys)
    assert di == pytest.approx(want_di, abs=1e-12)
    assert mi == pytest.approx(want_mi, abs=1e-12)


def _bsc_tables(n, eps):
    step = np.array([[1 - eps, eps], [eps, 1 - eps]])
    return [np.tile(step, (4 ** i, 1)) for i in range(n + 1)]


def _uniform_inputs(n):
    return [np.full((4 ** i, 2), 0.5) for i in range(n + 1)]


def test_bsc_closed_form_and_special_inputs():
    n, eps = 2, 0.11
    sizes = (2,) * (n + 1)
    closed = (n + 1) * (math.log(2) - ck.binary_entropy(eps))
    di, mi = ck.information_pair(_uniform_inputs(n), _bsc_tables(n, eps), sizes, sizes)
    assert di == pytest.approx(closed, abs=1e-12)
    assert mi == pytest.approx(closed, abs=1e-12)

    rng = np.random.default_rng(5)
    p, q = _random_tables(rng, sizes, sizes, feedback=False)
    di, mi = ck.information_pair(p, q, sizes, sizes)
    assert di == pytest.approx(mi, abs=1e-12)

    # a channel that ignores the inputs carries no information
    q_free = [np.tile(_rows(rng, 1, 2), (4 ** i * 2, 1)) for i in range(n + 1)]
    p, _ = _random_tables(rng, sizes, sizes)
    assert ck.directed_information(p, q_free, sizes, sizes) == pytest.approx(0.0, abs=1e-12)


def test_feedback_certificate_is_tight_on_the_bsc():
    for n, eps in [(0, 0.2), (1, 0.11), (2, 0.05)]:
        sizes = (2,) * (n + 1)
        closed = (n + 1) * (math.log(2) - ck.binary_entropy(eps))
        q = _bsc_tables(n, eps)
        nu = ck.output_law(_uniform_inputs(n), q, sizes, sizes)
        assert ck.feedback_certificate(q, nu, sizes, sizes) == pytest.approx(closed, abs=1e-12)
        assert ck.no_feedback_certificate(q, nu, sizes, sizes) == pytest.approx(closed, abs=1e-12)


def test_certificates_bound_every_input():
    rng = np.random.default_rng(11)
    sizes = (2, 2)
    _, q = _random_tables(rng, sizes, sizes)
    inputs = [_random_tables(rng, sizes, sizes)[0] for _ in range(6)]
    free = [_random_tables(rng, sizes, sizes, feedback=False)[0] for _ in range(6)]
    for p in inputs + free:
        nu = ck.output_law(p, q, sizes, sizes)
        fb = ck.feedback_certificate(q, nu, sizes, sizes)
        nf = ck.no_feedback_certificate(q, nu, sizes, sizes)
        assert fb >= max(ck.directed_information(r, q, sizes, sizes) for r in inputs + free) - 1e-12
        assert nf >= max(ck.directed_information(r, q, sizes, sizes) for r in free) - 1e-12


def test_constrained_certificates_meet_the_bsc_cost_closed_form():
    # one use of a BSC, cost 1 for input 1: C(B) = H_b(B*eps) - H_b(eps)
    eps, budget = 0.1, 0.2
    out1 = budget * (1 - eps) + (1 - budget) * eps
    closed = ck.binary_entropy(out1) - ck.binary_entropy(eps)
    q = _bsc_tables(0, eps)
    cost = np.array([[0.0], [1.0]])
    nu = np.array([1 - out1, out1])
    for bound in (ck.feedback_certificate, ck.no_feedback_certificate):
        cert = bound(q, nu, (2,), (2,), cost, budget)
        assert cert == pytest.approx(closed, abs=1e-9)
        # any other output law gives a weaker bound
        assert bound(q, np.array([0.5, 0.5]), (2,), (2,), cost, budget) >= closed - 1e-12


def test_feedback_bound_covers_open_loop_inputs():
    # the feedback maximum runs over strategies that see y_0, which include
    # every open-loop input path
    rng = np.random.default_rng(2)
    sizes = (2, 2)
    _, q = _random_tables(rng, sizes, sizes)
    nu = np.full(4, 0.25)
    assert ck.feedback_certificate(q, nu, sizes, sizes) >= ck.no_feedback_certificate(q, nu, sizes, sizes) - 1e-12


def test_expected_cost_and_distortion_by_enumeration():
    rng = np.random.default_rng(4)
    xs = ys = (2, 2)
    p, q = _random_tables(rng, xs, ys)
    cost = rng.uniform(0, 1, size=(4, 2))
    joint = _enumerate(p, q, xs, ys)
    want = sum(prob * cost[_code(path[0::2], xs), path[1]] for path, prob in joint.items())
    assert ck.expected_cost(p, q, cost, xs, ys) == pytest.approx(want, abs=1e-14)

    src, _ = _random_tables(rng, xs, ys, feedback=False)
    mu = ck.source_path_law(src, xs, ys)
    joint = _enumerate(src, q, xs, ys)
    assert mu == pytest.approx(list(_marginal(joint, [0, 2]).values()), abs=1e-15)
    dist = ck.hamming_table(2, power=2)
    want = sum(prob * dist[_code(path[0::2], xs), _code(path[1::2], ys)] for path, prob in joint.items())
    assert ck.expected_distortion(mu, q, dist, xs, ys) == pytest.approx(want, abs=1e-14)
    assert ck.ignores_output_history(src, xs, ys)
    assert not ck.ignores_output_history(p, xs, ys)


def test_hamming_table():
    assert ck.hamming_table(2).tolist() == [[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]]
    assert ck.hamming_table(2, power=2)[0, 3] == 4


@pytest.mark.parametrize("steps", [1, 2, 3, 4])
@pytest.mark.parametrize("delta", [0.05, 0.17, 0.3])
def test_block_rd_bound_equals_the_iid_hamming_closed_form(steps, delta):
    m = 2 ** steps
    bound = ck.block_rd_lower_bound(np.full(m, 1.0 / m), ck.hamming_table(steps), delta * steps)
    assert bound == pytest.approx(ck.nrdf_iid_hamming(steps, delta * steps), abs=1e-9)


def test_block_rd_bound_on_a_biased_coin():
    # R(D) = H_b(p) - H_b(D) for D < min(p, 1 - p)
    p, budget = 0.3, 0.1
    closed = ck.binary_entropy(p) - ck.binary_entropy(budget)
    bound = ck.block_rd_lower_bound(np.array([1 - p, p]), ck.hamming_table(1), budget)
    assert closed - 1e-7 <= bound <= closed + 1e-12


def test_benchmark_file_names_every_metric():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == spans.PER_LAYER
    printed = list(spans.round_metrics([], defaultdict(float), {})) + ["trace.overhead_s"]
    assert printed == [name for name, _, _ in spans.PER_LAYER]


@pytest.mark.parametrize("kind", sorted(calibrate.NOMINAL_S))
def test_speed_probe_samples_inside_the_call_and_scales_by_the_kernel(kind):
    probe = calibrate.SpeedProbe(kind)

    def busy():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        return 7

    result, error, raw, scaled, kernel = probe.call(busy)
    assert (result, error) == (7, None)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # a sample before, at least one inside, one after; their mean is kernel
    assert len(probe._samples) >= 3
    assert kernel == pytest.approx(sum(probe._samples) / len(probe._samples))
    # the samples taken inside are not counted as the call's time
    assert 0.0 < raw <= 0.2 + 0.05
    assert 0.2 - sum(probe._samples[1:-1]) - 0.01 <= raw
    assert scaled == pytest.approx(raw * probe.nominal / kernel)


def test_speed_probe_reports_a_raising_call():
    result, error, raw, scaled, _ = calibrate.SpeedProbe("python").call(lambda: 1 / 0)
    assert result is None and error.startswith("ZeroDivisionError")
    assert raw >= 0.0 and scaled >= 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
