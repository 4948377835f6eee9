"""Independent reference implementations used to validate the package.

Everything here is pure Python over dicts and tuples: path enumeration via
itertools, probabilities via math.log, kernels supplied as callables
``fn(step, x_prefix, y_prefix) -> list of probabilities``.  No numpy, no
shared code with the package beyond the test-side table builders.
"""
import math
from collections import defaultdict
from itertools import product


def all_paths(sizes):
    return product(*[range(s) for s in sizes])


def oracle_joint(x_sizes, y_sizes, p_fn, q_fn):
    """Joint path law as a dict keyed by (x_path, y_path)."""
    steps = len(x_sizes)
    joint = {}
    for xs in all_paths(x_sizes):
        for ys in all_paths(y_sizes):
            w = 1.0
            for i in range(steps):
                w *= p_fn(i, xs[:i], ys[:i])[xs[i]]
                w *= q_fn(i, xs[: i + 1], ys[:i])[ys[i]]
            joint[(xs, ys)] = w
    return joint


def oracle_per_step_information(joint, steps):
    """I(X^i; Y_i | Y^{i-1}) for each step i, from the joint dict (nats)."""
    terms = []
    for i in range(steps):
        m = defaultdict(float)
        for (xs, ys), w in joint.items():
            m[(xs[: i + 1], ys[: i + 1])] += w
        hist = defaultdict(float)  # (x^i, y^{i-1})
        outp = defaultdict(float)  # y^i
        past = defaultdict(float)  # y^{i-1}
        for (xp, yp), w in m.items():
            hist[(xp, yp[:i])] += w
            outp[yp] += w
            past[yp[:i]] += w
        term = 0.0
        for (xp, yp), w in m.items():
            if w > 0:
                term += w * math.log(
                    w * past[yp[:i]] / (hist[(xp, yp[:i])] * outp[yp])
                )
        terms.append(term)
    return terms


def oracle_directed_information(joint, steps):
    """Sum over steps of I(X^i; Y_i | Y^{i-1}) from the joint dict (nats)."""
    return sum(oracle_per_step_information(joint, steps))


def oracle_divergence_route(joint, x_sizes, y_sizes, p_fn):
    """KL(joint || backward-input x output-marginal product) in nats."""
    steps = len(x_sizes)
    nu = defaultdict(float)
    for (xs, ys), w in joint.items():
        nu[ys] += w
    nu_steps = []
    for i in range(steps):
        m = defaultdict(float)
        for ys, w in nu.items():
            m[ys[: i + 1]] += w
        nu_steps.append(m)
    total = 0.0
    for (xs, ys), w in joint.items():
        if w == 0:
            continue
        pi = 1.0
        for i in range(steps):
            pi *= p_fn(i, xs[:i], ys[:i])[xs[i]]
            past = nu_steps[i - 1][ys[:i]] if i > 0 else 1.0
            pi *= nu_steps[i][ys[: i + 1]] / past if past > 0 else 0.0
        if pi == 0:
            return math.inf
        total += w * math.log(w / pi)
    return total


def oracle_mutual_information(joint):
    mx = defaultdict(float)
    my = defaultdict(float)
    for (xs, ys), w in joint.items():
        mx[xs] += w
        my[ys] += w
    total = 0.0
    for (xs, ys), w in joint.items():
        if w > 0:
            total += w * math.log(w / (mx[xs] * my[ys]))
    return total


def oracle_expected_cost(joint, cost_fn):
    """Expectation of cost_fn(x_path, y_history) under the joint."""
    total = 0.0
    for (xs, ys), w in joint.items():
        if w > 0:
            c = cost_fn(xs, ys[:-1])
            if math.isinf(c):
                return math.inf
            total += w * c
    return total


def oracle_expected_distortion(joint, dist_fn):
    total = 0.0
    for (xs, ys), w in joint.items():
        if w > 0:
            d = dist_fn(xs, ys)
            if math.isinf(d):
                return math.inf
            total += w * d
    return total
