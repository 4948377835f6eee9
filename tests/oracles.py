"""Independent reference implementations used to validate the package.

Everything here is pure Python over dicts and tuples: path enumeration via
itertools, probabilities via math.log, kernels supplied as callables
``fn(step, x_prefix, y_prefix) -> list of probabilities``.  No numpy, no
shared code with the package beyond the test-side table builders.
"""
import math
from collections import defaultdict
from itertools import combinations, product


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


def oracle_strategy_terms(x_sizes, y_sizes, q_fn, nu, cost_fn=None):
    """``(E[log Q(y^n||x^n) - log nu(y^n)], E[cost])`` for every deterministic
    feedback strategy, one pair per strategy.

    A strategy picks ``x_i`` from ``y^{i-1}`` (the inputs before it are its
    own choices); ``nu`` maps output paths to probabilities, and a strategy
    that reaches a path ``nu`` misses gets ``+inf``.  ``cost_fn(x_path,
    y_history)`` may return ``inf``; the expected cost is 0 without it.
    """
    steps = len(x_sizes)
    histories = [list(all_paths(y_sizes[:i])) for i in range(steps)]
    choices = [list(product(range(x_sizes[i]), repeat=len(histories[i]))) for i in range(steps)]
    terms = []
    for choice in product(*choices):
        picks = [dict(zip(histories[i], choice[i])) for i in range(steps)]
        info = cost = 0.0
        for ys in all_paths(y_sizes):
            xs = tuple(picks[i][ys[:i]] for i in range(steps))
            w = 1.0
            for i in range(steps):
                w *= q_fn(i, xs[: i + 1], ys[:i])[ys[i]]
            if w > 0:
                info += w * (math.log(w) - math.log(nu[ys])) if nu[ys] > 0 else math.inf
                if cost_fn is not None:
                    cost += w * cost_fn(xs, ys[:-1])
        terms.append((info, cost))
    return terms


def oracle_lagrangian_bound(terms, lam, budget=0.0):
    """``max`` over strategies of ``E[log Q - log nu] - lam (E[cost] -
    budget)``, leaving out strategies of infinite expected cost."""
    return max(info - lam * (cost - budget) for info, cost in terms if not math.isinf(cost))


def oracle_dual_bound(terms, budget):
    """Least Lagrangian bound over ``lam >= 0``.  The bound is the upper
    envelope of finitely many lines in ``lam``, so its least value sits at
    ``lam = 0`` or where two lines cross."""
    finite = [t for t in terms if not math.isinf(t[1])]
    candidates = {0.0}
    for (a1, c1), (a2, c2) in combinations(finite, 2):
        if c1 != c2:
            lam = (a1 - a2) / (c1 - c2)
            if lam > 0:
                candidates.add(lam)
    return min(oracle_lagrangian_bound(finite, lam, budget) for lam in candidates)
