"""Independent checks for the benchmark: every quantity the workloads judge
the program by is computed here again, with plain numpy on the kernels' step
tables, and never with ``dirinfo``'s own evaluators or solvers.

Layout: the joint path law of ``(x_0, y_0, ..., x_n, y_n)`` is a dense array
with one axis per symbol, in that interleaved order.  Input table ``i`` has
one row per history ``(x_0, y_0, ..., x_{i-1}, y_{i-1})``; channel table
``i`` has one row per history ``(x_0, y_0, ..., y_{i-1}, x_i)``.  All values
are in nats.
"""
from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def interleaved_shape(x_sizes, y_sizes) -> tuple[int, ...]:
    return tuple(v for pair in zip(x_sizes, y_sizes) for v in pair)


def _padded(table: np.ndarray, head: tuple[int, ...], ndim: int) -> np.ndarray:
    """Reshape a step table onto the leading axes ``head`` of an ``ndim``-axis
    interleaved array."""
    return table.reshape(head + (1,) * (ndim - len(head)))


def path_joint(p_tables, q_tables, x_sizes, y_sizes) -> np.ndarray:
    """Joint law of the interleaved path induced by input and channel tables."""
    shape = interleaved_shape(x_sizes, y_sizes)
    nd = len(shape)
    w = np.ones((1,) * nd)
    for i, (p, q) in enumerate(zip(p_tables, q_tables)):
        w = w * _padded(p, shape[: 2 * i + 1], nd)
        w = w * _padded(q, shape[: 2 * i + 2], nd)
    return w


def channel_paths(q_tables, x_sizes, y_sizes) -> np.ndarray:
    """``Q(y^n || x^n)`` on the interleaved layout (the channel alone)."""
    shape = interleaved_shape(x_sizes, y_sizes)
    nd = len(shape)
    w = np.ones((1,) * nd)
    for i, q in enumerate(q_tables):
        w = w * _padded(q, shape[: 2 * i + 2], nd)
    return np.broadcast_to(w, shape)


def _y_axes(nd: int) -> tuple[int, ...]:
    return tuple(range(1, nd, 2))


def _x_axes(nd: int) -> tuple[int, ...]:
    return tuple(range(0, nd, 2))


_CHUNK = 1 << 20


def _entropy(w: np.ndarray) -> float:
    """``-sum w log w`` over the positive cells, a chunk at a time so the
    temporaries stay small next to a large joint."""
    flat = w.reshape(-1)
    total = 0.0
    for start in range(0, flat.size, _CHUNK):
        c = flat[start: start + _CHUNK]
        c = c[c > 0]
        total -= float(np.dot(c, np.log(c)))
    return total


def information_pair(p_tables, q_tables, x_sizes, y_sizes) -> tuple[float, float]:
    """Directed and mutual information of one joint, in nats.

    Directed information is ``H(Y^n) - H(Y^n || X^n)``, where the causally
    conditioned entropy ``-E log Q(y^n || x^n)`` is summed step by step on
    successive marginals of the joint; mutual information is
    ``H(X^n) + H(Y^n) - H(X^n, Y^n)``.
    """
    shape = interleaved_shape(x_sizes, y_sizes)
    nd = len(shape)
    w = path_joint(p_tables, q_tables, x_sizes, y_sizes)
    h_out = _entropy(w.sum(axis=_x_axes(nd)))
    h_in = _entropy(w.sum(axis=_y_axes(nd)))
    h_joint = _entropy(w)
    h_cond = 0.0
    m = w
    for i in range(len(q_tables) - 1, -1, -1):
        q = q_tables[i]
        with np.errstate(divide="ignore"):
            log_q = np.where(q > 0, np.log(np.where(q > 0, q, 1.0)), 0.0)
        # cells where q_i = 0 carry no mass, so their log is never used
        h_cond -= float(np.vdot(m.reshape(-1), log_q.reshape(-1)))
        m = m.sum(axis=(2 * i, 2 * i + 1))
    return h_out - h_cond, h_in + h_out - h_joint


def directed_information(p_tables, q_tables, x_sizes, y_sizes) -> float:
    """``I(X^n -> Y^n) = H(Y^n) - H(Y^n || X^n)``."""
    return information_pair(p_tables, q_tables, x_sizes, y_sizes)[0]


def cost_interleaved(cost_table: np.ndarray, x_sizes, y_sizes) -> np.ndarray:
    """A cost over ``(x^n, y^{n-1})`` laid out to broadcast against the
    interleaved joint (the ``y_n`` axis has size 1)."""
    n = len(x_sizes) - 1
    arr = cost_table.reshape(tuple(x_sizes) + tuple(y_sizes[:n]))
    order = [a for i in range(n) for a in (i, n + 1 + i)] + [n]
    return arr.transpose(order)[..., None]


def expected_cost(p_tables, q_tables, cost_table, x_sizes, y_sizes) -> float:
    """``E[c(x^n, y^{n-1})]`` under the joint, with ``0 * inf = 0``."""
    w = path_joint(p_tables, q_tables, x_sizes, y_sizes)
    cost = np.broadcast_to(cost_interleaved(cost_table, x_sizes, y_sizes), w.shape)
    live = w > 0
    return float(np.sum(w[live] * cost[live]))


def output_law(p_tables, q_tables, x_sizes, y_sizes) -> np.ndarray:
    """Law of ``y^n`` as a flat vector in row-major ``(y_0, ..., y_n)`` order."""
    nd = 2 * len(x_sizes)
    return path_joint(p_tables, q_tables, x_sizes, y_sizes).sum(axis=_x_axes(nd)).reshape(-1)


# ---------------------------------------------------------------------------
# capacity certificates (upper bounds)
# ---------------------------------------------------------------------------


def _feedback_bound_at(q_tables, nu, x_sizes, y_sizes, lam, cost):
    """``max`` over deterministic feedback strategies of
    ``E[log Q(y^n||x^n) - log nu(y^n) - lam * c]``, by hard backward
    induction: sum over ``y_i`` under ``q_i``, then max over ``x_i``."""
    shape = interleaved_shape(x_sizes, y_sizes)
    nd = len(shape)
    with np.errstate(divide="ignore"):
        v = -np.log(nu).reshape(tuple(y_sizes))
    v = v.reshape(tuple(s if a % 2 else 1 for a, s in enumerate(shape)))
    if cost is not None and lam != 0.0:
        v = v - lam * cost
    for i in range(len(x_sizes) - 1, -1, -1):
        head = shape[: 2 * i + 2]
        v = np.broadcast_to(v, head)
        q = q_tables[i].reshape(head)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(q > 0, q * (np.log(q) + v), 0.0)
        v = term.sum(axis=2 * i + 1).max(axis=2 * i)
    return float(v.reshape(-1)[0])


def _min_convex(g, lo: float = 0.0, hi: float = 1.0, rounds: int = 90) -> float:
    """Least value seen while minimizing a convex ``g`` on ``[0, inf)`` by
    doubling an upper end and then golden-section search.  Every value of
    ``g`` is a valid bound, so the minimum seen is one too."""
    prev = g(hi)
    seen = [g(lo), prev]
    while hi < 1e8:
        nxt = g(2.0 * hi)
        seen.append(nxt)
        if nxt >= prev:
            break
        prev = nxt
        hi *= 2.0
    hi *= 2.0
    r = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - r * (b - a), a + r * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(rounds):
        seen.extend((gc, gd))
        if gc <= gd:
            b, d, gd = d, c, gc
            c = b - r * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + r * (b - a)
            gd = g(d)
    seen.extend((gc, gd))
    return min(seen)


def feedback_certificate(q_tables, nu, x_sizes, y_sizes, cost_table=None, budget=None) -> float:
    """Upper bound on feedback capacity from the output law ``nu``.

    ``C <= max_P E[log Q(y^n||x^n) - log nu(y^n)]`` for every ``nu``; under
    ``E[c] <= budget`` the Lagrangian form is minimized over ``lam >= 0``.
    """
    if cost_table is None:
        return _feedback_bound_at(q_tables, nu, x_sizes, y_sizes, 0.0, None)
    cost = cost_interleaved(np.asarray(cost_table, dtype=float), x_sizes, y_sizes)
    return _min_convex(
        lambda lam: _feedback_bound_at(q_tables, nu, x_sizes, y_sizes, lam, cost)
        + lam * budget
    )


def path_channel(q_tables, x_sizes, y_sizes) -> np.ndarray:
    """``Q(y^n | x^n)`` as an (input path, output path) matrix."""
    nd = 2 * len(x_sizes)
    w = channel_paths(q_tables, x_sizes, y_sizes)
    return w.transpose(_x_axes(nd) + _y_axes(nd)).reshape(
        math.prod(x_sizes), math.prod(y_sizes)
    )


def no_feedback_certificate(q_tables, nu, x_sizes, y_sizes, cost_table=None, budget=None) -> float:
    """Upper bound on capacity without feedback: ``max_x D(Q(.|x) || nu)``,
    with a cost term minimized over ``lam >= 0`` when constrained."""
    mat = path_channel(q_tables, x_sizes, y_sizes)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mat > 0, mat * (np.log(mat) - np.log(nu)[None, :]), 0.0)
    div = terms.sum(axis=1)
    if cost_table is None:
        return float(div.max())
    n = len(x_sizes) - 1
    # average the (x^n, y^{n-1}) cost over the y^{n-1} the channel produces
    y_hist = mat.reshape(mat.shape[0], -1, y_sizes[n]).sum(axis=-1)
    cbar = np.where(y_hist > 0, y_hist * np.asarray(cost_table, dtype=float), 0.0).sum(axis=1)
    return _min_convex(lambda lam: float((div - lam * cbar).max()) + lam * budget)


# ---------------------------------------------------------------------------
# block rate-distortion lower bound (Blahut 1972)
# ---------------------------------------------------------------------------


def _blahut_at(mu, a_mat, r, iters, tol):
    """Blahut iterations at a fixed slope; returns the updated output law,
    ``sum_x mu log lam(x) - log max_y c(y)`` and the test channel
    ``Q(y|x) = r(y) lam(x) exp(-s d(x,y))`` of the iterate."""
    live = mu > 0
    for _ in range(iters):
        lam = 1.0 / (a_mat @ r)
        c = (mu * lam) @ a_mat
        gap = math.log(c.max()) - float(np.sum(r * c * np.log(np.where(c > 0, c, 1.0))))
        r = r * c
        r = r / r.sum()
        if gap <= tol:
            break
    lam = 1.0 / (a_mat @ r)
    c = (mu * lam) @ a_mat
    base = float(np.sum(mu[live] * np.log(lam[live]))) - math.log(c.max())
    cond = (a_mat * r[None, :]) * lam[:, None]
    return r, base, cond


def block_rd_lower_bound(mu, dist, budget, iters: int = 400, tol: float = 1e-13) -> float:
    """Certified lower bound on the block rate-distortion function
    ``R(D) = min_{Q(y|x): E d <= D} I(X; Y)`` of the law ``mu`` on input
    paths with distortion matrix ``dist``.

    For every slope ``s >= 0`` and output law ``r``,
    ``R(D) >= -s D + sum_x mu(x) log lam(x) - log max_y c(y)`` with
    ``lam(x) = 1 / sum_y r(y) exp(-s d(x,y))`` and
    ``c(y) = sum_x mu(x) lam(x) exp(-s d(x,y))``.  The slope is bisected on
    the distortion of Blahut's iterate; the best bound met is returned.
    """
    mu = np.asarray(mu, dtype=float)
    dist = np.asarray(dist, dtype=float)
    r = np.full(dist.shape[1], 1.0 / dist.shape[1])
    best = 0.0

    def probe(s, r):
        with np.errstate(invalid="ignore", over="ignore"):
            a_mat = np.exp(np.where(np.isinf(dist), -np.inf, -s * dist))
        r, base, cond = _blahut_at(mu, a_mat, r, iters, tol)
        d_s = float(np.sum(mu[:, None] * cond * np.where(cond > 0, dist, 0.0)))
        return r, base - s * budget, d_s

    lo, hi = 0.0, 1.0
    while True:
        r, bound, d_s = probe(hi, r)
        best = max(best, bound)
        if d_s <= budget or hi > 1e6:
            break
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        r, bound, d_s = probe(mid, r)
        best = max(best, bound)
        if d_s > budget:
            lo = mid
        else:
            hi = mid
    return best


def source_path_law(p_tables, x_sizes, y_sizes) -> np.ndarray:
    """Law of ``x^n`` under input tables that ignore the output history:
    each table is read at the all-zero output history."""
    shape = interleaved_shape(x_sizes, y_sizes)
    k = len(x_sizes)
    w = np.ones((1,) * k)
    for i, t in enumerate(p_tables):
        rows = t.reshape(shape[: 2 * i + 1])[tuple(slice(None) if a % 2 == 0 else 0 for a in range(2 * i))]
        w = w * rows.reshape(tuple(x_sizes[: i + 1]) + (1,) * (k - i - 1))
    return w.reshape(-1)


def ignores_output_history(p_tables, x_sizes, y_sizes, tol: float = 1e-12) -> bool:
    """True when every input table is the same across output histories."""
    shape = interleaved_shape(x_sizes, y_sizes)
    for i, t in enumerate(p_tables):
        arr = t.reshape(shape[: 2 * i + 1])
        for a in range(1, 2 * i, 2):
            if float(np.abs(arr - arr.take([0], axis=a)).max()) > tol:
                return False
    return True


def expected_distortion(mu, q_tables, dist, x_sizes, y_sizes) -> float:
    """``E d`` when the source path law ``mu`` drives the channel ``q``."""
    joint = np.asarray(mu)[:, None] * path_channel(q_tables, x_sizes, y_sizes)
    live = joint > 0
    return float(np.sum(joint[live] * np.asarray(dist, dtype=float)[live]))


def hamming_table(steps: int, power: int = 1) -> np.ndarray:
    """``(number of differing bits) ** power`` between binary paths."""
    m = 2 ** steps
    codes = np.arange(m)
    diff = codes[:, None] ^ codes[None, :]
    count = np.zeros((m, m))
    for b in range(steps):
        count += (diff >> b) & 1
    return count ** power


def nrdf_iid_hamming(steps: int, budget: float) -> float:
    """NRDF of ``steps`` uniform i.i.d. bits under summed Hamming distortion
    at total budget ``budget``: ``steps * (ln 2 - H_b(budget / steps))``."""
    delta = min(0.5, budget / steps)
    return steps * (LN2 - binary_entropy(delta))
