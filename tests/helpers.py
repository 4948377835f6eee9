"""Shared test utilities: random kernel callables, table builders and a spy
on the solvers' log-sum-exp guard."""
import math

import numpy as np

from dirinfo import capacity, nrdf, solver
from dirinfo.measures import AlphabetSpec, BackwardKernel, ForwardKernel


def spy_on_guards(monkeypatch) -> list:
    """The ``guarded`` flag of each :func:`dirinfo.solver.logsumexp` call
    that the solvers and the induction make from now on, in order."""
    flags, logsumexp = [], solver.logsumexp

    def spy(*args, **kwargs):
        out = logsumexp(*args, **kwargs)
        flags.append(out[1])
        return out

    for module in (solver, capacity, nrdf):
        monkeypatch.setattr(module, "logsumexp", spy)
    return flags


def decode(code, sizes):
    """Digits of ``code``, the row-major rank of a tuple in the product
    space of ``sizes`` (the last coordinate varies fastest): a pure-Python
    reference for the package's row and path codes."""
    if not 0 <= code < math.prod(sizes):
        raise ValueError(f"code {code} out of range for a space of {math.prod(sizes)} tuples")
    digits = []
    for s in reversed(sizes):
        code, d = divmod(code, s)
        digits.append(d)
    return tuple(reversed(digits))


def hb(t: float) -> float:
    """Binary entropy in nats."""
    return -t * math.log(t) - (1 - t) * math.log(1 - t)


def random_kernel_fn(rnd, width, sparse=False):
    """A memoized callable mapping (step, x_prefix, y_prefix) to a random
    probability row of the given per-step widths."""
    cache = {}

    def fn(i, xs, ys):
        key = (i, xs, ys)
        if key not in cache:
            w = width[i] if isinstance(width, (list, tuple)) else width
            raw = [rnd.random() for _ in range(w)]
            if sparse:
                keep = rnd.randrange(w)
                raw = [v if (j == keep or v > 0.6) else 0.0 for j, v in enumerate(raw)]
            s = sum(raw)
            cache[key] = [v / s for v in raw]
        return cache[key]

    return fn


def _interleaved_prefix_sizes(spec: AlphabetSpec, i: int, with_x_i: bool):
    sizes = []
    for j in range(i):
        sizes.append(spec.x_sizes[j])
        sizes.append(spec.y_sizes[j])
    if with_x_i:
        sizes.append(spec.x_sizes[i])
    return tuple(sizes)


def backward_kernel_from_fn(spec: AlphabetSpec, fn) -> BackwardKernel:
    """Materialize per-step tables in the package's row convention from a
    callable keyed by history tuples."""
    tables = []
    for i in range(spec.steps):
        sizes = _interleaved_prefix_sizes(spec, i, with_x_i=False)
        rows = []
        for code in range(spec.input_history_count(i)):
            digits = decode(code, sizes) if sizes else []
            xs, ys = tuple(digits[0::2]), tuple(digits[1::2])
            rows.append(fn(i, xs, ys))
        tables.append(np.array(rows, dtype=float))
    return BackwardKernel(spec, tuple(tables))


def forward_kernel_from_fn(spec: AlphabetSpec, fn) -> ForwardKernel:
    tables = []
    for i in range(spec.steps):
        sizes = _interleaved_prefix_sizes(spec, i, with_x_i=True)
        rows = []
        for code in range(spec.output_history_count(i)):
            digits = decode(code, sizes)
            xs, ys = tuple(digits[0::2]), tuple(digits[1::2])
            rows.append(fn(i, xs, ys))
        tables.append(np.array(rows, dtype=float))
    return ForwardKernel(spec, tuple(tables))


def trapdoor_channel(n: int) -> ForwardKernel:
    """The trapdoor channel over ``n + 1`` uses.  A state starts at 0; the
    output is the input when the input equals the state and a fair bit
    otherwise; then the state becomes ``s xor x_i xor y_i``."""
    def fn(i, xs, ys):
        s = 0
        for x, y in zip(xs, ys):
            s ^= x ^ y
        return [1.0 - xs[i], float(xs[i])] if xs[i] == s else [0.5, 0.5]

    return forward_kernel_from_fn(AlphabetSpec(n, (2,) * (n + 1), (2,) * (n + 1)), fn)


def random_small_shape(rnd, max_horizon=2, max_size=3):
    n = rnd.randrange(max_horizon + 1)
    xs = tuple(rnd.randrange(2, max_size + 1) for _ in range(n + 1))
    ys = tuple(rnd.randrange(2, max_size + 1) for _ in range(n + 1))
    return AlphabetSpec(n, xs, ys)
