"""Mixed-radix codes for dense tables over finite product spaces.

One layout is used everywhere in the package: coordinates are ordered
``(x_0, y_0, x_1, y_1, ...)`` with earlier times more significant, and a
tuple's code is its row-major rank under that order.  Table row indices,
flattened path indices and ndarray axes all follow this single convention.
"""
from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError


def product_size(sizes: Sequence[int]) -> int:
    """Number of tuples in the product space with the given per-coordinate sizes."""
    return math.prod(sizes)


def decode(code: int, sizes: Sequence[int]) -> tuple[int, ...]:
    """Digits of ``code``, the row-major rank of a tuple in the product
    space described by ``sizes``."""
    total = product_size(sizes)
    if not 0 <= code < total:
        raise DomainError(f"code {code} out of range for a space of {total} tuples")
    digits = []
    for s in reversed(sizes):
        digits.append(code % s)
        code //= s
    return tuple(reversed(digits))
