"""The row-major code convention of the package's tables, on the
pure-Python ``decode`` reference the other tests build tables with."""
import math

import pytest
from hypothesis import given, strategies as st

from dirinfo.errors import DomainError

from helpers import decode


def encode(digits, sizes):
    """Reference inverse of ``decode``: the row-major rank of ``digits``."""
    if len(digits) != len(sizes):
        raise DomainError(
            f"digit count {len(digits)} does not match radix count {len(sizes)}"
        )
    code = 0
    for d, s in zip(digits, sizes):
        if not 0 <= d < s:
            raise DomainError(f"digit {d} out of range for alphabet of size {s}")
        code = code * s + d
    return code


@st.composite
def sizes_and_digits(draw):
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    digits = [draw(st.integers(0, s - 1)) for s in sizes]
    return sizes, digits


@given(sizes_and_digits())
def test_encode_decode_round_trip(case):
    sizes, digits = case
    code = encode(digits, sizes)
    assert 0 <= code < math.prod(sizes)
    assert decode(code, sizes) == tuple(digits)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=5))
def test_encode_is_a_bijection(sizes):
    total = math.prod(sizes)
    seen = {encode(decode(c, sizes), sizes) for c in range(total)}
    assert seen == set(range(total))


def test_row_major_order():
    # the last coordinate varies fastest
    assert encode([0, 0], [2, 3]) == 0
    assert encode([0, 1], [2, 3]) == 1
    assert encode([1, 0], [2, 3]) == 3
    assert encode([1, 2], [2, 3]) == 5


def test_encode_rejects_out_of_range():
    with pytest.raises(DomainError):
        encode([2], [2])
    with pytest.raises(DomainError):
        encode([-1], [2])
    with pytest.raises(DomainError):
        encode([0, 0], [2])
