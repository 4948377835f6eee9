import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirinfo as di
from dirinfo.sampling import random_backward_kernel, random_forward_kernel, random_spec, rng_from_seed
from dirinfo.serialization import (
    backward_kernel_from_jsonable,
    cost_table_from_jsonable,
    finite_real,
    forward_kernel_from_jsonable,
    kernel_to_jsonable,
    load_stochastic_table,
    nonneg_int,
    parse_real,
    positive_int,
    real_to_str,
    spec_from_jsonable,
    spec_to_jsonable,
    table_from_jsonable,
    table_to_jsonable,
    value_or_none,
)


# ---------------------------------------------------------------------------
# scalar round trips
# ---------------------------------------------------------------------------


@given(
    st.floats(
        allow_nan=False,
        allow_infinity=False,
        min_value=-1e300,
        max_value=1e300,
    )
)
@settings(max_examples=300, deadline=None)
def test_seventeen_digit_strings_round_trip_exactly(x):
    s = real_to_str(x)
    assert isinstance(s, str)
    assert parse_real(s) == x
    # and survives a JSON hop
    assert parse_real(json.loads(json.dumps(s))) == x


def test_parse_real_accepts_numbers_and_rejects_junk():
    assert parse_real(3) == 3.0
    assert parse_real(0.25) == 0.25
    assert parse_real("0.5") == 0.5
    assert parse_real("inf") == math.inf
    for bad in (True, False, None, [], {}, "zero point five"):
        with pytest.raises(di.ProblemFileError):
            parse_real(bad)


def test_finite_real_rejects_inf_and_nan():
    assert finite_real(1.5, "x") == 1.5
    with pytest.raises(di.ProblemFileError):
        finite_real(math.inf, "x")
    with pytest.raises(di.ProblemFileError):
        finite_real(math.nan, "x")


def test_int_helpers():
    data = {"a": 3, "b": 0, "c": "7", "d": -1}
    assert positive_int(data, "a", "blk") == 3
    assert positive_int(data, "missing", "blk", default=9) == 9
    assert nonneg_int(data, "b", "blk") == 0
    for key in ("b", "d"):
        with pytest.raises(di.ProblemFileError):
            positive_int(data, key, "blk")
    with pytest.raises(di.ProblemFileError):
        nonneg_int(data, "d", "blk")
    with pytest.raises(di.ProblemFileError):
        positive_int(data, "c", "blk")
    # absent keys are optional and fall back to the default
    assert positive_int(data, "missing", "blk") is None
    assert value_or_none(data, "a", "blk") == 3
    assert value_or_none(data, "missing", "blk") is None


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_table_round_trip_is_exact():
    rng = np.random.default_rng(0)
    t = rng.dirichlet(np.ones(4), size=5)
    encoded = table_to_jsonable(t)
    assert all(isinstance(v, str) for row in encoded for v in row)
    back = table_from_jsonable(encoded)
    assert np.array_equal(back, t)


def test_table_from_jsonable_rejects_ragged_and_empty():
    with pytest.raises(di.ProblemFileError):
        table_from_jsonable([[]])
    with pytest.raises(di.ProblemFileError):
        table_from_jsonable([])
    with pytest.raises(di.ProblemFileError):
        table_from_jsonable([["0.5", "0.5"], ["1.0"]])
    with pytest.raises(di.ProblemFileError):
        table_from_jsonable("not a table")


def test_stochastic_loader_tolerance_boundary():
    ok = [["0.5", str(0.5 - 5e-10)]]
    t = load_stochastic_table(ok)
    # renormalized on load
    assert t.sum() == pytest.approx(1.0, abs=1e-15)
    bad = [["0.5", "0.4"]]
    with pytest.raises(di.ProblemFileError, match="row 0"):
        load_stochastic_table(bad)
    with pytest.raises(di.ProblemFileError):
        load_stochastic_table([["0.5", "-0.5"], ["0.5", "0.5"]])
    with pytest.raises(di.ProblemFileError):
        load_stochastic_table([["inf", "0.5"]])


def test_cost_table_allows_infinity_rejects_nan_and_negatives():
    t = cost_table_from_jsonable([["0", "inf"], ["Infinity", "2.5"]], "cost")
    assert t[0, 1] == math.inf and t[1, 0] == math.inf
    assert t[1, 1] == 2.5
    with pytest.raises(di.ProblemFileError):
        cost_table_from_jsonable([["nan", "0"]], "cost")
    with pytest.raises(di.ProblemFileError):
        cost_table_from_jsonable([["-1", "0"]], "cost")


# ---------------------------------------------------------------------------
# specs and kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    pytest.param(lambda: table_to_jsonable(np.zeros(3)), id="table-not-2d"),
    pytest.param(lambda: spec_from_jsonable({"horizon_n": "0", "x_sizes": [2], "y_sizes": [2]}), id="horizon-text"),
    pytest.param(lambda: spec_from_jsonable({"horizon_n": True, "x_sizes": [2], "y_sizes": [2]}), id="horizon-bool"),
    pytest.param(lambda: backward_kernel_from_jsonable(di.AlphabetSpec(0, (2,), (2,)), {"tables": []}),
                 id="tables-empty"),
    pytest.param(lambda: forward_kernel_from_jsonable(di.AlphabetSpec(0, (2,), (2,)), {"tables": "[]"}),
                 id="tables-not-a-list"),
])
def test_input_guards(make):
    with pytest.raises(di.ProblemFileError):
        make()


def test_spec_round_trip_and_validation():
    spec = di.AlphabetSpec(1, (2, 3), (4, 2))
    doc = spec_to_jsonable(spec)
    assert doc == {"horizon_n": 1, "x_sizes": [2, 3], "y_sizes": [4, 2]}
    assert spec_from_jsonable(doc) == spec
    assert spec_from_jsonable(json.loads(json.dumps(doc))) == spec
    # malformed documents fail as file errors, structurally impossible
    # shapes as domain errors; the CLI treats both as bad input
    for bad in (
        {},
        {"horizon_n": 1, "x_sizes": [2], "y_sizes": [2, 2]},
        {"horizon_n": -1, "x_sizes": [2], "y_sizes": [2]},
        {"horizon_n": 0, "x_sizes": [2.5], "y_sizes": [2]},
        {"horizon_n": 0, "x_sizes": [0], "y_sizes": [2]},
        "nope",
    ):
        with pytest.raises((di.ProblemFileError, di.DomainError)):
            spec_from_jsonable(bad)


@pytest.mark.parametrize("seed", range(5))
def test_kernel_round_trips_are_exact(seed):
    rng = rng_from_seed(seed)
    spec = random_spec(rng)
    p = random_backward_kernel(rng, spec)
    q = random_forward_kernel(rng, spec)
    p2 = backward_kernel_from_jsonable(spec, json.loads(json.dumps(kernel_to_jsonable(p))))
    q2 = forward_kernel_from_jsonable(spec, json.loads(json.dumps(kernel_to_jsonable(q))))
    # the loader renormalizes each row, which can move the last bit when a
    # row sum is one ulp off 1; everything else is bit-exact
    for a, b in zip(p.tables, p2.tables):
        assert np.allclose(a, b, rtol=0, atol=1e-15)
    for a, b in zip(q.tables, q2.tables):
        assert np.allclose(a, b, rtol=0, atol=1e-15)


def test_kernel_from_jsonable_validates_shape_and_keys():
    spec = di.AlphabetSpec(0, (2,), (2,))
    with pytest.raises((di.ProblemFileError, di.SpecMismatch)):
        backward_kernel_from_jsonable(spec, {"tables": [[["0.5", "0.5"]], [["1.0"]]]})
    with pytest.raises(di.ProblemFileError):
        backward_kernel_from_jsonable(spec, {"no_tables": []})
    with pytest.raises(di.ProblemFileError):
        forward_kernel_from_jsonable(spec, ["not", "a", "dict"])
    # wrong row count surfaces as a spec mismatch
    with pytest.raises((di.ProblemFileError, di.SpecMismatch)):
        forward_kernel_from_jsonable(
            spec, {"tables": [[["0.5", "0.5"], ["0.5", "0.5"], ["0.5", "0.5"]]]}
        )


def test_round_trip_preserves_information_value():
    rng = rng_from_seed(77)
    spec = random_spec(rng)
    p = random_backward_kernel(rng, spec)
    q = random_forward_kernel(rng, spec)
    before = di.directed_information(p, q)
    p2 = backward_kernel_from_jsonable(
        spec, json.loads(json.dumps(kernel_to_jsonable(p)))
    )
    q2 = forward_kernel_from_jsonable(
        spec, json.loads(json.dumps(kernel_to_jsonable(q)))
    )
    after = di.directed_information(p2, q2)
    assert after == pytest.approx(before, abs=1e-15)
