"""JSON-friendly encoding of specs, kernels, and numeric tables.

Reals are emitted as 17-significant-digit strings so a value round-trips
bit-exactly through text regardless of the JSON writer's float formatting,
and so two runs of the same problem produce byte-identical documents.
Tables are accepted when row sums sit within ``1e-9`` of one and are then
renormalized to the package's tighter internal tolerance.
"""
from __future__ import annotations

import math
from typing import Any, Union

import numpy as np

from .errors import ProblemFileError
from .measures import AlphabetSpec, BackwardKernel, ForwardKernel, _frozen

LOAD_ROW_TOL = 1e-9


def real_to_str(value: float) -> str:
    return format(float(value), ".17g")


def parse_real(value: Any, where: str = "value") -> float:
    if isinstance(value, bool):
        raise ProblemFileError(f"{where}: expected a real number, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError as exc:
            raise ProblemFileError(f"{where}: cannot parse real from {value!r}") from exc
    raise ProblemFileError(f"{where}: expected a real number, got {type(value).__name__}")


def table_to_jsonable(table: np.ndarray) -> list[list[str]]:
    arr = np.asarray(table, dtype=float)
    if arr.ndim != 2:
        raise ProblemFileError(f"expected a 2-D table, got shape {arr.shape}")
    return [[real_to_str(v) for v in row] for row in arr]


def table_from_jsonable(data: Any, where: str = "table") -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ProblemFileError(f"{where}: expected a non-empty list of rows")
    rows = []
    width = None
    for r, row in enumerate(data):
        if not isinstance(row, list) or not row:
            raise ProblemFileError(f"{where}: row {r} must be a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ProblemFileError(f"{where}: row {r} has ragged length")
        rows.append([parse_real(v, f"{where}[{r}]") for v in row])
    return np.asarray(rows, dtype=float)


def load_stochastic_table(data: Any, where: str = "table") -> np.ndarray:
    """Parse a row-stochastic table, tolerating ``1e-9`` row-sum drift."""
    arr = table_from_jsonable(data, where)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise ProblemFileError(f"{where}: entries must be finite and >= 0")
    sums = arr.sum(axis=-1)
    bad = np.abs(sums - 1.0) > LOAD_ROW_TOL
    if np.any(bad):
        r = int(np.argmax(bad))
        raise ProblemFileError(
            f"{where}: row {r} sums to {sums[r]!r}, outside 1 +/- {LOAD_ROW_TOL}"
        )
    return arr / sums[:, None]


def spec_to_jsonable(spec: AlphabetSpec) -> dict:
    return {
        "horizon_n": spec.horizon_n,
        "x_sizes": list(spec.x_sizes),
        "y_sizes": list(spec.y_sizes),
    }


def spec_from_jsonable(data: Any) -> AlphabetSpec:
    if not isinstance(data, dict):
        raise ProblemFileError("spec: expected an object")
    try:
        n = data["horizon_n"]
        xs = data["x_sizes"]
        ys = data["y_sizes"]
    except KeyError as exc:
        raise ProblemFileError(f"spec: missing key {exc.args[0]!r}") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise ProblemFileError("spec: horizon_n must be an integer")
    for name, sizes in (("x_sizes", xs), ("y_sizes", ys)):
        if not isinstance(sizes, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in sizes
        ):
            raise ProblemFileError(f"spec: {name} must be a list of integers")
    return AlphabetSpec(n, tuple(xs), tuple(ys))


def kernel_to_jsonable(kernel: Union[BackwardKernel, ForwardKernel]) -> dict:
    return {"tables": [table_to_jsonable(t) for t in kernel.tables]}


def _tables_from_jsonable(data: Any, where: str) -> list[np.ndarray]:
    if not isinstance(data, dict) or "tables" not in data:
        raise ProblemFileError(f"{where}: expected an object with a 'tables' key")
    entries = data["tables"]
    if not isinstance(entries, list) or not entries:
        raise ProblemFileError(f"{where}: 'tables' must be a non-empty list")
    return [
        _frozen(load_stochastic_table(t, f"{where}.tables[{i}]")) for i, t in enumerate(entries)
    ]


def backward_kernel_from_jsonable(spec: AlphabetSpec, data: Any) -> BackwardKernel:
    return BackwardKernel(spec, tuple(_tables_from_jsonable(data, "backward_kernel")))


def forward_kernel_from_jsonable(spec: AlphabetSpec, data: Any) -> ForwardKernel:
    return ForwardKernel(spec, tuple(_tables_from_jsonable(data, "forward_kernel")))


def cost_table_from_jsonable(data: Any, where: str) -> np.ndarray:
    """Nonnegative table that may contain ``inf`` entries (as the strings
    'inf'/'Infinity'); used for cost and distortion payloads."""
    arr = table_from_jsonable(data, where)
    if np.any(np.isnan(arr)) or np.any(arr < 0):
        raise ProblemFileError(f"{where}: entries must be >= 0 and not NaN")
    return arr


def value_or_none(data: dict, key: str, where: str):
    if key not in data or data[key] is None:
        return None
    return parse_real(data[key], f"{where}.{key}")


def read_int(data: dict, key: str, where: str, least: int, default=None):
    """``data[key]`` if it is an integer (an ``int``, not a ``bool``) of
    at least ``least``, 0 or 1; ``default`` if the key is absent or
    ``None``; else a :class:`ProblemFileError` naming ``where.key``."""
    if key not in data or data[key] is None:
        return default
    v = data[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < least:
        kind = "positive" if least else "nonnegative"
        raise ProblemFileError(f"{where}.{key}: expected a {kind} integer")
    return v


def finite_real(value: float, where: str) -> float:
    if not math.isfinite(value):
        raise ProblemFileError(f"{where}: must be finite, got {value!r}")
    return value
