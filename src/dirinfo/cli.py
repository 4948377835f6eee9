"""Command-line front end: problem-file ingestion, subcommand dispatch,
report emission.  This is the only module that performs I/O.

Subcommands: ``compute`` (directed information both ways), ``capacity``
(input optimization), ``nrdf`` (reconstruction optimization, single budget
or budget-grid sweep), ``verify`` (randomized property suites or replay of
a serialized failure).  Exit codes: 0 success, 2 unreadable or invalid
problem file, 3 internal inconsistency, 4 infeasible constraints, 5
property violation.

Reports are JSON (reals as 17-significant-digit strings, keys sorted, so
identical inputs produce byte-identical output) or CSV with a header row.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .capacity import CapacityResult, PowerConstraint, solve_capacity
from .errors import (
    DirinfoError,
    DomainError,
    GridTooLarge,
    InfeasibleConstraint,
    ProblemFileError,
    SpecMismatch,
)
from .information import directed_information_sum
from .measures import AlphabetSpec, BackwardKernel, ForwardKernel
from .nrdf import DistortionConstraint, NrdfResult, SourceSpec, rd_curve, solve_nrdf
from .serialization import (
    backward_kernel_from_jsonable,
    cost_table_from_jsonable,
    finite_real,
    forward_kernel_from_jsonable,
    load_stochastic_table,
    nonneg_int,
    parse_real,
    positive_int,
    real_to_str,
    spec_from_jsonable,
    table_to_jsonable,
    value_or_none,
)
from .solver import SolverConfig
from .verify import SUITE_IDS, SuiteReport, replay, run_suite

_LN2 = math.log(2.0)

_KNOWN_TOP_KEYS = {
    "format_version",
    "spec",
    "backward_kernel",
    "forward_kernel",
    "source",
    "power_constraint",
    "distortion_constraint",
    "no_feedback",
    "solver",
    "output",
}


@dataclass
class ProblemFile:
    """Parsed problem document; fields beyond the chosen subcommand's needs
    stay None."""

    spec: AlphabetSpec
    backward: Optional[BackwardKernel] = None
    forward: Optional[ForwardKernel] = None
    source: Optional[SourceSpec] = None
    power: Optional[PowerConstraint] = None
    distortion: Optional[DistortionConstraint] = None
    budget_grid: Optional[list[float]] = None
    no_feedback: bool = False
    solver: Optional[dict] = None
    units: str = "nats"
    format: str = "json"


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_problem_file(path: str) -> ProblemFile:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ProblemFileError("problem file must be a JSON object")
    unknown = set(data) - _KNOWN_TOP_KEYS
    if unknown:
        raise ProblemFileError(f"unknown top-level keys: {sorted(unknown)}")
    version = data.get("format_version")
    if version != "1":
        raise ProblemFileError(f"format_version must be the string '1', got {version!r}")
    if "spec" not in data:
        raise ProblemFileError("problem file must carry a 'spec' object")
    spec = spec_from_jsonable(data["spec"])
    pf = ProblemFile(spec=spec)

    if "backward_kernel" in data:
        pf.backward = backward_kernel_from_jsonable(spec, data["backward_kernel"])
    if "forward_kernel" in data:
        pf.forward = forward_kernel_from_jsonable(spec, data["forward_kernel"])
    if "source" in data:
        block = data["source"]
        if not isinstance(block, dict) or "step_tables" not in block:
            raise ProblemFileError("source: expected an object with 'step_tables'")
        tables = block["step_tables"]
        if not isinstance(tables, list) or not tables:
            raise ProblemFileError("source.step_tables must be a non-empty list")
        loaded = [
            load_stochastic_table(t, f"source.step_tables[{i}]")
            for i, t in enumerate(tables)
        ]
        pf.source = SourceSpec.from_step_tables(spec, loaded)
    if "power_constraint" in data:
        block = data["power_constraint"]
        if not isinstance(block, dict):
            raise ProblemFileError("power_constraint: expected an object")
        table = cost_table_from_jsonable(
            block.get("cost_table"), "power_constraint.cost_table"
        )
        budget = value_or_none(block, "budget", "power_constraint")
        if budget is None:
            raise ProblemFileError("power_constraint.budget is required")
        pf.power = PowerConstraint(table, finite_real(budget, "power_constraint.budget"))
    if "distortion_constraint" in data:
        block = data["distortion_constraint"]
        if not isinstance(block, dict):
            raise ProblemFileError("distortion_constraint: expected an object")
        table = cost_table_from_jsonable(
            block.get("distortion_table"), "distortion_constraint.distortion_table"
        )
        budget = value_or_none(block, "budget", "distortion_constraint")
        grid = block.get("budget_grid")
        if grid is not None:
            if not isinstance(grid, list) or not grid:
                raise ProblemFileError(
                    "distortion_constraint.budget_grid must be a non-empty list"
                )
            pf.budget_grid = [
                finite_real(
                    parse_real(v, "distortion_constraint.budget_grid"),
                    "distortion_constraint.budget_grid",
                )
                for v in grid
            ]
        if budget is None and pf.budget_grid is None:
            raise ProblemFileError(
                "distortion_constraint needs 'budget' or 'budget_grid'"
            )
        nominal = budget if budget is not None else pf.budget_grid[0]
        pf.distortion = DistortionConstraint(
            table, finite_real(nominal, "distortion_constraint.budget")
        )
    if "no_feedback" in data:
        flag = data["no_feedback"]
        if not isinstance(flag, bool):
            raise ProblemFileError("no_feedback must be a boolean")
        pf.no_feedback = flag
    if "solver" in data:
        block = data["solver"]
        if not isinstance(block, dict):
            raise ProblemFileError("solver: expected an object")
        unknown = set(block) - {"tol", "max_iters", "multiplier_tol", "grid_resolution", "seed"}
        if unknown:
            raise ProblemFileError(f"solver: unknown keys {sorted(unknown)}")
        pf.solver = block
    if "output" in data:
        block = data["output"]
        if not isinstance(block, dict):
            raise ProblemFileError("output: expected an object")
        units = block.get("units", "nats")
        fmt = block.get("format", "json")
        if units not in ("nats", "bits"):
            raise ProblemFileError(f"output.units must be 'nats' or 'bits', got {units!r}")
        if fmt not in ("json", "csv"):
            raise ProblemFileError(f"output.format must be 'json' or 'csv', got {fmt!r}")
        pf.units = units
        pf.format = fmt
    return pf


def build_config(pf: ProblemFile, args: argparse.Namespace) -> SolverConfig:
    cfg = SolverConfig()
    if pf.solver:
        block = pf.solver
        tol = value_or_none(block, "tol", "solver")
        mtol = value_or_none(block, "multiplier_tol", "solver")
        cfg = replace(
            cfg,
            tol=cfg.tol if tol is None else tol,
            max_iters=positive_int(block, "max_iters", "solver", cfg.max_iters),
            multiplier_tol=cfg.multiplier_tol if mtol is None else mtol,
        )
        # format "1" keys that no solver reads: still type-checked, ignored
        positive_int(block, "grid_resolution", "solver")
        nonneg_int(block, "seed", "solver")
    overrides = {}
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.max_iters is not None:
        overrides["max_iters"] = args.max_iters
    return replace(cfg, **overrides) if overrides else cfg


def _resolve_units(pf: ProblemFile, args) -> str:
    return args.units if args.units is not None else pf.units


def _resolve_format(pf: ProblemFile, args) -> str:
    return args.format if args.format is not None else pf.format


def _in_units(nats: float, units: str) -> float:
    return nats / _LN2 if units == "bits" else nats


def _emit(text: str, path: Optional[str]):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(doc, path: Optional[str]):
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", path)


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence[str]], path: Optional[str]):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _emit("\n".join(lines) + "\n", path)


def _require(pf: ProblemFile, field: str, what: str):
    if getattr(pf, field) is None:
        raise ProblemFileError(f"this subcommand needs {what} in the problem file")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_compute(args) -> int:
    pf = load_problem_file(args.input)
    _require(pf, "backward", "a 'backward_kernel'")
    _require(pf, "forward", "a 'forward_kernel'")
    units = _resolve_units(pf, args)
    fmt = _resolve_format(pf, args)
    report = directed_information_sum(pf.backward, pf.forward)
    per_step = [_in_units(float(v), units) for v in report.per_step_terms]
    fields = {
        "sum_form": _in_units(float(report.sum_form), units),
        "divergence_form": _in_units(float(report.divergence_form), units),
        "normalized": _in_units(report.normalized, units),
    }
    if fmt == "json":
        doc = {
            "command": "compute",
            "units": units,
            "per_step": [real_to_str(v) for v in per_step],
            **{k: real_to_str(v) for k, v in fields.items()},
        }
        _emit_json(doc, args.output)
    else:
        header = list(fields) + [f"per_step_{i}" for i in range(len(per_step))]
        row = [real_to_str(v) for v in fields.values()]
        row += [real_to_str(v) for v in per_step]
        _emit_csv(header, [row], args.output)
    return 0


def _capacity_doc(result: CapacityResult, units: str, steps: int) -> dict:
    nats = result.value.value
    doc = {
        "command": "capacity",
        "units": units,
        "value": real_to_str(_in_units(nats, units)),
        "normalized": real_to_str(_in_units(nats / steps, units)),
        "argmax": {"tables": [table_to_jsonable(t) for t in result.argmax.tables]},
        "iterations": result.iterations,
        "converged": result.converged,
        "constraint_slack": (
            None if result.constraint_slack is None else real_to_str(result.constraint_slack)
        ),
    }
    return doc


def cmd_capacity(args) -> int:
    pf = load_problem_file(args.input)
    _require(pf, "forward", "a 'forward_kernel' (the channel)")
    units = _resolve_units(pf, args)
    fmt = _resolve_format(pf, args)
    cfg = build_config(pf, args)
    no_feedback = pf.no_feedback or bool(getattr(args, "no_feedback", False))
    result = solve_capacity(pf.forward, pf.power, cfg, no_feedback=no_feedback)
    steps = pf.spec.steps
    if fmt == "json":
        _emit_json(_capacity_doc(result, units, steps), args.output)
    else:
        header = ["value", "normalized", "iterations", "constraint_slack", "converged"]
        row = [
            real_to_str(_in_units(result.value.value, units)),
            real_to_str(_in_units(result.value.value / steps, units)),
            str(result.iterations),
            "" if result.constraint_slack is None else real_to_str(result.constraint_slack),
            str(result.converged).lower(),
        ]
        _emit_csv(header, [row], args.output)
    return 0


def _nrdf_doc(result: NrdfResult, units: str, steps: int) -> dict:
    nats = result.value.value
    return {
        "command": "nrdf",
        "units": units,
        "value": real_to_str(_in_units(nats, units)),
        "normalized": real_to_str(_in_units(nats / steps, units)),
        "argmin": {"tables": [table_to_jsonable(t) for t in result.argmin.tables]},
        "iterations": result.iterations,
        "converged": result.converged,
        "distortion_slack": real_to_str(result.distortion_slack),
    }


def cmd_nrdf(args) -> int:
    pf = load_problem_file(args.input)
    _require(pf, "source", "a 'source'")
    _require(pf, "distortion", "a 'distortion_constraint'")
    units = _resolve_units(pf, args)
    fmt = _resolve_format(pf, args)
    cfg = build_config(pf, args)
    steps = pf.spec.steps
    if pf.budget_grid is not None:
        points = rd_curve(pf.source, pf.distortion, pf.budget_grid, cfg)
        if fmt == "json":
            doc = {
                "command": "nrdf",
                "mode": "curve",
                "units": units,
                "points": [
                    {"budget": real_to_str(b), "value": real_to_str(_in_units(v, units))}
                    for b, v in points
                ],
            }
            _emit_json(doc, args.output)
        else:
            rows = [
                [real_to_str(b), real_to_str(_in_units(v, units))] for b, v in points
            ]
            _emit_csv(["budget", "value"], rows, args.output)
        return 0
    result = solve_nrdf(pf.source, pf.distortion, cfg=cfg)
    if fmt == "json":
        _emit_json(_nrdf_doc(result, units, steps), args.output)
    else:
        header = ["value", "normalized", "iterations", "distortion_slack", "converged"]
        row = [
            real_to_str(_in_units(result.value.value, units)),
            real_to_str(_in_units(result.value.value / steps, units)),
            str(result.iterations),
            real_to_str(result.distortion_slack),
            str(result.converged).lower(),
        ]
        _emit_csv(header, [row], args.output)
    return 0


def _suite_doc(report: SuiteReport) -> dict:
    return {
        "suite": report.suite,
        "cases": report.cases,
        "passed": report.passed,
        "worst_slack": real_to_str(report.worst_slack),
        "worst_case": report.worst_case,
        "tolerance": real_to_str(report.tolerance),
        "failures": list(report.failures),
    }


def cmd_verify(args) -> int:
    if args.input is not None:
        payload = _load_json(args.input)
        if not isinstance(payload, dict) or "spec" not in payload:
            raise ProblemFileError(
                "replay file must be a serialized failure payload (an object with 'spec')"
            )
        slack = replay(payload)
        tol = parse_real(payload.get("tolerance", "1e-9"), "tolerance")
        passed = slack <= tol
        doc = {
            "command": "verify",
            "mode": "replay",
            "suite": payload["suite"],
            "slack": real_to_str(slack),
            "tolerance": real_to_str(tol),
            "passed": passed,
        }
        header, entries = ["suite", "slack", "tolerance", "passed"], [doc]
    else:
        seed = args.seed if args.seed is not None else 0
        ids = SUITE_IDS if args.suite in (None, "all") else (args.suite,)
        reports = [run_suite(s, seed=seed) for s in ids]
        passed = all(r.passed for r in reports)
        doc = {
            "command": "verify",
            "seed": seed,
            "passed": passed,
            "suites": [_suite_doc(r) for r in reports],
        }
        header = ["suite", "cases", "passed", "worst_slack", "worst_case", "tolerance"]
        entries = doc["suites"]
    if (args.format or "json") == "json":
        _emit_json(doc, args.output)
    else:
        # a CSV row is its report entry's columns; booleans as true/false
        rows = [[str(e[h]).lower() if isinstance(e[h], bool) else str(e[h]) for h in header]
                for e in entries]
        _emit_csv(header, rows, args.output)
    return 0 if passed else 5


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_io(sub: argparse.ArgumentParser, input_required: bool = True):
    sub.add_argument("--input", "-i", required=input_required, help="problem file (JSON)")
    sub.add_argument("--output", "-o", default=None, help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("json", "csv"), default=None)


def _add_report(sub: argparse.ArgumentParser):
    _add_io(sub)
    sub.add_argument("--units", choices=("nats", "bits"), default=None)


def _add_solver(sub: argparse.ArgumentParser):
    _add_report(sub)
    sub.add_argument("--tol", type=float, default=None)
    sub.add_argument("--max-iters", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirinfo",
        description="Directed information on finite alphabets: evaluation, "
        "extremum problems, and property verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    compute = subs.add_parser("compute", help="evaluate directed information both ways")
    _add_report(compute)
    compute.set_defaults(func=cmd_compute)

    capacity = subs.add_parser("capacity", help="maximize over input kernels")
    _add_solver(capacity)
    capacity.add_argument(
        "--no-feedback",
        action="store_true",
        help="restrict the search to inputs that ignore the output history",
    )
    capacity.set_defaults(func=cmd_capacity)

    nrdf = subs.add_parser("nrdf", help="minimize over reconstruction kernels")
    _add_solver(nrdf)
    nrdf.set_defaults(func=cmd_nrdf)

    verify = subs.add_parser("verify", help="run randomized property suites")
    verify.add_argument(
        "suite",
        nargs="?",
        choices=SUITE_IDS + ("all",),
        default=None,
        help="built-in suite id (default: all)",
    )
    _add_io(verify, input_required=False)
    verify.add_argument("--seed", type=int, default=None)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProblemFileError, json.JSONDecodeError, OSError, SpecMismatch, DomainError, GridTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleConstraint as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 4
    except DirinfoError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
