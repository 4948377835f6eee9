"""Command-line front end: problem-file ingestion, subcommand dispatch,
report emission.  This is the only module that performs I/O.

Subcommands: ``compute`` (directed information both ways), ``capacity``
(input optimization), ``nrdf`` (reconstruction optimization, single budget
or budget-grid sweep), ``verify`` (randomized property suites or replay of
a serialized failure).  Exit codes: 0 success, 2 unreadable or invalid
problem file, 3 internal inconsistency, 4 infeasible constraints, 5
property violation.

A report is one record, written as JSON (reals as 17-significant-digit
strings, keys sorted, so identical inputs produce byte-identical output) or
as CSV: a header row, then one row of those columns per report entry.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .capacity import PowerConstraint, solve_capacity
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
from .nrdf import DistortionConstraint, SourceSpec, rd_curve, solve_nrdf
from .serialization import (
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ProblemFileError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except RecursionError:
        raise ProblemFileError(f"{path}: JSON nested too deeply") from None


def _budget_block(data: dict, key: str, table_key: str):
    """Constraint block ``key``: the block, its cost table under
    ``table_key``, and its raw ``budget`` (None when absent)."""
    block = data[key]
    if not isinstance(block, dict):
        raise ProblemFileError(f"{key}: expected an object")
    table = cost_table_from_jsonable(block.get(table_key), f"{key}.{table_key}")
    return block, table, value_or_none(block, "budget", key)


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
        _, table, budget = _budget_block(data, "power_constraint", "cost_table")
        if budget is None:
            raise ProblemFileError("power_constraint.budget is required")
        pf.power = PowerConstraint(table, finite_real(budget, "power_constraint.budget"))
    if "distortion_constraint" in data:
        block, table, budget = _budget_block(
            data, "distortion_constraint", "distortion_table"
        )
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
    if getattr(args, "tol", None) is not None:
        overrides["tol"] = args.tol
    if args.max_iters is not None:
        overrides["max_iters"] = args.max_iters
    return replace(cfg, **overrides) if overrides else cfg


def _load(args, *needs):
    """The problem file at ``--input``, holding each ``(field, what)`` of
    ``needs``, and the report's units and format; flags override ``output``."""
    pf = load_problem_file(args.input)
    for field, what in needs:
        if getattr(pf, field) is None:
            raise ProblemFileError(f"this subcommand needs {what} in the problem file")
    return pf, args.units or pf.units, args.format or pf.format


def _real(nats, units: str) -> str:
    return real_to_str(float(nats) / (_LN2 if units == "bits" else 1.0))


def _emit(text: str, path: Optional[str]):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cell(value) -> str:
    if value is None:
        return ""
    return str(value).lower() if isinstance(value, bool) else str(value)


def _report(doc, header, entries, fmt, path):
    """Write a report: ``doc`` as JSON, or as CSV the ``header`` row and then
    one row per entry of ``entries``, each that entry's ``header`` columns
    with booleans as true/false and None as an empty cell."""
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True, indent=2)
    else:
        rows = [header] + [[_cell(e[h]) for h in header] for e in entries]
        text = "\n".join(",".join(row) for row in rows)
    _emit(text + "\n", path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_compute(args) -> int:
    pf, units, fmt = _load(
        args, ("backward", "a 'backward_kernel'"), ("forward", "a 'forward_kernel'")
    )
    report = directed_information_sum(pf.backward, pf.forward)
    doc = {
        "command": "compute",
        "units": units,
        "per_step": [_real(v, units) for v in report.per_step_terms],
        "sum_form": _real(report.sum_form, units),
        "divergence_form": _real(report.divergence_form, units),
        "normalized": _real(report.normalized, units),
    }
    per_step = {f"per_step_{i}": v for i, v in enumerate(doc["per_step"])}
    header = ["sum_form", "divergence_form", "normalized", *per_step]
    _report(doc, header, [{**doc, **per_step}], fmt, args.output)
    return 0


def _solved(command: str, kernel: str, slack_key: str, result, units: str, steps: int):
    """The report of one capacity or NRDF solve and its CSV header.
    ``kernel`` and ``slack_key`` name the optimizing kernel and the budget
    slack, both as attributes of ``result`` and as report keys."""
    nats = result.value.value
    slack = getattr(result, slack_key)
    doc = {
        "command": command,
        "units": units,
        "value": _real(nats, units),
        "normalized": _real(nats / steps, units),
        kernel: kernel_to_jsonable(getattr(result, kernel)),
        "iterations": result.iterations,
        "converged": result.converged,
        slack_key: None if slack is None else real_to_str(slack),
    }
    return doc, ["value", "normalized", "iterations", slack_key, "converged"]


def cmd_capacity(args) -> int:
    pf, units, fmt = _load(args, ("forward", "a 'forward_kernel' (the channel)"))
    no_feedback = pf.no_feedback or args.no_feedback
    result = solve_capacity(pf.forward, pf.power, build_config(pf, args), no_feedback=no_feedback)
    doc, header = _solved("capacity", "argmax", "constraint_slack", result, units, pf.spec.steps)
    _report(doc, header, [doc], fmt, args.output)
    return 0


def cmd_nrdf(args) -> int:
    pf, units, fmt = _load(
        args, ("source", "a 'source'"), ("distortion", "a 'distortion_constraint'")
    )
    cfg = build_config(pf, args)
    if pf.budget_grid is not None:
        points = rd_curve(pf.source, pf.distortion, pf.budget_grid, cfg)
        doc = {
            "command": "nrdf",
            "mode": "curve",
            "units": units,
            "points": [{"budget": real_to_str(b), "value": _real(v, units)} for b, v in points],
        }
        _report(doc, ["budget", "value"], doc["points"], fmt, args.output)
        return 0
    result = solve_nrdf(pf.source, pf.distortion, cfg=cfg)
    doc, header = _solved("nrdf", "argmin", "distortion_slack", result, units, pf.spec.steps)
    _report(doc, header, [doc], fmt, args.output)
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
        tol = finite_real(parse_real(payload.get("tolerance", "1e-9"), "tolerance"), "tolerance")
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
    _report(doc, header, entries, args.format or "json", args.output)
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
    capacity.add_argument("--tol", type=float, default=None)  # nrdf reads multiplier_tol instead
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
    except (ProblemFileError, OSError, SpecMismatch, DomainError, GridTooLarge) as exc:
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
