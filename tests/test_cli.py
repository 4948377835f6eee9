import json
import math
import pathlib

import pytest

from dirinfo.cli import main
from dirinfo.serialization import parse_real, real_to_str
from dirinfo.verify import SUITE_IDS

from helpers import hb


def write_problem(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def identity_problem() -> dict:
    return {
        "format_version": "1",
        "spec": {"horizon_n": 0, "x_sizes": [2], "y_sizes": [2]},
        "backward_kernel": {"tables": [[["0.5", "0.5"]]]},
        "forward_kernel": {"tables": [[["1", "0"], ["0", "1"]]]},
    }


def bsc_capacity_problem(**extra) -> dict:
    doc = {
        "format_version": "1",
        "spec": {"horizon_n": 0, "x_sizes": [2], "y_sizes": [2]},
        "forward_kernel": {"tables": [[["0.9", "0.1"], ["0.1", "0.9"]]]},
    }
    doc.update(extra)
    return doc


def two_step_channel() -> dict:
    """A two-step channel on which feedback strictly helps."""
    q1 = [
        ["1", "0"],
        ["0.5", "0.5"],
        ["0.5", "0.5"],
        ["0", "1"],
        ["1", "0"],
        ["0.5", "0.5"],
        ["0.5", "0.5"],
        ["0", "1"],
    ]
    return {
        "format_version": "1",
        "spec": {"horizon_n": 1, "x_sizes": [2, 2], "y_sizes": [2, 2]},
        "forward_kernel": {
            "tables": [[["0.5", "0.5"], ["0.5", "0.5"]], q1]
        },
    }


def nrdf_problem(**extra) -> dict:
    doc = {
        "format_version": "1",
        "spec": {"horizon_n": 0, "x_sizes": [2], "y_sizes": [2]},
        "source": {"step_tables": [[["0.5", "0.5"]]]},
        "distortion_constraint": {
            "distortion_table": [["0", "1"], ["1", "0"]],
            "budget": "0.1",
        },
    }
    doc.update(extra)
    return doc


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def test_compute_identity_in_nats_and_bits(tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", identity_problem())
    code, out = run(["compute", "-i", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "compute"
    assert doc["units"] == "nats"
    assert parse_real(doc["sum_form"]) == pytest.approx(math.log(2), abs=1e-12)
    assert parse_real(doc["divergence_form"]) == pytest.approx(math.log(2), abs=1e-12)
    code, out = run(["compute", "-i", path, "--units", "bits"], capsys)
    doc = json.loads(out)
    assert parse_real(doc["sum_form"]) == pytest.approx(1.0, abs=1e-12)
    assert parse_real(doc["normalized"]) == pytest.approx(1.0, abs=1e-12)


def test_compute_csv_format(tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", identity_problem())
    code, out = run(["compute", "-i", path, "--format", "csv", "--units", "bits"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sum_form,divergence_form,normalized,per_step_0"
    assert [parse_real(v) for v in lines[1].split(",")] == [1.0, 1.0, 1.0, 1.0]


def test_compute_requires_both_kernels(tmp_path, capsys):
    doc = identity_problem()
    del doc["forward_kernel"]
    path = write_problem(tmp_path / "p.json", doc)
    code, _ = run(["compute", "-i", path], capsys)
    assert code == 2


def test_output_file_option(tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", identity_problem())
    dest = tmp_path / "out.json"
    code, out = run(["compute", "-i", path, "-o", str(dest)], capsys)
    assert code == 0
    assert out == ""
    doc = json.loads(dest.read_text())
    assert parse_real(doc["sum_form"]) == pytest.approx(math.log(2), abs=1e-12)


# ---------------------------------------------------------------------------
# problem file validation
# ---------------------------------------------------------------------------


def test_missing_file_and_bad_json_exit_2(tmp_path, capsys):
    code, _ = run(["compute", "-i", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(["compute", "-i", str(bad)], capsys)
    assert code == 2


UNREADABLE = {
    "not-utf8": '{"format_version": "1", "spec": "caf\xe9"}'.encode("latin-1"),
    "nested-too-deeply": b"[" * 200_000 + b"]" * 200_000,
}


@pytest.mark.parametrize("command", ["compute", "verify"])
@pytest.mark.parametrize("kind", sorted(UNREADABLE))
def test_unreadable_input_file_exits_2(kind, command, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_bytes(UNREADABLE[kind])
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_format_version_must_be_the_string_one(tmp_path, capsys):
    for version in (1, "2", None):
        doc = identity_problem()
        if version is None:
            del doc["format_version"]
        else:
            doc["format_version"] = version
        path = write_problem(tmp_path / "p.json", doc)
        code, _ = run(["compute", "-i", path], capsys)
        assert code == 2


def test_unknown_top_level_keys_are_rejected(tmp_path, capsys):
    doc = identity_problem()
    doc["surprise"] = True
    path = write_problem(tmp_path / "p.json", doc)
    code, _ = run(["compute", "-i", path], capsys)
    assert code == 2


def test_non_stochastic_rows_are_rejected(tmp_path, capsys):
    doc = identity_problem()
    doc["forward_kernel"] = {"tables": [[["0.9", "0.2"], ["0.1", "0.9"]]]}
    path = write_problem(tmp_path / "p.json", doc)
    code, _ = run(["compute", "-i", path], capsys)
    assert code == 2


_HAMMING = [["0", "1"], ["1", "0"]]


@pytest.mark.parametrize("doc, message", [
    ([identity_problem()], "problem file must be a JSON object"),
    ({k: v for k, v in identity_problem().items() if k != "spec"}, "problem file must carry a 'spec' object"),
] + [(identity_problem() | change, message) for change, message in [
    ({"power_constraint": [1]}, "power_constraint: expected an object"),
    ({"source": [[["1"]]]}, "source: expected an object with 'step_tables'"),
    ({"source": {"step_tables": []}}, "source.step_tables must be a non-empty list"),
    ({"power_constraint": {"cost_table": _HAMMING}}, "power_constraint.budget is required"),
    ({"distortion_constraint": {"distortion_table": _HAMMING, "budget_grid": []}},
     "distortion_constraint.budget_grid must be a non-empty list"),
    ({"distortion_constraint": {"distortion_table": _HAMMING}},
     "distortion_constraint needs 'budget' or 'budget_grid'"),
    ({"no_feedback": "yes"}, "no_feedback must be a boolean"),
    ({"solver": [1]}, "solver: expected an object"),
    ({"output": "csv"}, "output: expected an object"),
    ({"output": {"units": "nits"}}, "output.units must be 'nats' or 'bits', got 'nits'"),
    ({"output": {"format": "xml"}}, "output.format must be 'json' or 'csv', got 'xml'"),
]])
def test_each_malformed_block_exits_2_with_its_message(doc, message, tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", doc)
    assert main(["compute", "-i", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_output_block_shapes_the_report_and_flags_override_it(tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", identity_problem() | {"output": {"units": "bits", "format": "csv"}})
    code, out = run(["compute", "-i", path], capsys)
    assert code == 0
    assert out.splitlines() == ["sum_form,divergence_form,normalized,per_step_0", "1,1,1,1"]
    code, out = run(["compute", "-i", path, "--units", "nats"], capsys)
    assert out.splitlines()[1] == ",".join([real_to_str(math.log(2))] * 4)
    code, out = run(["compute", "-i", path, "--format", "json"], capsys)
    doc = json.loads(out)
    assert doc["units"] == "bits" and parse_real(doc["sum_form"]) == 1.0


def test_compute_exits_0_where_the_product_underflows(tmp_path, capsys):
    # the product cell 1e-200 * 1e-200 underflows to 0 under a joint cell
    # of mass 1e-200; both routes still give -1e-200 log 1e-200
    doc = identity_problem()
    doc["backward_kernel"] = {"tables": [[["1e-200", "1"]]]}
    code, out = run(["compute", "-i", write_problem(tmp_path / "p.json", doc)], capsys)
    assert code == 0
    doc = json.loads(out)
    for route in ("sum_form", "divergence_form"):
        assert parse_real(doc[route]) == pytest.approx(4.6051701859880914e-198, rel=1e-12)


def test_a_formula_disagreement_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("dirinfo.information.DUAL_FORMULA_TOL", -1.0)
    path = write_problem(tmp_path / "p.json", identity_problem())
    assert main(["compute", "-i", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal inconsistency: evaluation routes disagree")


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


def test_capacity_bsc_value_and_argmax_roundtrip(tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", bsc_capacity_problem())
    code, out = run(["capacity", "-i", path], capsys)
    assert code == 0
    doc = json.loads(out)
    want = math.log(2) - hb(0.1)
    assert parse_real(doc["value"]) == pytest.approx(want, abs=1e-8)
    assert doc["converged"] is True
    assert doc["constraint_slack"] is None

    # feed the reported argmax back through compute; the value must agree
    problem = {
        "format_version": "1",
        "spec": {"horizon_n": 0, "x_sizes": [2], "y_sizes": [2]},
        "backward_kernel": doc["argmax"],
        "forward_kernel": {"tables": [[["0.9", "0.1"], ["0.1", "0.9"]]]},
    }
    path2 = write_problem(tmp_path / "authored.json", problem)
    code, out2 = run(["compute", "-i", path2], capsys)
    assert code == 0
    doc2 = json.loads(out2)
    assert parse_real(doc2["sum_form"]) == pytest.approx(parse_real(doc["value"]), abs=1e-9)


def test_capacity_output_is_byte_identical_across_runs(tmp_path, capsys):
    doc = bsc_capacity_problem(
        power_constraint={"cost_table": [["0"], ["1"]], "budget": "0.3"}
    )
    path = write_problem(tmp_path / "p.json", doc)
    _, out1 = run(["capacity", "-i", path], capsys)
    _, out2 = run(["capacity", "-i", path], capsys)
    assert out1 == out2
    report = json.loads(out1)
    assert report["constraint_slack"] is not None
    assert parse_real(report["constraint_slack"]) >= -1e-9


def test_capacity_csv(tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", bsc_capacity_problem())
    code, out = run(["capacity", "-i", path, "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,normalized,iterations,constraint_slack,converged"
    cells = lines[1].split(",")
    assert parse_real(cells[0]) == pytest.approx(math.log(2) - hb(0.1), abs=1e-8)
    assert cells[3] == ""
    assert cells[4] == "true"


def test_capacity_no_feedback_flag_and_file_key(tmp_path, capsys):
    doc = two_step_channel()
    path = write_problem(tmp_path / "p.json", doc)
    _, out_fb = run(["capacity", "-i", path], capsys)
    _, out_flag = run(["capacity", "-i", path, "--no-feedback"], capsys)
    doc["no_feedback"] = True
    path2 = write_problem(tmp_path / "p2.json", doc)
    _, out_key = run(["capacity", "-i", path2], capsys)
    fb = parse_real(json.loads(out_fb)["value"])
    nofb_flag = parse_real(json.loads(out_flag)["value"])
    nofb_key = parse_real(json.loads(out_key)["value"])
    assert fb == pytest.approx(math.log(5 / 4), abs=1e-6)
    assert nofb_flag == pytest.approx(hb(0.25) - 0.5 * math.log(2), abs=1e-6)
    assert nofb_key == pytest.approx(nofb_flag, abs=1e-9)
    assert fb > nofb_flag + 5e-3


def test_capacity_infeasible_budget_exits_4(tmp_path, capsys):
    doc = bsc_capacity_problem(
        power_constraint={"cost_table": [["2"], ["2"]], "budget": "1"}
    )
    path = write_problem(tmp_path / "p.json", doc)
    code, _ = run(["capacity", "-i", path], capsys)
    assert code == 4


def test_solver_flag_overrides(tmp_path, capsys):
    doc = bsc_capacity_problem(solver={"max_iters": 50000})
    path = write_problem(tmp_path / "p.json", doc)
    code, out = run(["capacity", "-i", path, "--max-iters", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    # the CLI flag wins over the file's solver block
    assert report["iterations"] <= 3
    with pytest.raises(SystemExit):
        main(["capacity", "-i", path, "--max-iters"])


def test_solver_block_validation(tmp_path, capsys):
    doc = bsc_capacity_problem(solver={"unknown_knob": 1})
    path = write_problem(tmp_path / "p.json", doc)
    code, _ = run(["capacity", "-i", path], capsys)
    assert code == 2
    for bad in ("not a number", "inf"):
        doc = bsc_capacity_problem(solver={"tol": bad})
        path = write_problem(tmp_path / "p2.json", doc)
        code, _ = run(["capacity", "-i", path], capsys)
        assert code == 2
    path = write_problem(tmp_path / "p3.json", bsc_capacity_problem())
    code, _ = run(["capacity", "-i", path, "--tol", "inf"], capsys)
    assert code == 2


def test_ignored_solver_keys_leave_the_report_unchanged(tmp_path, capsys):
    plain = write_problem(tmp_path / "p.json", bsc_capacity_problem())
    keyed = write_problem(
        tmp_path / "k.json",
        bsc_capacity_problem(solver={"grid_resolution": 7, "seed": 3}),
    )
    code_plain, out_plain = run(["capacity", "-i", plain], capsys)
    code_keyed, out_keyed = run(["capacity", "-i", keyed], capsys)
    assert code_plain == code_keyed == 0
    assert out_keyed == out_plain
    # still type-checked
    for bad in ({"seed": -1}, {"grid_resolution": 0}, {"seed": "3"}):
        path = write_problem(tmp_path / "bad.json", bsc_capacity_problem(solver=bad))
        code, _ = run(["capacity", "-i", path], capsys)
        assert code == 2


def test_flags_a_subcommand_never_reads_are_rejected(tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", bsc_capacity_problem())
    unread = {
        "compute": ["--seed", "--grid", "--tol", "--max-iters"],
        "capacity": ["--seed", "--grid"],
        "nrdf": ["--seed", "--grid", "--tol"],
        "verify": ["--grid", "--tol", "--max-iters", "--units"],
    }
    for command, flags in unread.items():
        for flag in flags:
            value = "bits" if flag == "--units" else "1"
            with pytest.raises(SystemExit) as exc:
                main([command, "-i", path, flag, value])
            assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# nrdf
# ---------------------------------------------------------------------------


def test_nrdf_single_budget(tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", nrdf_problem())
    code, out = run(["nrdf", "-i", path], capsys)
    assert code == 0
    doc = json.loads(out)
    want = math.log(2) - hb(0.1)
    assert parse_real(doc["value"]) == pytest.approx(want, abs=1e-5)
    assert doc["converged"] is True
    assert parse_real(doc["distortion_slack"]) >= -1e-9
    assert "argmin" in doc


def test_nrdf_curve_csv_is_nonincreasing(tmp_path, capsys):
    doc = nrdf_problem()
    doc["distortion_constraint"]["budget_grid"] = ["0", "0.1", "0.2", "0.3", "0.5"]
    path = write_problem(tmp_path / "p.json", doc)
    code, out = run(["nrdf", "-i", path, "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "budget,value"
    vals = [parse_real(line.split(",")[1]) for line in lines[1:]]
    assert len(vals) == 5
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-7
    assert vals[0] == pytest.approx(math.log(2), abs=1e-6)
    assert vals[-1] == 0.0


def test_nrdf_curve_json_mode(tmp_path, capsys):
    doc = nrdf_problem()
    doc["distortion_constraint"]["budget_grid"] = ["0.1", "0.25"]
    path = write_problem(tmp_path / "p.json", doc)
    code, out = run(["nrdf", "-i", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "curve"
    assert [parse_real(pt["budget"]) for pt in report["points"]] == [0.1, 0.25]


def test_nrdf_repeated_grid_budget_exits_2(tmp_path, capsys):
    doc = nrdf_problem()
    doc["distortion_constraint"]["budget_grid"] = ["0.1", "0.1"]
    path = write_problem(tmp_path / "p.json", doc)
    code, _ = run(["nrdf", "-i", path], capsys)
    assert code == 2


def test_nrdf_infeasible_exits_4(tmp_path, capsys):
    doc = nrdf_problem()
    doc["distortion_constraint"]["distortion_table"] = [["1", "1"], ["1", "1"]]
    doc["distortion_constraint"]["budget"] = "0.5"
    path = write_problem(tmp_path / "p.json", doc)
    code, _ = run(["nrdf", "-i", path], capsys)
    assert code == 4


def test_nrdf_requires_source_and_constraint(tmp_path, capsys):
    doc = nrdf_problem()
    del doc["source"]
    path = write_problem(tmp_path / "p.json", doc)
    code, _ = run(["nrdf", "-i", path], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_suite_json(capsys):
    code, out = run(["verify", "convexity"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [s["suite"] for s in doc["suites"]] == ["convexity"]
    assert doc["suites"][0]["failures"] == []


def dual_formula_payload(tolerance: str) -> dict:
    """A replayable dual-formula case on random binary kernels at n = 1."""
    import dirinfo as di
    from dirinfo.sampling import random_backward_kernel, random_forward_kernel, rng_from_seed
    from dirinfo.serialization import kernel_to_jsonable, spec_to_jsonable

    rng = rng_from_seed(2)
    spec = di.AlphabetSpec(1, (2, 2), (2, 2))
    return {
        "suite": "dual-formula",
        "spec": spec_to_jsonable(spec),
        "tolerance": tolerance,
        "backward_kernel": kernel_to_jsonable(random_backward_kernel(rng, spec)),
        "forward_kernel": kernel_to_jsonable(random_forward_kernel(rng, spec)),
    }


def test_verify_replay_file_round_trip(tmp_path, capsys):
    # a passing payload, then a failing one by lying about tolerance
    for tolerance, want in (("1e-9", 0), ("0", 5)):
        path = write_problem(tmp_path / "p.json", dual_formula_payload(tolerance))
        code, out = run(["verify", "-i", path], capsys)
        assert code == want
        doc = json.loads(out)
        assert doc["mode"] == "replay" and doc["passed"] is (want == 0)


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
def test_verify_replay_rejects_a_non_finite_tolerance(tolerance, tmp_path, capsys):
    # "inf" would pass any slack, and "nan" fail every one
    path = write_problem(tmp_path / "p.json", dual_formula_payload(tolerance))
    assert main(["verify", "-i", path, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "tolerance" in captured.err


def failing_payload(suite, monkeypatch):
    """The first failure payload of ``suite`` with every case made to fail."""
    import dirinfo.verify as v

    monkeypatch.setattr(v, "DUAL_FORMULA_TOL", -math.inf)
    monkeypatch.setattr(v, "MIXTURE_TOL", -math.inf)
    return dict(v.run_suite(suite, seed=1, cases=1).failures[0])


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_verify_replay_of_an_incomplete_payload_exits_2(suite, tmp_path, capsys, monkeypatch):
    payload = failing_payload(suite, monkeypatch)
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"suite": suite, "spec": payload["spec"]}))
    assert main(["verify", "-i", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "replay payload lacks" in captured.err
    del payload["backward_kernel"]
    path.write_text(json.dumps(payload))
    assert main(["verify", "-i", str(path)]) == 2
    assert "'backward_kernel'" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["convexity", "concavity"])
def test_verify_replay_of_non_list_lambdas_exits_2(suite, tmp_path, capsys, monkeypatch):
    payload = failing_payload(suite, monkeypatch)
    payload["lambdas"] = 5
    path = tmp_path / "p.json"
    path.write_text(json.dumps(payload))
    code, out = run(["verify", "-i", str(path)], capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize("mode", [[1], "colapse"])
def test_verify_replay_of_an_unknown_no_feedback_mode_exits_2(mode, tmp_path, capsys, monkeypatch):
    # read as "ordering", a failing collapse case would replay as passing
    payload = failing_payload("no-feedback", monkeypatch)
    payload["mode"] = mode
    path = tmp_path / "p.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", "-i", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "mode" in captured.err


def test_verify_negative_seed_exits_2(capsys):
    from dirinfo.errors import DomainError
    from dirinfo.verify import run_suite

    with pytest.raises(DomainError, match="seed"):
        run_suite("dual-formula", seed=-1)
    code, out = run(["verify", "dual-formula", "--seed", "-1"], capsys)
    assert code == 2 and out == ""


def test_verify_replay_writes_one_csv_row(tmp_path, capsys, monkeypatch):
    payload = failing_payload("dual-formula", monkeypatch)
    payload["tolerance"] = "1e-9"
    path = tmp_path / "p.json"
    path.write_text(json.dumps(payload))
    code, out = run(["verify", "-i", str(path), "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "suite,slack,tolerance,passed",
        f"dual-formula,{payload['slack']},{real_to_str(1e-9)},true",
    ]


def test_verify_replay_rejects_non_payload_files(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"hello": "world"}))
    code, _ = run(["verify", "-i", str(path)], capsys)
    assert code == 2


def test_verify_rejects_unknown_suite_name(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "no-such-suite"])


# ---------------------------------------------------------------------------
# the shipped example files stay runnable
# ---------------------------------------------------------------------------

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "docs" / "examples"


def test_doc_example_compute(capsys):
    code, out = run(["compute", "-i", str(EXAMPLES / "compute.json")], capsys)
    assert code == 0
    assert parse_real(json.loads(out)["sum_form"]) == pytest.approx(
        math.log(2), abs=1e-12
    )


def test_doc_example_capacity(capsys):
    code, out = run(
        ["capacity", "-i", str(EXAMPLES / "capacity.json"), "--units", "bits"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    want = (hb(0.3 * 0.9 + 0.7 * 0.1) - hb(0.1)) / math.log(2)
    assert parse_real(doc["value"]) == pytest.approx(want, abs=1e-4)


def test_doc_example_nrdf_traces_the_curve(capsys):
    code, out = run(["nrdf", "-i", str(EXAMPLES / "nrdf.json")], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "curve"
    vals = [parse_real(pt["value"]) for pt in doc["points"]]
    assert vals[0] == pytest.approx(math.log(2), abs=1e-6)
    assert vals[-1] == 0.0


# ---------------------------------------------------------------------------
# determinism of emitted JSON
# ---------------------------------------------------------------------------


def test_reports_end_with_newline_and_sorted_keys(tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", identity_problem())
    _, out = run(["compute", "-i", path], capsys)
    assert out.endswith("\n")
    doc = json.loads(out)
    assert list(doc.keys()) == sorted(doc.keys())
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# CSV is a rendering of the JSON record
# ---------------------------------------------------------------------------


def two_step_compute_problem() -> dict:
    doc = two_step_channel()
    doc["backward_kernel"] = {
        "tables": [
            [["0.3", "0.7"]],
            [["0.2", "0.8"], ["0.6", "0.4"], ["0.5", "0.5"], ["0.9", "0.1"]],
        ]
    }
    return doc


def curve_problem() -> dict:
    doc = nrdf_problem()
    doc["distortion_constraint"]["budget_grid"] = ["0", "0.1", "0.25", "0.5"]
    return doc


SOLVED = ["value", "normalized", "iterations"]
SUITE = ["suite", "cases", "passed", "worst_slack", "worst_case", "tolerance"]
REPLAY = ["suite", "slack", "tolerance", "passed"]

# name: (argv, document for --input or None, CSV header, exit code)
CSV_REPORTS = {
    "compute": (
        ["compute"],
        two_step_compute_problem(),
        ["sum_form", "divergence_form", "normalized", "per_step_0", "per_step_1"],
        0,
    ),
    "capacity-constrained": (
        ["capacity"],
        bsc_capacity_problem(power_constraint={"cost_table": [["0"], ["1"]], "budget": "0.3"}),
        SOLVED + ["constraint_slack", "converged"],
        0,
    ),
    "capacity-unconstrained": (
        ["capacity"], bsc_capacity_problem(), SOLVED + ["constraint_slack", "converged"], 0
    ),
    "capacity-no-feedback": (
        ["capacity", "--no-feedback"],
        two_step_channel(),
        SOLVED + ["constraint_slack", "converged"],
        0,
    ),
    "nrdf-single-budget": (
        ["nrdf"], nrdf_problem(), SOLVED + ["distortion_slack", "converged"], 0
    ),
    "nrdf-curve": (["nrdf"], curve_problem(), ["budget", "value"], 0),
    "verify": (["verify", "convexity", "--seed", "3"], None, SUITE, 0),
    "replay-passing": (["verify"], dual_formula_payload("1e-9"), REPLAY, 0),
    "replay-failing": (["verify"], dual_formula_payload("0"), REPLAY, 5),
}


def csv_entries(doc: dict) -> list:
    """The entries of a JSON report that its CSV rows render, in order."""
    if "points" in doc:
        return doc["points"]
    if "suites" in doc:
        return doc["suites"]
    return [doc]


def rendered(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@pytest.mark.parametrize(
    "name, units",
    [
        (name, units)
        for name, (argv, *_) in sorted(CSV_REPORTS.items())
        for units in ((None,) if argv[0] == "verify" else ("nats", "bits"))
    ],
)
def test_csv_renders_the_json_report(name, units, tmp_path, capsys):
    argv, problem, header, want_code = CSV_REPORTS[name]
    if problem is not None:
        argv = argv + ["-i", write_problem(tmp_path / "p.json", problem)]
    if units is not None:
        argv = argv + ["--units", units]
    assert main(argv + ["--format", "json"]) == want_code
    doc = json.loads(capsys.readouterr().out)
    assert doc.get("units") == units
    assert main(argv + ["--format", "csv"]) == want_code
    lines = capsys.readouterr().out.splitlines()

    assert lines[0].split(",") == header
    entries = csv_entries(doc)
    assert len(lines) == 1 + len(entries)
    for line, entry in zip(lines[1:], entries):
        cells = line.split(",")
        assert len(cells) == len(header)
        for column, cell in zip(header, cells):
            if column.startswith("per_step_"):
                want = entry["per_step"][int(column[len("per_step_"):])]
            else:
                want = entry[column]
            assert cell == rendered(want), column
