"""End-to-end acceptance gate.

Each test realizes one acceptance criterion at its stated tolerance and
runtime budget, printing a single pass/fail line.  The anchors are either
closed forms (binary entropy expressions) or values derived from the
brute-force grid oracles; nothing here is tuned to the solver's output.
"""
import functools
import json
import math
import time

import numpy as np
import pytest

import dirinfo as di
from dirinfo.capacity import PowerConstraint, brute_force_capacity, solve_capacity
from dirinfo.cli import main
from dirinfo.nrdf import DistortionConstraint, SourceSpec, rd_curve, solve_nrdf
from dirinfo.serialization import parse_real
from dirinfo.verify import run_suite

from helpers import hb


def criterion(num: int, name: str, budget_s: float):
    def deco(fn):
        # functools.wraps keeps the original signature visible so pytest
        # still injects any fixtures the criterion needs
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL - {name}")
                raise
            dt = time.perf_counter() - t0
            print(f"[criterion {num}] PASS - {name} ({dt:.1f}s)")
            assert dt < budget_s, f"criterion {num} exceeded its {budget_s}s budget"

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# 1. the two evaluation routes agree
# ---------------------------------------------------------------------------


@criterion(1, "dual formula agreement on 200 random cases", 10.0)
def test_criterion_1_dual_formula():
    report = run_suite("dual-formula", seed=0, cases=200)
    assert report.cases == 200
    assert report.passed
    assert report.worst_slack <= 1e-9
    assert report.failures == ()


# ---------------------------------------------------------------------------
# 2. convexity in the channel, concavity in the input
# ---------------------------------------------------------------------------


@criterion(2, "mixture audits: convex in channel, concave in input", 30.0)
def test_criterion_2_mixture_audits():
    for suite in ("convexity", "concavity"):
        report = run_suite(suite, seed=0, cases=50)
        assert report.cases == 50
        assert report.passed, f"{suite} worst violation {report.worst_slack:.3e}"
        assert report.worst_slack <= 1e-9


# ---------------------------------------------------------------------------
# 3. lower semicontinuity along convergent channel sequences
# ---------------------------------------------------------------------------


@criterion(3, "lower semicontinuity incl. support-shrinking limits", 10.0)
def test_criterion_3_lower_semicontinuity():
    report = run_suite("lsc", seed=0, cases=20)
    assert report.cases == 20
    assert report.passed, f"worst violation {report.worst_slack:.3e}"
    assert report.worst_slack <= 1e-9


# ---------------------------------------------------------------------------
# 4. channel capacity against closed forms and the grid oracle
# ---------------------------------------------------------------------------


@criterion(4, "capacity anchors and constrained grid agreement", 60.0)
def test_criterion_4_capacity():
    spec = di.AlphabetSpec(0, (2,), (2,))
    for p_flip in (0.05, 0.1, 0.25):
        q = di.ForwardKernel(
            spec, (np.array([[1 - p_flip, p_flip], [p_flip, 1 - p_flip]]),)
        )
        res = solve_capacity(q)
        want = math.log(2) - hb(p_flip)
        assert res.converged
        assert abs(float(res.value) - want) <= 1e-4
        brute = float(brute_force_capacity(q, grid_resolution=200))
        assert abs(float(res.value) - brute) <= 1e-3
    # power constraint g(x) = x with budget 0.3 on BSC(0.1)
    q = di.ForwardKernel(spec, (np.array([[0.9, 0.1], [0.1, 0.9]]),))
    c = PowerConstraint(np.array([[0.0], [1.0]]), budget=0.3)
    res = solve_capacity(q, c)
    brute = float(brute_force_capacity(q, c, grid_resolution=200))
    assert res.converged
    assert abs(float(res.value) - brute) <= 1e-3
    assert res.constraint_slack is not None and res.constraint_slack >= -1e-9


# ---------------------------------------------------------------------------
# 5. rate distortion against the binary closed form
# ---------------------------------------------------------------------------


@criterion(5, "rate-distortion anchors and curve shape", 60.0)
def test_criterion_5_nrdf():
    spec = di.AlphabetSpec(0, (2,), (2,))
    src = SourceSpec.from_step_tables(spec, [np.array([[0.5, 0.5]])])
    hamming = np.array([[0.0, 1.0], [1.0, 0.0]])
    budgets = [round(0.05 * k, 2) for k in range(1, 10)]
    for D in budgets:
        d = DistortionConstraint(hamming, budget=D)
        res = solve_nrdf(src, d)
        want = math.log(2) - hb(D)
        assert res.converged
        assert abs(float(res.value) - want) <= 1e-3, f"D={D}"
        assert res.distortion_slack >= -1e-9
    d0 = DistortionConstraint(hamming, budget=0.0)
    pts = rd_curve(src, d0, budgets)
    vals = [v for _, v in pts]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-6
    for lo, mid, hi in zip(vals, vals[1:], vals[2:]):
        assert mid <= 0.5 * (lo + hi) + 1e-6


# ---------------------------------------------------------------------------
# 6. collapse without feedback, ordering with it
# ---------------------------------------------------------------------------


@criterion(6, "no-feedback collapse and general ordering", 10.0)
def test_criterion_6_no_feedback():
    report = run_suite("no-feedback", seed=0, cases=100)
    assert report.cases == 100
    assert report.passed
    assert report.worst_slack <= 1e-9


# ---------------------------------------------------------------------------
# 7. feedback strictly helps on a channel with memory
# ---------------------------------------------------------------------------


@criterion(7, "feedback advantage certified by solver and oracle", 120.0)
def test_criterion_7_feedback_advantage():
    # two binary steps; after y0 the second pair is a Z-channel whose
    # pinned letter flips with y0, so remembering y0 pays
    spec = di.AlphabetSpec(1, (2, 2), (2, 2))
    q0 = np.full((2, 2), 0.5)
    q1 = np.array(
        [
            [1.0, 0.0],
            [0.5, 0.5],
            [0.5, 0.5],
            [0.0, 1.0],
            [1.0, 0.0],
            [0.5, 0.5],
            [0.5, 0.5],
            [0.0, 1.0],
        ]
    )
    q = di.ForwardKernel(spec, (q0, q1))

    fb = solve_capacity(q)
    nofb = solve_capacity(q, no_feedback=True)
    solver_margin = float(fb.value) - float(nofb.value)
    assert fb.converged and nofb.converged
    assert solver_margin > 1e-4, f"solver margin {solver_margin:.3e}"

    oracle_fb = float(brute_force_capacity(q, grid_resolution=16))
    oracle_nofb = float(brute_force_capacity(q, no_feedback=True, grid_resolution=40))
    oracle_margin = oracle_fb - oracle_nofb
    assert oracle_margin > 1e-4, f"oracle margin {oracle_margin:.3e}"

    # the oracle-derived margin, frozen for reproducibility
    assert oracle_margin == pytest.approx(0.007380088173288679, abs=1e-9)
    # solver and oracle certify consistent optima: the solver may only
    # exceed the grid oracle (never trail it by more than its tolerance)
    assert float(fb.value) >= oracle_fb - 1e-6
    assert float(nofb.value) >= oracle_nofb - 1e-6
    # closed-form cross-checks of the two optima
    assert float(fb.value) == pytest.approx(math.log(5 / 4), abs=1e-6)
    assert float(nofb.value) == pytest.approx(hb(0.25) - 0.5 * math.log(2), abs=1e-6)


# ---------------------------------------------------------------------------
# 8. CLI determinism and round trip
# ---------------------------------------------------------------------------


@criterion(8, "byte-identical reports and argmax re-ingestion", 30.0)
def test_criterion_8_cli_round_trip(tmp_path, capsys):
    problem = {
        "format_version": "1",
        "spec": {"horizon_n": 0, "x_sizes": [2], "y_sizes": [2]},
        "forward_kernel": {"tables": [[["0.9", "0.1"], ["0.1", "0.9"]]]},
        "power_constraint": {"cost_table": [["0"], ["1"]], "budget": "0.3"},
    }
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(problem))

    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["capacity", "-i", str(src), "-o", str(out_a)]) == 0
    assert main(["capacity", "-i", str(src), "-o", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()

    report = json.loads(out_a.read_text())
    roundtrip = {
        "format_version": "1",
        "spec": problem["spec"],
        "backward_kernel": report["argmax"],
        "forward_kernel": problem["forward_kernel"],
    }
    src2 = tmp_path / "roundtrip.json"
    src2.write_text(json.dumps(roundtrip))
    assert main(["compute", "-i", str(src2)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(parse_real(doc["sum_form"]) - parse_real(report["value"])) <= 1e-9
