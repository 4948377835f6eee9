import numpy as np
import pytest

import dirinfo as di
from dirinfo.sampling import random_backward_kernel, random_forward_kernel, rng_from_seed
from dirinfo.serialization import (
    kernel_to_jsonable,
    real_to_str,
    spec_to_jsonable,
)
from dirinfo.verify import SUITE_IDS, SuiteReport, replay, run_suite


def test_suite_catalogue():
    assert SUITE_IDS == ("dual-formula", "convexity", "concavity", "lsc", "no-feedback")


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_every_suite_passes_on_small_runs(suite):
    report = run_suite(suite, seed=0, cases=6)
    assert isinstance(report, SuiteReport)
    assert report.suite == suite
    assert report.cases == 6
    assert report.passed, f"{suite} worst slack {report.worst_slack:.3e}"
    assert report.worst_slack <= report.tolerance
    assert report.failures == ()


def test_suites_are_deterministic_per_seed():
    a = run_suite("dual-formula", seed=3, cases=5)
    b = run_suite("dual-formula", seed=3, cases=5)
    assert a.worst_slack == b.worst_slack
    c = run_suite("dual-formula", seed=4, cases=5)
    assert a.worst_slack != c.worst_slack


@pytest.mark.parametrize("suite", ["dual-formula", "convexity", "concavity", "lsc"])
def test_worst_case_is_the_first_case_at_the_worst_slack(suite):
    # these suites draw each case alike whatever the case count, so a
    # shorter run is a prefix of the longer one
    report = run_suite(suite, seed=2, cases=8)
    upto = run_suite(suite, seed=2, cases=report.worst_case + 1)
    assert (upto.worst_slack, upto.worst_case) == (report.worst_slack, report.worst_case)
    if report.worst_case > 0:
        assert run_suite(suite, seed=2, cases=report.worst_case).worst_slack < report.worst_slack


def test_unknown_suite_and_bad_cases_raise():
    with pytest.raises(di.DomainError):
        run_suite("no-such-suite")
    with pytest.raises(di.DomainError):
        run_suite("convexity", cases=0)


def payload_for(suite: str, seed: int = 0) -> dict:
    rng = rng_from_seed(seed)
    spec = di.AlphabetSpec(1, (2, 2), (2, 2))
    p = random_backward_kernel(rng, spec)
    q1 = random_forward_kernel(rng, spec)
    q2 = random_forward_kernel(rng, spec)
    doc = {
        "suite": suite,
        "case_index": 0,
        "spec": spec_to_jsonable(spec),
        "slack": real_to_str(0.0),
        "tolerance": real_to_str(1e-9),
        "backward_kernel": kernel_to_jsonable(p),
        "forward_kernel": kernel_to_jsonable(q1),
    }
    if suite == "convexity":
        doc["forward_kernel_b"] = kernel_to_jsonable(q2)
        doc["lambdas"] = [real_to_str(k / 10) for k in range(11)]
    if suite == "concavity":
        p2 = random_backward_kernel(rng, spec)
        doc["backward_kernel_b"] = kernel_to_jsonable(p2)
        doc["lambdas"] = [real_to_str(k / 10) for k in range(11)]
    return doc


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_replay_reproduces_passing_slack(suite):
    slack = replay(payload_for(suite))
    assert slack <= 1e-9


def test_replay_collapse_mode_uses_feedback_free_input():
    rng = rng_from_seed(6)
    spec = di.AlphabetSpec(1, (2, 2), (2, 2))
    from dirinfo.sampling import random_feedback_free_kernel

    p = random_feedback_free_kernel(rng, spec)
    q = random_forward_kernel(rng, spec)
    doc = {
        "suite": "no-feedback",
        "spec": spec_to_jsonable(spec),
        "mode": "collapse",
        "backward_kernel": kernel_to_jsonable(p),
        "forward_kernel": kernel_to_jsonable(q),
    }
    assert replay(doc) <= 1e-9


def test_replay_rejects_malformed_payloads():
    with pytest.raises(di.ProblemFileError):
        replay({"no_suite": 1})
    with pytest.raises(di.ProblemFileError):
        replay({"suite": "unheard-of"})
    with pytest.raises(di.ProblemFileError):
        replay([1, 2, 3])


PAYLOAD_KEYS = {
    "suite", "case_index", "spec", "slack", "tolerance", "backward_kernel", "forward_kernel"
}
SUITE_PAYLOAD_KEYS = {
    "dual-formula": set(),
    "convexity": {"forward_kernel_b", "lambdas"},
    "concavity": {"backward_kernel_b", "lambdas"},
    "lsc": {"mode", "start"},
    "no-feedback": {"mode"},
}


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_failure_payloads_would_replay(suite, monkeypatch):
    # force every case to fail to check the failure plumbing end to end
    import dirinfo.verify as v
    from dirinfo.serialization import parse_real

    monkeypatch.setattr(v, "DUAL_FORMULA_TOL", -np.inf)
    monkeypatch.setattr(v, "MIXTURE_TOL", -np.inf)
    report = v.run_suite(suite, seed=0, cases=4)
    assert not report.passed
    assert report.tolerance == -np.inf
    assert [payload["case_index"] for payload in report.failures] == [0, 1, 2, 3]
    for payload in report.failures:
        assert set(payload) == PAYLOAD_KEYS | SUITE_PAYLOAD_KEYS[suite]
        assert payload["suite"] == suite
        assert payload["tolerance"] == real_to_str(report.tolerance)
        # replay measures the same slack the suite recorded
        got = replay(dict(payload))
        assert got == pytest.approx(parse_real(payload["slack"]), abs=1e-15)


def test_no_feedback_suite_builds_one_joint_per_case(monkeypatch):
    import dirinfo.measures
    import dirinfo.verify

    calls, built = [], []
    real, real_weights = dirinfo.verify.build_joint, dirinfo.measures._joint_weights

    def counting(p, q):
        calls.append(1)
        return real(p, q)

    def counting_weights(*args, **kwargs):
        built.append(1)
        return real_weights(*args, **kwargs)

    # the evaluation routes walk the suite's joint, so the joints built
    # are exactly the suite's own, one per case
    monkeypatch.setattr(dirinfo.verify, "build_joint", counting)
    monkeypatch.setattr(dirinfo.measures, "_joint_weights", counting_weights)
    report = run_suite("no-feedback", seed=0)
    assert report.cases == 100
    assert len(calls) == len(built) == 100


def test_dual_formula_suite_never_builds_a_whole_joint(monkeypatch):
    import dirinfo.measures
    import dirinfo.verify

    calls, built = [], []
    real, real_weights = dirinfo.verify.build_joint, dirinfo.measures._joint_weights

    def counting(p, q):
        calls.append(1)
        return real(p, q)

    def counting_weights(*args, **kwargs):
        built.append(1)
        return real_weights(*args, **kwargs)

    # one first pass serves both routes, and the divergence route's second
    # pass builds each (one-block) joint again
    monkeypatch.setattr(dirinfo.verify, "build_joint", counting)
    monkeypatch.setattr(dirinfo.measures, "_joint_weights", counting_weights)
    report = run_suite("dual-formula", seed=0)
    assert report.cases == 200
    assert report.passed
    assert calls == []
    assert len(built) == 2 * report.cases
