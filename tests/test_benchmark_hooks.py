"""The traced benchmark (``perfbench/spans.py``) wraps ``dirinfo`` functions
by module, name and argument names.  These tests fail on a rename that would
break a traced benchmark run."""
import importlib.util
import pathlib

import numpy as np

import dirinfo as di
import dirinfo.cli  # noqa: F401  the tracer finds every layer through the cli's imports

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_and_puts_it_back():
    tracer = _load_spans().Tracer()
    original = di.solve_capacity
    spec = di.AlphabetSpec(0, (2,), (2,))
    bsc = di.ForwardKernel(spec, (np.array([[0.9, 0.1], [0.1, 0.9]]),))
    source = di.SourceSpec(di.BackwardKernel.uniform(spec))
    hamming = di.DistortionConstraint(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.1)
    tracer.install()
    try:
        assert di.solve_capacity is not original
        di.solve_capacity(bsc)
        di.brute_force_capacity(bsc, grid_resolution=4)
        di.solve_nrdf(source, hamming)
    finally:
        tracer.uninstall()
    assert di.solve_capacity is original
    names = {s[0] for s in tracer.spans}
    assert {"capacity.solve", "capacity.oracle", "nrdf.tilt"} <= names
    assert tracer.counts["capacity.oracle.points"] == 5
