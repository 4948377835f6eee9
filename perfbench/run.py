"""Benchmark of dirinfo: four seeded workloads, timed end to end, every
output checked against computations made apart from the program.

    python3 perfbench/run.py --workload capacity --seed 1 --seconds 15 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload in a fresh process;
``--repeat N`` runs one workload N times, on seeds ``seed .. seed+N-1``,
each in a fresh process, and prints each end-to-end metric's median and
quartile spread.  Needs only the standard library and numpy, and imports
``dirinfo`` from ``src/`` of the checkout that holds this file.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One caller on one thread: pin BLAS before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("evaluate", "verify", "capacity", "nrdf")
# The calibration kernel whose work is most like each workload's (see
# calibrate.py): large arrays for evaluate, small arrays in Python loops
# for the rest.
CALIBRATION = {"evaluate": "array", "verify": "python", "capacity": "python", "nrdf": "python"}
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5
# wall_s takes each operation's median calibrated repetition, so a run
# repeats every operation at least this many times.
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 170


def _import_program():
    """Put ``src`` and this directory first on the path and import the
    program; refuse a ``dirinfo`` from anywhere but this checkout."""
    if not (SRC / "dirinfo" / "__init__.py").is_file():
        sys.exit(f"error: no dirinfo package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import dirinfo

    if Path(dirinfo.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: dirinfo imported from {dirinfo.__file__}, not from {SRC}")
    import workloads

    return workloads


def _child(args: list[str], lines: int = 1):
    """Run this script in a fresh interpreter; return its last output line,
    or a list of its last ``lines`` lines."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: {' '.join(args)} exited with {proc.returncode}")
    found = [json.loads(line) for line in proc.stdout.strip().splitlines()[-lines:]]
    return found[-1] if lines == 1 else found


def probe_setup(workload: str, seed: int):
    """One set-up sample: import dirinfo and build the inputs from the seed,
    timed against the workload's calibration kernel.  numpy and the kernel
    load first, outside the clock."""
    sys.path.insert(0, str(HERE))
    import calibrate

    probe = calibrate.SpeedProbe(CALIBRATION[workload])
    _, error, raw, scaled, _ = probe.call(lambda: _import_program().WORKLOADS[workload](seed))
    if error is not None:
        sys.exit(f"error: set-up failed: {error}")
    print(json.dumps({"setup_s": scaled, "raw_s": raw}))


def run_round(ops, probe=None, tracer=None) -> dict:
    """Run every operation once, in order; time each program call alone and
    check its output afterwards.  With ``probe`` each call is also timed
    against the calibration kernel (see calibrate.py)."""
    ctx, times, cal, kernel, problems, figures = {}, [], [], [], {}, {}
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        if probe is not None:
            result, error, raw, scaled, k = probe.call(op.call)
            cal.append(scaled)
            kernel.append(k)
        else:
            t0 = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # a raising call is a failed operation
                result, error = None, f"{type(exc).__name__}: {exc}"
            raw = time.perf_counter() - t0
        times.append(raw)
        if tracer is not None:
            tracer.op = None
        if error is None:
            try:
                found, figs = op.check(result, ctx)
            except Exception as exc:  # e.g. a partner operation failed
                found, figs = [f"check raised {type(exc).__name__}: {exc}"], {}
        else:
            found, figs = [error], {}
        if found:
            problems[op.name] = found
        for key, value in figs.items():
            figures.setdefault(key, []).append(value)
    return {"times": times, "cal": cal, "kernel": kernel, "problems": problems, "figures": figures}


def _class_medians(ops, rounds) -> dict:
    by_class: dict = {}
    for r in rounds:
        for op, t in zip(ops, r["times"]):
            by_class.setdefault(op.cls, []).append(t)
    return {c: {"ops": len(v), "p50_s": statistics.median(v)} for c, v in by_class.items()}


def _median_wall(rounds, key) -> float:
    """Sum over operations of each operation's median repetition."""
    return sum(statistics.median(times) for times in zip(*(r[key] for r in rounds)))


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Set up, warm up, then run whole rounds until ``seconds`` have passed
    since the first timed call and at least ``MIN_ROUNDS`` rounds ran; a
    traced run alternates untraced and traced rounds.  Set-up samples run
    in fresh processes: one first, the others as the run passes each fifth
    of ``seconds``."""
    probe_args = ["--probe-setup", "--workload", workload, "--seed", str(seed)]
    setup = [_child(probe_args)["setup_s"]]
    workloads = _import_program()
    import calibrate
    import spans

    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    ops = workloads.WORKLOADS[workload](seed)
    if tracer is not None:
        tracer.uninstall()
        setup_sampling = spans.span_totals(tracer.spans)[2]["sampling"]
    probe = calibrate.SpeedProbe(CALIBRATION[workload])

    ops[0].call()  # untimed warm-up
    plain, traced = [], []
    start = time.perf_counter()
    while len(plain) + len(traced) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if tracer is not None and len(plain) > len(traced):
            tracer.reset()
            tracer.install()
            try:
                r = run_round(ops, tracer=tracer)
            finally:
                tracer.uninstall()
            r["layers"] = spans.round_metrics(tracer.spans, tracer.counts, r["figures"])
            r["spans"] = tracer.spans
            traced.append(r)
        else:
            plain.append(run_round(ops, probe=probe))
        elapsed = time.perf_counter() - start
        while len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(_child(probe_args)["setup_s"])
    while len(setup) < SETUP_SAMPLES:
        setup.append(_child(probe_args)["setup_s"])

    done = plain + traced
    failed = sum(len(r["problems"]) for r in done)
    unexpected = sorted({name for r in done for name in r["problems"] if not _fault(ops, name)})
    for name, found in done[0]["problems"].items():
        tag = "known fault" if _fault(ops, name) else "UNEXPECTED"
        print(f"# {workload}: {name} failed ({tag}): {'; '.join(found)}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": _median_wall(plain, "cal"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        classes = _class_medians(ops, plain)
    else:
        metrics = {
            key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]
        }
        metrics["sampling.self_s"] += setup_sampling
        # Spans per round times the cost of one span: the difference of a
        # traced and an untraced round's time is well below their noise.
        metrics["trace.overhead_s"] = statistics.median(len(r["spans"]) for r in traced) * spans.span_cost()
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        classes = _class_medians(ops, traced)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": workload,
                    "seed": seed,
                    "span_fields": ["name", "start", "end", "parent", "op"],
                    "op_classes": classes,
                    "rounds": [{"spans": r["spans"], "layers": r["layers"]} for r in traced],
                },
                fh, separators=(",", ":"),
            )
    kernel = statistics.median(k for r in plain for k in r["kernel"])
    print(json.dumps({"workload": workload, "seed": seed, "rounds": len(done), "setup_samples": setup,
                      "raw_wall_s": _median_wall(plain, "times"), "kernel_s": kernel,
                      "kernel_nominal_s": probe.nominal, "op_classes": classes}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(done) * len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def _fault(ops, name):
    return next(op.fault for op in ops if op.name == name)


def repeat(workload: str, seed: int, seconds: float, times: int):
    """Steadiness: each end-to-end metric's median and quartile spread over
    ``times`` fresh runs on consecutive seeds."""
    runs = [
        _child(["--workload", workload, "--seed", str(seed + i), "--seconds", str(seconds), "--trace", "0"], 2)
        for i in range(times)
    ]
    results = [result for _, result in runs]
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    print(f"{workload}: seeds {seed}..{seed + times - 1}, failed/attempted {shares}, "
          f"correct {all(r['correct'] for r in results)}")
    series = {name: [r["metrics"][name]["value"] for r in results] for name in END_TO_END}
    series["raw_wall_s"] = [info["raw_wall_s"] for info, _ in runs]
    series["kernel_s"] = [info["kernel_s"] for info, _ in runs]
    for name, values in series.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        print(f"  {name:12s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {(q3 - q1) / median:.4f}  values {[round(v, 4) for v in values]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="steadiness mode: number of fresh runs")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
    elif args.workload == "all":
        for w in WORKLOADS:
            extra = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            print(json.dumps({"workload": w, **_child(["--workload", w, *extra])}))
    elif args.repeat:
        repeat(args.workload, args.seed, args.seconds, args.repeat)
    else:
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
