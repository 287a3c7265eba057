"""One benchmark process: set up, then run one workload in a closed loop.

    python3 benchmark/worker.py --workload W --seed N --setup-only
    python3 benchmark/worker.py --workload W --seed N --seconds S --trace 0|1

``--setup-only`` imports defectspin, loads the bundled datasets, builds the
systems and the op list, prints ``ready`` and exits; ``run.py`` times it from
process start. Otherwise the worker runs the first op of each op class once,
unmeasured, then whole passes of the op list until ``--seconds`` have gone by, checks every
op's output, and prints one JSON line with its measurements. With
``--trace 1`` traced and untraced passes alternate, which gives the tracing
overhead as the difference between the two.

The worker imports defectspin from ``src/`` of the checkout that holds this
file, never from anywhere else, and pins BLAS threads before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings

START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".benchrun")
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# These load numpy, so they come after the thread pinning above.
import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Per-layer metric -> (span, what, unit). ``what`` is "self" (self seconds),
# a counter name, or a (numerator, denominator) pair of counters. The value
# of a metric is its median over the traced ops that entered the span.
LAYER_METRICS = {
    "solvers.perturb_s": ("solvers.perturb", "self", "s"),
    "solvers.perturb_lines": ("solvers.perturb", "lines", "count"),
    "solvers.distinct_line_ratio": ("solvers.perturb", ("distinct", "lines"), "1"),
    "spectrum.peak_stats_s": ("spectrum.peak_stats", "self", "s"),
    "spectrum.peak_stats_lines": ("spectrum.peak_stats", "lines", "count"),
    "solvers.sample_s": ("solvers.sample", "self", "s"),
    "isotopologues.enumerate_s": ("isotopologues.enumerate", "self", "s"),
    "isotopologues.apply_s": ("isotopologues.apply", "self", "s"),
    "isotopologues.composite_self_s": ("isotopologues.composite", "self", "s"),
    "isotopologues.patterns_sampled": ("solvers.sample", "sampled", "count"),
    "isotopologues.skipped_probability":
        ("isotopologues.composite", "skipped_probability", "1"),
    "solvers.hybrid_self_s": ("solvers.hybrid", "self", "s"),
    "solvers.hybrid_lines": ("solvers.hybrid", "lines", "count"),
    "hamiltonian.build_s": ("hamiltonian.build", "self", "s"),
    "hamiltonian.matrix_bytes": ("hamiltonian.build", "matrix_bytes", "B"),
    "solvers.exact_s": ("solvers.exact", "self", "s"),
    "solvers.exact_kept_ratio": ("solvers.exact", ("kept", "pairs"), "1"),
    "hamiltonian.eigh_ref_s": ("solvers.exact", "eigh_ref_s", "s"),
    "spectrum.synthesize_s": ("spectrum.synthesize", "self", "s"),
    "spectrum.kernel_evals": ("spectrum.synthesize", "kernel_evals", "count"),
    "spectrum.write_s": ("spectrum.write", "self", "s"),
    "spectrum.bytes_written": ("spectrum.write", "bytes_written", "B"),
    "system.load_s": ("system.load", "self", "s"),
    "system.build_s": ("system.build", "self", "s"),
    "energetics.load_s": ("energetics.load", "self", "s"),
    "energetics.levels_s": ("energetics.levels", "self", "s"),
    "energetics.binding_s": ("energetics.binding", "self", "s"),
    "cli.self_s": ("cli", "self", "s"),
}


def _import_defectspin():
    if not os.path.isfile(os.path.join(SRC, "defectspin", "__init__.py")):
        raise SystemExit(f"benchmark: no defectspin sources under {SRC}")
    sys.path.insert(0, SRC)
    import defectspin
    import defectspin.cli  # noqa: F401  (the package does not import it)

    if os.path.dirname(os.path.dirname(os.path.abspath(defectspin.__file__))) != SRC:
        raise SystemExit(f"benchmark: defectspin was imported from {defectspin.__file__}")
    return defectspin


def _references(workload: str, seed: int):
    """Reference outputs for this seed, or None if none were recorded."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references",
                        f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)["seeds"].get(str(seed))


def _bad_inputs(runner) -> list[dict]:
    """Each documented-bad CLI input once, scored against its exit code."""
    results = []
    for argv, expected in workloads.BAD_INPUTS:
        try:
            code, _ = runner.execute({"kind": "cli", "argv": argv})
            outcome = "ok" if code == expected else f"exit code {code}"
        except Exception as exc:  # the probe records what escapes main()
            outcome = f"raised {type(exc).__name__}"
        results.append({"argv": " ".join(argv), "expected_exit": expected,
                        "outcome": outcome})
    return results


def _warm_up(runner, ops):
    """Run the first op of each class once, unmeasured."""
    seen = set()
    for op in ops:
        key = (op["kind"], op.get("defect"), op.get("argv", [""])[0])
        if key in seen:
            continue
        seen.add(key)
        try:
            runner.execute(op)
        except Exception:
            pass                                     # it fails again, measured


def _measure(args, runner, ops, refs, tracer):
    """Warm-up, then whole passes until the time is up."""
    _warm_up(runner, ops)
    latencies, failures = [], []
    pass_totals = {True: [], False: []}              # keyed by "traced"
    traced = tracer is not None
    start = time.perf_counter()
    while True:
        if traced:
            tracer.install()
        pass_total = 0.0
        for op in ops:
            t0 = time.perf_counter()
            try:
                if traced:
                    result = tracer.run_op(op["id"], lambda: runner.execute(op))
                else:
                    result = runner.execute(op)
            except Exception as exc:
                dt = time.perf_counter() - t0
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                dt = time.perf_counter() - t0
                try:
                    summary = runner.summarize(op, result)
                    problems = checks.invariants(op, summary)
                    if refs is not None:
                        problems += checks.compare(op, summary, refs[op["id"]])
                except Exception as exc:    # output the checks cannot read
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if traced:
                tracer.settle()
            latencies.append(dt)
            pass_total += dt
            if problems:
                failures.append({"op": op["id"], "problems": problems[:3]})
        if traced:
            tracer.uninstall()
        pass_totals[traced].append(pass_total)
        if time.perf_counter() - start >= args.seconds:
            break
        if tracer is not None:
            traced = not traced
    return latencies, failures, pass_totals


def _layer_metrics(tracer, pass_totals) -> dict:
    ops = tracing.per_op(tracer.spans, tracer.counts)
    metrics = {}
    for name, (span, what, unit) in LAYER_METRICS.items():
        values = []
        for op in ops:
            if what == "self" and span in op["self"]:
                values.append(op["self"][span])
            elif span in op["counts"]:
                counts = op["counts"][span]
                values.append(counts[what[0]] / counts[what[1]]
                              if isinstance(what, tuple) else counts[what])
        metrics[name] = (float(np.median(values)) if values else 0.0, unit)
    overhead = (statistics.median(pass_totals[True]) / statistics.median(pass_totals[False])
                - 1.0 if pass_totals[False] else 0.0)
    metrics["trace.overhead_share"] = (overhead, "1")
    metrics["trace.unattributed_share"] = (float(np.median(
        [op["self"][tracing.ROOT] / op["wall"] for op in ops])), "1")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    warnings.simplefilter("ignore")   # CLI ops capture them with stderr anyway
    ds = _import_defectspin()
    os.makedirs(RUN_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=RUN_DIR)
    try:
        ops = workloads.make_ops(args.workload, args.seed)
        runner = workloads.Runner(ds, tmpdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        refs = _references(args.workload, args.seed)
        bad = _bad_inputs(runner) if args.workload == "readme-cli" else []
        tracer = tracing.Tracer(ds) if args.trace else None
        latencies, failures, pass_totals = _measure(args, runner, ops, refs, tracer)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    if tracer is not None:
        tracer.write(os.path.join(RUN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        metrics = _layer_metrics(tracer, pass_totals)
    else:
        lat = np.array(latencies)
        metrics = {
            "ops_per_s": (lat.size / lat.sum(), "1/s"),
            "latency_p50_ms": (1e3 * float(np.percentile(lat, 50)), "ms"),
            "latency_p90_ms": (1e3 * float(np.percentile(lat, 90)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": sum(len(v) for v in pass_totals.values()),
        "pass_ops": len(ops),
        "references": refs is not None,
        "bad_inputs": bad,
        "numpy": np.__version__,
        "blas": "{name} {version}".format(
            **np.show_config(mode="dicts")["Build Dependencies"]["blas"]),
        "blas_threads": BLAS_THREADS,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
