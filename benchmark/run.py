"""defectspin benchmark: one workload, one seed, one measurement.

    python3 benchmark/run.py --workload sweep --seed 0 --seconds 35 --trace 0

Workloads: sweep, exact, readme-cli (see README.md next to this file). With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the per-layer metrics from a traced run. The lines before it
give the environment and the sample counts.

This script only orchestrates, with the standard library. It runs the
measured loop in one worker process and reports what that process measured.
Around it, it times ``SETUP_REPEATS`` fresh interpreters from start to first
op ready; their median is ``setup_s``. Run artefacts (spans, result records,
export scratch files) go to ``.benchrun/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RUN_DIR = os.path.join(ROOT, ".benchrun")
SETUP_REPEATS = 8
SETUP_TIMEOUT_S = 30
WORKER_GRACE_S = 90           # beyond --seconds: warm-up, last pass, checks


def _git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over src/ (paths and bytes), so a result names its code."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _environment(args, run: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": run["numpy"],
        "blas": run["blas"],
        "blas_threads": run["blas_threads"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first op ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit code {proc.returncode})")
    return elapsed


def _run_worker(args) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, timeout=args.seconds + WORKER_GRACE_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit code {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "exact", "readme-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "defectspin", "__init__.py")):
        print(f"benchmark: no defectspin sources under {ROOT}/src", file=sys.stderr)
        return 2
    # Half the set-up probes before the measured loop and half after it, so
    # their median spans the run rather than one moment of it.
    probes = 0 if args.trace else SETUP_REPEATS
    try:
        setup = [_time_setup(args.workload, args.seed) for _ in range(probes // 2)]
        run = _run_worker(args)
        setup += [_time_setup(args.workload, args.seed) for _ in range(probes - probes // 2)]
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    metrics = run["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    env = _environment(args, run)
    summary = {
        "samples": run["attempted"],
        "samples_beyond_p90": run["attempted"] - int(0.9 * run["attempted"]),
        "passes": run["passes"],
        "ops_per_pass": run["pass_ops"],
        "failed_fraction": run["failed"] / run["attempted"],
        "references": run["references"],
        "setup_runs_s": setup,
        "failures": run["failures"],
        "bad_inputs": run["bad_inputs"],
    }
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    os.makedirs(RUN_DIR, exist_ok=True)
    record = os.path.join(
        RUN_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"environment": env, "summary": summary, "result": result}, fh, indent=1)
    print("environment " + json.dumps(env))
    print("summary " + json.dumps(summary))
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_fraction':36s} {summary['failed_fraction']:.6g} 1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
