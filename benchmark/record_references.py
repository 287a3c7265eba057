"""Record the reference outputs that ``checks.compare`` holds ops to.

    python3 benchmark/record_references.py [--seeds 0-31] [--workload NAME]

Runs every op of every pass once per seed and writes
``benchmark/references/<workload>.json``. References pin the outputs of the
code they were recorded with; re-record only on purpose, and say why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import warnings

import run
import worker  # pins BLAS threads before numpy loads

import checks  # noqa: E402  (these load numpy)
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


# The summary keys that checks.compare reads; the rest stay out of the file.
KEPT = {"center", "sigma", "fwhm", "included", "exit_code", "tokens", "points",
        "sum", "samples", "total_weight", "spectrum", "linelist"}


def _compact(value):
    """Drop unread keys; 12 significant digits are plenty for 1e-6 MHz."""
    if isinstance(value, dict):
        return {k: _compact(v) for k, v in value.items() if k in KEPT}
    if isinstance(value, list):
        return [_compact(v) for v in value]
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def _reference(runner, op) -> dict:
    result = runner.execute(op)
    summary = runner.summarize(op, result)
    problems = checks.invariants(op, summary)
    if problems:
        raise RuntimeError(f"op {op['id']} breaks an invariant: {problems}")
    return _compact(summary)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default=None)
    args = parser.parse_args(argv)
    ds = worker._import_defectspin()
    warnings.simplefilter("ignore")
    os.makedirs(worker.RUN_DIR, exist_ok=True)
    os.makedirs(os.path.join(HERE, "references"), exist_ok=True)
    for name in [args.workload] if args.workload else workloads.WORKLOADS:
        tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=worker.RUN_DIR)
        try:
            runner = workloads.Runner(ds, tmpdir)
            seeds = {}
            for seed in _seeds(args.seeds):
                seeds[str(seed)] = [_reference(runner, op)
                                    for op in workloads.make_ops(name, seed)]
                print(f"{name} seed {seed}: {len(seeds[str(seed)])} ops", flush=True)
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
        path = os.path.join(HERE, "references", f"{name}.json")
        with open(path, "w") as fh:
            json.dump({"source_sha256": run._source_digest(), "seeds": seeds}, fh,
                      separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
