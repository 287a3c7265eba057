"""Seeded op lists for the three benchmark workloads, and how to run one op.

``make_ops(workload, seed)`` uses only the standard library and returns a
pass: a fixed list of JSON-serialisable ops. The benchmark runs the pass
over and over in a closed loop with one client. Every pass of a workload has
the same composition of op classes; the seed picks the field, the direction
and the variant inside each class. Class sizes are chosen so that the median
and the 90th percentile of op wall time each fall inside a block of one op
class rather than on the boundary between two, which keeps both steady from
seed to seed.

``Runner`` builds the spin systems once (set-up), then ``execute`` makes only
the library calls of one op (this is what is timed) and ``summarize`` turns
the result into the numbers that the output checks compare.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

import numpy as np

WORKLOADS = ("sweep", "exact", "readme-cli")

# Site indices in the bundled CB0 and CN0 records: 0 is the central carbon,
# 1-3 the first shell (with EFG tensors), 4-9 the second shell.
FIRST_SHELL = (1, 2, 3)
SECOND_SHELL = (4, 5, 6, 7, 8, 9)


def _magnitude_direction(rng: random.Random, lo: float, hi: float):
    """|B| uniform in [lo, hi] G and a direction uniform on the upper
    hemisphere (z >= 0), rounded so that CLI flags carry them exactly."""
    magnitude = round(rng.uniform(lo, hi), 1)
    z = rng.random()
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(1.0 - z * z)
    return magnitude, [round(r * math.cos(phi), 4), round(r * math.sin(phi), 4), round(z, 4)]


def _field(rng: random.Random, lo: float, hi: float) -> list[float]:
    """Field vector in Gauss, normalised the way the CLI normalises it."""
    magnitude, direction = _magnitude_direction(rng, lo, hi)
    norm = math.sqrt(sum(c * c for c in direction))
    return [magnitude * c / norm for c in direction]


def _cli_field(rng: random.Random, lo: float, hi: float) -> list[str]:
    magnitude, direction = _magnitude_direction(rng, lo, hi)
    # "--direction=..." because argparse takes "-0.5,..." for an option.
    return ["--B", f"{magnitude:g}", "--direction=" + ",".join(f"{c:g}" for c in direction)]


def _sweep(rng: random.Random) -> list[dict]:
    # 20 CN0 ops (cheap) below 12 CB0 ops: p50 sits inside the CN0 block,
    # p90 inside the CB0 block. Each block holds every (order, mode) pair
    # equally often, so only fields and directions change with the seed.
    ops = []
    for defect, count in (("CN0", 20), ("CB0", 12)):
        for k in range(count):
            ops.append({
                "kind": "perturb",
                "defect": defect,
                "order": 1 + k % 2,
                "mode": ("full_tensor", "a_constants")[k // 2 % 2],
                "field": _field(rng, 30.0, 300.0),
            })
    return ops


def _exact(rng: random.Random) -> list[dict]:
    # (count, choices of (defect, carbon13, sites, second-shell sites, nqi
    # allowed)) per class; dimensions 54 | 108, 128 | 216, 256 | 432 | 1152.
    # The seed picks which second-shell sites; they carry no EFG tensor, so
    # only first-shell subsystems can take nqi.
    classes = [
        (6, [("CB0", False, FIRST_SHELL, 0, True)]),
        (6, [("CB0", True, (0,) + FIRST_SHELL, 0, True),
             ("CN0", False, FIRST_SHELL, 0, True)]),
        (4, [("CB0", False, FIRST_SHELL, 1, False),
             ("CN0", True, (0,) + FIRST_SHELL, 0, True)]),
        (3, [("CB0", True, (0,) + FIRST_SHELL, 1, False)]),       # p90 block
        (1, [("CN0", False, FIRST_SHELL, 2, False)]),
    ]
    ops = []
    for count, choices in classes:
        for k in range(count):
            defect, carbon13, sites, second, nqi_ok = choices[k % len(choices)]
            sites = sorted(sites + tuple(rng.sample(SECOND_SHELL, second)))
            ops.append({
                "kind": "exact",
                "defect": defect,
                "carbon13": carbon13,
                "sites": sites,
                "nqi": nqi_ok and k // len(choices) % 2 == 1,
                "field": _field(rng, 30.0, 300.0),
            })
    return ops


def _readme_cli(rng: random.Random) -> list[dict]:
    def cli(argv):
        return {"kind": "cli", "argv": argv}

    ops = [
        cli(["ctl"]),
        cli(["binding"]),
        cli(["ctl", "--format", "csv", "--diagram", "{tmp}/levels.txt"]),
        cli(["binding", "--format", "csv"]),
    ]
    for k in range(8):                                   # p50 block
        argv = ["odmr", "--defect", "CN0"] + _cli_field(rng, 30.0, 300.0)
        argv += ["--method", ("perturb2", "perturb1", "a-constants", "perturb2")[k % 4]]
        ops.append(cli(argv + ["--format", "csv"] if k % 2 else argv))
    ops.append(cli(["isotopes", "--defect", "CN0"] + _cli_field(rng, 30.0, 300.0)))
    ops.append(cli(["isotopes", "--defect", "CB0"] + _cli_field(rng, 30.0, 300.0)))
    ops.append(cli(["odmr", "--defect", "CN0", "--isotopes", "natural"]
                   + _cli_field(rng, 30.0, 300.0)))
    # Fields along c, as in the README, from here on: a tilted field makes
    # the hybrid solver several times slower and the pass too long.
    ops.append(cli(["odmr", "--defect", "CB0", "--method", "hybrid",
                    "--B", f"{round(rng.uniform(150.0, 300.0), 1):g}"]))
    for lo in (150.0, 200.0, 250.0):                        # p90 block
        ops.append(cli(["compare-methods", "--defect", "CN0",
                        "--B", f"{round(rng.uniform(lo, lo + 50.0), 1):g}"]))
    # The render: 35-60 G keeps the CN0 lines on the 0-300 MHz grid.
    ops.append(cli(["odmr", "--defect", "CN0"] + _cli_field(rng, 35.0, 60.0)
                   + ["--grid", "0,300,0.25", "--out-spectrum", "{tmp}/spectrum.txt",
                      "--out-lines", "{tmp}/lines.txt"]))
    return ops


_MAKERS = {
    "sweep": _sweep,
    "exact": _exact,
    "readme-cli": _readme_cli,
}


def make_ops(workload: str, seed: int) -> list[dict]:
    """One pass of ``workload`` for ``seed``: the same seed, the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _MAKERS[workload](rng)
    rng.shuffle(ops)
    for k, op in enumerate(ops):
        op["id"] = k
    return ops


# Documented-bad inputs of the CLI with the exit code the README gives them
# (1: usage or physics-domain error, 3: broken or missing dataset).
BAD_INPUTS = (
    (["odmr", "--defect", "CN0", "--grid", "0,300,0", "--out-spectrum",
      "{tmp}/bad.txt"], 1),
    (["odmr", "--defect", "CN0", "--grid", "0,300,-1", "--out-spectrum",
      "{tmp}/bad.txt"], 1),
    (["odmr", "--defect", "CN0", "--config", "{tmp}/string-field.json"], 1),
    (["odmr", "--defect", "CX9"], 1),
    (["odmr", "--defect", "CN0", "--method", "exact"], 1),
    (["ctl", "{tmp}/missing-energies.json"], 3),
)


def _moments(freqs, mass, lo=30.0, hi=math.inf) -> dict:
    inside = (freqs >= lo) & (freqs <= hi)
    m, f = mass[inside], freqs[inside]
    total = float(mass.sum())
    m_sum = float(m.sum())
    if m_sum <= 0.0:
        return {"center": math.nan, "sigma": math.nan, "included": 0.0}
    center = float((m * f).sum() / m_sum)
    sigma = math.sqrt(max(float((m * (f - center) ** 2).sum()) / m_sum, 0.0))
    return {"center": center, "sigma": sigma, "included": m_sum / total}


def _lines(lines) -> dict:
    return {
        "n_lines": len(lines),
        "total_weight": float(lines.weights.sum()),
        "finite": bool(np.isfinite(lines.frequencies).all()),
        "min_weight": float(lines.weights.min()) if len(lines) else 0.0,
    }


def _read_columns(path: str) -> np.ndarray:
    with open(path) as fh:
        rows = [line for line in fh if line.strip() and not line.startswith("#")]
    return np.array([r.split() for r in rows], dtype=float)


class Runner:
    """Holds the set-up state (datasets, spin systems) and runs ops."""

    def __init__(self, ds, tmpdir: str):
        self.ds = ds
        self.tmpdir = tmpdir
        records = ds.system.load_defect_dataset()
        self.systems = {}
        for label in ("CB0", "CN0"):
            record = ds.system.find_defect(records, label)
            self.systems[label, False] = ds.system.build_system(record)
            self.systems[label, True] = ds.system.build_system(record, {"C": "13C"})
        ds.energetics.load_energy_records()
        ds.energetics.load_complexes()
        with open(os.path.join(tmpdir, "string-field.json"), "w") as fh:
            json.dump({"B": "50"}, fh)

    def argv(self, op_argv) -> list[str]:
        return [a.replace("{tmp}", self.tmpdir) for a in op_argv]

    def execute(self, op):
        """The library calls of one op; the benchmark times exactly this."""
        ds = self.ds
        kind = op["kind"]
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ds.cli.main(self.argv(op["argv"]))
            return code, out.getvalue()
        system = self.systems[op["defect"], op.get("carbon13", False)]
        field = np.array(op["field"])
        if kind == "perturb":
            lines = ds.solvers.perturb_lines(system, field, op["order"], op["mode"])
            return lines, ds.spectrum.peak_stats(lines)
        if kind == "exact":
            sub = system.subsystem(op["sites"])
            terms = ("ezi", "hfi", "nzi") + (("nqi",) if op["nqi"] else ())
            h = ds.hamiltonian.build_hamiltonian(sub, field, terms=terms)
            return ds.solvers.exact_transitions(h, sub)
        raise ValueError(f"unknown op kind {kind!r}")

    def summarize(self, op, result) -> dict:
        """Numbers the checks compare; computed outside the timed region."""
        kind = op["kind"]
        if kind == "cli":
            code, stdout = result
            summary = {"exit_code": code, "tokens": stdout.replace(",", " ").split()}
            argv = self.argv(op["argv"])
            if "--out-spectrum" in argv:
                spectrum = _read_columns(argv[argv.index("--out-spectrum") + 1])
                summary["spectrum"] = {
                    "points": int(spectrum.shape[0]),
                    "sum": float(spectrum[:, 1].sum()),
                    "max": float(spectrum[:, 1].max()),
                    "min": float(spectrum[:, 1].min()),
                    "samples": spectrum[::20, 1].tolist(),
                }
            if "--out-lines" in argv:
                table = _read_columns(argv[argv.index("--out-lines") + 1])
                freqs, mass = table[:, 0], table[:, 1] * table[:, 2]
                summary["linelist"] = {
                    **_moments(freqs, mass, -math.inf, math.inf),
                    "total_weight": float(table[:, 2].sum()),
                    "finite": bool(np.isfinite(freqs).all()),
                }
            return summary
        if kind == "exact":
            lines = result
            return {
                **_moments(lines.frequencies, lines.weights * lines.intensities),
                **_lines(lines),
                "min_intensity": float(lines.intensities.min()) if len(lines) else 0.0,
            }
        lines, stats = result
        return {"center": stats.center, "sigma": stats.sigma, "fwhm": stats.fwhm_gauss,
                "included": stats.included_weight_fraction, **_lines(lines)}
