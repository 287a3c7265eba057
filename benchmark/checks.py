"""Output checks: invariants on every op, and comparison with references.

Invariants hold for any seed, so a seed without stored references is still
checked. References were recorded by ``record_references.py``; they pin:

* perturbative peak statistics to 1e-6 MHz, exact ones to ``EXACT_TOL``;
* CLI stdout number by number, to one unit in the last printed digit, with
  every other token equal. Sampled (Monte Carlo) numbers reach stdout only
  in `isotopes` rows printed to 1 MHz, far above their sampling error;
* rendered spectra at every 20th grid point and their sum, to 1e-6 of the
  peak-normalised intensity, and exported line lists by their moments.
"""

from __future__ import annotations

import math

ABS_TOL = 1e-6                  # MHz, and for fractions
STATS_TOL = {"center": ABS_TOL, "sigma": ABS_TOL, "fwhm": ABS_TOL, "included": ABS_TOL}
# Exact line lists drop lines below an intensity floor relative to the
# strongest line. Inside a degenerate eigenspace the eigensolver's choice of
# basis decides which weak lines fall below it, so the same code with 1 or 2
# BLAS threads moved exact statistics by up to 1.1e-4 MHz (center), 9e-4 MHz
# (sigma) and 3e-7 (included fraction) over the 640 exact ops of seeds 0-31.
EXACT_TOL = {"center": 5e-3, "sigma": 5e-3, "included": 1e-5}


def _fraction_ok(x) -> bool:
    return isinstance(x, float) and 0.0 < x <= 1.0 + 1e-12


def _lines_invariants(s: dict, expected_weight: float | None, where: str) -> list[str]:
    bad = []
    if not s["finite"]:
        bad.append(f"{where}: non-finite frequency")
    if s["n_lines"] < 1:
        bad.append(f"{where}: no lines")
    elif s["min_weight"] <= 0.0:
        bad.append(f"{where}: non-positive weight")
    if expected_weight is not None and abs(s["total_weight"] - expected_weight) > 1e-9:
        bad.append(f"{where}: weights sum to {s['total_weight']!r}, not {expected_weight!r}")
    if "included" in s and not _fraction_ok(s["included"]):
        bad.append(f"{where}: included fraction {s['included']!r} outside (0, 1]")
    return bad


def _number(tok):
    try:
        return float(tok)
    except ValueError:
        return None


def _included_from_stdout(tokens: list[str]):
    """included_weight_fraction printed by `odmr` in table or csv form."""
    if "included_weight_fraction" not in tokens:
        return None
    i = tokens.index("included_weight_fraction")
    offset = 4 if tokens[i - 1] == "fwhm_MHz" else 1       # csv header row
    return _number(tokens[i + offset]) if i + offset < len(tokens) else None


def invariants(op: dict, s: dict) -> list[str]:
    kind = op["kind"]
    if kind == "cli":
        bad = []
        if s["exit_code"] != 0:
            return [f"exit code {s['exit_code']}, expected 0"]
        if not s["tokens"]:
            bad.append("empty stdout")
        numbers = [_number(t) for t in s["tokens"]]
        if any(x is not None and not math.isfinite(x) for x in numbers):
            bad.append("non-finite number in stdout")
        if "included_weight_fraction" in s["tokens"]:
            included = _included_from_stdout(s["tokens"])
            if included is None or not 0.0 < included <= 1.0:
                bad.append(f"included fraction {included!r} outside (0, 1]")
        if "spectrum" in s:
            sp = s["spectrum"]
            if sp["points"] < 2 or abs(sp["max"] - 1.0) > 1e-6 or sp["min"] < 0.0:
                bad.append("spectrum is not a peak-normalised non-negative curve")
        if "linelist" in s:
            ll = s["linelist"]
            if not ll["finite"] or abs(ll["total_weight"] - 1.0) > 1e-6:
                bad.append("exported line list weights do not sum to 1")
        return bad
    if kind == "perturb":
        return _lines_invariants(s, 1.0, "lines")
    if kind == "exact":
        bad = _lines_invariants(s, None, "lines")
        if s["min_intensity"] < 0.0:
            bad.append("negative transition intensity")
        return bad
    return [f"unknown op kind {kind!r}"]


def _compare_stats(s: dict, ref: dict, tolerances: dict) -> list[str]:
    bad = []
    for key, tol in tolerances.items():
        if not abs(s[key] - ref[key]) <= tol:
            bad.append(f"{key} {s[key]!r} differs from reference {ref[key]!r} "
                       f"by more than {tol:.3g}")
    return bad


def _last_digit(text: str) -> float:
    """One unit in the last printed digit of a number token."""
    mantissa, _, exponent = text.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _compare_tokens(got: list[str], ref: list[str]) -> list[str]:
    if len(got) != len(ref):
        return [f"stdout has {len(got)} tokens, reference {len(ref)}"]
    for k, (a, b) in enumerate(zip(got, ref)):
        x, y = _number(a), _number(b)
        if x is None or y is None:
            if a != b:
                return [f"stdout token {k} {a!r} differs from reference {b!r}"]
        elif not abs(x - y) <= _last_digit(b) * 1.0001 + 1e-12:
            return [f"stdout number {k} {a} differs from reference {b}"]
    return []


def compare(op: dict, s: dict, ref: dict) -> list[str]:
    kind = op["kind"]
    if kind == "cli":
        bad = []
        if s["exit_code"] != ref["exit_code"]:
            bad.append(f"exit code {s['exit_code']}, reference {ref['exit_code']}")
        bad += _compare_tokens(s["tokens"], ref["tokens"])
        if "spectrum" in ref:
            sp, rsp = s.get("spectrum"), ref["spectrum"]
            if sp is None or sp["points"] != rsp["points"]:
                bad.append("spectrum grid differs from reference")
            elif any(abs(a - b) > ABS_TOL for a, b in zip(sp["samples"], rsp["samples"])) \
                    or abs(sp["sum"] - rsp["sum"]) > ABS_TOL * rsp["points"]:
                bad.append("rendered spectrum differs from reference")
        if "linelist" in ref:
            ll, rll = s.get("linelist"), ref["linelist"]
            if ll is None or any(abs(ll[k] - rll[k]) > 2 * ABS_TOL
                                 for k in ("center", "sigma", "total_weight")):
                bad.append("exported line list moments differ from reference")
        return bad
    return _compare_stats(s, ref, EXACT_TOL if kind == "exact" else STATS_TOL)
