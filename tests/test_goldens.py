"""CLI stdout and written files pinned against recorded outputs
(``goldens/cli.json``).

Numbers on the lines that a case marks ``approximate`` come from an exact or
a hybrid solve. Inside a degenerate eigenspace the eigensolver's basis decides
which weak lines pass the intensity floor, so those numbers move with the
BLAS thread count; they are compared to ``tolerance_mhz``, as the benchmark's
checks compare exact statistics. Every other token must be equal, and so must
the bytes of every written file (their sha256): the cases that write files are
perturbative or text-only, so their bytes do not depend on the BLAS threads.
The cases run in one process, forward and then reversed, so a result that
depends on what an earlier call left in a cache fails too.
``goldens/record.py`` re-records the outputs, with the same ``run`` that
replays them here.
"""

from __future__ import annotations

import json
import re

import pytest
from goldens.record import GOLDENS, run

RECORDED = json.loads(GOLDENS.read_text())
CASES = RECORDED["cases"]


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def _assert_same_output(case: dict, code: int, out: str, files: dict):
    assert code == case["exit_code"]
    assert files == case["files"]
    got, want = out.splitlines(), case["stdout"].splitlines()
    assert len(got) == len(want)
    approximate = re.compile(case.get("approximate", r"(?!)"))
    for line, expected in zip(got, want):
        tokens, reference = re.findall(r"[^\s,]+", line), re.findall(r"[^\s,]+", expected)
        assert len(tokens) == len(reference), (line, expected)
        for token, ref in zip(tokens, reference):
            x, y = _number(token), _number(ref)
            if x is None or y is None or not approximate.search(expected):
                assert token == ref, (line, expected)
            else:
                assert abs(x - y) <= RECORDED["tolerance_mhz"], (line, expected)


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_cli_outputs_match_the_goldens(order):
    cases = CASES if order == "forward" else CASES[::-1]
    for case in cases:
        _assert_same_output(case, *run(case["argv"]))


def test_a_changed_digit_fails_the_comparison():
    case = CASES[1]                             # compare-methods --format csv
    code, out, files = run(case["argv"])
    _assert_same_output(case, code, out, files)
    for old, new in (("112.29511", "112.29512"), ("73.802135", "73.812135")):
        assert old in out
        with pytest.raises(AssertionError):
            _assert_same_output(case, code, out.replace(old, new), files)
