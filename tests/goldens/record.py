"""Record the exit code and stdout of every case in ``cli.json``.

Each case is an ``argv`` for ``defectspin.cli.main`` and, optionally, an
``approximate`` pattern: numbers on the lines it matches come from an exact or
a hybrid solve and are compared to ``tolerance_mhz`` (``tests/test_goldens.py``).
A change that moves an output on purpose re-records, from the repository root:

    PYTHONPATH=src python tests/goldens/record.py

and lists every changed case in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from defectspin.cli import main

GOLDENS = Path(__file__).with_name("cli.json")


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process ``main`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def record():
    doc = json.loads(GOLDENS.read_text())
    for case in doc["cases"]:
        case["exit_code"], case["stdout"] = run(case["argv"])
    GOLDENS.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    record()
