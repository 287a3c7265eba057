"""Record the exit code, stdout and written files of every case in ``cli.json``.

Each case is an ``argv`` for ``defectspin.cli.main`` and, optionally, an
``approximate`` pattern: numbers on the lines it matches come from an exact or
a hybrid solve and are compared to ``tolerance_mhz`` (``tests/test_goldens.py``).
``{tmp}`` in an argument stands for a fresh temporary directory; each file the
call writes there is recorded as the sha256 of its bytes, keyed by its name.
A change that moves an output on purpose re-records, from the repository root:

    PYTHONPATH=src python tests/goldens/record.py

and lists every changed case in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from defectspin.cli import main

GOLDENS = Path(__file__).with_name("cli.json")


def run(argv: list[str]) -> tuple[int, str, dict[str, str]]:
    """Exit code, stdout and the sha256 of each written file (by name) of one
    in-process ``main`` call."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(out):
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
        files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(Path(tmp).iterdir())}
    return code, out.getvalue(), files


def record():
    doc = json.loads(GOLDENS.read_text())
    for case in doc["cases"]:
        case["exit_code"], case["stdout"], case["files"] = run(case["argv"])
    GOLDENS.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    record()
