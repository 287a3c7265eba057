"""Every node of each JSON input format, replaced by each value of a fixed
list, goes through ``main`` without a traceback.

The inputs are a CN0 ``--system`` file (its top level and its first site)
and the bundled ``complexes.json``, ``defects.json`` and ``energies.json``. Each
mutated file must exit 0, 1 or 3, and a non-zero exit prints exactly one
stderr line starting ``defectspin: ``. A numpy ``RuntimeWarning`` counts as
an escape: a user would see it printed before the error line.
"""

from __future__ import annotations

import copy
import json
import warnings
from pathlib import Path

from defectspin.cli import main
from defectspin.system import build_system, dataset_path, find_defect, load_defect_dataset

# JSON values of every type, a numeric string, empty and short containers,
# signs, zero, a bool and a finite number whose square overflows.
VALUES = (None, "x", "1.5", [], [1], {}, 1.5, -1, 0, True, 1e308)


def _nodes(doc, path=()):
    """The path of every node of ``doc``, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(value, (*path, key))


def _mutated(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _escapes(capsys, doc, paths, file, argv) -> list[str]:
    """The mutations of ``doc`` at ``paths`` that ``main`` lets escape."""
    escapes = []
    for path in paths:
        for value in VALUES:
            file.write_text(json.dumps(_mutated(doc, path, value)))
            case = f"{list(path)} = {value!r}"
            # A shown warning is a stderr line of its own before the error.
            with warnings.catch_warnings(record=True) as shown:
                warnings.simplefilter("always")
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    code = main(argv)
                except BaseException as exc:        # any escape is a finding
                    escapes.append(f"{case}: {type(exc).__name__}: {exc}")
                    capsys.readouterr()
                    continue
            err = capsys.readouterr().err
            if code not in (0, 1, 3):
                escapes.append(f"{case}: exit {code}")
            elif code and (shown or len(err.splitlines()) != 1
                           or not err.startswith("defectspin: ")):
                escapes.append(f"{case}: stderr {[str(w.message) for w in shown]} {err!r}")
    return escapes


def test_every_system_file_mutation_ends_in_one_line(capsys, tmp_path):
    doc = build_system(find_defect(load_defect_dataset(), "CN0")).to_dict()
    paths = [p for p in _nodes(doc) if len(p) < 2 or p[:2] == ("sites", 0)]
    file = tmp_path / "system.json"
    escapes = _escapes(capsys, doc, paths, file, ["odmr", "--system", str(file)])
    assert escapes == []


def test_every_complexes_mutation_ends_in_one_line(capsys, tmp_path):
    doc = json.loads(Path(dataset_path("complexes")).read_text())
    file = tmp_path / "complexes.json"
    argv = ["binding", "--complexes", str(file)]
    assert _escapes(capsys, doc, list(_nodes(doc)), file, argv) == []


def test_every_defects_mutation_ends_in_one_line(capsys, tmp_path):
    doc = json.loads(Path(dataset_path("defects")).read_text())
    argv = ["odmr", "--defect", "CN0", "--data", str(tmp_path)]
    escapes = _escapes(capsys, doc, list(_nodes(doc)), tmp_path / "defects.json", argv)
    assert escapes == []



def test_every_energies_mutation_ends_in_one_line(capsys, tmp_path):
    doc = json.loads(Path(dataset_path("energies")).read_text())
    file = tmp_path / "energies.json"
    assert _escapes(capsys, doc, list(_nodes(doc)), file, ["ctl", str(file)]) == []
