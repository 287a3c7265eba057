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

import pytest

from defectspin.cli import main
from defectspin.system import build_system, dataset_path, find_defect, load_defect_dataset

# JSON values of every type, a numeric string, empty and short containers,
# signs, zero, a bool and a finite number whose square overflows.
VALUES = (None, "x", "1.5", [], [1], {}, 1.5, -1, 0, True, 1e308)
CN0 = build_system(find_defect(load_defect_dataset(), "CN0"))


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


def _outcome(capsys, argv) -> tuple[int | None, str, str | None]:
    """The exit code and stderr of ``main(argv)``, and how it escapes (or None)."""
    # A shown warning is a stderr line of its own before the error.
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except BaseException as exc:        # any escape is a finding
            capsys.readouterr()
            return None, "", f"{type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if code not in (0, 1, 3):
        return code, err, f"exit {code}"
    if code and (shown or len(err.splitlines()) != 1 or not err.startswith("defectspin: ")):
        return code, err, f"stderr {[str(w.message) for w in shown]} {err!r}"
    return code, err, None


def _escapes(capsys, doc, paths, file, argv) -> list[str]:
    """The mutations of ``doc`` at ``paths`` that ``main`` lets escape."""
    escapes = []
    for path in paths:
        for value in VALUES:
            file.write_text(json.dumps(_mutated(doc, path, value)))
            _, _, escape = _outcome(capsys, argv)
            if escape is not None:
                escapes.append(f"{list(path)} = {value!r}: {escape}")
    return escapes


def test_every_system_file_mutation_ends_in_one_line(capsys, tmp_path):
    doc = CN0.to_dict()
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


_HUGE_PV = ("sites", 1, "principal_values", 2)
_MOMENTS = "hyperfine tensor too large: the line moments overflow"


# Finite values that pass every file check but overflow a solve: the closed-form
# moments of the whole CN0 system, and the exact solve of its first shell
# (its Hamiltonian, or the moments of its lines).
@pytest.mark.parametrize("first_shell, changes, flags, message", [
    *((False, [(_HUGE_PV, v)], flags, _MOMENTS)
      for v in (1e100, 1e120, 1e150)
      for flags in ([], ["--isotopes", "natural"], ["--window=-inf,inf"])),
    (True, [(("sites", 0, "principal_values", 2), 1e200)], ["--method", "exact"],
     "line frequencies too large: their moments overflow"),
    (True, [(("sites", 0, "efg", 0, 1), 1e308), (("sites", 0, "efg", 1, 0), 1e308)],
     ["--method", "exact", "--nqi"], "line frequencies too large: their moments overflow"),
    (True, [(("g_tensor", 2, 2), 1e308)], ["--method", "exact"],
     "electron Zeeman frequency overflows: g tensor or field too large"),
], ids=[*(f"{v}-{kind}" for v in ("1e100", "1e120", "1e150")
          for kind in ("closed-form", "natural", "open-window")),
        "exact-1e200", "exact-nqi-efg-1e308", "exact-g-1e308"])
def test_an_overflowing_solve_exits_one_with_one_line(
    capsys, tmp_path, first_shell, changes, flags, message,
):
    doc = (CN0.subsystem([1, 2, 3]) if first_shell else CN0).to_dict()
    for path, value in changes:
        doc = _mutated(doc, path, value)
    file = tmp_path / "system.json"
    file.write_text(json.dumps(doc))
    code, err, escape = _outcome(capsys, ["odmr", "--system", str(file), *flags])
    assert (code, escape) == (1, None)
    assert err == f"defectspin: error: {message}\n"
