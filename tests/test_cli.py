from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import defectspin
from defectspin import cli
from defectspin.cli import UsageError, main
from defectspin.hamiltonian import DimensionError
from defectspin.isotopes import lookup
from defectspin.isotopologues import apply_pattern, enumerate_patterns
from defectspin.solvers import ZeroFieldError
from defectspin.spectrum import perturb_stats
from defectspin.system import (
    DatasetError,
    NuclearSite,
    SpinSystem,
    build_system,
    dataset_path,
    find_defect,
    load_defect_dataset,
)


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _csv_row(out):
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    header = rows[0].split(",")
    values = rows[1].split(",")
    return dict(zip(header, values))


def test_odmr_table_output(capsys):
    code, out, err = _run(capsys, ["odmr", "--defect", "CB0", "--method", "perturb2"])
    assert code == 0
    assert "FWHM 43 MHz, center 119 MHz" in out
    assert "seed 0" in out


def test_odmr_csv_values(capsys):
    code, out, _ = _run(capsys, ["odmr", "--defect", "CN0", "--format", "csv"])
    assert code == 0
    row = _csv_row(out)
    assert float(row["center_MHz"]) == pytest.approx(132.26, abs=0.05)
    assert float(row["fwhm_MHz"]) == pytest.approx(74.26, abs=0.05)


def test_odmr_csv_metadata_header(capsys):
    code, out, _ = _run(capsys, ["odmr", "--defect", "CB0", "--format", "csv"])
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("# ")
    meta = json.loads(header[2:])
    assert meta["seed"] == 0
    assert meta["defect"] == "CB0"
    assert meta["dataset_version"] == "1.0.0"


def test_odmr_shift_moves_center(capsys):
    _, base, _ = _run(capsys, ["odmr", "--defect", "CB0", "--format", "csv"])
    _, moved, _ = _run(
        capsys,
        ["odmr", "--defect", "CB0", "--format", "csv", "--shift", "-117.5684664",
         "--window=-inf,inf"],
    )
    delta = float(_csv_row(base)["center_MHz"]) - float(_csv_row(moved)["center_MHz"])
    assert delta == pytest.approx(117.5684664, abs=1e-6)


def test_odmr_explicit_pattern(capsys):
    code, out, _ = _run(
        capsys,
        ["odmr", "--defect", "CB0", "--isotopes", "explicit",
         "--pattern", "11B:4,10B:2", "--format", "csv"],
    )
    assert code == 0
    assert float(_csv_row(out)["fwhm_MHz"]) == pytest.approx(38.8, abs=1.0)


def test_odmr_natural_composition(capsys):
    code, out, _ = _run(
        capsys, ["odmr", "--defect", "CN0", "--isotopes", "natural", "--format", "csv"]
    )
    assert code == 0
    fwhm = float(_csv_row(out)["fwhm_MHz"])
    assert 66.0 < fwhm < 74.0


def test_odmr_natural_requires_perturbative_method(capsys):
    code, _, err = _run(
        capsys, ["odmr", "--defect", "CN0", "--isotopes", "natural",
                 "--method", "hybrid"]
    )
    assert code == 1
    assert "perturbative" in err


def test_natural_composite_past_the_enumeration_limit_exits_one(capsys, tmp_path):
    # Ten boron sites with distinct tensors: even the all-11B pattern has
    # 4**10 classes, and a composite enumerates every pattern it solves.
    sites = tuple(
        (NuclearSite("B", 1.0, 0.0, (1.0 + k, 2.0 + k, 3.0 + 2 * k), np.eye(3),
                     group_id="B-big"), lookup("10B"))
        for k in range(10)
    )
    path = tmp_path / "big.json"
    path.write_text(json.dumps(SpinSystem("big", sites).to_dict()))
    argv = ["odmr", "--system", str(path), "--isotopes", "natural"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == (
        "defectspin: error: 1048576 configuration classes exceed the enumeration "
        "limit 1000000\n"
    )


def test_natural_composite_past_the_enumeration_limit_has_closed_form_statistics(
    capsys, tmp_path
):
    # The system above, with a window that cuts no line: the statistics come
    # from the shift tables, and no class is enumerated.
    sites = tuple(
        (NuclearSite("B", 1.0, 0.0, (1.0 + k, 2.0 + k, 3.0 + 2 * k), np.eye(3),
                     group_id="B-big"), lookup("10B"))
        for k in range(10)
    )
    system = SpinSystem("big", sites)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(system.to_dict()))
    argv = ["odmr", "--system", str(path), "--isotopes", "natural", "--window=-1000,inf"]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    parts = [(apply_pattern(system, p), p.probability) for p in enumerate_patterns(system)]
    stats = perturb_stats(parts, [0.0, 0.0, 42.0], window=(-1000.0, math.inf))
    assert out.splitlines()[2:] == [
        f"center_MHz {stats.center:.9g}", f"sigma_MHz {stats.sigma:.9g}",
        f"fwhm_MHz {stats.fwhm_gauss:.9g}", "included_weight_fraction 1",
    ]


def test_odmr_file_exports(capsys, tmp_path):
    lines_path = tmp_path / "lines.tsv"
    spec_path = tmp_path / "spec.tsv"
    code, _, _ = _run(
        capsys,
        ["odmr", "--defect", "CN0", "--out-lines", str(lines_path),
         "--out-spectrum", str(spec_path)],
    )
    assert code == 0
    header = lines_path.read_text().splitlines()
    assert any(ln.startswith("# seed = 0") for ln in header)
    data = np.loadtxt(lines_path)
    assert data.shape[1] == 3
    grid = np.loadtxt(spec_path)
    assert grid.shape[1] == 2
    assert grid[:, 1].max() == pytest.approx(1.0)


def test_odmr_export_headers_echo_every_setting(capsys, tmp_path):
    data_dir = str(Path(dataset_path("defects")).parent)
    lines_path, spec_path = tmp_path / "lines.tsv", tmp_path / "spec.tsv"
    code, _, err = _run(
        capsys,
        ["odmr", "--defect", "CN0", "--isotopes", "explicit",
         "--pattern", "11B:2,10B:1", "--shift", "1.5", "--width", "2",
         "--grid", "0,300,1", "--data", data_dir,
         "--out-lines", str(lines_path), "--out-spectrum", str(spec_path)],
    )
    assert code == 0, err
    # Solver and run keys first, then the rest sorted; the export paths
    # are not echoed.
    common = [
        "# field = [0.0, 0.0, 42.0]", "# method = perturb2", "# seed = 0",
        "# shift = 1.5", "# window = [30.0, inf]", "# carbon13 = False",
        "# command = odmr", "# configurations = 81648", f"# data_dir = {data_dir}",
        "# dataset_version = 1.0.0", "# defect = CN0", "# direction = [0.0, 0.0, 1.0]",
        "# element = B", "# exact_shell = 1", "# field_gauss = 42.0", "# fmt = table",
        "# grid = [0.0, 300.0, 1.0]", "# include_nqi = False",
        "# isotope_mode = explicit", "# line_width = 2.0", "# mode = full_tensor",
        "# order = 2", "# pattern = 11B:2,10B:1",
    ]
    tail = ["# sampled = False", "# samples = 100000", "# shift_mhz = 1.5",
            "# subset_terms = ['nzi']"]
    headers = [
        [ln for ln in path.read_text().splitlines() if ln.startswith("#")]
        for path in (lines_path, spec_path)
    ]
    assert headers[0] == [*common, *tail, "# frequency_MHz intensity weight"]
    assert headers[1] == [
        *common, "# per_line_width = 2.0", *tail, "# frequency_MHz intensity"
    ]


def test_odmr_exports_byte_identical(capsys, tmp_path):
    paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
    for p in paths:
        code, _, _ = _run(
            capsys, ["odmr", "--defect", "CB0", "--out-lines", str(p)]
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_unknown_defect_exits_one(capsys):
    code, out, err = _run(capsys, ["odmr", "--defect", "XX9"])
    assert code == 1
    assert "unknown defect" in err
    assert out == ""


def test_bad_subcommand_exits_one(capsys):
    code, _, err = _run(capsys, ["not-a-command"])
    assert code == 1
    assert "usage error" in err


def test_corrupt_dataset_exits_three(capsys, tmp_path):
    (tmp_path / "defects.json").write_text("{broken")
    code, _, err = _run(
        capsys, ["odmr", "--defect", "CB0", "--data", str(tmp_path)]
    )
    assert code == 3
    assert "dataset error" in err


@pytest.mark.parametrize(
    "key, value, defect, message",
    [
        ("zpl_eV", "1.7", "CN0", "'zpl_eV' must be a number or null"),
        ("zpl_eV", True, "CN0", "'zpl_eV' must be a number or null"),
        ("label", 5, "cn0", "'label' must be a string"),
        ("notes", ["x"], "CN0", "'notes' must be a string"),
        ("zpl_eV", float("nan"), "CN0", "'zpl_eV' must be a number or null"),
        ("zpl_eV", -math.inf, "CN0", "'zpl_eV' must be a number or null"),
        ("zpl_eV", 10**400, "CN0", "'zpl_eV' must be a number or null"),
    ],
    ids=["string-zpl", "bool-zpl", "numeric-label", "list-notes", "nan-zpl", "inf-zpl",
         "huge-int-zpl"],
)
def test_defect_field_of_the_wrong_type_exits_three(
    capsys, tmp_path, key, value, defect, message
):
    doc = json.loads(Path(dataset_path("defects")).read_text())
    index = next(i for i, r in enumerate(doc["defects"]) if r["label"] == "CB0")
    doc["defects"][index][key] = value
    path = tmp_path / "defects.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["odmr", "--defect", defect, "--data", str(tmp_path)])
    assert (code, out) == (3, "")
    assert err == f"defectspin: dataset error: {path}: defect #{index}: {message}\n"


# (shell index or None for the defect itself, key or None for the whole
# entry, value, message after "defect #i"); shell 1 of CB0 carries an EFG.
@pytest.mark.parametrize(
    "shell, key, value, message",
    [
        (None, None, 5, ": expected a defect object"),
        (None, None, ["CB0"], ": expected a defect object"),
        (None, "sites", 5, ": 'sites' must be a list of objects"),
        (None, "sites", [5], ": 'sites' must be a list of objects"),
        (1, "element", 7, " (CB0): 'element' must be a string"),
        (1, "Axx", None, " (CB0): 'Axx' must be a number"),
        (1, "Axx", "x", " (CB0): 'Axx' must be a number"),
        (1, "Azz", True, " (CB0): 'Azz' must be a number"),
        (1, "efg", 5, " (CB0): 'efg' must be 6 numbers or null"),
        (1, "efg", [1, 2, 3], " (CB0): 'efg' must be 6 numbers or null"),
        (1, "efg", [-15.0, -15.0, 30.0, 0.0, 0.0, "0"],
         " (CB0): 'efg' must be 6 numbers or null"),
        (1, "shell", 1.5, " (CB0): 'shell' must be an integer"),
        (1, "shell", True, " (CB0): 'shell' must be an integer"),
        (1, "count", True, " (CB0): 'count' must be a positive integer"),
        (1, "count", 0, " (CB0): 'count' must be a positive integer"),
        (1, "core_contribution", "x", " (CB0): 'core_contribution' must be a number or null"),
        # Numbers that do not convert to a finite float: json.dumps writes NaN
        # and Infinity, and an int as all its digits; "1e400" is spliced in.
        (1, "Axx", 10**400, " (CB0): 'Axx' must be a number"),
        (1, "Ayy", float("nan"), " (CB0): 'Ayy' must be a number"),
        (1, "Azz", math.inf, " (CB0): 'Azz' must be a number"),
        (1, "Axx", "1e400", " (CB0): 'Axx' must be a number"),
        (1, "core_contribution", float("nan"),
         " (CB0): 'core_contribution' must be a number or null"),
        (1, "efg", [-15.0, -15.0, 30.0, 0.0, 0.0, 10**400],
         " (CB0): 'efg' must be 6 numbers or null"),
        (1, "efg", [-15.0, -15.0, 30.0, 0.0, 0.0, -math.inf],
         " (CB0): 'efg' must be 6 numbers or null"),
    ],
    ids=["int-defect", "list-defect", "int-sites", "int-shell", "int-element",
         "null-Axx", "string-Axx", "bool-Azz", "int-efg", "short-efg", "string-efg",
         "float-shell", "bool-shell", "bool-count", "zero-count", "string-core",
         "huge-int-Axx", "nan-Ayy", "inf-Azz", "1e400-Axx", "nan-core", "huge-int-efg",
         "inf-efg"],
)
def test_malformed_defect_entry_exits_three(capsys, tmp_path, shell, key, value, message):
    doc = json.loads(Path(dataset_path("defects")).read_text())
    index = next(i for i, r in enumerate(doc["defects"]) if r["label"] == "CB0")
    if key is None:
        doc["defects"][index] = value
    elif shell is None:
        doc["defects"][index][key] = value
    else:
        doc["defects"][index]["sites"][shell][key] = value
    path = tmp_path / "defects.json"
    text = json.dumps(doc)
    path.write_text(text.replace('"1e400"', "1e400") if value == "1e400" else text)
    code, out, err = _run(capsys, ["odmr", "--defect", "CN0", "--data", str(tmp_path)])
    assert (code, out) == (3, "")
    assert err == f"defectspin: dataset error: {path}: defect #{index}{message}\n"


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_bare_list_dataset_is_unversioned(capsys, tmp_path, fmt):
    doc = json.loads(Path(dataset_path("defects")).read_text())
    (tmp_path / "defects.json").write_text(json.dumps(doc["defects"]))
    argv = ["odmr", "--defect", "CN0", "--data", str(tmp_path), "--format", fmt]
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    if fmt == "csv":
        assert json.loads(out.splitlines()[0][2:])["dataset_version"] == "unversioned"


@pytest.mark.parametrize("source", ["defect", "system"])
@pytest.mark.parametrize("output", ["csv", "lines", "spectrum"])
def test_exported_and_csv_odmr_read_the_dataset_once(capsys, tmp_path, monkeypatch, source,
                                                     output):
    # The export header's version comes from the read that gave the records;
    # a --system run reads the dataset for its version only.
    system = build_system(find_defect(load_defect_dataset(), "CN0"))
    (tmp_path / "cn0.json").write_text(json.dumps(system.to_dict()))
    argv = ["odmr", "--method", "perturb1", "--grid", "0,300,1"] + (
        ["--defect", "CN0"] if source == "defect" else ["--system", str(tmp_path / "cn0.json")])
    argv += {"csv": ["--format", "csv"], "lines": ["--out-lines", str(tmp_path / "l.txt")],
             "spectrum": ["--out-spectrum", str(tmp_path / "s.txt")]}[output]
    code, expected, err = _run(capsys, argv)
    assert code == 0, err
    reads = []
    read_text = defectspin.system.read_text

    def counted(path, what):
        reads.append(path)
        return read_text(path, what)

    monkeypatch.setattr(defectspin.system, "read_text", counted)
    exported = [p.read_bytes() for p in sorted(tmp_path.glob("?.txt"))]
    assert _run(capsys, argv) == (0, expected, err)
    assert [p.read_bytes() for p in sorted(tmp_path.glob("?.txt"))] == exported
    assert reads.count(dataset_path("defects")) == 1
    header = expected if output == "csv" else exported[0].decode()
    assert "dataset_version" in header and "1.0.0" in header


def test_unparsable_dataset_beside_a_system_file_exits_three(capsys, tmp_path):
    system = build_system(find_defect(load_defect_dataset(), "CN0"))
    path = tmp_path / "cn0.json"
    path.write_text(json.dumps(system.to_dict()))
    argv = ["odmr", "--system", str(path), "--data", str(tmp_path), "--format", "csv"]
    code, out, _ = _run(capsys, argv)                   # no defects.json: unversioned
    assert code == 0
    assert json.loads(out.splitlines()[0][2:])["dataset_version"] == "unversioned"
    (tmp_path / "defects.json").write_text("{\n,}")
    code, out, err = _run(capsys, argv)
    assert (code, out) == (3, "")
    assert err == (
        f"defectspin: dataset error: {tmp_path / 'defects.json'}: parse error at "
        "line 2: Expecting property name enclosed in double quotes\n"
    )


def test_missing_dataset_dir_exits_three(capsys, tmp_path):
    code, _, err = _run(
        capsys, ["odmr", "--defect", "CB0", "--data", str(tmp_path / "nope")]
    )
    assert code == 3


def test_exact_method_respects_dimension_cap(capsys):
    code, _, err = _run(capsys, ["odmr", "--defect", "CB0", "--method", "exact"])
    assert code == 1
    assert "exceeds cap" in err


def test_hybrid_exact_shell_respects_dimension_cap(capsys):
    argv = ["odmr", "--defect", "CN0", "--method", "hybrid", "--exact-shell", "2"]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == (
        "defectspin: 9 exact sites give dimension 93312, above the cap 4096; "
        "select fewer exact sites\n"
    )


@pytest.mark.parametrize("method", ["perturb2", "hybrid"])
def test_system_file_with_nan_principal_value_exits_three(capsys, tmp_path, method):
    # json reads the NaN literal; the file's reader refuses it, before a
    # solver can turn it into a misleading message.
    data = build_system(find_defect(load_defect_dataset(), "CN0")).to_dict()
    data["sites"][1]["principal_values"][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    code, out, err = _run(capsys, ["odmr", "--system", str(path), "--method", method])
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "site #1: 'principal_values'" in err


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("sites", 1, "frame", 0, 0), 2.0, "site #1: frame is not orthonormal"),
        (("sites", 1, "isotope"), "14N", "site #1: 'isotope' 14N is not an isotope of B"),
        (("sites", 1, "element"), 5, "site #1: 'element' must be a string"),
        (("g_tensor", 0, 1), 0.5, "g_tensor must be a symmetric 3x3 matrix"),
        (("label",), None, "'label' must be a string"),
    ],
    ids=["skewed-frame", "foreign-isotope", "int-element", "asymmetric-g", "null-label"],
)
def test_bad_system_content_exits_three_naming_the_site(capsys, tmp_path, path, value, message):
    data = build_system(find_defect(load_defect_dataset(), "CN0")).to_dict()
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    file = tmp_path / "cn0.json"
    file.write_text(json.dumps(data))
    code, out, err = _run(capsys, ["odmr", "--system", str(file)])
    assert (code, out) == (3, "")
    assert err == f"defectspin: dataset error: {file}: {message}\n"


def test_rescale_overflow_prints_only_the_error_line(tmp_path):
    # 1e308 MHz is finite on 10B and inf on 11B. pytest records warnings
    # instead of printing them, so a fresh interpreter shows what a user sees.
    site = NuclearSite("B", 1.0, 0.0, (1.0, 2.0, 1e308), np.eye(3), group_id="g")
    path = tmp_path / "big.json"
    path.write_text(json.dumps(SpinSystem("big", ((site, lookup("10B")),)).to_dict()))
    env = dict(os.environ, PYTHONPATH=str(Path(defectspin.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "defectspin.cli", "odmr", "--system", str(path),
         "--isotopes", "natural"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "defectspin: error: principal values must be finite\n"


# Every perturbative path of odmr, at a field where the 13C site's coupling
# is not small against nu_e: the closed form, the line list a cutting window
# falls back to, the natural composite, the hybrid remainder, the hybrid whose
# exact subsystem is past the dimension cap, and an export.
@pytest.mark.parametrize("defect", ["CB0", "CN0"])
@pytest.mark.parametrize(
    "extra, code",
    [
        (["--window=-inf,inf"], 0),
        ([], 0),
        (["--isotopes", "natural"], 0),
        (["--method", "hybrid"], 0),
        (["--method", "hybrid", "--exact-shell", "2"], 1),
        (["--out-lines", "{tmp}/lines.txt"], 0),
    ],
    ids=["closed-form", "window-cut", "natural", "hybrid", "hybrid-cap", "out-lines"],
)
def test_strong_coupling_warns_once_on_every_perturbative_path(tmp_path, defect, extra, code):
    # A fresh interpreter with the default filters prints what a user sees.
    argv = ["odmr", "--defect", defect, "--carbon13", "--B", "42"]
    argv += [a.replace("{tmp}", str(tmp_path)) for a in extra]
    env = dict(os.environ, PYTHONPATH=str(Path(defectspin.__file__).parents[1]),
               PYTHONWARNINGS="default")
    done = subprocess.run([sys.executable, "-m", "defectspin.cli", *argv],
                          capture_output=True, text=True, env=env, check=False)
    assert done.returncode == code, done.stderr
    lines = done.stderr.splitlines()
    warned = [k for k, line in enumerate(lines) if "is not small against nu_e" in line]
    errors = [k for k, line in enumerate(lines) if line.startswith("defectspin: ")]
    assert len(warned) == 1, done.stderr
    assert len(errors) == (1 if code else 0), done.stderr
    assert all(warned[0] < k for k in errors)
    # It points at the CLI line that called the library, not inside it.
    assert re.search(r"[/\\]cli\.py:\d+: UserWarning: ", lines[warned[0]]), done.stderr


def test_warnings_print_once_across_main_calls_in_one_process():
    # ctl warns twice ("missing charge"); the odmr between them takes the
    # line-list fallback, since its window cuts a line. No call may reset the
    # warning registries, so the second ctl prints nothing new.
    script = (
        "from defectspin.cli import main\n"
        "for argv in (['ctl'], ['odmr', '--defect', 'CN0', '--window', '100,inf'], ['ctl']):\n"
        "    assert main(argv) == 0\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(defectspin.__file__).parents[1]),
               PYTHONWARNINGS="default")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=False)
    assert done.returncode == 0, done.stderr
    shown = [ln for ln in done.stderr.splitlines() if "UserWarning" in ln]
    assert len(shown) == 2 and all("missing charge" in ln for ln in shown)
    assert len(set(shown)) == 2


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read system file: "),
        ('{"label": ', "{path}: parse error at line 1: Expecting value"),
    ],
    ids=["missing", "unparsable"],
)
def test_unreadable_system_file_exits_three(capsys, tmp_path, content, message):
    path = tmp_path / "system.json"
    if content is not None:
        path.write_text(content)
    code, out, err = _run(capsys, ["odmr", "--system", str(path)])
    assert code == 3
    assert out == ""
    assert err.startswith("defectspin: dataset error: " + message.format(path=path))
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["odmr", "--grid", "0,300,0", "--out-spectrum", "{tmp}/spec.tsv"],
        ["odmr", "--grid", "0,300,-1", "--out-spectrum", "{tmp}/spec.tsv"],
        ["odmr", "--B", "nan"],
        ["odmr", "--direction", "nan,0,1"],
        ["odmr", "--direction", "0,0,0"],
        ["compare-methods", "--samples", "0", "--format", "csv"],
        ["odmr", "--pattern", "12B:3", "--isotopes", "explicit"],
        ["isotopes", "--pattern", "12B:3"],
        ["odmr", "--pattern", "11B:-1,10B:4", "--isotopes", "explicit"],
        ["odmr", "--pattern", "11B:1,11B:2", "--isotopes", "explicit"],
        ["compare-methods", "--window", "50,40"],
        ["odmr", "--window", "nan,inf"],
        ["odmr", "--pattern", "11B:3"],
    ],
    ids=[
        "zero-step", "negative-step", "nan-field", "nan-direction", "zero-direction",
        "zero-samples", "unregistered-isotope", "isotopes-unregistered-isotope",
        "negative-count", "repeated-isotope", "inverted-window", "nan-window",
        "pattern-without-explicit",
    ],
)
def test_bad_input_exits_one_before_output(capsys, tmp_path, argv):
    command, *flags = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, err = _run(capsys, [command, "--defect", "CN0", *flags])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert f"argument {flags[0]}" in err
    assert list(tmp_path.iterdir()) == []


def test_exact_method_accepts_nearly_symmetric_efg(capsys, tmp_path):
    # NuclearSite accepts an EFG asymmetric to 1e-6 of its largest entry;
    # the exact Hamiltonian built from it must still count as Hermitian.
    system = build_system(find_defect(load_defect_dataset(), "CN0"))
    data = system.subsystem([1, 2, 3]).to_dict()         # the first shell
    efg = data["sites"][0]["efg"]
    efg[0][1], efg[1][0] = 5.0, 5.0 + 2e-5
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    code, out, err = _run(
        capsys, ["odmr", "--system", str(path), "--method", "exact", "--nqi"]
    )
    assert code == 0, err
    assert "center_MHz" in out


def test_bad_window_exits_one(capsys):
    code, _, err = _run(capsys, ["odmr", "--defect", "CB0", "--window", "10"])
    assert code == 1
    assert "window" in err


def test_env_var_selects_dataset(capsys, tmp_path, monkeypatch):
    code, _, _ = _run(capsys, ["export-dataset", "--dest", str(tmp_path)])
    assert code == 0
    monkeypatch.setenv("DEFECTSPIN_DATA", str(tmp_path))
    code, out, _ = _run(capsys, ["odmr", "--defect", "CB0"])
    assert code == 0
    assert "FWHM 43 MHz" in out


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"defect": "CB0", "method": "perturb2"}))
    code, out, _ = _run(capsys, ["odmr", "--config", str(cfg)])
    assert code == 0
    assert "defect CB0" in out


def test_explicit_flag_beats_config(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"defect": "CB0", "B": 50}))
    code, out, _ = _run(capsys, ["odmr", "--config", str(cfg), "--defect", "CN0"])
    assert code == 0
    assert "defect CN0  method perturb2  B 50 G" in out
    # An explicit flag wins even when it repeats the flag's default.
    code, out, _ = _run(capsys, ["odmr", "--config", str(cfg), "--B", "42"])
    assert code == 0
    assert "defect CB0  method perturb2  B 42 G" in out


@pytest.mark.parametrize(
    "document, key",
    [
        ({"defect": "CN0", "B": "50"}, "'B'"),
        ({"defect": "CN0", "method": "bogus"}, "'method'"),
        ({"defect": "CN0", "nqi": "yes"}, "'nqi'"),
        ({"defect": "CN0", "direction": "0,0,0"}, "'direction'"),
        ({"defect": "CN0", "seed": 1.5}, "'seed'"),
        ({"defect": "CN0", "samples": 0}, "'samples'"),
        ({"defect": "CN0", "window": "50,40"}, "'window'"),
    ],
    ids=[
        "string-number", "bad-choice", "string-switch", "zero-direction", "float-int",
        "zero-samples", "inverted-window",
    ],
)
def test_config_rejects_bad_value(capsys, tmp_path, document, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(document))
    code, out, err = _run(capsys, ["odmr", "--config", str(cfg)])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert f"config key {key}" in err


@pytest.mark.parametrize(
    "document, echoed",
    [
        ({"exact-shell": 2}, {"exact_shell": 2}),
        ({"exact_shell": 2}, {"exact_shell": 2}),
        ({"B": 50}, {"field_gauss": 50.0}),
    ],
    ids=["dashed-name", "underscored-name", "B"],
)
def test_config_keys_are_flag_names(capsys, tmp_path, document, echoed):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"defect": "CN0", **document}))
    code, out, err = _run(capsys, ["odmr", "--config", str(cfg), "--format", "csv"])
    assert code == 0, err
    meta = json.loads(out.splitlines()[0][2:])
    assert {key: meta[key] for key in echoed} == echoed


def test_config_names_a_positional_argument(capsys, tmp_path):
    records = tmp_path / "records.dat"
    records.write_text("D 0 -10.0\nD 1 -14.11 0.30\n")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"records": str(records)}))
    code, out, err = _run(capsys, ["ctl", "--config", str(cfg), "--format", "csv"])
    assert code == 0, err
    assert out.splitlines()[1:] == ["D,(+1|0),3.81,4.11,-"]


def test_config_defaults_do_not_outlive_their_call(capsys, tmp_path):
    # main shares one parser across calls; a --config call must leave it as built.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"B": 120, "method": "perturb1"}))
    plain = ["odmr", "--defect", "CN0"]
    before = _run(capsys, plain)
    code, out, err = _run(capsys, [*plain, "--config", str(cfg)])
    assert code == 0, err
    assert "method perturb1  B 120 G" in out
    assert _run(capsys, plain) == before


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"defect": "CB0", "voltage": 5}))
    code, _, err = _run(capsys, ["odmr", "--config", str(cfg)])
    assert code == 1
    assert "voltage" in err


def test_config_parse_error_names_the_reason(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"B": 50,,}')
    code, out, err = _run(capsys, ["odmr", "--config", str(cfg)])
    assert (code, out) == (1, "")
    assert err == (
        f"defectspin: usage error: {cfg}: parse error at line 1: "
        "Expecting property name enclosed in double quotes\n"
    )


def test_compare_methods_rows(capsys):
    code, out, _ = _run(
        capsys, ["compare-methods", "--defect", "CN0", "--format", "csv"]
    )
    assert code == 0
    rows = {ln.split(",")[0]: ln.split(",") for ln in out.splitlines()[1:]}
    assert set(rows) == {
        "ezi", "a-constants", "perturb2", "perturb1",
        "hybrid (1st: nzi)", "hybrid (1st: nzi+nqi)",
    }
    assert float(rows["ezi"][1]) == pytest.approx(0.0, abs=1e-9)
    assert float(rows["ezi"][2]) == pytest.approx(117.57, abs=0.01)
    assert float(rows["perturb2"][1]) == pytest.approx(74.26, abs=0.05)


def test_compare_methods_na_rows_match_header(capsys):
    # No line of CN0 at 42 G falls inside 500-600 MHz: every row is n/a.
    code, out, err = _run(
        capsys,
        ["compare-methods", "--defect", "CN0", "--window", "500,600", "--format", "csv"],
    )
    assert code == 0
    header, *rows = [ln.split(",") for ln in out.splitlines()]
    assert len(rows) == 6
    assert all(row[1:] == ["n/a", "n/a"] and len(row) == len(header) for row in rows)
    assert len(err.splitlines()) == 6
    assert "no line with positive mass" in err


def test_isotopes_table(capsys):
    code, out, _ = _run(capsys, ["isotopes", "--defect", "CN0", "--format", "csv"])
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()[1:]]
    assert len(rows) == 4
    probs = [float(r[2]) for r in rows]
    assert probs[0] == pytest.approx(51.39, abs=0.01)
    fwhm = [float(r[4]) for r in rows]
    assert fwhm == sorted(fwhm, reverse=True)


def test_isotopes_single_pattern_restriction(capsys):
    code, out, _ = _run(
        capsys,
        ["isotopes", "--defect", "CN0", "--pattern", "11B:3", "--format", "csv"],
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()[1:]]
    assert len(rows) == 1
    assert float(rows[0][2]) == pytest.approx(100.0)


def test_isotopes_pattern_columns_name_its_isotopes(capsys):
    # --element does not pick the columns of an explicit pattern.
    code, out, err = _run(
        capsys,
        ["isotopes", "--defect", "CN0", "--element", "N", "--pattern", "11B:1,10B:2",
         "--format", "csv"],
    )
    assert code == 0, err
    header, row = [ln.split(",") for ln in out.splitlines()]
    assert header[:3] == ["n_11B", "n_10B", "p_percent"]
    assert row[:3] == ["1", "2", "100"]


def test_isotopes_output_deterministic(capsys):
    _, first, _ = _run(capsys, ["isotopes", "--defect", "CB0", "--format", "csv"])
    _, second, _ = _run(capsys, ["isotopes", "--defect", "CB0", "--format", "csv"])
    assert first == second


def test_ctl_reports_all_levels(capsys):
    code, out, _ = _run(capsys, ["ctl", "--format", "csv"])
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()[1:]]
    assert len(rows) == 18
    table = {(r[0], r[1]): r for r in rows}
    assert float(table[("CB", "(+1|0)")][2]) == pytest.approx(3.81)
    assert table[("CB", "(0|-1)")][4] == "above-gap"
    assert table[("C2CB", "(0|-1)")][2] == "unclear"


def test_ctl_diagram_file(capsys, tmp_path):
    out_path = tmp_path / "diagram.tsv"
    code, _, _ = _run(capsys, ["ctl", "--diagram", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert "VBM\t" in text and "CBM\t" in text
    assert "CB\t(0|-1)\tcorrected\t6.390\tabove-gap" in text


def test_ctl_accepts_text_records(capsys, tmp_path):
    path = tmp_path / "records.dat"
    path.write_text("D 0 -10.0\nD 1 -14.11 0.30\nE 0 -10.0\nE 1 -14.11 0.30 tentative\n")
    diagram = tmp_path / "diagram.tsv"
    code, out, _ = _run(
        capsys, ["ctl", str(path), "--format", "csv", "--diagram", str(diagram)]
    )
    assert code == 0
    row, flagged = [ln.split(",") for ln in out.splitlines()[1:]]
    assert row[0] == "D"
    assert float(row[2]) == pytest.approx(3.81)
    assert row[4] == "-"
    # The table shows the record's flag, as the diagram does.
    assert flagged == ["E", "(+1|0)", "3.81", "4.11", "tentative"]
    assert "E\t(+1|0)\tcorrected\t3.810\ttentative" in diagram.read_text()


def test_ctl_text_row_without_correction_column(capsys, tmp_path):
    path = tmp_path / "records.dat"
    path.write_text("A 0 -10.0\nA 1 -14.0\n")
    with pytest.warns(UserWarning, match="A: missing charge -1"):
        code, out, _ = _run(capsys, ["ctl", str(path), "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1:] == ["A,(+1|0),4.00,4.00,-"]


# A missing correction is 0.0 and an unavailable one prints "unclear", in
# a JSON record as in a text row.
@pytest.mark.parametrize(
    "row, correction, expected",
    [
        ("A 1 -14.0", {}, "A,(+1|0),4.00,4.00,-"),
        ("A 1 -14.0 -", {"correction_eV": None}, "A,(+1|0),unclear,4.00,unclear"),
        ("A 1 -14.0 0.25", {"correction_eV": 0.25}, "A,(+1|0),3.75,4.00,-"),
    ],
    ids=["missing", "unavailable", "given"],
)
def test_ctl_json_record_and_text_row_print_the_same(
    capsys, tmp_path, row, correction, expected
):
    text, doc = tmp_path / "records.dat", tmp_path / "records.json"
    text.write_text(f"A 0 -10.0\n{row}\n")
    doc.write_text(json.dumps([
        {"label": "A", "charge": 0, "energy_eV": -10.0},
        {"label": "A", "charge": 1, "energy_eV": -14.0, **correction},
    ]))
    for path in (text, doc):
        with pytest.warns(UserWarning, match="A: missing charge -1"):
            code, out, err = _run(capsys, ["ctl", str(path), "--format", "csv"])
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [expected]


@pytest.mark.parametrize(
    "row, message",
    [
        ("A 1 nan", "A: energy must be finite"),
        ("A 1 -14.0 -0.3", "A: correction must be non-negative"),
        ("A 1 -14.0 abc", "could not convert string to float: 'abc'"),
        ("A 1 -14.0 nan", "A: correction must be finite"),
        ("A 1 -14.0 inf", "A: correction must be finite"),
        ("A 1 -14.0 -inf", "A: correction must be non-negative"),
    ],
)
def test_ctl_bad_text_value_exits_three(capsys, tmp_path, row, message):
    path = tmp_path / "records.dat"
    path.write_text(f"A 0 -10.0\n{row}\n")
    code, out, err = _run(capsys, ["ctl", str(path)])
    assert (code, out) == (3, "")
    assert err == f"defectspin: dataset error: {path}: line 2: {message}\n"


# A JSON integer past the float range fails float() with OverflowError.
@pytest.mark.parametrize(
    "fields, message",
    [
        ({"energy_eV": 10**400}, "int too large to convert to float"),
        ({"energy_eV": -14.0, "correction_eV": 10**400}, "int too large to convert to float"),
        ({"energy_eV": -14.0, "correction_eV": float("nan")}, "A: correction must be finite"),
        ({"energy_eV": -14.0, "correction_eV": math.inf}, "A: correction must be finite"),
    ],
    ids=["huge-int-energy", "huge-int-correction", "nan-correction", "inf-correction"],
)
def test_ctl_json_number_that_is_no_finite_float_exits_three(capsys, tmp_path, fields, message):
    path = tmp_path / "records.json"
    path.write_text(json.dumps([
        {"label": "A", "charge": 0, "energy_eV": -10.0},
        {"label": "A", "charge": 1, **fields},
    ]))
    code, out, err = _run(capsys, ["ctl", str(path)])
    assert (code, out) == (3, "")
    assert err == f"defectspin: dataset error: {path}: record #1: {message}\n"


@pytest.mark.parametrize(
    "command",
    [["odmr", "--isotopes", "natural"], ["isotopes"]],
    ids=["odmr-natural", "isotopes"],
)
def test_system_file_without_group_ids_matches_defect(capsys, tmp_path, command):
    # Without group ids every site shares the default group "", so only the
    # element tells the boron sites from the carbon and nitrogen ones.
    data = build_system(find_defect(load_defect_dataset(), "CN0")).to_dict()
    for site in data["sites"]:
        del site["group_id"]
    path = tmp_path / "cn0.json"
    path.write_text(json.dumps(data))
    code, out, err = _run(capsys, [*command, "--system", str(path)])
    assert (code, err) == (0, "")
    _, reference, _ = _run(capsys, [*command, "--defect", "CN0"])
    # The first line names the system; every number below it must agree.
    assert out.splitlines()[1:] == reference.splitlines()[1:]


@pytest.mark.parametrize("command", ["compare-methods", "isotopes"])
def test_title_names_the_system_file(capsys, tmp_path, command):
    data = build_system(find_defect(load_defect_dataset(), "CN0")).to_dict()
    path = tmp_path / "cn0.json"
    path.write_text(json.dumps(data))
    code, out, err = _run(capsys, [command, "--system", str(path)])
    assert code == 0, err
    assert out.splitlines()[0].startswith("defect cn0.json  B 42 G  ")


def test_ctl_flags_show_record_flag_and_above_gap(capsys, tmp_path):
    path = tmp_path / "records.dat"
    path.write_text("D 0 -10.0\nD -1 -3.0 - odd\n")
    diagram = tmp_path / "diagram.tsv"
    code, out, _ = _run(
        capsys, ["ctl", str(path), "--format", "csv", "--diagram", str(diagram)]
    )
    assert code == 0
    (row,) = [ln.split(",") for ln in out.splitlines()[1:]]
    # The uncorrected level, 7.00 eV, lies past the 5.95 eV CBM; without a
    # correction the corrected one is unclear and carries only the flag.
    assert row == ["D", "(0|-1)", "unclear", "7.00", "above-gap+odd"]
    text = diagram.read_text()
    assert "D\t(0|-1)\tuncorrected\t7.000\tabove-gap+odd" in text
    assert "D\t(0|-1)\tcorrected\tunclear\todd" in text


def test_binding_table(capsys):
    code, out, _ = _run(capsys, ["binding", "--format", "csv"])
    assert code == 0
    rows = {r.split(",")[0]: r.split(",") for r in out.splitlines()[1:]}
    assert len(rows) == 7
    assert float(rows["CBCN-1"][2]) == pytest.approx(-3.93)
    assert float(rows["C2CB"][2]) == pytest.approx(-5.31)
    assert rows["C2CN"][1] == "3"


def test_export_dataset_copies_bundled_files(capsys, tmp_path):
    code, out, _ = _run(capsys, ["export-dataset", "--dest", str(tmp_path)])
    assert code == 0
    for name in ("defects.json", "energies.json", "complexes.json"):
        assert (tmp_path / name).exists()
        assert str(tmp_path / name) in out


def test_export_dataset_single_file(capsys, tmp_path):
    code, _, _ = _run(
        capsys, ["export-dataset", "--what", "energies", "--dest", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "energies.json").exists()
    assert not (tmp_path / "defects.json").exists()


def _readme_sessions():
    """(argv, stdout lines) of each ``$ defectspin`` example in README.md."""
    sessions, current = [], None
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if line.startswith("```"):
            current = None
        elif line.startswith("$ defectspin "):
            current = (line.split()[2:], [])
            sessions.append(current)
        elif current is not None and line.strip():
            current[1].append(line.rstrip())
    return sessions


def test_readme_examples_match_cli(capsys):
    sessions = _readme_sessions()
    assert [argv[0] for argv, _ in sessions] == ["odmr", "compare-methods", "isotopes"]
    for argv, expected in sessions:
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert [ln.rstrip() for ln in out.splitlines()] == expected


def test_readme_commands_replay_alike_in_either_order(capsys, tmp_path):
    # One process, every call after the first served from the caches the
    # earlier calls filled: forward, then reversed, every result must agree.
    out = str(tmp_path / "out")
    cases = [argv for argv, _ in _readme_sessions()] + [
        ["odmr", "--defect", "CB0", "--format", "csv"],
        ["odmr", "--defect", "CB0", "--carbon13"],
        ["odmr", "--defect", "CN0", "--isotopes", "natural", "--B", "60"],
        ["odmr", "--defect", "CN0", "--isotopes", "explicit", "--pattern", "11B:2,10B:1"],
        ["odmr", "--defect", "CN0", "--window", "100,inf", "--method", "perturb1"],
        ["odmr", "--defect", "CB0", "--isotopes", "natural", "--out-lines", f"{out}/l.txt"],
        ["odmr", "--defect", "CB0", "--method", "hybrid"],
        ["odmr", "--defect", "CN0", "--B", "50", "--out-spectrum", f"{out}/s.txt",
         "--out-lines", f"{out}/l.txt"],
        ["isotopes", "--defect", "CB0", "--format", "csv"],
        ["isotopes", "--defect", "CN0", "--pattern", "11B:1,10B:2"],
        ["compare-methods", "--defect", "CN0", "--B", "175"],
        ["ctl", "--diagram", f"{out}/levels.txt"],
        ["binding"],
        ["odmr", "--defect", "CX9"],
    ]

    def replay(order):
        results = {}
        for k in order:
            shutil.rmtree(out, ignore_errors=True)
            os.makedirs(out)
            code = main(cases[k])
            files = {name: hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
                     for name in sorted(os.listdir(out))}
            results[k] = (code, capsys.readouterr().out, files)
        return results

    forward = replay(range(len(cases)))
    assert [forward[k][0] for k in range(len(cases))] == [0] * (len(cases) - 1) + [1]
    assert replay(reversed(range(len(cases)))) == forward


@pytest.mark.parametrize(
    "error, code, message",
    [
        (UsageError("u"), 1, "usage error: u"),
        (DatasetError("d"), 3, "dataset error: d"),
        (np.linalg.LinAlgError("eigh failed"), 2, "numerical failure: eigh failed"),
        (DimensionError("too big"), 1, "too big"),
        (ZeroFieldError("no field"), 1, "no field"),
        (OSError("disk"), 1, "error: disk"),
        (ValueError("bad"), 1, "error: bad"),
        (KeyError("unknown defect 'X'"), 1, "error: unknown defect 'X'"),
    ],
)
def test_exit_code_and_message_per_error_kind(capsys, monkeypatch, error, code, message):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_ctl", fail)
    assert _run(capsys, ["ctl"]) == (code, "", f"defectspin: {message}\n")


def test_unexpected_error_is_not_swallowed(monkeypatch):
    def fail(args):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "cmd_ctl", fail)
    with pytest.raises(RuntimeError, match="bug"):
        main(["ctl"])


def test_failed_allocation_exits_one_without_a_traceback(capsys, monkeypatch):
    message = ("Unable to allocate 24.5 GiB for an array with shape (4000, 823543) "
               "and data type float64")

    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "hybrid_solve", fail)
    code, out, err = _run(capsys, ["odmr", "--defect", "CB0", "--method", "hybrid"])
    assert (code, out, err) == (1, "", f"defectspin: error: {message}\n")


_ISOTOPE_MODES = {
    "fixed": {"CN0": [], "CB0": []},
    "explicit": {"CN0": ["--isotopes", "explicit", "--pattern", "11B:1,10B:2"],
                 "CB0": ["--isotopes", "explicit", "--pattern", "11B:4,10B:2"]},
    "natural": {"CN0": ["--isotopes", "natural"], "CB0": ["--isotopes", "natural"]},
}


@pytest.mark.parametrize(
    "flags",
    [[], ["--shift", "25", "--window", "50,inf"], ["--window", "0,450"],
     ["--method", "a-constants", "--window=-inf,inf"], ["--method", "perturb1"]],
    ids=["defaults", "shift", "upper-edge", "a-constants", "perturb1"],
)
@pytest.mark.parametrize("mode", list(_ISOTOPE_MODES))
@pytest.mark.parametrize(
    "field", [["--B", "42"], ["--B", "150", "--direction", "0.3,0.4,0.8"],
              ["--B", "300", "--direction", "1,0,0.05"]],
    ids=["42G-c", "150G-tilted", "300G-tilted"],
)
@pytest.mark.parametrize("defect", ["CN0", "CB0"])
def test_stats_only_odmr_prints_what_the_lines_path_prints(
    capsys, tmp_path, defect, field, mode, flags
):
    # --out-lines needs the lines, so it takes the line-list path; a
    # stats-only run takes the closed form unless the window cuts a line.
    argv = ["odmr", "--defect", defect, *field, *_ISOTOPE_MODES[mode][defect], *flags]
    stats_only = _run(capsys, argv)
    lines_path = _run(capsys, [*argv, "--out-lines", str(tmp_path / "lines.tsv")])
    assert stats_only == lines_path


@pytest.mark.parametrize("mode", list(_ISOTOPE_MODES))
@pytest.mark.parametrize("defect", ["CN0", "CB0"])
def test_stats_only_odmr_solves_no_lines_when_the_window_cuts_none(
    capsys, monkeypatch, defect, mode
):
    def fail(*args, **kwargs):
        raise AssertionError("the line-list path ran")

    monkeypatch.setattr(cli, "sample_configurations", fail)
    monkeypatch.setattr(cli, "composite_lines", fail)
    argv = ["odmr", "--defect", defect, "--B", "150", "--direction", "0.3,0.4,0.8",
            *_ISOTOPE_MODES[mode][defect], "--shift", "-20"]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert "included_weight_fraction 1\n" in out


def test_compare_methods_and_isotopes_take_the_closed_form(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the line-list path ran")

    runs = [["compare-methods", "--defect", "CB0", "--B", "150"],
            ["isotopes", "--defect", "CB0", "--B", "150", "--format", "csv"]]
    printed = [_run(capsys, argv) for argv in runs]
    # On the line-list path the perturbative rungs and the rows call it.
    monkeypatch.setattr(cli, "sample_configurations", fail)
    assert [_run(capsys, argv) for argv in runs] == printed
    assert "n/a" not in printed[0][1]
