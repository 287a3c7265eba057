from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from defectspin.system import (
    MATRIX,
    NUMBER,
    NUMBERS3,
    POSITIVE,
    STRING,
    DatasetError,
    NuclearSite,
    ShellEntry,
    SpinSystem,
    axial_frame,
    bond_frame,
    build_system,
    data_directory,
    dataset_path,
    dataset_version,
    expand_shell,
    find_defect,
    load_defect_dataset,
    read_fields,
    read_json,
    read_text,
)


def _unit_rows(matrix):
    return np.allclose(matrix.T @ matrix, np.eye(3), atol=1e-12)


def test_axial_frame_is_proper_rotation():
    for az in (0.0, 0.7, math.pi / 2, 2.1):
        f = axial_frame(az)
        assert _unit_rows(f)
        assert np.linalg.det(f) == pytest.approx(1.0)
        # principal z stays along the crystal c axis
        np.testing.assert_allclose(f[:, 2], [0.0, 0.0, 1.0], atol=1e-12)


def test_bond_frame_is_proper_rotation():
    for az in (0.0, 0.7, math.pi / 2, 2.1):
        f = bond_frame(az)
        assert _unit_rows(f)
        assert np.linalg.det(f) == pytest.approx(1.0)


def test_bond_frame_orients_unique_axis_along_bond():
    az = 0.37
    f = bond_frame(az)
    bond = np.array([math.cos(az), math.sin(az), 0.0])
    # principal z along the in-plane bond, principal y out of plane
    np.testing.assert_allclose(f[:, 2], bond, atol=1e-12)
    np.testing.assert_allclose(np.abs(f[:, 1]), [0.0, 0.0, 1.0], atol=1e-12)


def test_site_tensor_reconstruction():
    site = NuclearSite(
        element="N",
        shell_distance=1.0,
        bond_azimuth=0.5,
        principal_values=(-9.0, -5.1, -9.0),
        frame=bond_frame(0.5),
    )
    a = site.hyperfine_tensor()
    np.testing.assert_allclose(a, a.T, atol=1e-12)
    vals = np.sort(np.linalg.eigvalsh(a))
    np.testing.assert_allclose(vals, sorted((-9.0, -5.1, -9.0)), atol=1e-10)


def test_site_rejects_improper_frame():
    bad = np.eye(3)
    bad[0, 0] = -1.0
    with pytest.raises(ValueError):
        NuclearSite("N", 1.0, 0.0, (1.0, 2.0, 3.0), bad)


def test_site_rejects_frame_skewed_inside_relative_tolerance():
    # |F^T F - I| = 8e-6 with det 1: np.allclose's default rtol would pass
    # it, and then ||A||_2 = 30.00024 exceeds max |principal value| = 30.
    frame = np.diag([1.0 + 4e-6, 1.0 / (1.0 + 4e-6), 1.0])
    with pytest.raises(ValueError, match="orthonormal"):
        NuclearSite("N", 1.0, 0.0, (30.0, 20.0, 10.0), frame)


@pytest.mark.parametrize("label", ["CB0", "CN0"])
@pytest.mark.parametrize("carbon13", [False, True])
def test_bundled_systems_survive_round_trip(label, carbon13):
    record = find_defect(load_defect_dataset(), label)
    system = build_system(record, {"C": "13C"} if carbon13 else None)
    for site, _ in system.sites:
        assert np.abs(site.frame.T @ site.frame - np.eye(3)).max() < 1e-15
    clone = SpinSystem.from_dict(json.loads(json.dumps(system.to_dict())))
    assert clone.to_dict() == system.to_dict()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_site_rejects_non_finite_principal_value(bad):
    with pytest.raises(ValueError, match="principal values must be finite"):
        NuclearSite("N", 1.0, 0.0, (1.0, bad, 3.0), np.eye(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_site_rejects_non_finite_efg(bad):
    efg = np.diag([1.0, 2.0, -3.0])
    efg[0, 1] = efg[1, 0] = bad
    with pytest.raises(ValueError, match="efg components must be finite"):
        NuclearSite("N", 1.0, 0.0, (1.0, 2.0, 3.0), np.eye(3), efg=efg)


def test_site_rejects_nonsymmetric_efg():
    efg = np.zeros((3, 3))
    efg[0, 1] = 1.0
    with pytest.raises(ValueError):
        NuclearSite("N", 1.0, 0.0, (1.0, 2.0, 3.0), np.eye(3), efg=efg)


def test_site_stores_symmetric_part_of_efg():
    symmetric = np.array([[1.0, 5.0, 0.3], [5.0, 2.0, -0.7], [0.3, -0.7, -3.0]])
    site = NuclearSite("N", 1.0, 0.0, (1.0, 2.0, 3.0), np.eye(3), efg=symmetric)
    assert site.efg.tobytes() == symmetric.tobytes()
    nearly = symmetric.copy()
    nearly[1, 0] += 2e-6
    site = NuclearSite("N", 1.0, 0.0, (1.0, 2.0, 3.0), np.eye(3), efg=nearly)
    np.testing.assert_array_equal(site.efg, site.efg.T)


def test_site_refuses_a_huge_frame_entry_without_a_numpy_warning():
    frame = np.eye(3)
    frame[0, 0] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="frame is not orthonormal"):
            NuclearSite("N", 1.0, 0.0, (1.0, 2.0, 3.0), frame)


def test_site_keeps_an_efg_near_the_float_limit_finite():
    efg = np.zeros((3, 3))
    efg[0, 1] = efg[1, 0] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        site = NuclearSite("N", 1.0, 0.0, (1.0, 2.0, 3.0), np.eye(3), efg=efg)
    assert site.efg.tobytes() == efg.tobytes()


def test_site_rejects_traceful_efg():
    with pytest.raises(ValueError):
        NuclearSite("N", 1.0, 0.0, (1.0, 2.0, 3.0), np.eye(3), efg=np.eye(3))


def test_expand_shell_counts_and_azimuths():
    entry = ShellEntry("N", count=3, shell=1, principal_values=(1.0, 2.0, 3.0))
    sites = expand_shell(entry)
    assert len(sites) == 3
    azimuths = sorted(s.bond_azimuth for s in sites)
    spacing = np.diff(azimuths)
    np.testing.assert_allclose(spacing, 2.0 * math.pi / 3.0, atol=1e-12)


def test_expand_shell_uses_bond_frame_only_for_first_shell():
    first = expand_shell(ShellEntry("N", count=3, shell=1, principal_values=(1.0, 2.0, 3.0)))
    second = expand_shell(ShellEntry("B", count=6, shell=2, principal_values=(1.0, 2.0, 3.0)))
    for s in first:
        bond = np.array([math.cos(s.bond_azimuth), math.sin(s.bond_azimuth), 0.0])
        np.testing.assert_allclose(s.frame[:, 2], bond, atol=1e-12)
    for s in second:
        np.testing.assert_allclose(s.frame[:, 2], [0.0, 0.0, 1.0], atol=1e-12)


def test_dataset_loads_and_reports_version():
    records = load_defect_dataset()
    assert dataset_version() == "1.0.0"
    labels = [r.label for r in records]
    assert "CB0" in labels and "CN0" in labels


def test_dataset_version_of_unreadable_bare_and_broken_files(tmp_path):
    path = tmp_path / "defects.json"
    assert dataset_version(str(path)) == "unversioned"          # cannot be opened
    path.write_text("[]")
    assert dataset_version(str(path)) == "unversioned"
    path.write_text('{"version": 2,\n "defects": [}')
    with pytest.raises(DatasetError) as info:
        dataset_version(str(path))
    assert str(info.value) == f"{path}: parse error at line 2: Expecting value"


def _one_defect(path, axx):
    """Write a dataset of one defect with one first-neighbor shell."""
    site = {"element": "N", "count": 3, "shell": 1, "Axx": axx, "Ayy": 2.0, "Azz": 3.0,
            "efg": [-1.0, -1.0, 2.0, 0.0, 0.0, 0.0]}
    doc = {"version": "1", "defects": [{"label": "X0", "sites": [site]}]}
    path.write_text(json.dumps(doc))


def test_dataset_rewritten_to_the_same_size_is_parsed_again(tmp_path):
    path = tmp_path / "defects.json"
    _one_defect(path, 1.0)
    size = path.stat().st_size
    assert load_defect_dataset(str(path))[0].shells[0].principal_values[0] == 1.0
    _one_defect(path, 7.0)
    assert path.stat().st_size == size
    assert load_defect_dataset(str(path))[0].shells[0].principal_values[0] == 7.0


def test_loaded_records_cannot_change_the_next_load(tmp_path):
    path = tmp_path / "defects.json"
    _one_defect(path, 1.0)
    records = load_defect_dataset(str(path))
    records.clear()
    records = load_defect_dataset(str(path))
    assert [r.label for r in records] == ["X0"]
    assert not records[0].shells[0].efg.flags.writeable
    assert not records[0].sites[0].efg.flags.writeable


def test_broken_dataset_fails_on_every_load(tmp_path):
    path = tmp_path / "defects.json"
    path.write_text('{"defects": [{"sites": []}]}')
    for _ in range(2):
        with pytest.raises(DatasetError, match="missing mandatory field 'label'"):
            load_defect_dataset(str(path))


def test_data_directory_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("DEFECTSPIN_DATA", str(tmp_path))
    assert data_directory() == str(tmp_path)


def test_cb_record_shells():
    records = load_defect_dataset()
    cb = find_defect(records, "CB0")
    assert cb.zpl_energy == pytest.approx(1.695)
    counts = {(s.element, s.shell): s.count for s in cb.shells}
    assert counts == {("C", 0): 1, ("N", 1): 3, ("B", 2): 6}


def test_cn_core_contribution_subtracted():
    records = load_defect_dataset()
    cn = find_defect(records, "CN0")
    central = [s for s in cn.shells if s.shell == 0][0]
    bare = central.bare_principal_values()
    np.testing.assert_allclose(
        bare, np.array([-19.2, -19.2, 156.5]) - (-64.0), atol=1e-12
    )


def test_build_system_site_count_and_dimension():
    records = load_defect_dataset()
    cb = build_system(find_defect(records, "CB0"))
    assert len(cb.sites) == 10
    # 2 (electron) x 1 (12C) x 3^3 (14N) x 4^6 (11B)
    assert cb.dimension == 2 * 27 * 4096
    cn = build_system(find_defect(records, "CN0"))
    # central carbon defaults to spin-0 12C and contributes no factor
    assert cn.dimension == 2 * 64 * 729


def test_build_system_isotope_override():
    records = load_defect_dataset()
    cb13 = build_system(find_defect(records, "CB0"), {"C": "13C"})
    carbon = [iso for site, iso in cb13.sites if site.element == "C"]
    assert [iso.symbol for iso in carbon] == ["13C"]


def test_build_system_shares_one_system_per_record_and_overrides():
    record = find_defect(load_defect_dataset(), "CB0")
    plain = build_system(record)
    assert build_system(record) is plain
    assert build_system(record, {}) is plain
    carbon13 = build_system(record, {"C": "13C", "B": "11B"})
    assert carbon13 is not plain
    assert build_system(record, {"B": "11B", "C": "13C"}) is carbon13
    assert build_system(find_defect(load_defect_dataset(), "CB0"), {"C": "13C"}) is not plain


@pytest.mark.parametrize(
    "overrides, error",
    [({"C": "99C"}, KeyError), ({"C": "15N"}, ValueError), ({"C": ["13C"]}, TypeError)],
    ids=["unknown", "other-element", "unhashable"],
)
def test_bad_override_raises_on_every_call(overrides, error):
    record = find_defect(load_defect_dataset(), "CB0")
    for _ in range(2):
        with pytest.raises(error):
            build_system(record, overrides)


def test_rewritten_dataset_gives_new_records_and_a_new_system(tmp_path):
    path = tmp_path / "defects.json"
    _one_defect(path, 1.0)
    first = build_system(load_defect_dataset(str(path))[0])
    assert build_system(load_defect_dataset(str(path))[0]) is first
    _one_defect(path, 7.0)
    second = build_system(load_defect_dataset(str(path))[0])
    assert second is not first
    assert second.sites[0][0].principal_values[0] == 7.0


def test_dataset_version_follows_a_rewritten_file(tmp_path):
    path = tmp_path / "defects.json"
    for version in ("5.1", "5.2", "5.1"):
        path.write_text(json.dumps({"version": version, "defects": []}))
        assert dataset_version(str(path)) == version
    # Valid JSON with a broken record: the records fail, the version does not.
    path.write_text(json.dumps({"version": "5.3", "defects": [{"sites": []}]}))
    assert dataset_version(str(path)) == "5.3"
    with pytest.raises(DatasetError, match="missing mandatory field 'label'"):
        load_defect_dataset(str(path))


def test_dataset_is_parsed_once_for_its_records_and_version(tmp_path, monkeypatch):
    path = tmp_path / "defects.json"
    _one_defect(path, 3.0)
    parses = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: parses.append(text) or loads(text))
    for _ in range(2):
        assert [r.label for r in load_defect_dataset(str(path))] == ["X0"]
        assert dataset_version(str(path)) == "1"
    assert len(parses) == 1


def test_find_defect_case_insensitive():
    records = load_defect_dataset()
    assert find_defect(records, "cb0").label == "CB0"


def test_find_defect_unknown_label():
    records = load_defect_dataset()
    with pytest.raises(KeyError):
        find_defect(records, "XY9")


def test_subsystem_selects_sites():
    records = load_defect_dataset()
    cn = build_system(find_defect(records, "CN0"))
    boron = tuple(
        i for i, (site, _) in enumerate(cn.sites) if site.element == "B"
    )
    sub = cn.subsystem(boron)
    assert len(sub.sites) == 3
    assert sub.dimension == 2 * 64


@pytest.mark.parametrize("indices, index", [([-1], -1), ([1, 1], 1), ([99], 99), ((0, 10), 10)],
                         ids=["negative", "duplicate", "past-the-end", "one-past-the-end"])
def test_subsystem_rejects_bad_indices_by_name(indices, index):
    # [-1] used to take the last site, [1, 1] to build a 32-dimensional CN0
    # system with one nucleus twice, and [99] to raise a bare IndexError.
    cn = build_system(find_defect(load_defect_dataset(), "CN0"))
    with pytest.raises(ValueError, match=rf"site index {index} "):
        cn.subsystem(indices)


def test_subsystem_keeps_the_given_order():
    cn = build_system(find_defect(load_defect_dataset(), "CN0"))
    sub = cn.subsystem(iter([3, 0, 9]), label_suffix=":picked")
    assert [site for site, _ in sub.sites] == [cn.sites[k][0] for k in (3, 0, 9)]
    assert sub.label == "CN0:picked"


def test_system_round_trip_serialization():
    records = load_defect_dataset()
    cn = build_system(find_defect(records, "CN0"))
    clone = SpinSystem.from_dict(cn.to_dict())
    assert clone.label == cn.label
    assert clone.dimension == cn.dimension
    for (s1, i1), (s2, i2) in zip(cn.sites, clone.sites):
        assert i1.symbol == i2.symbol
        np.testing.assert_allclose(
            s1.hyperfine_tensor(), s2.hyperfine_tensor(), atol=1e-12
        )


def test_dataset_error_reports_line_number(tmp_path):
    bad = tmp_path / "defects.json"
    bad.write_text('{"version": "1",\n "defects": [}\n')
    with pytest.raises(DatasetError, match="line"):
        load_defect_dataset(str(bad))


def test_read_json_names_the_file_and_the_parse_error(tmp_path):
    bad = tmp_path / "doc.json"
    bad.write_text('{"a": 1,\n "b": }\n')
    with pytest.raises(DatasetError) as info:
        read_json(str(bad), "widget file")
    assert str(info.value) == f"{bad}: parse error at line 2: Expecting value"
    with pytest.raises(DatasetError, match="^cannot read widget file: "):
        read_json(str(tmp_path / "missing.json"), "widget file")


def test_dataset_rejects_unknown_element(tmp_path):
    doc = {
        "version": "1",
        "defects": [
            {
                "label": "X0",
                "sites": [
                    {
                        "element": "Zz",
                        "count": 1,
                        "shell": 0,
                        "Axx": 1.0,
                        "Ayy": 1.0,
                        "Azz": 1.0,
                    }
                ],
            }
        ],
    }
    path = tmp_path / "defects.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match="element"):
        load_defect_dataset(str(path))


def test_dataset_rejects_missing_field(tmp_path):
    doc = {
        "version": "1",
        "defects": [
            {
                "label": "X0",
                "sites": [{"element": "N", "count": 1, "shell": 0, "Axx": 1.0}],
            }
        ],
    }
    path = tmp_path / "defects.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError):
        load_defect_dataset(str(path))


@pytest.mark.parametrize(
    "raw, field, value",
    [
        ({"a": 1.5}, ("a", NUMBER), 1.5),
        ({"a": 2}, ("a", NUMBER), 2),
        ({"a": None}, ("a", NUMBER, None), None),
        ({}, ("a", NUMBER, None), None),
        ({}, ("a", STRING, "d"), "d"),
        ({"a": [1, 2.0, 3]}, ("a", NUMBERS3), [1, 2.0, 3]),
    ],
)
def test_read_fields_gives_the_value_or_the_default(raw, field, value):
    assert read_fields(raw, "f.json: record #0", (field,)) == [value]


@pytest.mark.parametrize(
    "raw, field, message",
    [
        ({"a": True}, ("a", NUMBER), "'a' must be a number"),
        ({"a": math.nan}, ("a", NUMBER), "'a' must be a number"),
        ({"a": -math.inf}, ("a", NUMBER), "'a' must be a number"),
        ({"a": 10**400}, ("a", NUMBER), "'a' must be a number"),
        ({"a": None}, ("a", NUMBER), "'a' must be a number"),
        ({}, ("a", NUMBER), "missing mandatory field 'a'"),
        ({"a": "x"}, ("a", NUMBER, None), "'a' must be a number or null"),
        ({"a": None}, ("a", STRING, ""), "'a' must be a string"),
        ({"a": 0}, ("a", POSITIVE), "'a' must be a positive integer"),
        ({"a": [1, 2]}, ("a", NUMBERS3), "'a' must be 3 numbers"),
        ({"a": [[1, 0, 0], [0, 1, 0], [0, 0, True]]}, ("a", MATRIX),
         "'a' must be a 3x3 matrix of numbers"),
        ({"a": [[1, 0, 0], [0, 1, 0]]}, ("a", MATRIX), "'a' must be a 3x3 matrix of numbers"),
    ],
)
def test_read_fields_names_where_and_the_key(raw, field, message):
    with pytest.raises(DatasetError) as info:
        read_fields(raw, "f.json: record #0", (field,))
    assert str(info.value) == f"f.json: record #0: {message}"


def test_read_fields_keeps_the_order_of_the_fields():
    fields = (("a", NUMBER), ("c", STRING, "d"), ("b", STRING))
    assert read_fields({"b": "x", "a": 1}, "w", fields) == [1, "d", "x"]


def _cn0_document():
    return build_system(find_defect(load_defect_dataset(), "CN0")).to_dict()


# A path into a CN0 to_dict() document, the value put there, and the message
# from_dict raises after "cn0.json: ".
@pytest.mark.parametrize(
    "path, value, message",
    [
        ((), [], "expected a system object"),
        (("label",), None, "'label' must be a string"),
        (("g_tensor",), [[2, 0, 0], [0, 2, 0]], "'g_tensor' must be a 3x3 matrix of numbers"),
        (("g_tensor", 0, 1), 1.0, "g_tensor must be a symmetric 3x3 matrix"),
        (("sites",), [1], "'sites' must be a list of objects"),
        (("sites", 2, "isotope"), "12B", "site #2: unknown isotope '12B'"),
        (("sites", 2, "isotope"), "13C", "site #2: 'isotope' 13C is not an isotope of B"),
        (("sites", 2, "frame", 0, 0), 1e308, "site #2: frame is not orthonormal"),
        (("sites", 2, "principal_values", 1), math.nan,
         "site #2: 'principal_values' must be 3 numbers"),
        (("sites", 2, "efg"), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "site #2: efg must be traceless"),
        (("sites", 2, "group_id"), None, "site #2: 'group_id' must be a string"),
    ],
)
def test_from_dict_names_the_site_and_the_field(path, value, message):
    doc = _cn0_document()
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    with pytest.raises(DatasetError) as info:
        SpinSystem.from_dict(doc, "cn0.json")
    assert str(info.value).startswith(f"cn0.json: {message}")


def test_from_dict_reads_what_to_dict_writes_without_optional_fields():
    doc = _cn0_document()
    for site in doc["sites"]:
        del site["efg"], site["group_id"]
    clone = SpinSystem.from_dict(doc)
    assert [(s.efg, s.group_id) for s, _ in clone.sites] == [(None, "")] * len(doc["sites"])


def test_dataset_names_the_defect_whose_site_refuses_a_value(tmp_path):
    doc = json.loads(read_text(dataset_path("defects"), "dataset"))
    index = next(i for i, r in enumerate(doc["defects"]) if r["label"] == "CB0")
    doc["defects"][index]["sites"][1]["efg"][0] = 1.5      # the trace is no longer 0
    path = tmp_path / "defects.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError) as info:
        load_defect_dataset(str(path))
    assert str(info.value) == f"{path}: defect #{index}: efg must be traceless"
