from __future__ import annotations

import json

import pytest

from defectspin import energetics
from defectspin.energetics import (
    INDIRECT_GAP_EV,
    CtlResult,
    EnergyRecord,
    binding_energy,
    complex_binding_energies,
    compute_ctl,
    ctl_diagram,
    defect_levels,
    group_records,
    load_complexes,
    load_energy_records,
)
from defectspin.system import DatasetError


def _rec(label, charge, energy, correction=0.0, flag=None):
    return EnergyRecord(label, charge, energy, correction, flag)


def test_donor_level_arithmetic():
    neutral = _rec("D", 0, -10.0)
    plus = _rec("D", +1, -14.11, correction=0.30)
    uncorrected = compute_ctl(neutral, plus, corrected=False)
    corrected = compute_ctl(neutral, plus, corrected=True)
    assert uncorrected.transition == "(+1|0)"
    assert uncorrected.energy == pytest.approx(4.11)
    assert corrected.energy == pytest.approx(3.81)


def test_acceptor_level_arithmetic():
    neutral = _rec("A", 0, -20.0)
    minus = _rec("A", -1, -17.28, correction=0.55)
    uncorrected = compute_ctl(neutral, minus, corrected=False)
    corrected = compute_ctl(neutral, minus, corrected=True)
    assert uncorrected.transition == "(0|-1)"
    assert uncorrected.energy == pytest.approx(2.72)
    assert corrected.energy == pytest.approx(3.27)


def test_above_gap_flagging():
    neutral = _rec("D", 0, -10.0)
    minus = _rec("D", -1, -4.21, correction=0.60)
    level = compute_ctl(neutral, minus, corrected=True)
    assert level.energy == pytest.approx(6.39)
    assert level.above_gap is True
    below = compute_ctl(neutral, minus, corrected=False)
    assert below.energy == pytest.approx(5.79)
    assert below.above_gap is False


def test_unclear_correction_yields_none():
    neutral = _rec("X", 0, -39.0)
    minus = _rec("X", -1, -35.0, correction=None, flag="unclear-correction")
    level = compute_ctl(neutral, minus, corrected=True)
    assert level.energy is None
    assert level.flag == "unclear-correction"
    # the uncorrected variant still computes
    assert compute_ctl(neutral, minus, corrected=False).energy == pytest.approx(4.0)


@pytest.mark.parametrize(
    "correction, corrected, energy, flag",
    [
        (None, True, None, "unclear"),      # an empty flag gives way
        (None, False, 4.0, ""),
        (0.5, True, 3.5, ""),
        (0.5, False, 4.0, ""),
    ],
)
def test_ctl_fields_with_empty_flag(correction, corrected, energy, flag):
    level = compute_ctl(
        _rec("X", 0, -10.0), _rec("X", 1, -14.0, correction, ""), corrected
    )
    assert level == CtlResult("X", "(+1|0)", energy, corrected, False, flag)


def test_ctl_rejects_label_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        compute_ctl(_rec("A", 0, 0.0), _rec("B", 1, 0.0), corrected=False)


def test_ctl_rejects_swapped_arguments():
    with pytest.raises(ValueError):
        compute_ctl(_rec("A", 1, 0.0, 0.1), _rec("A", 0, 0.0), corrected=False)


def test_ctl_rejects_unsupported_charge():
    with pytest.raises(ValueError, match="charge"):
        compute_ctl(_rec("A", 0, 0.0), _rec("A", 2, 0.0, 0.1), corrected=False)


def test_neutral_record_forces_zero_correction():
    rec = EnergyRecord("A", 0, -1.0, correction=None)
    assert rec.correction == 0.0
    with pytest.raises(ValueError):
        EnergyRecord("A", 0, -1.0, correction=0.5)


def test_negative_correction_rejected():
    with pytest.raises(ValueError):
        EnergyRecord("A", 1, -1.0, correction=-0.2)


def test_pair_binding_energy():
    pristine = _rec("host", 0, 0.0)
    donor = _rec("D", 0, -10.0)
    acceptor = _rec("A", 0, -20.0)
    pair = _rec("DA", 0, -33.93)
    eb = binding_energy(pair, [donor, acceptor], pristine)
    assert eb == pytest.approx(-3.93)


def test_triple_binding_energy_uses_multiplicity():
    # The multiplicity is the constituent count: three constituents take
    # two pristine cells to balance the supercells.
    pristine = _rec("host", 0, -5.0)
    donor = _rec("D", 0, -10.0)
    acceptor = _rec("A", 0, -20.0)
    triple = _rec("DAD", 0, -45.31)
    eb = binding_energy(triple, [donor, acceptor, donor], pristine)
    assert eb == pytest.approx(-45.31 + 2 * (-5.0) - (-40.0))


def test_binding_energy_rejects_charged_records():
    with pytest.raises(ValueError, match="neutral"):
        binding_energy(
            _rec("DA", 0, -1.0), [_rec("D", 1, 0.0, 0.1)], _rec("host", 0, 0.0)
        )


def _complex(name, *constituents):
    return {"complex": name, "constituents": list(constituents)}


def test_complex_binding_energies_take_neutral_records():
    records = [
        _rec("host", 0, -5.0), _rec("D", 0, -10.0), _rec("D", 1, -14.0, 0.3),
        _rec("A", 0, -20.0), _rec("DA", 0, -33.93),
    ]
    table = {"pristine": "host", "complexes": [_complex("DA", "D", "A")]}
    ((name, constituents, eb),) = complex_binding_energies(records, table)
    assert (name, constituents) == ("DA", ["D", "A"])
    assert eb == pytest.approx(-33.93 - 5.0 + 30.0)


@pytest.mark.parametrize(
    "table, message",
    [
        ({"pristine": "bulk", "complexes": []}, "pristine cell 'bulk'"),
        ({"pristine": "host", "complexes": [_complex("DA", "D", "X")]},
         "missing neutral records: DA, X"),
    ],
    ids=["pristine", "constituent"],
)
def test_complex_binding_energies_reject_missing_records(table, message):
    records = [_rec("host", 0, -5.0), _rec("D", 0, -10.0), _rec("DA", 1, -30.0, 0.1)]
    with pytest.raises(DatasetError, match=message):
        complex_binding_energies(records, table)


def test_group_records_by_label():
    records = [_rec("A", 0, 0.0), _rec("A", 1, -1.0, 0.1), _rec("B", 0, 2.0)]
    grouped = group_records(records)
    assert set(grouped) == {"A", "B"}
    assert set(grouped["A"]) == {0, 1}


def test_defect_levels_order_and_warnings():
    records = [
        _rec("A", 0, -10.0),
        _rec("A", 1, -14.11, 0.30),
        _rec("A", -1, -4.21, 0.60),
    ]
    levels = defect_levels(records)
    keys = [(r.transition, r.corrected) for r in levels]
    assert keys == [
        ("(+1|0)", False),
        ("(+1|0)", True),
        ("(0|-1)", False),
        ("(0|-1)", True),
    ]


def test_defect_levels_warns_on_missing_states():
    with pytest.warns(UserWarning, match="missing charge"):
        defect_levels([_rec("A", 0, 0.0), _rec("A", 1, -1.0, 0.1)])
    with pytest.warns(UserWarning, match="no neutral"):
        defect_levels([_rec("B", 1, -1.0, 0.1)])


def test_diagram_contains_band_edges_and_levels():
    records = [_rec("A", 0, -10.0), _rec("A", -1, -4.21, 0.60)]
    with pytest.warns(UserWarning):
        text = ctl_diagram(records)
    rows = text.splitlines()
    assert any(r.startswith("VBM\t") for r in rows)
    assert any(r.startswith("CBM\t") and "5.950" in r for r in rows)
    assert any("A\t(0|-1)\tcorrected\t6.390\tabove-gap" == r for r in rows)


def test_bundled_records_cover_all_defects():
    records = load_energy_records()
    grouped = group_records(records)
    for label in ("CB", "CN", "CBCN-1", "CBCN-4", "C2CB", "C2CN", "pristine"):
        assert label in grouped


def test_load_records_from_json_list(tmp_path):
    path = tmp_path / "e.json"
    path.write_text(
        json.dumps(
            [
                {"label": "A", "charge": 0, "energy_eV": -1.0},
                {"label": "A", "charge": 1, "energy_eV": -2.0, "correction_eV": 0.3},
            ]
        )
    )
    records = load_energy_records(str(path))
    assert len(records) == 2
    assert records[1].correction == pytest.approx(0.3)


def test_json_correction_missing_is_zero_and_null_is_unavailable(tmp_path):
    path = tmp_path / "e.json"
    path.write_text(json.dumps([
        {"label": "A", "charge": 1, "energy_eV": -2.0},
        {"label": "A", "charge": -1, "energy_eV": -2.0, "correction_eV": None},
        {"label": "A", "charge": 0, "energy_eV": -1.0, "correction_eV": None},
    ]))
    assert [r.correction for r in load_energy_records(str(path))] == [0.0, None, 0.0]


def test_load_records_from_text(tmp_path):
    path = tmp_path / "e.dat"
    path.write_text(
        "# label charge energy correction\n"
        "A  0  -1.0\n"
        "A  1  -2.0  0.3\n"
        "A -1  -0.5  -  unclear-correction\n"
    )
    records = load_energy_records(str(path))
    assert records[0].correction == 0.0
    assert records[1].correction == pytest.approx(0.3)
    assert records[2].correction is None
    assert records[2].flag == "unclear-correction"


def test_text_row_without_correction_column_is_corrected_by_zero(tmp_path):
    path = tmp_path / "e.dat"
    path.write_text("A 0 -10.0\nA 1 -14.0\n")
    with pytest.warns(UserWarning, match="missing charge -1"):
        uncorrected, corrected = defect_levels(load_energy_records(str(path)))
    assert corrected.corrected and not uncorrected.corrected
    assert corrected.energy == uncorrected.energy == pytest.approx(4.0)
    assert corrected.flag is None


@pytest.mark.parametrize(
    "row, record",
    [
        ("A 1 -14.0", dict(label="A", charge=1, energy_eV=-14.0, correction_eV=0.0)),
        ("A 0 -10.0", dict(label="A", charge=0, energy_eV=-10.0)),
        ("B -1 -5.0 0.3", dict(label="B", charge=-1, energy_eV=-5.0, correction_eV=0.3)),
        ("C +1 2 - odd",
         dict(label="C", charge=1, energy_eV=2, correction_eV=None, flag="odd")),
        ("D 1 3 0.25 f extra",
         dict(label="D", charge=1, energy_eV=3, correction_eV=0.25, flag="f")),
        # A charged record without the key is corrected by 0.0 in both forms.
        ("E 1 -14.0", dict(label="E", charge=1, energy_eV=-14.0)),
        ("F -1 -5.0 -", dict(label="F", charge=-1, energy_eV=-5.0, correction_eV=None)),
    ],
)
def test_text_row_equals_its_json_record(tmp_path, row, record):
    text, doc = tmp_path / "e.dat", tmp_path / "e.json"
    text.write_text(row + "\n")
    doc.write_text(json.dumps([record]))
    assert load_energy_records(str(text)) == load_energy_records(str(doc))


@pytest.mark.parametrize("energy", ["nan", "inf", "-inf"])
def test_non_finite_energy_is_a_dataset_error_in_both_formats(tmp_path, energy):
    text, doc = tmp_path / "e.dat", tmp_path / "e.json"
    text.write_text(f"A 0 -1.0\nA 1 {energy}\n")
    doc.write_text(json.dumps([{"label": "A", "charge": 1, "energy_eV": float(energy)}]))
    with pytest.raises(DatasetError, match="line 2: A: energy must be finite"):
        load_energy_records(str(text))
    with pytest.raises(DatasetError, match="record #0: A: energy must be finite"):
        load_energy_records(str(doc))


@pytest.mark.parametrize("charge", [1.9, 1.0, True])
def test_json_charge_must_be_an_integer(tmp_path, charge):
    path = tmp_path / "e.json"
    path.write_text(json.dumps([{"label": "A", "charge": charge, "energy_eV": -2.0}]))
    with pytest.raises(DatasetError) as info:
        load_energy_records(str(path))
    assert str(info.value) == (
        f"{path}: record #0: charge must be an integer, got {charge!r}"
    )
    path.write_text(json.dumps([{"label": "A", "charge": 1, "energy_eV": -2.0}]))
    assert load_energy_records(str(path))[0].charge == 1


def test_load_records_text_error_carries_line_number(tmp_path):
    path = tmp_path / "e.dat"
    path.write_text("A 0 -1.0\nA oops\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_energy_records(str(path))


def test_load_records_json_missing_field(tmp_path):
    path = tmp_path / "e.json"
    path.write_text(json.dumps([{"label": "A", "charge": 0}]))
    with pytest.raises(DatasetError, match="energy_eV"):
        load_energy_records(str(path))


def test_load_records_missing_file():
    with pytest.raises(DatasetError):
        load_energy_records("/nonexistent/energies.json")


def test_load_complexes_shape():
    table = load_complexes()
    assert table["pristine"] == "pristine"
    names = [e["complex"] for e in table["complexes"]]
    assert "CBCN-1" in names and "C2CN" in names
    for entry in table["complexes"]:
        assert len(entry["constituents"]) in (2, 3)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"complexes": 5}, "'complexes' must be a list of objects"),
        ({"complexes": [5]}, "'complexes' must be a list of objects"),
        ({"pristine": None, "complexes": []}, "'pristine' must be a string"),
        ([{"constituents": ["CB"]}], "complex #0: missing mandatory field 'complex'"),
        ([{"complex": 1, "constituents": []}], "complex #0: 'complex' must be a string"),
        ([{"complex": "C", "constituents": "CB"}],
         "complex #0: 'constituents' must be a list of strings"),
        ([{"complex": "C", "constituents": ["CB", 1]}],
         "complex #0: 'constituents' must be a list of strings"),
    ],
    ids=["int-list", "int-entry", "null-pristine", "no-complex", "int-complex",
         "string-constituents", "int-constituent"],
)
def test_load_complexes_names_the_entry_and_the_field(tmp_path, doc, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError) as info:
        load_complexes(str(path))
    assert str(info.value) == f"{path}: {message}"


def test_load_complexes_takes_a_bare_list_under_the_default_pristine(tmp_path):
    path = tmp_path / "c.json"
    entries = [{"complex": "C2", "constituents": ["C", "C"]}]
    path.write_text(json.dumps(entries))
    assert load_complexes(str(path)) == {"pristine": "pristine", "complexes": entries}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"records": 5}, "'records' must be a list of objects"),
        (None, "'records' must be a list of objects"),
        ({"version": "1"}, "missing mandatory field 'records'"),
        ([{"label": ["A"], "charge": 0, "energy_eV": 0.0}],
         "record #0: 'label' must be a string"),
        ([{"label": "A", "charge": 0, "energy_eV": 0.0, "flag": 1}],
         "record #0: 'flag' must be a string or null"),
    ],
    ids=["int-records", "null-document", "no-records", "list-label", "int-flag"],
)
def test_json_records_of_the_wrong_type_name_the_field(tmp_path, doc, message):
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError) as info:
        load_energy_records(str(path))
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"energy": 10**400}, "A: energy must be finite"),
        ({"energy": -1.0, "correction": 10**400}, "A: correction must be finite"),
    ],
    ids=["energy", "correction"],
)
def test_record_refuses_an_integer_past_the_float_range(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        EnergyRecord("A", 1, **fields)


def test_load_complexes_parse_error_names_the_reason(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"complexes": [}')
    with pytest.raises(DatasetError) as info:
        load_complexes(str(path))
    assert str(info.value) == f"{path}: parse error at line 1: Expecting value"


def test_gap_constant():
    assert INDIRECT_GAP_EV == pytest.approx(5.950)


@pytest.mark.parametrize("name, good, edited, broken", [
    ("energies.txt", "X 0 -1.0\nX 1 -2.0 0.1\n", "X 0 -1.5\n", "X 0\n"),
    ("energies.json",
     json.dumps([{"label": "X", "charge": 0, "energy_eV": -1.0},
                 {"label": "X", "charge": 1, "energy_eV": -2.0, "correction_eV": 0.1}]),
     json.dumps([{"label": "X", "charge": 0, "energy_eV": -1.5}]),
     json.dumps([{"label": "X", "charge": 0}])),
])
def test_energy_records_are_parsed_once_per_content(tmp_path, monkeypatch, name, good,
                                                     edited, broken):
    path = tmp_path / name
    path.write_text(good)
    parsed = []
    record_from_json = energetics._record_from_json
    monkeypatch.setattr(energetics, "_record_from_json",
                        lambda raw, where: parsed.append(where) or record_from_json(raw, where))
    first, second = load_energy_records(str(path)), load_energy_records(str(path))
    assert first == second and first is not second
    assert len(parsed) == 2                     # two records, parsed by the first call
    first.clear()                               # each caller has its own list
    assert len(load_energy_records(str(path))) == 2
    path.write_text(edited)                     # an edited file is seen
    assert [r.energy for r in load_energy_records(str(path))] == [-1.5]
    path.write_text(broken)                     # and a broken one fails on every call
    for _ in range(2):
        with pytest.raises(DatasetError, match="energy_eV|expected 'label"):
            load_energy_records(str(path))
