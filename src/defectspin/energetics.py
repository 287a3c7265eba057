"""Charge-transition levels and complex binding energies.

Inputs are total-energy records per (defect, charge state), already
referenced to the valence band maximum, with an a-posteriori charge
correction carried as a separate number. Transition levels:

    (+1|0):  E = E0(q=0) - E0(q=+1) - delta(+1)   [delta if corrected]
    (0|-1):  E = E0(q=-1) - E0(q=0) + delta(-1)

Binding energy of an m-defect complex against its isolated constituents:

    E_b = E(complex) + (m - 1) E(pristine) - sum_i E(constituent_i)

and a negative value favors complex formation.
"""

from __future__ import annotations

import functools
import sys
import warnings
from dataclasses import dataclass

from .system import OBJECTS, STRING, STRINGS, DatasetError, dataset_path, read_fields
from .system import parse_json, read_json, read_text

INDIRECT_GAP_EV = 5.950     # hBN indirect gap; CBM reference for flagging


@dataclass(frozen=True)
class EnergyRecord:
    """Total energy of one charge state of one defect."""

    label: str
    charge: int
    energy: float                   # eV, VBM-referenced supercell total
    correction: float | None = 0.0  # a-posteriori charge correction, eV
    flag: str | None = None

    def __post_init__(self):
        if not abs(self.energy) <= sys.float_info.max:     # NaN, inf, a huge int
            raise ValueError(f"{self.label}: energy must be finite")
        if self.charge == 0:
            if self.correction not in (0.0, None):
                raise ValueError(f"{self.label}: neutral state takes no correction")
            object.__setattr__(self, "correction", 0.0)
        elif self.correction is not None and self.correction < 0:
            raise ValueError(f"{self.label}: correction must be non-negative")
        elif self.correction is not None and not abs(self.correction) <= sys.float_info.max:
            raise ValueError(f"{self.label}: correction must be finite")


@dataclass(frozen=True)
class CtlResult:
    """One charge-transition level relative to the VBM."""

    label: str
    transition: str                 # "(+1|0)" or "(0|-1)"
    energy: float | None            # eV; None when the correction is unclear
    corrected: bool
    above_gap: bool
    flag: str | None = None


def compute_ctl(
    neutral: EnergyRecord, charged: EnergyRecord, corrected: bool
) -> CtlResult:
    """Level at which the two charge states swap stability."""
    if neutral.label != charged.label:
        raise ValueError(
            f"label mismatch: {neutral.label!r} vs {charged.label!r}"
        )
    if neutral.charge != 0:
        raise ValueError("first record must be the neutral state")
    if charged.charge == 1:
        transition = "(+1|0)"
        energy = neutral.energy - charged.energy
        sign = -1.0
    elif charged.charge == -1:
        transition = "(0|-1)"
        energy = charged.energy - neutral.energy
        sign = +1.0
    else:
        raise ValueError(f"unsupported charge {charged.charge}; expected +1 or -1")
    flag = charged.flag
    if corrected and charged.correction is None:
        energy, flag = None, flag or "unclear"
    elif corrected:
        energy += sign * charged.correction
    return CtlResult(
        label=neutral.label,
        transition=transition,
        energy=energy,
        corrected=corrected,
        above_gap=energy is not None and energy > INDIRECT_GAP_EV,
        flag=flag,
    )


def binding_energy(
    complex_record: EnergyRecord,
    constituents,
    pristine: EnergyRecord,
) -> float:
    """Formation energy of a complex from isolated constituents, eV."""
    constituents = list(constituents)
    for rec in [complex_record, pristine, *constituents]:
        if rec.charge != 0:
            raise ValueError(
                f"{rec.label}: binding energies mix only neutral states"
            )
    return (
        complex_record.energy
        + (len(constituents) - 1) * pristine.energy
        - sum(rec.energy for rec in constituents)
    )


def group_records(records):
    """Records keyed by label, preserving first-seen order."""
    grouped: dict[str, dict[int, EnergyRecord]] = {}
    for rec in records:
        grouped.setdefault(rec.label, {})[rec.charge] = rec
    return grouped


def complex_binding_energies(records, table) -> list[tuple[str, list[str], float]]:
    """``(complex, constituents, E_b)`` per entry of a ``load_complexes`` table,
    from the neutral records; a label without one raises ``DatasetError``."""
    neutral = {rec.label: rec for rec in records if rec.charge == 0}
    pristine = table["pristine"]
    if pristine not in neutral:
        raise DatasetError(f"no neutral record for pristine cell {pristine!r}")
    rows = []
    for entry in table["complexes"]:
        name = entry["complex"]
        constituents = entry["constituents"]
        missing = [c for c in [name, *constituents] if c not in neutral]
        if missing:
            raise DatasetError(f"missing neutral records: {', '.join(missing)}")
        members = [neutral[c] for c in constituents]
        eb = binding_energy(neutral[name], members, neutral[pristine])
        rows.append((name, constituents, eb))
    return rows


def defect_levels(records) -> list[CtlResult]:
    """All computable levels, corrected and uncorrected, in dataset order."""
    results = []
    for label, states in group_records(records).items():
        if 0 not in states:
            warnings.warn(f"{label}: no neutral state; skipped")
            continue
        neutral = states[0]
        for q in (1, -1):
            if q not in states:
                warnings.warn(f"{label}: missing charge {q:+d}; transition omitted")
                continue
            for corrected in (False, True):
                results.append(compute_ctl(neutral, states[q], corrected))
    return results


def _shown_flag(*levels: CtlResult) -> str:
    """The flags reports print for one or more levels: each record's own
    flag and ``above-gap`` for a level past the CBM, sorted and joined with
    ``+`` (one CSV cell), else ``-``."""
    flags = {r.flag for r in levels if r.flag}
    flags.update("above-gap" for r in levels if r.above_gap)
    return "+".join(sorted(flags)) or "-"


def ctl_diagram(records) -> str:
    """Plot-ready delimited text with both band edges and every level."""
    levels = defect_levels(records)
    lines = [
        "# charge transition levels relative to the VBM (eV)",
        f"# band edges: VBM 0.000 CBM {INDIRECT_GAP_EV:.3f}",
        "# defect\ttransition\tvariant\tenergy_eV\tflag",
        f"VBM\t-\t-\t{0.0:.3f}\t-",
        f"CBM\t-\t-\t{INDIRECT_GAP_EV:.3f}\t-",
    ]
    if not levels:
        warnings.warn("no complete defect in records; diagram is empty")
    for r in levels:
        variant = "corrected" if r.corrected else "uncorrected"
        value = "unclear" if r.energy is None else f"{r.energy:.3f}"
        flag = _shown_flag(r)
        lines.append(f"{r.label}\t{r.transition}\t{variant}\t{value}\t{flag}")
    return "\n".join(lines) + "\n"


def _charge(value) -> int:
    """A JSON integer or a text token ``int()`` reads; never a float or bool."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"charge must be an integer, got {value!r}")
    return int(value)


def _optional_float(value) -> float | None:
    return None if value is None else float(value)


def _record_from_json(raw: dict, where: str) -> EnergyRecord:
    label, flag = read_fields(raw, where, (("label", STRING), ("flag", STRING, None)))
    try:
        return EnergyRecord(
            label=label,
            charge=_charge(raw["charge"]),
            energy=float(raw["energy_eV"]),
            # Missing: 0.0, as for a text row without the column; null: unavailable.
            correction=_optional_float(raw.get("correction_eV", 0.0)),
            flag=flag,
        )
    except KeyError as exc:
        raise DatasetError(f"{where}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"{where}: {exc}") from None


def load_energy_records(path: str | None = None) -> list[EnergyRecord]:
    """Read energy records from JSON or whitespace-delimited text.

    Text rows are ``label charge energy_eV [correction_eV] [flag]`` with
    ``-`` marking an unavailable correction; ``#`` starts a comment. JSON
    files hold a list (or ``{"records": [...]}``) of objects with keys
    ``label``, ``charge``, ``energy_eV``, ``correction_eV``, ``flag``, where
    ``null`` marks an unavailable correction. Both forms read a missing
    correction as 0.0.

    Every call reads the file, but a content parsed before is not parsed
    again: its records, which are frozen, are reused in a new list.
    """
    if path is None:
        path = dataset_path("energies")
    return list(_parse_energy_records(path, read_text(path, "energy records")))


# Keyed by content, as the defect dataset is. Errors are raised, never cached.
@functools.lru_cache(maxsize=8)
def _parse_energy_records(path: str, text: str) -> tuple[EnergyRecord, ...]:
    """The records of the energy file ``text`` read from ``path``."""
    if path.endswith(".json"):
        doc = parse_json(text, path)
        doc = doc if isinstance(doc, dict) else {"records": doc}
        raw_records, = read_fields(doc, path, (("records", OBJECTS),))
        return tuple(_record_from_json(raw, f"{path}: record #{i}")
                     for i, raw in enumerate(raw_records))
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) < 3:
            raise DatasetError(
                f"{path}: line {lineno}: expected 'label charge energy [delta] [flag]'"
            )
        # The JSON record of the row: no correction column is 0.0, "-" is None.
        raw = dict(zip(("label", "charge", "energy_eV", "correction_eV", "flag"), parts))
        if raw.get("correction_eV") == "-":
            raw["correction_eV"] = None
        records.append(_record_from_json(raw, f"{path}: line {lineno}"))
    return tuple(records)


_COMPLEXES_FIELDS = (("pristine", STRING, "pristine"), ("complexes", OBJECTS, []))
_COMPLEX_FIELDS = (("complex", STRING), ("constituents", STRINGS))


def load_complexes(path: str | None = None) -> dict:
    """Complex composition table plus the pristine-cell label.

    Returns ``{"pristine": label, "complexes": [{"complex": ...,
    "constituents": [...]}, ...]}``: the file's object, or its bare list of
    complexes under the default ``"pristine"``. A missing key or a label
    that is not a string raises ``DatasetError`` naming the entry.
    """
    if path is None:
        path = dataset_path("complexes")
    doc = read_json(path, "complexes")
    if not isinstance(doc, dict):
        doc = {"complexes": doc}
    pristine, entries = read_fields(doc, path, _COMPLEXES_FIELDS)
    for i, entry in enumerate(entries):
        read_fields(entry, f"{path}: complex #{i}", _COMPLEX_FIELDS)
    return {"pristine": pristine, "complexes": entries}
