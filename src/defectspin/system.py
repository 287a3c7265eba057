"""Spin-system domain types and the bundled defect dataset.

A defect is described shell by shell: each shell entry carries an element,
a site count, the shell index and one set of hyperfine principal values
(Axx, Ayy, Azz) in MHz. The loader expands every entry into individual
nuclear sites, placing them at equally spaced azimuths and attaching the
rotation that carries the local principal frame into the crystal frame.

Principal-axis orientation convention
-------------------------------------
Published tables list principal values only, so the axis directions are a
modeling choice. The convention used here, which reproduces the measured
line statistics, is:

* central atom and second-neighbor shells: tensor diagonal in the crystal
  frame, unique (zz) axis along the crystal c-axis (the spin density is
  pi-like and out-of-plane);
* first-neighbor shells: unique (zz) axis along the in-plane bond from the
  defect to the site, yy axis along c (the dominant coupling at a nearest
  neighbor runs along the sigma bond).

Equivalent sites within a shell are generated by rotations about the
c-axis, so every member of a symmetry group shares its principal values.

The optional EFG tensors are stored directly in crystal-frame components
``[Vxx, Vyy, Vzz, Vxy, Vxz, Vyz]`` in V/A^2. The bundled first-shell EFGs
are representative axial tensors, not first-principles values; they keep
all quadrupole matrix elements below 1 MHz.

What no call changes is kept. A defect dataset is parsed once per file
content (the 8 most recent), for its records and its version. The system
``build_system`` makes is kept per record object and overrides (the 32 most
recent) and shared by every call that asks for it: it is frozen, and an
edited file gives new records, so a kept system never goes stale.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .isotopes import Isotope, default_isotope, isotopes_of, lookup

ENV_DATA_DIR = "DEFECTSPIN_DATA"

# Ideal-lattice distance of each neighbor shell, in units of the B-N bond.
_SHELL_DISTANCE = {0: 0.0, 1: 1.0, 2: math.sqrt(3.0)}


class DatasetError(Exception):
    """Raised when a bundled or user dataset cannot be parsed or validated."""


def axial_frame(azimuth: float) -> np.ndarray:
    """Rotation about the crystal c-axis by ``azimuth`` (radians)."""
    c, s = math.cos(azimuth), math.sin(azimuth)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def bond_frame(azimuth: float) -> np.ndarray:
    """Frame with the local zz axis along the in-plane bond at ``azimuth``.

    Columns are the local x, y, z axes in crystal coordinates: z along the
    bond, y along the crystal c-axis, x completing a right-handed set.
    """
    c, s = math.cos(azimuth), math.sin(azimuth)
    return np.array([[-s, 0.0, c], [c, 0.0, s], [0.0, 1.0, 0.0]])


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _finite_values(values) -> tuple[float, ...]:
    values = tuple(float(v) for v in values)
    if not all(map(math.isfinite, values)):
        raise ValueError("principal values must be finite")
    return values


@dataclass(frozen=True, eq=False)
class NuclearSite:
    """One lattice site near the defect.

    ``principal_values`` are the hyperfine eigenvalues in MHz and ``frame``
    is the proper rotation taking the local principal frame into the
    crystal frame. ``efg``, when present, is the symmetric traceless
    electric-field-gradient tensor in crystal coordinates (V/A^2).
    """

    element: str
    shell_distance: float
    bond_azimuth: float
    principal_values: tuple[float, float, float]
    frame: np.ndarray
    efg: np.ndarray | None = None
    group_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "frame", _readonly(self.frame))
        object.__setattr__(
            self, "principal_values", _finite_values(self.principal_values)
        )
        f = self.frame
        if f.shape != (3, 3):
            raise ValueError("frame must be 3x3")
        # rtol=0: the coupling warning needs ||A||_2 = max |principal value|. A
        # rotation has no entry past 1, and a huge one would overflow f.T @ f.
        if np.abs(f).max() > 2.0 or not np.allclose(f.T @ f, np.eye(3), rtol=0.0, atol=1e-10):
            raise ValueError("frame is not orthonormal")
        if not math.isclose(float(np.linalg.det(f)), 1.0, abs_tol=1e-10):
            raise ValueError("frame must be a proper rotation (det +1)")
        if self.efg is not None:
            v = np.asarray(self.efg, dtype=float)
            if not np.isfinite(v).all():
                raise ValueError("efg components must be finite")
            scale = max(float(np.abs(v).max()), 1e-30)
            if np.abs(v - v.T).max() > 1e-6 * scale:
                raise ValueError("efg must be symmetric")
            if abs(float(np.trace(v))) > 1e-6 * scale:
                raise ValueError("efg must be traceless")
            # The symmetric part, halves summed (no overflow): the Hamiltonian
            # must be Hermitian to 1e-9, tighter than the 1e-6 accepted above.
            object.__setattr__(self, "efg", _readonly(v / 2.0 + v.T / 2.0))

    def hyperfine_tensor(self) -> np.ndarray:
        """Full 3x3 hyperfine tensor in the crystal frame, MHz."""
        return self.frame @ np.diag(self.principal_values) @ self.frame.T

    def _with_principal_values(self, values) -> "NuclearSite":
        """This site with other (checked) principal values. The frame and
        EFG, checked and read-only, are shared rather than checked again."""
        site = copy.copy(self)
        object.__setattr__(site, "principal_values", _finite_values(values))
        return site


@dataclass(frozen=True, eq=False)
class SpinSystem:
    """One S=1/2 electron coupled to an ordered list of nuclear sites."""

    label: str
    sites: tuple[tuple[NuclearSite, Isotope], ...]
    g_tensor: np.ndarray = field(default_factory=lambda: 2.0 * np.eye(3))

    def __post_init__(self):
        g = _readonly(self.g_tensor)
        if g.shape != (3, 3) or not np.allclose(g, g.T, atol=1e-12):
            raise ValueError("g_tensor must be a symmetric 3x3 matrix")
        object.__setattr__(self, "g_tensor", g)
        object.__setattr__(self, "sites", tuple(self.sites))

    @property
    def dimension(self) -> int:
        """Total Hilbert-space dimension 2 * prod(2I_k + 1), exact integer."""
        n = 2
        for _, iso in self.sites:
            n *= iso.multiplicity
        return n

    def site_dimensions(self) -> tuple[int, ...]:
        return tuple(iso.multiplicity for _, iso in self.sites)

    def subsystem(self, indices, label_suffix: str = "") -> "SpinSystem":
        """The electron with the sites at ``indices``, in that order.

        Raises ``ValueError`` naming the first index that is negative, past
        the last site or given twice.
        """
        picked = tuple(indices)
        for k, i in enumerate(picked):
            if not 0 <= i < len(self.sites):
                raise ValueError(f"site index {i} out of range for {len(self.sites)} sites")
            if i in picked[:k]:
                raise ValueError(f"site index {i} is a duplicate")
        # The g tensor, checked and read-only, is shared rather than checked again.
        sub = copy.copy(self)
        object.__setattr__(sub, "label", self.label + label_suffix)
        object.__setattr__(sub, "sites", tuple(self.sites[i] for i in picked))
        return sub

    def to_dict(self) -> dict:
        """This system as a ``--system`` document of plain JSON values; ``from_dict`` reads it."""
        sites = [
            {key: np.asarray(iso.symbol if key == "isotope" else getattr(site, key)).tolist()
             for key, *_ in _SITE_FIELDS}
            for site, iso in self.sites
        ]
        return {key: sites if key == "sites" else np.asarray(getattr(self, key)).tolist()
                for key, _ in _SYSTEM_FIELDS}

    @classmethod
    def from_dict(cls, data, where: str = "system") -> "SpinSystem":
        """The system of a ``to_dict`` document. A field missing, of the wrong JSON
        type or refused by ``NuclearSite``, ``lookup`` or ``SpinSystem`` raises
        ``DatasetError`` naming ``where``, the site and the field."""
        if not isinstance(data, dict):
            raise DatasetError(f"{where}: expected a system object")
        label, g_tensor, entries = read_fields(data, where, _SYSTEM_FIELDS)
        sites, at = [], where                   # at: what an error names
        try:
            for i, entry in enumerate(entries):
                at = f"{where}: site #{i}"
                *values, symbol = read_fields(entry, at, _SITE_FIELDS)
                site, iso = NuclearSite(*values), lookup(symbol)
                if iso.element != site.element:
                    raise ValueError(f"'isotope' {symbol} is not an isotope of {site.element}")
                sites.append((site, iso))
            at = where
            return cls(label, tuple(sites), g_tensor)
        except (KeyError, ValueError) as exc:
            raise DatasetError(f"{at}: {exc.args[0]}") from None


@dataclass(frozen=True, eq=False)
class ShellEntry:
    """One dataset row: a group of equivalent sites at a common shell."""

    element: str
    count: int
    shell: int
    principal_values: tuple[float, float, float]
    core_contribution: float | None = None
    efg: np.ndarray | None = None

    def __post_init__(self):
        if self.efg is not None:
            object.__setattr__(self, "efg", _readonly(self.efg))

    def bare_principal_values(self) -> tuple[float, float, float]:
        """Principal values with the isotropic core contribution removed."""
        if self.core_contribution is None:
            return self.principal_values
        return tuple(v - self.core_contribution for v in self.principal_values)


@dataclass(frozen=True, eq=False)
class DefectRecord:
    """A defect as shipped in the dataset: metadata plus expanded sites."""

    label: str
    zpl_energy: float | None
    shells: tuple[ShellEntry, ...]
    sites: tuple[NuclearSite, ...]
    notes: str = ""

    def __post_init__(self):
        if self.zpl_energy is not None and self.zpl_energy <= 0:
            raise ValueError(f"{self.label}: zpl_energy must be positive")


def _shell_azimuths(count: int) -> list[float]:
    # Three-site shells sit on the bonds (offset 90 deg keeps one bond on
    # the +y axis); six-site shells start from +x. Only relative azimuths
    # are physical and with B along c none of them matter.
    offset = math.pi / 2.0 if count == 3 else 0.0
    return [offset + 2.0 * math.pi * k / count for k in range(count)]


def expand_shell(entry: ShellEntry) -> list[NuclearSite]:
    """Expand a shell entry into individual sites with frames attached."""
    dist = _SHELL_DISTANCE.get(entry.shell, float(entry.shell))
    group = f"{entry.element}-shell{entry.shell}"
    return [
        NuclearSite(element=entry.element, shell_distance=dist, bond_azimuth=azimuth,
                    principal_values=entry.principal_values,
                    frame=bond_frame(azimuth) if entry.shell == 1 else axial_frame(azimuth),
                    efg=entry.efg, group_id=group)
        for azimuth in _shell_azimuths(entry.count)
    ]


def _list_of(ok, n: int | None = None):
    return lambda v: isinstance(v, list) and len(v) == (n or len(v)) and all(map(ok, v))


# Kinds of JSON value ``read_fields`` checks: the words of its message and a test.
# A number is never a bool, NaN, Infinity, 1e400 or an integer past the float range.
NUMBER = ("a number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
STRING = ("a string", lambda v: isinstance(v, str))
INTEGER = ("an integer", lambda v: type(v) is int)
POSITIVE = ("a positive integer", lambda v: type(v) is int and v >= 1)
NUMBERS3 = ("3 numbers", _list_of(NUMBER[1], 3))
NUMBERS6 = ("6 numbers", _list_of(NUMBER[1], 6))
MATRIX = ("a 3x3 matrix of numbers", _list_of(NUMBERS3[1], 3))
STRINGS = ("a list of strings", _list_of(STRING[1]))
OBJECTS = ("a list of objects", _list_of(lambda v: isinstance(v, dict)))


def read_fields(raw: dict, where: str, fields) -> list:
    """The values of ``fields`` in the JSON object ``raw``, in their order:
    ``(key, kind)``, or ``(key, kind, default)`` for a key that may be missing,
    where a default of ``None`` also accepts ``null``. A missing mandatory key
    or a value not of its kind raises ``DatasetError`` naming ``where`` (the
    file and record) and the key."""
    values = []
    for field in fields:
        key, (what, ok), default = field[0], field[1], field[2:]
        if key not in raw and not default:
            raise DatasetError(f"{where}: missing mandatory field {key!r}")
        value = raw[key] if key in raw else default[0]
        if not (ok(value) or value is None and None in default):
            raise DatasetError(f"{where}: {key!r} must be {what}{' or null' * (None in default)}")
        values.append(value)
    return values


# The ``--system`` format: the document, then each site. Every site field but
# the isotope is the ``NuclearSite`` attribute of that name, in its order.
_SYSTEM_FIELDS = (("label", STRING), ("g_tensor", MATRIX), ("sites", OBJECTS))
_SITE_FIELDS = (
    ("element", STRING), ("shell_distance", NUMBER), ("bond_azimuth", NUMBER),
    ("principal_values", NUMBERS3), ("frame", MATRIX), ("efg", MATRIX, None),
    ("group_id", STRING, ""), ("isotope", STRING),
)
_DEFECT_FIELDS = (
    ("label", STRING), ("zpl_eV", NUMBER, None), ("notes", STRING, ""), ("sites", OBJECTS, []),
)
_SHELL_FIELDS = (
    ("element", STRING), ("count", POSITIVE), ("shell", INTEGER),
    ("Axx", NUMBER), ("Ayy", NUMBER), ("Azz", NUMBER),
    ("core_contribution", NUMBER, None), ("efg", NUMBERS6, None),
)


def _parse_shell(raw: dict, where: str) -> ShellEntry:
    element, count, shell, *values, core, comp = read_fields(raw, where, _SHELL_FIELDS)
    try:
        isotopes_of(element)
    except KeyError:
        raise DatasetError(f"{where}: unknown element {element!r}") from None
    # [Vxx, Vyy, Vzz, Vxy, Vxz, Vyz] into the symmetric crystal-frame tensor.
    efg = None if comp is None else np.array(comp, dtype=float)[[[0, 3, 4], [3, 1, 5], [4, 5, 2]]]
    return ShellEntry(element, count, shell, tuple(map(float, values)), core, efg)


def data_directory() -> str:
    """Directory holding the bundled datasets; overridable via env var."""
    override = os.environ.get(ENV_DATA_DIR)
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "data")


def dataset_path(name: str, directory: str | None = None) -> str:
    """Path of dataset file ``name`` (``"defects"``, ``"energies"`` or
    ``"complexes"``) in ``directory``, by default ``data_directory()``."""
    return os.path.join(directory or data_directory(), f"{name}.json")


def read_text(path: str, what: str) -> str:
    """Contents of the file at ``path``; ``what`` names it in the error."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise DatasetError(f"cannot read {what}: {exc}") from None


def _parse_json(text: str, path: str):
    """The JSON document ``text`` read from ``path``, which errors name."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from None


def read_json(path: str, what: str):
    """The JSON document at ``path``, read as ``read_text`` reads it."""
    return _parse_json(read_text(path, what), path)


def _version(doc) -> str:
    """The ``version`` of a parsed defect dataset; ``unversioned`` without one."""
    return str(doc.get("version", "unversioned")) if isinstance(doc, dict) else "unversioned"


def dataset_version(path: str | None = None) -> str:
    """The ``version`` of the defect dataset at ``path``; ``unversioned``
    when the file cannot be read or has no version (a bare list)."""
    path = path or dataset_path("defects")
    try:
        text = read_text(path, "dataset")
    except DatasetError:
        return "unversioned"
    return _version(_dataset_document(path, text))


def load_defect_dataset(path: str | None = None) -> list[DefectRecord]:
    """Load defect records from ``path`` or the bundled dataset.

    The file is JSON, either a bare list of defect objects or a wrapper
    ``{"version": ..., "defects": [...]}``. Each defect object has keys
    ``label``, optional ``zpl_eV``, optional ``notes`` and a ``sites`` list
    of shell entries ``{element, count, shell, Axx, Ayy, Azz,
    core_contribution?, efg?}``.

    Every call reads the file, but a content parsed before is not parsed
    again: its records, which are immutable, are reused in a new list.
    """
    return load_versioned_dataset(path)[0]


def load_versioned_dataset(path: str | None = None) -> tuple[list[DefectRecord], str]:
    """``load_defect_dataset`` and ``dataset_version`` of ``path`` from one
    read of the file."""
    if path is None:
        path = dataset_path("defects")
    text = read_text(path, "dataset")
    return list(_parse_defects(path, text)), _version(_dataset_document(path, text))


# Keyed by content, not mtime: a file rewritten within one mtime tick to the
# same size must not be served stale. Errors are raised, never cached.
@functools.lru_cache(maxsize=8)
def _dataset_document(path: str, text: str):
    """The defect dataset ``text`` read from ``path``, parsed once per content
    for its records and its version; no caller modifies it."""
    return _parse_json(text, path)


@functools.lru_cache(maxsize=8)
def _parse_defects(path: str, text: str) -> tuple[DefectRecord, ...]:
    """The records of the defect dataset ``text`` read from ``path``."""
    doc = _dataset_document(path, text)
    raw_defects = doc.get("defects", doc) if isinstance(doc, dict) else doc
    if not isinstance(raw_defects, list):
        raise DatasetError(f"{path}: expected a list of defect records")
    records = []
    for i, raw in enumerate(raw_defects):
        where = f"{path}: defect #{i}"
        if not isinstance(raw, dict):
            raise DatasetError(f"{where}: expected a defect object")
        label, zpl, notes, entries = read_fields(raw, where, _DEFECT_FIELDS)
        shells = tuple(_parse_shell(e, f"{where} ({label})") for e in entries)
        try:
            sites = tuple(site for entry in shells for site in expand_shell(entry))
            records.append(DefectRecord(label, zpl, shells, sites, notes))
        except ValueError as exc:           # a site or the record refuses a value
            raise DatasetError(f"{where}: {exc}") from None
    return tuple(records)


def find_defect(records: list[DefectRecord], label: str) -> DefectRecord:
    for rec in records:
        if rec.label == label:
            return rec
    for rec in records:
        if rec.label.lower() == label.lower():
            return rec
    known = ", ".join(r.label for r in records)
    raise KeyError(f"unknown defect {label!r} (dataset has {known})")


def build_system(
    record: DefectRecord, isotope_overrides: dict[str, str] | None = None
) -> SpinSystem:
    """Assign isotopes to a defect's sites and return the spin system.

    By default every element gets its most abundant isotope (11B, 14N,
    12C). ``isotope_overrides`` maps element symbols to isotope symbols,
    e.g. ``{"C": "13C"}`` to study the carbon-13 defect. The system is
    frozen and shared: the same record with equal overrides gives the same
    object.
    """
    return _system(record, frozenset((isotope_overrides or {}).items()))


# Keyed by the record object (records are compared by identity) and the
# overrides; a bad override raises on every call, since errors are not cached.
@functools.lru_cache(maxsize=32)
def _system(record: DefectRecord, overrides: frozenset) -> SpinSystem:
    overrides = dict(overrides)
    pairs = []
    for site in record.sites:
        if site.element in overrides:
            iso = lookup(overrides[site.element])
            if iso.element != site.element:
                raise ValueError(
                    f"override {iso.symbol} is not an isotope of {site.element}"
                )
        else:
            iso = default_isotope(site.element)
        pairs.append((site, iso))
    return SpinSystem(record.label, tuple(pairs))
