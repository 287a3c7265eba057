"""Resonance line lists: exact, perturbative, hybrid and sampled solvers.

Every solver returns a ``LineList`` whose entries carry a frequency (MHz),
an intensity (transition moment, dimensionless) and a weight (nuclear
configuration or isotopologue probability). Peak statistics always come
from the line list itself, never from a rendered spectrum.

The perturbative path treats each nucleus independently. With the
electron quantized along n (the direction of g^T B), a site with crystal
frame tensor A contributes per projection m

    first order:   K m            with a = A^T n, K = |a|
    second order:  [ (|A u|^2 - K^2) m^2
                     + (||A||_F^2 - |A u|^2) (I(I+1) - m^2)/2 ] / (2 nu_e)

with u = a/K. For an isotropic tensor this collapses to the familiar
a m + (a^2 / 2 nu_e)(I(I+1) - m^2) expansion, and the general form is
checked against exact diagonalization in the test suite. Nuclear Zeeman
shifts cancel at this order for electron-flip transitions and are left to
the exact and hybrid paths.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .hamiltonian import (
    HamiltonianMatrix,
    build_hamiltonian,
    normalize_terms,
    spin_operators,
    _embed,
)
from .isotopes import ELECTRON_ZEEMAN_MHZ_PER_G
from .system import SpinSystem

INTENSITY_FLOOR = 1e-6          # relative to the strongest line
ENUMERATION_THRESHOLD = 10**6   # configurations; beyond this, sample

MODE_FULL = "full_tensor"
MODE_ACONST = "a_constants"


class ZeroFieldError(ValueError):
    """Perturbation theory has no expansion point at zero field."""


@dataclass(eq=False)
class LineList:
    """Weighted resonance lines produced by one solver invocation."""

    method: str
    field: np.ndarray
    frequencies: np.ndarray
    intensities: np.ndarray
    weights: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.field = np.asarray(self.field, dtype=float)
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.intensities = np.asarray(self.intensities, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if not (
            self.frequencies.shape == self.intensities.shape == self.weights.shape
        ):
            raise ValueError("frequency/intensity/weight arrays must align")

    def __len__(self) -> int:
        return self.frequencies.size

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def sorted(self) -> "LineList":
        """Stable sort by (frequency, weight); merge-order independent."""
        order = np.lexsort((self.weights, self.frequencies))
        return LineList(
            self.method,
            self.field,
            self.frequencies[order],
            self.intensities[order],
            self.weights[order],
            dict(self.meta),
        )


def electron_axis(system: SpinSystem, field) -> tuple[float, np.ndarray]:
    """Electron Zeeman frequency nu_e (MHz) and quantization direction."""
    b = np.asarray(field, dtype=float)
    heff = ELECTRON_ZEEMAN_MHZ_PER_G * (system.g_tensor.T @ b)
    nu_e = float(np.linalg.norm(heff))
    if nu_e == 0.0:
        return 0.0, np.array([0.0, 0.0, 1.0])
    return nu_e, heff / nu_e


def _site_tensor(site, mode: str) -> np.ndarray:
    if mode == MODE_ACONST:
        return np.diag(site.principal_values)
    return site.hyperfine_tensor()


def _shift_table(site, isotope, axis, nu_e, order, mode) -> np.ndarray:
    """Per-projection frequency shifts for one site, m descending."""
    dim = isotope.multiplicity
    spin = isotope.spin
    if spin == 0.0:
        return np.zeros(1)
    m = spin - np.arange(dim)
    a_tensor = _site_tensor(site, mode)
    a_vec = a_tensor.T @ axis
    coupling = float(np.linalg.norm(a_vec))
    shifts = coupling * m
    if order >= 2:
        frob2 = float(np.sum(a_tensor * a_tensor))
        if coupling > 1e-12:
            u = a_vec / coupling
            au2 = float(np.sum((a_tensor @ u) ** 2))
        else:
            au2 = 0.0
        second = (au2 - coupling**2) * m**2 + (frob2 - au2) * (
            spin * (spin + 1.0) - m**2
        ) / 2.0
        shifts = shifts + second / (2.0 * nu_e)
    return shifts


def _shift_tables(system: SpinSystem, field, order: int, mode: str, sites):
    """Checked set-up shared by every perturbative solver.

    Validates ``order``, ``mode`` and the field (``ValueError`` unless every
    component is finite), raises ``ZeroFieldError`` at zero electron Zeeman
    splitting, warns for each site in ``sites`` whose
    coupling is not small against nu_e, and returns nu_e (MHz) with the
    per-projection shift table of each site in ``sites``.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if mode not in (MODE_FULL, MODE_ACONST):
        raise ValueError(f"mode must be {MODE_FULL!r} or {MODE_ACONST!r}, not {mode!r}")
    b = np.asarray(field, dtype=float)
    if not np.isfinite(b).all():
        raise ValueError(f"field must be finite, got {b.tolist()}")
    nu_e, axis = electron_axis(system, field)
    if nu_e == 0.0:
        raise ZeroFieldError(
            "zero electron Zeeman splitting; use exact_transitions instead"
        )
    tables = []
    for k in sites:
        site, iso = system.sites[k]
        if iso.spin > 0.0:
            norm = float(np.linalg.norm(_site_tensor(site, mode), 2))
            if norm >= nu_e:
                warnings.warn(
                    f"site {k}: ||A|| = {norm:.1f} MHz is not small against "
                    f"nu_e = {nu_e:.1f} MHz; perturbative lines are unreliable",
                    stacklevel=3,
                )
        tables.append(_shift_table(site, iso, axis, nu_e, order, mode))
    return nu_e, tables


def perturb_lines(
    system: SpinSystem, field, order: int = 2, mode: str = MODE_FULL
) -> LineList:
    """Enumerate nuclear projection configurations perturbatively.

    Each configuration (m_1 ... m_K) yields one line of unit intensity and
    weight 1/prod(2I_k + 1). ``mode`` selects the full crystal-frame
    tensors or the diagonal principal-value simplification.
    """
    nu_e, tables = _shift_tables(
        system, field, order, mode, range(len(system.sites))
    )
    total = reduce(np.add.outer, tables, np.zeros(())).ravel()
    freqs = nu_e + total
    count = total.size
    return LineList(
        method=f"perturb{order}",
        field=field,
        frequencies=freqs,
        intensities=np.ones(count),
        weights=np.full(count, 1.0 / count),
        meta={"mode": mode, "order": order},
    )


def exact_transitions(
    h: HamiltonianMatrix,
    system: SpinSystem,
    intensity_floor: float = INTENSITY_FLOOR,
) -> LineList:
    """Diagonalize and emit all upward transitions driven by S_x.

    Intensity is |<f| S_x |i>|^2 with the electron S_x embedded in the full
    space; lines weaker than ``intensity_floor`` relative to the strongest
    are dropped.
    """
    dims = (2,) + system.site_dimensions()
    if dims != h.dims:
        raise ValueError("system does not match the Hamiltonian's factor layout")
    energies, states = np.linalg.eigh(h.matrix)
    sx = _embed({0: spin_operators(0.5).jx}, dims)
    moments = np.abs(states.conj().T @ sx @ states) ** 2
    ii, fi = np.triu_indices(len(energies), k=1)   # E_f >= E_i pairs, f > i
    freqs = energies[fi] - energies[ii]
    intens = moments[fi, ii]
    if intens.size:
        keep = intens >= intensity_floor * intens.max()
        freqs, intens = freqs[keep], intens[keep]
    order = np.lexsort((intens, freqs))
    return LineList(
        method="exact",
        field=h.field,
        frequencies=freqs[order],
        intensities=intens[order],
        weights=np.ones(freqs.size),
        meta={"terms": sorted(h.terms), "dimension": h.dimension},
    )


def _normalize_selection(system: SpinSystem, indices) -> tuple[int, ...]:
    picked = [int(i) for i in indices]
    if len(picked) != len(set(picked)):
        raise ValueError("exact-site selection contains duplicates")
    for i in picked:
        if not 0 <= i < len(system.sites):
            raise ValueError(f"site index {i} out of range")
    return tuple(sorted(picked))


def shell_indices(system: SpinSystem, max_distance: float = 1.0) -> tuple[int, ...]:
    """Indices of spin-carrying sites within ``max_distance`` of the defect."""
    return tuple(
        i
        for i, (site, iso) in enumerate(system.sites)
        if 0.0 < site.shell_distance <= max_distance + 1e-9 and iso.spin > 0.0
    )


def hybrid_solve(
    system: SpinSystem,
    exact_sites,
    field,
    subset_terms=("hfi", "nzi"),
    order: int = 2,
    mode: str = MODE_FULL,
) -> LineList:
    """Exact diagonalization on a site subset, perturbation for the rest.

    The electron plus the selected sites are diagonalized with EZI plus
    ``subset_terms``; every exact line is then convolved with the shift
    distribution of the remaining sites (frequencies add, weights
    multiply). Lines below the 30 MHz analysis floor stay in the list;
    windowing is the statistics layer's job. ``order`` and ``mode`` are
    checked, and zero field rejected, even when every site is exact.
    """
    selection = _normalize_selection(system, exact_sites)
    mask = normalize_terms(subset_terms) | {"ezi"}
    if not selection:
        return perturb_lines(system, field, order=order, mode=mode)
    rest = [i for i in range(len(system.sites)) if i not in selection]
    _, tables = _shift_tables(system, field, order, mode, rest)
    subsystem = system.subsystem(selection, label_suffix=":exact-subset")
    h = build_hamiltonian(subsystem, field, terms=mask)
    exact = exact_transitions(h, subsystem)
    if not rest:
        exact.meta.update(exact_sites=selection, method_detail="all sites exact")
        return exact
    shifts = reduce(np.add.outer, tables, np.zeros(())).ravel()
    combo_weight = 1.0 / shifts.size
    freqs = np.add.outer(exact.frequencies, shifts).ravel()
    intens = np.repeat(exact.intensities, shifts.size)
    weights = np.repeat(exact.weights, shifts.size) * combo_weight
    return LineList(
        method="hybrid",
        field=field,
        frequencies=freqs,
        intensities=intens,
        weights=weights,
        meta={
            "exact_sites": selection,
            "subset_terms": sorted(mask),
            "order": order,
            "mode": mode,
        },
    ).sorted()


def sample_configurations(
    system: SpinSystem,
    field,
    order: int = 2,
    mode: str = MODE_FULL,
    sample_count: int = 100_000,
    seed=0,
    enumeration_threshold: int = ENUMERATION_THRESHOLD,
) -> LineList:
    """Perturbative lines, enumerated when feasible and sampled otherwise.

    Below ``enumeration_threshold`` configurations this delegates to
    ``perturb_lines`` and the result is identical to full enumeration.
    Beyond it, ``sample_count`` configurations are drawn uniformly with a
    deterministic generator: a fixed seed reproduces the line list bit for
    bit.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    total = system.dimension // 2
    if total <= enumeration_threshold:
        lines = perturb_lines(system, field, order=order, mode=mode)
        lines.meta.update(sampled=False, seed=seed)
        return lines
    nu_e, tables = _shift_tables(
        system, field, order, mode, range(len(system.sites))
    )
    rng = np.random.default_rng(seed)
    freqs = np.full(sample_count, nu_e)
    for table in tables:
        freqs = freqs + table[rng.integers(0, table.size, size=sample_count)]
    return LineList(
        method=f"perturb{order}-mc",
        field=field,
        frequencies=freqs,
        intensities=np.ones(sample_count),
        weights=np.full(sample_count, 1.0 / sample_count),
        meta={
            "mode": mode,
            "order": order,
            "sampled": True,
            "seed": seed,
            "sample_count": sample_count,
            "configurations": total,
        },
    )
