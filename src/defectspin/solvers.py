"""Resonance line lists: exact, perturbative, hybrid and sampled solvers.

Every solver returns a ``LineList`` whose entries carry a frequency (MHz),
an intensity (transition moment, dimensionless) and a weight (the
probability of its class of nuclear configurations, or of its draw when
sampled, times the isotopologue probability in a composite). Peak
statistics always come from the line list itself, never from a rendered
spectrum.

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
the exact and hybrid paths. The tables of all requested sites are
evaluated at once, on one projection grid padded to the largest 2I+1.
A site warns when ||A||_2 >= nu_e; for a symmetric tensor in an
orthonormal frame ||A||_2 is max |principal value|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .hamiltonian import (
    DIMENSION_CAP,
    DimensionError,
    HamiltonianMatrix,
    build_hamiltonian,
    normalize_terms,
)
from .isotopes import ELECTRON_ZEEMAN_MHZ_PER_G
from .system import SpinSystem

INTENSITY_FLOOR = 1e-6          # relative to the strongest line
ENUMERATION_THRESHOLD = 10**6   # configurations; beyond this, sample
# Sites whose shift tables agree this closely (MHz) are counted as one group.
_SHIFT_TOLERANCE = 1e-9

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
        for name in ("frequencies", "intensities", "weights"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"line {name} must be finite")
        if (self.intensities < 0).any() or (self.weights < 0).any():
            raise ValueError("line intensities and weights must be non-negative")

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


def _shift_tables(system: SpinSystem, field, order: int, mode: str, sites):
    """Checked set-up shared by every perturbative solver.

    Validates ``order``, ``mode`` and the field (``ValueError`` unless every
    component is finite), raises ``ZeroFieldError`` at zero electron Zeeman
    splitting, warns for each site in ``sites`` whose
    coupling is not small against nu_e, and returns nu_e (MHz) with the
    per-projection shift table of each site in ``sites``, m descending.
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
    index = list(sites)
    picked = [system.sites[k] for k in index]
    spins = np.array([iso.spin for _, iso in picked])
    dims = [iso.multiplicity for _, iso in picked]
    pv = np.array([site.principal_values for site, _ in picked]).reshape(-1, 3)
    norms = np.abs(pv).max(axis=1, initial=0.0)  # ||A||_2
    for k in np.flatnonzero((spins > 0.0) & (norms >= nu_e)):
        warnings.warn(
            f"site {index[k]}: ||A|| = {norms[k]:.1f} MHz is not small against "
            f"nu_e = {nu_e:.1f} MHz; perturbative lines are unreliable",
            stacklevel=3,
        )
    if mode == MODE_ACONST:
        tensors = pv[:, :, None] * np.eye(3)
    else:
        frames = np.array([site.frame for site, _ in picked]).reshape(-1, 3, 3)
        tensors = (frames * pv[:, None, :]) @ frames.transpose(0, 2, 1)
    a_vec = axis @ tensors                                  # A^T n per site
    # K = |a| as a batched dot product, which rounds as np.linalg.norm does.
    coupling = np.sqrt((a_vec[:, None, :] @ a_vec[:, :, None]).ravel())
    # Projections m = I, I-1, ... on a grid padded to the largest 2I+1.
    m = spins[:, None] - np.arange(max(dims, default=1))
    shifts = coupling[:, None] * m
    if order >= 2:
        frob2 = (tensors * tensors).sum(axis=(1, 2))
        aligned = coupling > 1e-12
        u = a_vec / np.where(aligned, coupling, 1.0)[:, None]
        au = tensors @ u[:, :, None]
        au2 = np.where(aligned, (au * au).sum(axis=(1, 2)), 0.0)
        m2 = m * m
        second = (au2 - coupling**2)[:, None] * m2 + (frob2 - au2)[:, None] * (
            (spins * (spins + 1.0))[:, None] - m2
        ) / 2.0
        shifts = shifts + second / (2.0 * nu_e)
    tables = [
        row[:d] if spin > 0.0 else np.zeros(1)
        for row, d, spin in zip(shifts, dims, spins)
    ]
    return nu_e, tables


def _compositions(total: int, bins: int):
    """All count vectors of length ``bins`` summing to ``total``.

    Ordered with the first bin descending, so two-bin groups come out
    as (n, 0), (n-1, 1), ..., (0, n).
    """
    if bins == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, bins - 1):
            yield (first,) + rest


def _multinomial(counts) -> int:
    """Ways to deal sum(counts) distinct sites into bins of these sizes."""
    coef = math.factorial(sum(counts))
    for c in counts:
        coef //= math.factorial(c)
    return coef


@lru_cache(maxsize=128)          # (group size, projections) pairs
def _group_classes(size: int, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Every composition of ``size`` sites into ``bins`` projections (one
    row each) with its probability when each site picks uniformly."""
    compositions = list(_compositions(size, bins))
    counts = np.array(compositions, dtype=float)
    probs = np.array([_multinomial(c) / bins**size for c in compositions])
    counts.flags.writeable = probs.flags.writeable = False
    return counts, probs


def _shift_distribution(tables) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of the summed shift of independent, uniform sites.

    Sites whose tables agree within ``_SHIFT_TOLERANCE`` form one group,
    built from the mean of its tables so the first moment stays exact. A
    group of k sites with d projections gives one class per composition c
    of k into d bins: shift sum_j c_j t_j, probability k!/prod_j c_j! / d^k.
    Groups combine by outer sum (shifts add, probabilities multiply).
    Returns ``(shifts, probabilities)`` in no particular order.
    """
    groups: list[list[np.ndarray]] = []
    for table in tables:
        for members in groups:
            head = members[0]
            if head.shape == table.shape and (
                np.abs(head - table).max() <= _SHIFT_TOLERANCE
            ):
                members.append(table)
                break
        else:
            groups.append([table])
    shifts, probs = np.zeros(1), np.ones(1)
    for members in groups:
        counts, p = _group_classes(len(members), members[0].size)
        # sum / k is np.mean's arithmetic (same bits) without its wrapper.
        table = (members[0] if len(members) == 1
                 else np.array(members).sum(axis=0) / len(members))
        shifts = np.add.outer(shifts, counts @ table).ravel()
        probs = np.multiply.outer(probs, p).ravel()
    return shifts, probs


def perturb_lines(
    system: SpinSystem, field, order: int = 2, mode: str = MODE_FULL
) -> LineList:
    """Shift distribution of the nuclear projections, perturbatively.

    Each nucleus picks its projection m uniformly and independently. Sites
    with the same shift table are counted together, so each line is one
    count-level class of configurations: unit intensity, weight equal to
    the class probability. ``meta["configurations"]`` is the number of
    configurations, prod(2I_k + 1). ``mode`` selects the full crystal-frame
    tensors or the diagonal principal-value simplification.
    """
    nu_e, tables = _shift_tables(
        system, field, order, mode, range(len(system.sites))
    )
    shifts, probs = _shift_distribution(tables)
    return LineList(
        method=f"perturb{order}",
        field=field,
        frequencies=nu_e + shifts,
        intensities=np.ones(shifts.size),
        weights=probs,
        meta={
            "mode": mode,
            "order": order,
            "configurations": math.prod(t.size for t in tables),
        },
    )


def exact_transitions(
    h: HamiltonianMatrix,
    system: SpinSystem,
    intensity_floor: float = INTENSITY_FLOOR,
) -> LineList:
    """Diagonalize and emit all upward transitions driven by S_x.

    Intensity is |<f| S_x |i>|^2 with S_x the electron's lab-frame x
    component, whatever the field direction (ROADMAP item 2 discusses
    driving perpendicular to the field instead); lines weaker than
    ``intensity_floor`` relative to the strongest are dropped. The electron
    is the first factor, so S_x = sigma_x/2 (x) 1 couples the upper and
    lower halves of each eigenvector: with X = U_up^H U_dn,
    <f|S_x|i> = (X[f, i] + conj(X[i, f]))/2. ``eigh`` (n^3) sets the cost.
    """
    dims = (2,) + system.site_dimensions()
    if dims != h.dims:
        raise ValueError("system does not match the Hamiltonian's factor layout")
    energies, states = np.linalg.eigh(h.matrix)
    half = h.dimension // 2
    x = states[:half].conj().T @ states[half:]
    del states                      # n x n arrays go as soon as used: peak RSS
    ii, fi = np.triu_indices(len(energies), k=1)   # E_f >= E_i pairs, f > i
    freqs = energies[fi] - energies[ii]
    intens = np.abs(0.5 * (x[fi, ii] + x[ii, fi].conj())) ** 2
    del x, ii, fi
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
    ``subset_terms``; every exact line is then convolved with the
    count-level shift distribution of the remaining sites, as in
    ``perturb_lines`` (frequencies add, weights multiply), so there is one
    line per exact line and class. ``meta["configurations"]`` counts the
    remaining sites' configurations. Lines below the 30 MHz analysis floor stay in the list;
    windowing is the statistics layer's job. ``order`` and ``mode`` are
    checked, and zero field rejected, even when every site is exact.
    Raises ``DimensionError`` when the exact subsystem is larger than
    ``DIMENSION_CAP``.
    """
    selection = _normalize_selection(system, exact_sites)
    mask = normalize_terms(subset_terms) | {"ezi"}
    if not selection:
        return perturb_lines(system, field, order=order, mode=mode)
    rest = [i for i in range(len(system.sites)) if i not in selection]
    _, tables = _shift_tables(system, field, order, mode, rest)
    subsystem = system.subsystem(selection, label_suffix=":exact-subset")
    try:
        h = build_hamiltonian(subsystem, field, terms=mask)
    except DimensionError as exc:
        raise DimensionError(
            f"{len(selection)} exact sites give dimension {subsystem.dimension}, "
            f"above the cap {DIMENSION_CAP}; select fewer exact sites"
        ) from exc
    exact = exact_transitions(h, subsystem)
    if not rest:
        exact.meta.update(exact_sites=selection, method_detail="all sites exact")
        return exact
    shifts, probs = _shift_distribution(tables)
    return LineList(
        method="hybrid",
        field=field,
        frequencies=np.add.outer(exact.frequencies, shifts).ravel(),
        intensities=np.repeat(exact.intensities, shifts.size),
        weights=np.multiply.outer(exact.weights, probs).ravel(),
        meta={
            "exact_sites": selection,
            "subset_terms": sorted(mask),
            "order": order,
            "mode": mode,
            "configurations": math.prod(t.size for t in tables),
        },
    )


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

    Up to ``enumeration_threshold`` configurations (counted raw, before
    ``perturb_lines`` groups them into classes) this delegates to
    ``perturb_lines``: one line per count-level class, with the exact
    distribution of the full enumeration. Beyond it, ``sample_count``
    configurations are drawn uniformly with a deterministic generator, one
    line each of weight 1/sample_count: a fixed seed reproduces the line
    list bit for bit.
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
