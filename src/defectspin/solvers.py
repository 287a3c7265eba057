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

What no field changes is computed once and kept. A system's site arrays
(spins, multiplicities, ||A||_2, the projection grid, each mode's crystal
frame tensors and their squared Frobenius norms) are built by its first
perturbative solve and kept, keyed by the system object, until the system is
garbage-collected; a site subset takes rows of them. The class probabilities
of a group structure, keyed by its (group size, projections) pairs, are kept
for the 8 most recent structures of at most 2**14 classes. Every array a
solver returns is fresh, so a caller may modify it.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .hamiltonian import (
    DIMENSION_CAP,
    DimensionError,
    HamiltonianMatrix,
    _checked_field,
    build_hamiltonian,
    normalize_terms,
)
from .isotopes import ELECTRON_ZEEMAN_MHZ_PER_G
from .system import SpinSystem

INTENSITY_FLOOR = 1e-6          # relative to the strongest line
ENUMERATION_THRESHOLD = 10**6   # configurations before sampling; classes before raising
# Sites whose shift tables agree this closely (MHz) are counted as one group.
_SHIFT_TOLERANCE = 1e-9
# A split spectrum with a gap at most this times max |E| is solved in full:
# inside a degenerate eigenspace the eigensolver's basis decides which weak
# lines pass INTENSITY_FLOOR. Goes when ROADMAP item 4 sums the moments over
# degenerate clusters.
_DEGENERACY_TOLERANCE = 1e-11

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


class _SiteArrays(NamedTuple):
    """What no field changes, for every site of one system (read-only)."""

    spins: np.ndarray          # I
    dims: list[int]            # 2I + 1
    norms: np.ndarray          # ||A||_2
    m: np.ndarray              # I, I-1, ... padded to the largest 2I+1
    m2: np.ndarray             # m^2
    transverse: np.ndarray     # I(I+1) - m^2
    by_mode: dict              # mode -> (crystal-frame A, ||A||_F^2)


# Keyed by the system object: a system is frozen and its frames are
# read-only, so an entry never goes stale, and it goes with its system.
_SITE_ARRAYS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _site_arrays(system: SpinSystem) -> _SiteArrays:
    """The ``_SiteArrays`` of ``system``, built on its first call."""
    arrays = _SITE_ARRAYS.get(system)
    if arrays is not None:
        return arrays
    spins = np.array([iso.spin for _, iso in system.sites])
    dims = [iso.multiplicity for _, iso in system.sites]
    pv = np.array([site.principal_values for site, _ in system.sites]).reshape(-1, 3)
    frames = np.array([site.frame for site, _ in system.sites]).reshape(-1, 3, 3)
    m = spins[:, None] - np.arange(max(dims, default=1))
    m2 = m * m
    norms = np.abs(pv).max(axis=1, initial=0.0)
    transverse = (spins * (spins + 1.0))[:, None] - m2
    by_mode = {
        mode: (a, (a * a).sum(axis=(1, 2))) for mode, a in (
            (MODE_ACONST, pv[:, :, None] * np.eye(3)),
            (MODE_FULL, (frames * pv[:, None, :]) @ frames.transpose(0, 2, 1)),
        )
    }
    for a in (spins, norms, m, m2, transverse, *(a for pair in by_mode.values() for a in pair)):
        a.flags.writeable = False
    arrays = _SiteArrays(spins, dims, norms, m, m2, transverse, by_mode)
    _SITE_ARRAYS[system] = arrays
    return arrays


def _shift_tables(system: SpinSystem, field, order: int, mode: str, sites=None):
    """Checked set-up shared by every perturbative solver.

    Validates ``order``, ``mode`` and the field (``ValueError`` unless it is a
    finite 3-vector), raises ``ZeroFieldError`` at zero electron Zeeman
    splitting, warns for each site in ``sites`` (default: all) whose
    coupling is not small against nu_e, and returns nu_e (MHz) with the
    per-projection shift table of each site in ``sites``, m descending.
    Only the field-dependent terms are computed here.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if mode not in (MODE_FULL, MODE_ACONST):
        raise ValueError(f"mode must be {MODE_FULL!r} or {MODE_ACONST!r}, not {mode!r}")
    nu_e, axis = electron_axis(system, _checked_field(field))
    if nu_e == 0.0:
        raise ZeroFieldError(
            "zero electron Zeeman splitting; use exact_transitions instead"
        )
    spins, dims, norms, m, m2, transverse, by_mode = _site_arrays(system)
    tensors, frob2 = by_mode[mode]
    index = range(len(dims)) if sites is None else list(sites)
    if sites is not None:                   # the subset's rows
        rows, dims = np.array(index, dtype=np.intp), [dims[k] for k in index]
        spins, norms, tensors, frob2 = spins[rows], norms[rows], tensors[rows], frob2[rows]
        m, m2, transverse = m[rows], m2[rows], transverse[rows]
    for k in np.flatnonzero((spins > 0.0) & (norms >= nu_e)):
        warnings.warn(
            f"site {index[k]}: ||A|| = {norms[k]:.1f} MHz is not small against "
            f"nu_e = {nu_e:.1f} MHz; perturbative lines are unreliable",
            stacklevel=3,
        )
    a_vec = axis @ tensors                                  # A^T n per site
    # K = |a| as a batched dot product, which rounds as np.linalg.norm does.
    coupling = np.sqrt((a_vec[:, None, :] @ a_vec[:, :, None]).ravel())
    shifts = coupling[:, None] * m
    if order >= 2:
        aligned = coupling > 1e-12
        u = a_vec / np.where(aligned, coupling, 1.0)[:, None]
        au = tensors @ u[:, :, None]
        au2 = np.where(aligned, (au * au).sum(axis=(1, 2)), 0.0)
        second = (au2 - coupling**2)[:, None] * m2 + (
            (frob2 - au2)[:, None] * transverse / 2.0
        )
        shifts = shifts + second / (2.0 * nu_e)
    tables = [
        row[:d] if spin > 0.0 else np.zeros(1)
        for row, d, spin in zip(shifts, dims, spins.tolist())
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


# The probability fold of a group structure is cached only up to this many
# classes (8 folds of 2**14 floats hold at most 1 MB): large folds are rare,
# cheap next to their line lists, and would keep a process's peak RSS up.
_CLASS_CACHE_LIMIT = 1 << 14
_CLASS_CACHE_SIZE = 8


def _fold_probabilities(structure) -> np.ndarray:
    """Class probabilities of independent groups, ``structure`` holding one
    (group size, projections) pair per group: outer product, groups in order."""
    probs = np.ones(1)
    for size, bins in structure:
        probs = np.multiply.outer(probs, _group_classes(size, bins)[1]).ravel()
    return probs


_cached_fold = lru_cache(maxsize=_CLASS_CACHE_SIZE)(_fold_probabilities)


def _shift_distribution(tables) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of the summed shift of independent, uniform sites.

    Sites whose tables agree within ``_SHIFT_TOLERANCE`` form one group,
    built from the mean of its tables so the first moment stays exact. A
    group of k sites with d projections gives one class per composition c
    of k into d bins: shift sum_j c_j t_j, probability k!/prod_j c_j! / d^k.
    Groups combine by outer sum (shifts add, probabilities multiply); the
    probabilities depend only on the group structure, so they come from a
    small cache (as a fresh copy). Returns ``(shifts, probabilities)`` in no
    particular order. Raises ``ValueError`` past ``ENUMERATION_THRESHOLD``
    classes, counted from the group structure before any array is built.
    """
    groups: list[list[np.ndarray]] = []
    heads: list[list[float]] = []
    for table in tables:
        values = table.tolist()
        for head, members in zip(heads, groups):
            # Python floats round as numpy's do; a NaN difference joins nothing.
            if len(head) == len(values) and all(
                abs(h - v) <= _SHIFT_TOLERANCE for h, v in zip(head, values)
            ):
                members.append(table)
                break
        else:
            groups.append([table])
            heads.append(values)
    structure = tuple((len(members), members[0].size) for members in groups)
    # A group of k sites with d projections has C(k + d - 1, d - 1) classes.
    classes = math.prod(math.comb(k + d - 1, d - 1) for k, d in structure)
    if classes > ENUMERATION_THRESHOLD:
        raise ValueError(f"{classes} configuration classes exceed the enumeration "
                         f"limit {ENUMERATION_THRESHOLD}")
    shifts = np.zeros(1)
    for members in groups:
        counts, _ = _group_classes(len(members), members[0].size)
        # sum / k is np.mean's arithmetic (same bits) without its wrapper.
        table = (members[0] if len(members) == 1
                 else np.array(members).sum(axis=0) / len(members))
        shifts = np.add.outer(shifts, counts @ table).ravel()
    if classes <= _CLASS_CACHE_LIMIT:
        return shifts, _cached_fold(structure).copy()
    return shifts, _fold_probabilities(structure)


def perturb_lines(
    system: SpinSystem, field, order: int = 2, mode: str = MODE_FULL
) -> LineList:
    """Shift distribution of the nuclear projections, perturbatively.

    Each nucleus picks its projection m uniformly and independently. Sites
    with the same shift table are counted together, so each line is one
    count-level class of configurations: unit intensity, weight equal to
    the class probability. ``meta["configurations"]`` is the number of
    configurations, prod(2I_k + 1). ``mode`` selects the full crystal-frame
    tensors or the diagonal principal-value simplification. Raises
    ``ValueError`` past ``ENUMERATION_THRESHOLD`` classes.
    """
    nu_e, tables = _shift_tables(system, field, order, mode)
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


def _kept_pairs(moments: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices, row by row, of the entries of the 2-D
    ``moments`` that are at least ``floor`` times the largest."""
    kept = np.flatnonzero(moments >= floor * moments.max())
    return np.divmod(kept, moments.shape[1])


def _full_pairs(h: HamiltonianMatrix, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and S_x moments of the upward pairs that pass ``floor``,
    from one ``eigh``.

    The moments are formed whole, as P[i, f] = |(conj(X[i, f]) + X[f, i])/2|^2:
    the strict upper triangle (i < f, E_i <= E_f) holds every pair once, and
    P is symmetric bit for bit, so with its diagonal zeroed its largest entry
    is the largest pair's. Frequencies are taken only for the pairs kept.
    """
    energies, states = np.linalg.eigh(h.matrix)
    half = h.dimension // 2
    x = states[:half].conj().T @ states[half:]
    # No n x n array of their own (peak RSS, and fresh pages cost a fault
    # each): the pair amplitudes overwrite the eigenvectors, the moments the
    # real parts of X.
    m = np.conjugate(x, out=states)
    m += x.T
    m *= 0.5
    moments = np.abs(m, out=x.real)
    del m, states
    np.square(moments, out=moments)
    np.fill_diagonal(moments, 0.0)
    ii, fi = _kept_pairs(moments, floor)
    upward = ii < fi
    ii, fi = ii[upward], fi[upward]
    return energies[fi] - energies[ii], moments[ii, fi]


@lru_cache(maxsize=32)
def _parity_split(dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the even and the odd parity block, listed by nuclear index
    so that electron-flip partners align (see ``_block_pairs``)."""
    half = math.prod(dims) // 2
    q = np.zeros(1, dtype=np.intp)
    for d in dims[1:]:
        q = (q[:, None] + np.arange(d)).ravel()
    even = (q & 1) * half + np.arange(half)
    odd = (even + half) % (2 * half)
    even.flags.writeable = odd.flags.writeable = False
    return even, odd


def _block_pairs(h: HamiltonianMatrix, floor: float):
    """Frequencies and S_x moments of the parity-allowed pairs that pass
    ``floor``, from two half-size ``eigh``s, or ``None`` when H does not
    split or its spectrum has a gap within ``_DEGENERACY_TOLERANCE`` of
    max |E|.

    A basis state's parity is its sum of factor indices mod 2. Nuclear index
    r gives one even state, (q(r), r), and its electron-flipped partner,
    (1 - q(r), r), in the odd block, with q the nuclear parity: listing both
    blocks by r aligns every partner pair, so <odd f|S_x|even i> =
    (U_odd^H U_even)[f, i] / 2 and pairs within a block have no moment.
    """
    even, odd = _parity_split(h.dims)
    # Row 0 holds the transverse Zeeman terms: a tilted field stops here, O(n).
    if (h.matrix[0, odd].any() or h.matrix[np.ix_(even, odd)].any()
            or h.matrix[np.ix_(odd, even)].any()):
        return None
    e_even, u_even = np.linalg.eigh(h.matrix[np.ix_(even, even)])
    e_odd, u_odd = np.linalg.eigh(h.matrix[np.ix_(odd, odd)])
    merged = np.sort(np.concatenate((e_even, e_odd)))
    if np.diff(merged).min() <= _DEGENERACY_TOLERANCE * np.abs(merged).max():
        return None
    moments = np.abs(0.5 * (u_odd.conj().T @ u_even)) ** 2
    fi, ii = _kept_pairs(moments, floor)
    return np.abs(e_odd[fi] - e_even[ii]), moments[fi, ii]


def exact_transitions(
    h: HamiltonianMatrix,
    system: SpinSystem,
    intensity_floor: float = INTENSITY_FLOOR,
) -> LineList:
    """Diagonalize and emit all upward transitions driven by S_x.

    Intensity is |<f| S_x |i>|^2 with S_x the electron's lab-frame x
    component, whatever the field direction (ROADMAP item 4 discusses
    driving perpendicular to the field instead); lines weaker than
    ``intensity_floor`` relative to the strongest are dropped. The electron
    is the first factor, so S_x = sigma_x/2 (x) 1 couples the upper and
    lower halves of each eigenvector: with X = U_up^H U_dn,
    <f|S_x|i> = (X[f, i] + conj(X[i, f]))/2, and ``eigh`` (n^3) sets the cost.

    When H has no element between the two parity blocks (B along c, with c
    a principal axis of g and of every tensor), the blocks are diagonalized
    apart: two (n/2)^3 ``eigh``s and one (n/2)^3 moment product, a quarter
    to a third of the full cost. Only the n^2/4 pairs across the blocks are
    emitted; the pairs inside a block have a zero moment, so even a floor
    of 0 returns none of them. A tilted field is found to mix the blocks
    after O(n) work. A split spectrum with near-degenerate levels is solved
    in full instead, so the floor sees the same moments as before.

    Raises ``ValueError`` when ``intensity_floor`` is not a number in
    [0, 1] (NaN included) or ``system`` does not match ``h``'s layout.
    """
    if not 0.0 <= intensity_floor <= 1.0:
        raise ValueError(f"intensity_floor must be in [0, 1], got {intensity_floor!r}")
    dims = (2,) + system.site_dimensions()
    if dims != h.dims:
        raise ValueError("system does not match the Hamiltonian's factor layout")
    freqs, intens = _block_pairs(h, intensity_floor) or _full_pairs(h, intensity_floor)
    # Complex keys sort by frequency, then intensity; tied pairs are equal.
    key = np.empty(freqs.size, dtype=complex)
    key.real, key.imag = freqs, intens
    order = np.argsort(key)
    return LineList(
        method="exact",
        field=h.field,
        frequencies=freqs[order],
        intensities=intens[order],
        weights=np.ones(freqs.size),
        meta={"terms": sorted(h.terms), "dimension": h.dimension},
    )


def _normalize_selection(system: SpinSystem, indices) -> tuple[int, ...]:
    return tuple(sorted(system._checked_indices(int(i) for i in indices)))


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
    ``DIMENSION_CAP``, and ``ValueError`` past ``ENUMERATION_THRESHOLD`` classes.
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
    nu_e, tables = _shift_tables(system, field, order, mode)
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
