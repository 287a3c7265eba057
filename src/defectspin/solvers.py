"""Resonance line lists: exact, perturbative, hybrid and sampled solvers.

Every solver returns a ``LineList`` whose entries carry a frequency (MHz),
an intensity (transition moment, dimensionless) and a weight (the
probability of its class of nuclear configurations, or of its draw when
sampled, times the isotopologue probability in a composite). Peak
statistics come from the line list itself, or in closed form from the same
shift tables (``spectrum.perturb_stats``), never from a rendered spectrum.
One ``ShiftDistribution`` holds the shift tables under every perturbative
path: the lines of ``perturb_lines``, ``hybrid_solve`` and ``composite_lines``,
the draws of ``sample_configurations`` and the moments of ``perturb_stats``.

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
orthonormal frame ||A||_2 is max |principal value|. The warning points at
the public function's caller; the closed form gives it only with statistics.

What no field changes is computed once and kept. A system's site arrays
(spins, multiplicities, ||A||_2, the projection grid, each mode's crystal
frame tensors and their squared Frobenius norms) are built by its first
perturbative solve and kept, keyed by the system object, until the system is
garbage-collected; a site subset takes rows of them. ``build_system`` and
``apply_pattern`` share their systems across calls, so one set of arrays
serves every call on the same defect and pattern. The class probabilities
of a group structure, keyed by its (group size, projections) pairs, are kept
for the 8 most recent structures of at most 2**14 classes. A
``ShiftDistribution`` lives for one call. Every array a solver returns is
fresh, so a caller may modify it.
"""

from __future__ import annotations

import math
import sys
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
from .system import SpinSystem, axial_frame

INTENSITY_FLOOR = 1e-6          # relative to the strongest line
ENUMERATION_THRESHOLD = 10**6   # configurations before sampling; classes before raising
# Sites whose shift tables agree this closely (MHz) are counted as one group.
_SHIFT_TOLERANCE = 1e-9
# A split spectrum with a gap at most this times max |E| is solved in full:
# inside a degenerate eigenspace the eigensolver's basis decides which weak
# lines pass INTENSITY_FLOOR. Goes when ROADMAP item 7 sums the moments over
# degenerate clusters.
_DEGENERACY_TOLERANCE = 1e-11
# A site is another's image (or its own) under the 120-degree turn about c
# when its tensors equal the other's turned to this fraction of their largest
# entry; H maps to itself under the turn when its entries do, to this
# fraction of max |H|, and a block is real when its imaginary part is this
# small. Far above the rounding of the bundled frames (1e-16), far below any
# physical difference: what is ignored moves no level by more than this
# fraction of the largest entry.
_SYMMETRY_TOLERANCE = 1e-12

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
    """Electron Zeeman frequency nu_e (MHz), which must be finite, and quantization direction."""
    b = np.asarray(field, dtype=float)
    with np.errstate(over="ignore"):           # an overflow is refused below
        heff = ELECTRON_ZEEMAN_MHZ_PER_G * (system.g_tensor.T @ b)
        nu_e = float(np.linalg.norm(heff))
    if not math.isfinite(nu_e):
        raise ValueError("electron Zeeman frequency overflows: g tensor or field too large")
    if nu_e == 0.0:
        return 0.0, np.array([0.0, 0.0, 1.0])
    return nu_e, heff / nu_e


class _SiteArrays(NamedTuple):
    """What no field changes, for every site of one system (read-only)."""

    spins: np.ndarray          # I
    dims: list[int]            # 2I + 1
    norms: np.ndarray          # ||A||_2, 0 where I = 0
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
    norms = np.where(spins > 0.0, np.abs(pv).max(axis=1, initial=0.0), 0.0)
    transverse = (spins * (spins + 1.0))[:, None] - m2
    with np.errstate(over="ignore"):           # an overflow is refused below
        by_mode = {
            mode: (a, (a * a).sum(axis=(1, 2))) for mode, a in (
                (MODE_ACONST, pv[:, :, None] * np.eye(3)),
                (MODE_FULL, (frames * pv[:, None, :]) @ frames.transpose(0, 2, 1)),
            )
        }
    if not np.isfinite(by_mode[MODE_ACONST][1] + by_mode[MODE_FULL][1]).all():
        raise ValueError("hyperfine tensor too large: its ||A||_F^2 overflows")
    for a in (spins, norms, m, m2, transverse, *(a for pair in by_mode.values() for a in pair)):
        a.flags.writeable = False
    arrays = _SiteArrays(spins, dims, norms, m, m2, transverse, by_mode)
    _SITE_ARRAYS[system] = arrays
    return arrays


def _shift_tables(system: SpinSystem, field, order: int, mode: str, sites=None):
    """Checked set-up shared by every perturbative solver.

    Validates ``order``, ``mode`` and the field (``ValueError`` unless it is a
    finite 3-vector), raises ``ZeroFieldError`` at zero electron Zeeman
    splitting, and returns nu_e (MHz) with the per-projection shift table of
    each site in ``sites`` (default: all), m descending. Only the
    field-dependent terms are computed here.
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
    spins, dims, _, m, m2, transverse, by_mode = _site_arrays(system)
    tensors, frob2 = by_mode[mode]
    if sites is not None:                   # the subset's rows
        rows, dims = np.array(sites, dtype=np.intp), [dims[k] for k in sites]
        spins, tensors, frob2 = spins[rows], tensors[rows], frob2[rows]
        m, m2, transverse = m[rows], m2[rows], transverse[rows]
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
    return math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))


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


def _warn(message: str):
    """Warn at the caller of the public function: the first frame outside the
    package's library modules (``cli`` calls the library, so it counts)."""
    frame, level = sys._getframe(1), 2
    while (frame.f_back is not None and frame.f_globals.get("__package__") == __package__
           and not frame.f_code.co_filename.endswith("cli.py")):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


class ShiftDistribution:
    """Carrier lines convolved with the shifts of independent sites, mixed
    over parts: the one model under every perturbative solver.

    ``parts`` holds (system, probability) pairs. For each part it keeps
    nu_e, the ``_shift_tables`` of ``sites`` (default: all; their set-up
    errors are raised here) and the messages of those sites whose coupling
    is not small against nu_e. The messages are held: each operation gives
    them as warnings at the caller of the public function that called it,
    and ``moments`` only when it returns statistics.
    """

    def __init__(self, parts, field, order: int, mode: str, sites=None):
        self.parts = []                     # (probability, nu_e, tables, messages)
        for system, probability in parts:
            nu_e, tables = _shift_tables(system, field, order, mode, sites)
            norms = _site_arrays(system).norms
            messages = [
                f"site {k}: ||A|| = {norms[k]:.1f} MHz is not small against "
                f"nu_e = {nu_e:.1f} MHz; perturbative lines are unreliable"
                for k in (norms >= nu_e).nonzero()[0].tolist() if sites is None or k in sites
            ]
            self.parts.append((probability, nu_e, tables, messages))

    def lines(self, carriers=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Frequencies, intensities and weights, parts concatenated in order.

        A part's carrier is one line at nu_e of unit intensity, weighted by
        the part's probability, or the ``LineList`` that ``carriers()``
        returns, called after the part's warnings. Every carrier line takes
        every count-level class of ``_shift_distribution``: frequencies add,
        weights multiply.
        """
        columns = []
        for probability, nu_e, tables, messages in self.parts:
            for message in messages:
                _warn(message)
            carrier = None if carriers is None else carriers()
            shifts, probs = _shift_distribution(tables)
            if carrier is None:
                if probability != 1.0:          # probs is fresh; 1.0 would change no bit
                    probs *= probability
                columns.append((nu_e + shifts, np.ones(shifts.size), probs))
            else:
                columns.append((np.add.outer(carrier.frequencies, shifts).ravel(),
                                np.repeat(carrier.intensities, shifts.size),
                                np.multiply.outer(carrier.weights, probs).ravel()))
        return columns[0] if len(columns) == 1 else tuple(map(np.concatenate, zip(*columns)))

    def moments(self, lo: float, hi: float, shift: float = 0.0) -> tuple[float, float] | None:
        """Center and sigma of the lines shifted by ``shift`` in closed form,
        or ``None`` when the window [``lo``, ``hi``] may cut a line.

        Sites are independent, so a part's mean is nu_e + ``shift`` +
        sum_k mean(t_k) and its variance sum_k var(t_k) over its tables t_k
        (Van Vleck's method of moments, Phys. Rev. 74, 1168 (1948)); a
        mixture adds the spread of its part means. These are the lines'
        moments only while the window cuts none: ``None`` unless each part's
        extremes, nu_e + shift + sum_k min t_k or max t_k, lie over
        (sites + 1) * ``_SHIFT_TOLERANCE`` inside it (grouping equal tables
        moves no line past them) and a probability is > 0. Moments past the
        float range raise ``ValueError``; the warnings come after that check.
        """
        moments = []
        inside = True
        for probability, nu_e, tables, _ in self.parts:
            tables = [t.tolist() for t in tables]       # at most 2I + 1 values each
            margin = (len(tables) + 1) * _SHIFT_TOLERANCE
            base = nu_e + shift
            inside = inside and (lo + margin < base + sum(map(min, tables))
                                 and base + sum(map(max, tables)) < hi - margin)
            means = [sum(t) / len(t) for t in tables]
            moments.append((probability, base + sum(means), tables, means))
        total = sum(p for p, *_ in moments)
        if not (inside and total > 0):
            return None
        center = sum(p * mean for p, mean, *_ in moments) / total
        try:                # a Python float square past the float range raises
            sigma = math.sqrt(sum(
                p * (sum(sum((v - m) ** 2 for v in t) / len(t) for t, m in zip(tables, means))
                     + (mean - center) ** 2)
                for p, mean, tables, means in moments) / total)
        except OverflowError:
            sigma = math.inf
        if not math.isfinite(center + sigma):
            raise ValueError("hyperfine tensor too large: the line moments overflow")
        for message in (m for *_, messages in self.parts for m in messages):
            _warn(message)
        return center, sigma

    def sample(self, count: int, seed) -> np.ndarray:
        """Frequencies of ``count`` configurations of the one part, each site's
        projection drawn uniformly, site by site, by ``default_rng(seed)``."""
        (_, nu_e, tables, messages), = self.parts
        for message in messages:
            _warn(message)
        rng = np.random.default_rng(seed)
        freqs = np.full(count, nu_e)
        for table in tables:
            freqs = freqs + table[rng.integers(0, table.size, size=count)]
        return freqs


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
    shifts = ShiftDistribution([(system, 1.0)], field, order, mode)
    return LineList(
        f"perturb{order}", field, *shifts.lines(),
        meta={"mode": mode, "order": order, "configurations": system.dimension // 2},
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


class _Split(NamedTuple):
    """Sectors of the basis that H does not mix (read-only arrays).

    Row k < ``sizes[s]`` of sector s is the orbit sum of basis state
    ``rows[s, k]`` (the state itself when the turn fixes it); the rows past
    it pad every sector to one length, with zero weights and scales. H's
    block of sector s is the leading ``sizes[s]`` square of
    ``scales[s, :, None] * sum_l H[rows[s, :, None], cols[s, l]] * weights[s, l]``.
    With ``real`` = (twins, alphas, betas), Z^H block Z is real when the
    mirror maps H to itself, Z the unitary with two entries per column j:
    Z[j, j] = alphas[s, j] and Z[twins[s, j], j] = betas[s, j]. Sector s lies on the parity side
    ``sides[s]``, and its row k at ``places[s, k]`` of that side: the rows at
    one place on the two sides are electron-flip partners. S_x flips the
    electron and so the parity, so with U_even and U_odd holding each side's
    eigenvectors by place, <odd f|S_x|even i> = (U_odd^H U_even)[f, i] / 2.
    """

    rows: np.ndarray            # (sectors, length)
    cols: np.ndarray            # (sectors, lags, length)
    weights: np.ndarray         # (sectors, lags, length)
    scales: np.ndarray          # (sectors, length)
    places: np.ndarray          # (sectors, length)
    real: tuple | None          # three (sectors, length)
    sides: tuple
    sizes: tuple


def _padded(column) -> np.ndarray:
    """The arrays of ``column``, one per sector, stacked and padded with
    zeros on their last axis to the longest, read-only."""
    padded = np.zeros((len(column), *column[0].shape[:-1], max(a.shape[-1] for a in column)),
                      column[0].dtype)
    for target, a in zip(padded, column):
        target[..., : a.shape[-1]] = a
    padded.flags.writeable = False
    return padded


@lru_cache(maxsize=32)
def _levels(dims: tuple[int, ...]) -> np.ndarray:
    """n_b, the sum of factor indices of each basis state (read-only): J_z is
    its largest value minus n_b, and parity is n_b mod 2."""
    level = np.indices(dims).reshape(len(dims), -1).sum(axis=0)
    level.flags.writeable = False
    return level


@lru_cache(maxsize=32)
def _moved_states(dims: tuple[int, ...], images: tuple[int, ...]) -> np.ndarray:
    """Where moving site k's state to site ``images[k]`` takes each basis
    state (read-only)."""
    digits = np.indices(dims).reshape(len(dims), -1)
    moved = np.empty_like(digits)
    moved[[0, *(k + 1 for k in images)]] = digits
    step = np.ravel_multi_index(tuple(moved), dims)
    step.flags.writeable = False
    return step


@lru_cache(maxsize=32)
def _threefold_split(dims: tuple[int, ...], images: tuple[int, ...], mirror) -> _Split:
    """The six sectors of C x parity, C the turn that moves site k's state to
    site ``images[k]`` and multiplies basis state b by omega**n_b (n_b of
    ``_levels``). C and parity commute, and so does H when the turn maps it
    to itself (``_turn_commutes``).

    Sector r holds the eigenvalue omega**q, q = r % 3, of C and parity r % 2.
    Each orbit b, C b, C^2 b of three states gives one row to every sector of
    its parity, (1/sqrt 3) sum_l omega**((n_b - q) l) |C^l b>; a state C fixes
    gives its own row to sector n_b % 6. Rows are listed by state, so the
    electron-up rows come first. S_x flips the electron, which moves n_b by
    one and keeps the orbit's phases: the up rows of sector r are the
    partners, in order, of the down rows of sector r + 1 (mod 6). So the even
    side holds sectors 0, 2 and 4 in turn, and each row of an odd sector
    takes the place of its partner.

    The ``mirror`` images of ``_mirror_images`` (or ``None``) give the
    antiunitary T = M K, K complex conjugation (S_y -> -S_y) and M the
    mirror's move of site states. T commutes with S_x, and T C T^-1 = C^-1,
    so T keeps each sector, taking row b to a phase times row m (the orbit
    of M b, its twin). The rows b = m, times sqrt(phase), and the pairs
    (b + phase m) / sqrt 2, i (b - phase m) / sqrt 2, are fixed by T; they are
    the columns of the split's ``real`` form Z. When T commutes with H too,
    each block is real in the basis Z (Wigner's real form of an antiunitary
    symmetry; ``_real_form`` tests it). S_x keeps the phases and twins of
    partner rows, so Z is one unitary on each side's places and the moments
    need no Z at all: <odd f|S_x|even i> = (W_odd^H W_even)[f, i] / 2 with
    the eigenvectors W of the blocks in that basis placed as U would be.
    """
    n = math.prod(dims)
    step = _moved_states(dims, images)                  # C takes state b to step[b]
    orbits = np.stack((np.arange(n), step, step[step]))
    rep = orbits.min(axis=0)
    reps = np.flatnonzero(rep == orbits[0])
    fixed = step[reps] == reps
    level = _levels(dims)
    omega = np.exp(2j * math.pi / 3.0 * np.arange(3))   # omega**k for k = 0, 1, 2
    mirrored = None if mirror is None else _moved_states(dims, mirror)
    sectors, real = [], []
    for r in range(6):
        q = r % 3
        rows = reps[(level[reps] % 2 == r % 2) & (~fixed | (level[reps] % 3 == q))]
        scales = np.where(step[rows] == rows, 1.0 / math.sqrt(3.0), 1.0)
        phases = omega[(level[rows] - q) * np.arange(3)[:, None] % 3]
        sectors.append([r % 2, rows, orbits[:, rows], scales * phases, scales])
        if mirrored is not None:
            image = mirrored[rows]                              # M b = C**lag m
            twins = np.searchsorted(rows, rep[image])
            lag = np.argmax(orbits[:, rep[image]] == image, axis=0)
            phase = omega[-(level[rows] - q) * lag % 3]
            b = np.arange(rows.size)
            alone, first, second = twins == b, twins > b, twins < b
            alphas, betas = np.sqrt(phase), np.zeros(rows.size, dtype=complex)
            alphas[first], betas[first] = 1.0, phase[first]         # (b + phase m) / sqrt 2
            alphas[second], betas[second] = -1j * phase[twins[second]], 1j   # i (b - phase m)
            alphas[~alone] /= math.sqrt(2.0)
            betas /= math.sqrt(2.0)
            real.append((twins, alphas, betas))
    sizes = [rows.size for _, rows, *_ in sectors]
    ups = [np.count_nonzero(rows < n // 2) for _, rows, *_ in sectors]
    starts = {0: 0, 2: sizes[0], 4: sizes[0] + sizes[2]}
    for r, sector in enumerate(sectors):
        above, below = (r + 1) % 6, (r - 1) % 6     # even sectors of the partners
        sector.append(starts[r] + np.arange(sizes[r]) if r % 2 == 0 else np.concatenate((
            starts[above] + ups[above] + np.arange(ups[r]),
            starts[below] + np.arange(sizes[r] - ups[r]))))
    live = [k for k in range(6) if sizes[k]]                # empty sectors left out
    sides, *arrays = zip(*(sectors[k] for k in live))
    real = tuple(map(_padded, zip(*(real[k] for k in live)))) if real else None
    return _Split(*map(_padded, arrays), real, sides, tuple(sizes[k] for k in live))


def _site_moves(sites, tensors: np.ndarray, mapped: np.ndarray) -> np.ndarray:
    """moves[k, j]: a map takes site k to site j. Both carry one isotope, and
    j's hyperfine and EFG ``tensors`` are k's ``mapped``, each to
    ``_SYMMETRY_TOLERANCE`` of k's largest entry; a spinless site stays."""
    limits = _SYMMETRY_TOLERANCE * np.abs(tensors).max(axis=(2, 3))
    moves = (np.abs(tensors[None] - mapped[:, None]).max(axis=(3, 4)) <= limits[:, None]).all(-1)
    for k, (_, iso) in enumerate(sites):
        moves[k] &= [iso == other for _, other in sites]
        if iso.spin == 0.0:                     # no term to map
            moves[k] = moves[:, k] = False
            moves[k, k] = True
    return moves


def _site_tensors(sites) -> np.ndarray:
    """The hyperfine and EFG tensor of each site (a missing EFG counts as zero)."""
    return np.array([(site.hyperfine_tensor(), np.zeros((3, 3)) if site.efg is None
                      else site.efg) for site, _ in sites]).reshape(-1, 2, 3, 3)


@lru_cache(maxsize=32)
def _threefold_images(sites) -> tuple[int, ...] | None:
    """Where the 120-degree turn about c takes each of ``sites`` (``_site_moves``),
    or ``None``. Sites are taken in order, each into a 3-cycle k -> j -> l -> k
    of sites not yet placed if there is one (so a shell of equal sites axial
    about c turns as a shell), else to itself; ``None`` when neither holds.
    """
    tensors = _site_tensors(sites)
    turn = axial_frame(2.0 * math.pi / 3.0)
    moves = _site_moves(sites, tensors, turn @ tensors @ turn.T)
    images: list[int | None] = [None] * len(sites)
    for k in range(len(sites)):
        if images[k] is not None:
            continue
        free = [j for j in range(len(sites)) if images[j] is None and j != k]
        cycle = next(((j, l) for j in free if moves[k, j] for l in free
                      if l != j and moves[j, l] and moves[l, k]), None)
        if cycle is not None:
            images[k], images[cycle[0]], images[cycle[1]] = cycle[0], cycle[1], k
        elif moves[k, k]:
            images[k] = k
        else:
            return None
    return tuple(images)


@lru_cache(maxsize=32)
def _mirror_images(sites, turn: tuple[int, ...]) -> tuple[int, ...] | None:
    """Where the mirror y -> -y takes each of ``sites`` (``_site_moves``) when
    it maps each orbit of the ``turn`` of ``_threefold_images`` to itself,
    or ``None``. Under the parity of ``_sectors`` (c a principal axis of every
    tensor, so a half turn about c changes none) this tests every mirror
    plane through c at a multiple of 30 degrees from the xz plane.

    On a 3-cycle a -> turn(a) -> turn**2(a) such a mirror is a reflection: it
    fixes one site b and takes turn**t(a) to turn**-t(b). A site the turn
    fixes is axial about c and stays.
    """
    tensors = _site_tensors(sites)
    flip = np.diag([1.0, -1.0, 1.0])
    moves = _site_moves(sites, tensors, flip @ tensors @ flip)
    powers = [tuple(range(len(sites))), turn, tuple(turn[k] for k in turn)]
    images: list[int | None] = [None] * len(sites)
    for a in range(len(sites)):
        if images[a] is not None:
            continue
        orbit = sorted({power[a] for power in powers})
        for b in orbit:
            pairs = [(powers[t][a], powers[-t % 3][b]) for t in range(len(orbit))]
            if all(moves[x, y] for x, y in pairs):
                for x, y in pairs:
                    images[x] = y
                break
        else:
            return None
    return tuple(images)


def _turn_commutes(m: np.ndarray, rows: np.ndarray, cols: np.ndarray, dims, images) -> bool:
    """Whether the turn C of ``_threefold_split`` maps H to itself: at each of
    its nonzero entries (``rows``, ``cols``),
    H[C a, C b] = omega**(n_a - n_b) H[a, b] to ``_SYMMETRY_TOLERANCE`` of
    max |H|. As C**3 = 1, an entry the turn brings into a zero fails too; an
    H of zeros commutes."""
    step, level = _moved_states(dims, images), _levels(dims)
    values = m[rows, cols]
    omega = np.exp(2j * math.pi / 3.0 * np.arange(3))
    moved = m[step[rows], step[cols]] - omega[(level[rows] - level[cols]) % 3] * values
    return np.abs(moved).max(initial=0.0) <= _SYMMETRY_TOLERANCE * np.abs(values).max(initial=0.0)


def _sectors(h: HamiltonianMatrix, system: SpinSystem) -> _Split | None:
    """The six sectors of C3 x parity (``_threefold_split``) when they hold
    for ``h``, else ``None``.

    They hold when B lies along c (an O(1) test), the 120-degree turn about c
    maps the sites to themselves (``_threefold_images``, kept per site
    tuple), H has no entry between its two parity blocks (n_b mod 2,
    ``_levels``; c a principal axis of g and of every tensor) and the turn
    maps H to itself (``_turn_commutes``). Only the last two read H, one
    test of each nonzero entry, so a tilted field or sites without the turn
    stop before H is scanned. The sites only propose the turn and H decides,
    so an H with a term the sites do not show, or built from another system
    of the same layout, is solved in full. A mirror through c that maps the
    sites to themselves (``_mirror_images``) gives the split a real form,
    which ``_block_pairs`` keeps only when it makes the blocks real.
    """
    if not h.field[0] == h.field[1] == 0.0:
        return None
    images = _threefold_images(system.sites)
    if images is None:
        return None
    rows, cols = np.divmod(np.flatnonzero(h.matrix != 0), h.dimension)
    level = _levels(h.dims)
    if ((level[rows] ^ level[cols]) & 1).any() or not _turn_commutes(
            h.matrix, rows, cols, h.dims, images):
        return None
    return _threefold_split(h.dims, images, _mirror_images(system.sites, images))


def _real_form(blocks: np.ndarray, twins, alphas, betas) -> np.ndarray:
    """Z^H B Z for each of the sector ``blocks`` B, Z of ``_Split.real``, by
    O(length^2) gathers: real when the mirror maps H to itself, else (its
    imaginary part above ``_SYMMETRY_TOLERANCE`` of its largest entry) left
    complex, which still has B's levels and moments."""
    sector, index = np.arange(len(blocks))[:, None, None], np.arange(blocks.shape[1])
    bz = blocks * alphas[:, None, :]
    bz += blocks[sector, index[:, None], twins[:, None, :]] * betas[:, None, :]
    zbz = alphas.conj()[:, :, None] * bz
    zbz += betas.conj()[:, :, None] * bz[sector, twins[:, :, None], index]
    if np.abs(zbz.imag).max() <= _SYMMETRY_TOLERANCE * np.abs(zbz.real).max():
        return zbz.real
    return zbz


def _block_pairs(h: HamiltonianMatrix, system: SpinSystem, floor: float):
    """Frequencies and S_x moments of the pairs across the parity sides that
    pass ``floor``, from one small ``eigh`` per sector of ``_sectors``, or
    ``None`` when H does not split or its spectrum has a gap within
    ``_DEGENERACY_TOLERANCE`` of max |E|.

    Each block is gathered from H's entries (``_Split``) as orbit sums, taken
    to the split's real form when it has one (``_real_form``) and made
    exactly Hermitian (each side of the diagonal rounds apart). The
    eigenvectors are placed by row on their side, so one product gives every
    moment; pairs of sectors that S_x does not link get exact zeros.
    """
    split = _sectors(h, system)
    if split is None:
        return None
    gathered = h.matrix[split.rows[:, None, :, None], split.cols[:, :, None, :]]
    gathered *= split.weights[:, :, None, :]
    summed = gathered[:, 0]
    summed += gathered[:, 1:].sum(axis=1)
    summed *= split.scales[:, :, None]
    if split.real is not None:
        summed = _real_form(summed, *split.real)
    summed += summed.conj().transpose(0, 2, 1)
    summed *= 0.5
    solved = [np.linalg.eigh(block[:size, :size]) for block, size in zip(summed, split.sizes)]
    merged = np.sort(np.concatenate([energies for energies, _ in solved]))
    if np.diff(merged).min() <= _DEGENERACY_TOLERANCE * np.abs(merged).max():
        return None
    half = h.dimension // 2
    states = np.zeros((2, half, half), dtype=summed.dtype)
    levels: list[list[np.ndarray]] = [[], []]
    for (energies, vectors), side, places in zip(solved, split.sides, split.places):
        start = sum(map(len, levels[side]))
        states[side, places[: len(energies)], start:start + len(energies)] = vectors
        levels[side].append(energies)
    even, odd = (np.concatenate(side) for side in levels)
    moments = np.abs(0.5 * (states[1].conj().T @ states[0])) ** 2
    fi, ii = _kept_pairs(moments, floor)
    return np.abs(odd[fi] - even[ii]), moments[fi, ii]


def exact_transitions(
    h: HamiltonianMatrix,
    system: SpinSystem,
    intensity_floor: float = INTENSITY_FLOOR,
) -> LineList:
    """Diagonalize and emit all upward transitions driven by S_x.

    Intensity is |<f| S_x |i>|^2 with S_x the electron's lab-frame x
    component, whatever the field direction (ROADMAP item 7 discusses
    driving perpendicular to the field instead); lines weaker than
    ``intensity_floor`` relative to the strongest are dropped. The electron
    is the first factor, so S_x = sigma_x/2 (x) 1 couples the upper and
    lower halves of each eigenvector: with X = U_up^H U_dn,
    <f|S_x|i> = (X[f, i] + conj(X[i, f]))/2, and ``eigh`` (n^3) sets the cost.

    Two strategies. With B along +-c, when the 120-degree turn about c maps
    the sites to themselves (the bundled shells, with or without 13C and
    EFGs) and H to itself, and H has no element between its two parity
    blocks (c a principal axis of g and of every tensor), H is diagonalized
    in the six sectors of the turn and parity (``_sectors``): six ``eigh``s
    of about n/6, real ones when a mirror through c maps the sites and H to
    themselves too. Every other H takes one ``eigh`` of the whole matrix: a
    tilted field, found after O(1) work, and a c-axis system without the
    turn (a mixed-isotope or partial shell), found once its sites are tested.
    A split spectrum with near-degenerate levels (CB0, whose three equal 14N
    give levels degenerate across sectors) is solved in full too, so the
    floor sees the full solve's moments.

    A floor of 0 keeps every pair the strategy forms. The sectors form the
    n^2/4 pairs across the parity blocks: a pair inside one has a zero
    moment and is not formed, and a pair between sectors that S_x does not
    link comes with a moment of exactly 0. The full solve forms every upward
    pair, n(n - 1)/2.

    Raises ``ValueError`` when ``intensity_floor`` is not a number in
    [0, 1] (NaN included) or ``system`` does not match ``h``'s layout.
    """
    if not 0.0 <= intensity_floor <= 1.0:
        raise ValueError(f"intensity_floor must be in [0, 1], got {intensity_floor!r}")
    dims = (2,) + system.site_dimensions()
    if dims != h.dims:
        raise ValueError("system does not match the Hamiltonian's factor layout")
    pairs = _block_pairs(h, system, intensity_floor)
    freqs, intens = pairs or _full_pairs(h, intensity_floor)
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
    selection = tuple(sorted(int(i) for i in exact_sites))
    subsystem = system.subsystem(selection, label_suffix=":exact-subset")
    mask = normalize_terms(subset_terms) | {"ezi"}
    if not selection:
        return perturb_lines(system, field, order=order, mode=mode)
    rest = [i for i in range(len(system.sites)) if i not in selection]
    shifts = ShiftDistribution([(system, 1.0)], field, order, mode, rest)

    def exact() -> LineList:
        try:
            h = build_hamiltonian(subsystem, field, terms=mask)
        except DimensionError as exc:
            raise DimensionError(
                f"{len(selection)} exact sites give dimension {subsystem.dimension}, "
                f"above the cap {DIMENSION_CAP}; select fewer exact sites"
            ) from exc
        return exact_transitions(h, subsystem)

    if not rest:
        lines = exact()
        lines.meta.update(exact_sites=selection, method_detail="all sites exact")
        return lines
    return LineList(
        "hybrid", field, *shifts.lines(exact),
        meta={
            "exact_sites": selection,
            "subset_terms": sorted(mask),
            "order": order,
            "mode": mode,
            "configurations": system.dimension // subsystem.dimension,
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
    freqs = ShiftDistribution([(system, 1.0)], field, order, mode).sample(sample_count, seed)
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
