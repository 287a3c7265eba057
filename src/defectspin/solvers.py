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
from .system import SpinSystem

INTENSITY_FLOOR = 1e-6          # relative to the strongest line
ENUMERATION_THRESHOLD = 10**6   # configurations before sampling; classes before raising
# Sites whose shift tables agree this closely (MHz) are counted as one group.
_SHIFT_TOLERANCE = 1e-9
# A split spectrum with a gap at most this times max |E| is solved in full:
# inside a degenerate eigenspace the eigensolver's basis decides which weak
# lines pass INTENSITY_FLOOR. Goes when ROADMAP item 7 sums the moments over
# degenerate clusters.
_DEGENERACY_TOLERANCE = 1e-11
# Block eigenvectors of levels at most this times max |E| apart are refined
# (``_sharpen``); the rest mix by about eps / _CLOSE_GAP (2e-10) at most.
# CN0 along c has 1-2 such pairs per block at 150-300 G; below 1e-4 it has
# dozens, and refining those would cost more than the eigh.
_CLOSE_GAP = 1e-6

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


def _sharpen(a: np.ndarray, levels: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``eigh``'s eigenvectors of ``a``, with one refinement step on each
    level that lies within ``_CLOSE_GAP`` times max |E| of a neighbour.

    ``eigh`` mixes two levels a gap g apart by up to eps max|E| / g, which
    moves their moments by as much (5e-7 at a relative gap of 4e-10). One
    Newton step (Ogita and Aishima, 2018) removes that mixing: with the
    residuals R = A Q - Q diag(E) of the close columns,
    Q[:, j] += sum_i Q[:, i] (Q^H R)[i, j] / (E[j] - E[i]). Only R needs more
    than double precision; it is summed in ``np.longdouble`` over the
    nonzeros of ``a`` (few per row), so the cost is nnz k + n k^2 for k close
    columns. The mixing left is about eps max|E| / g squared, plus
    ``longdouble``'s own eps max|E| / g (nothing gained where ``longdouble``
    is double). Levels farther apart are left as ``eigh`` gave them: they
    mix by at most eps / ``_CLOSE_GAP``.
    """
    close = np.diff(levels) <= _CLOSE_GAP * np.abs(levels).max()
    if not close.any():
        return vectors
    cols = np.flatnonzero(np.concatenate(([False], close)) | np.concatenate((close, [False])))
    q = vectors[:, cols]
    nonzero = np.flatnonzero(a.ravel() != 0)
    rows, inner = np.divmod(nonzero, a.shape[1])
    wide = np.clongdouble if np.iscomplexobj(vectors) else np.longdouble
    terms = np.multiply(a.ravel()[nonzero, None], q[inner], dtype=wide)
    firsts = np.flatnonzero(np.diff(rows, prepend=-1))
    aq = np.zeros(q.shape, dtype=wide)
    aq[rows[firsts]] = np.add.reduceat(terms, firsts, axis=0)
    residual = (aq - q.astype(wide) * levels[cols].astype(wide)).astype(q.dtype)
    gap = levels[cols][None, :] - levels[cols][:, None]
    np.fill_diagonal(gap, np.inf)
    sharpened = vectors.copy()
    sharpened[:, cols] += q @ ((q.conj().T @ residual) / gap)
    return sharpened


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
    h_even, h_odd = h.matrix[np.ix_(even, even)], h.matrix[np.ix_(odd, odd)]
    e_even, u_even = np.linalg.eigh(h_even)
    e_odd, u_odd = np.linalg.eigh(h_odd)
    merged = np.sort(np.concatenate((e_even, e_odd)))
    if np.diff(merged).min() <= _DEGENERACY_TOLERANCE * np.abs(merged).max():
        return None
    u_even = _sharpen(h_even, e_even, u_even)
    u_odd = _sharpen(h_odd, e_odd, u_odd)
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
    component, whatever the field direction (ROADMAP item 7 discusses
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
    in full instead, so the floor sees the same moments as before. Inside a
    block, the eigenvectors of close levels get one refinement step
    (``_sharpen``), so the block moments do not inherit ``eigh``'s mixing of
    those levels.

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
