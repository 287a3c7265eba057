"""Angular-momentum operators and spin-Hamiltonian assembly.

The Hamiltonian is built term by term in frequency units (MHz):

* EZI, electron Zeeman: (mu_B/h) B^T g S
* HFI, hyperfine: S^T A(k) I(k) with A in the crystal frame
* NZI, nuclear Zeeman: -(gamma_k/2pi) B . I(k)
* NQI, nuclear quadrupole: I(k)^T Q(k) I(k), Q from the EFG tensor

Matrices are dense and complex. The basis is a plain tensor product with
the electron factor first and the nuclear sites following in declared
order, each factor ordered by descending magnetic quantum number. Each
term acts on one or two factors and is added in place into the diagonal,
over the remaining identity factors, of H viewed as its factor tensor; the
identity factors are never built, so assembly costs O(n^2) per term.

What no field changes is built once and kept. A site's hyperfine blocks
(S_i (x) sum_j A_ij I_j for i = x, y, z, as (2, d, 2, d) arrays) and its
quadrupole block (Q from ``efg_to_quadrupole``, with its checks) are built
by the first assembly that needs them and kept read-only, keyed by the site
object and its isotope, until the site is garbage-collected. Sites come from
the cached dataset parse, so every system and subsystem built from one
dataset shares them. The view shape and einsum subscripts of each (factor
layout, acted-on factors) pair are kept too. The electron and nuclear Zeeman
terms depend on the field and are built on every call. Errors are never
cached: a missing EFG tensor raises on every call.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .isotopes import ELECTRON_ZEEMAN_MHZ_PER_G, Isotope
from .system import NuclearSite, SpinSystem

ALL_TERMS = frozenset({"ezi", "hfi", "nzi", "nqi"})
DEFAULT_TERMS = ("ezi", "hfi", "nzi")
DIMENSION_CAP = 4096


# Largest real or imaginary part for which HamiltonianMatrix skips the abs
# sweeps: sqrt(2) * 2**1022 is below the largest double, so |m_ij| is finite.
_PART_LIMIT = 2.0**1022


class DimensionError(ValueError):
    """Hilbert space too large for dense diagonalization."""


@dataclass(frozen=True, eq=False)
class OperatorTriple:
    """Cartesian angular-momentum matrices for one spin."""

    dimension: int
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray

    def component(self, axis: int) -> np.ndarray:
        return (self.jx, self.jy, self.jz)[axis]


@lru_cache(maxsize=None)
def _operators(twice_spin: int) -> OperatorTriple:
    spin = twice_spin / 2.0
    dim = twice_spin + 1
    m = spin - np.arange(dim)          # descending: I, I-1, ..., -I
    jz = np.diag(m.astype(complex))
    jplus = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        # <m+1| J+ |m> with |m> at column i+1
        mm = m[i + 1]
        jplus[i, i + 1] = np.sqrt(spin * (spin + 1.0) - mm * (mm + 1.0))
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2.0
    jy = (jplus - jminus) / 2.0j
    for a in (jx, jy, jz):
        a.setflags(write=False)
    return OperatorTriple(dim, jx, jy, jz)


def spin_operators(spin: float) -> OperatorTriple:
    """Jx, Jy, Jz for spin quantum number ``spin`` in the |I, m> basis.

    Basis states are ordered m = I down to -I. Raises for a negative or
    non-half-integer argument.
    """
    twice = 2.0 * spin
    if spin < 0 or abs(twice - round(twice)) > 1e-9:
        raise ValueError(f"spin must be a non-negative half-integer, got {spin}")
    return _operators(int(round(twice)))


def efg_to_quadrupole(efg: np.ndarray, isotope: Isotope) -> np.ndarray:
    """Convert an EFG tensor (V/A^2) to the quadrupole matrix Q (MHz).

    Q = c * V with the isotope's conversion constant c. Only isotopes with
    I >= 1 have a quadrupole moment; anything else is rejected.
    """
    if isotope.spin < 1.0:
        raise ValueError(f"{isotope.symbol} is non-quadrupolar (I = {isotope.spin})")
    v = np.asarray(efg, dtype=float)
    if v.shape != (3, 3) or not np.allclose(v, v.T, atol=1e-8 * max(1.0, np.abs(v).max())):
        raise ValueError("EFG tensor must be a symmetric 3x3 matrix")
    return isotope.q_conversion * v


@dataclass(frozen=True, eq=False)
class HamiltonianMatrix:
    """Assembled Hamiltonian with its term mask and factor dimensions;
    ``ValueError`` unless the matrix is finite and Hermitian to 1e-9 of its
    largest entry."""

    matrix: np.ndarray
    terms: frozenset
    dims: tuple[int, ...]           # (2, d_1, ..., d_K)
    field: np.ndarray

    def __post_init__(self):
        m = self.matrix
        # As assembled: exactly Hermitian with every part within +-2**1022,
        # so no |m_ij| overflows and the residual below is exactly 0; the
        # check then passes without its two complex abs sweeps. NaN fails
        # every comparison, so it takes the full check.
        if m.dtype == complex and m.flags.c_contiguous:
            parts = m.view(float)
            if (-_PART_LIMIT <= parts.min() and parts.max() <= _PART_LIMIT
                    and (m == m.conj().T).all()):
                return
        largest = float(np.abs(m).max())
        if not math.isfinite(largest):          # NaN compares false below
            raise ValueError("Hamiltonian must be finite")
        scale = max(largest, 1e-30)
        if np.abs(m - m.conj().T).max() > 1e-9 * scale:
            raise ValueError("Hamiltonian must be Hermitian")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@lru_cache(maxsize=256)
def _view_recipe(dims: tuple[int, ...], slots: tuple[int, ...]) -> tuple[tuple[int, ...], str]:
    """Reshape sizes and einsum subscripts of ``_add_local``'s view."""
    sizes, start = [], 0
    for s in slots:
        sizes += [math.prod(dims[start:s]), dims[s]]
        start = s + 1
    sizes.append(math.prod(dims[start:]))
    rows = "abcde"[: len(sizes)]
    # Identity runs (even positions) reuse their row letter: a diagonal.
    cols = "".join(r if g % 2 == 0 else r.upper() for g, r in enumerate(rows))
    return tuple(sizes * 2), f"{rows}{cols}->{rows[::2]}{rows[1::2]}{cols[1::2]}"


def _add_local(h: np.ndarray, dims: tuple[int, ...], slots: tuple[int, ...], op) -> None:
    """Add ``op``, acting on the factors ``slots`` (ascending), into ``h``.

    ``op`` has the local row axes, then the local column axes, e.g.
    (d_s, d_s) for one factor. ``h`` is reshaped to (run, slot, run, ...)
    twice, with each run of identity factors merged into one axis; the
    einsum diagonal over the runs is a writable view of ``h``, and ``op``
    broadcasts over it.
    """
    shape, subscripts = _view_recipe(dims, slots)
    view = np.einsum(subscripts, h.reshape(shape))
    view += op


def _hyperfine_blocks(site: NuclearSite, iso: Isotope) -> np.ndarray:
    """S_i (x) sum_j A_ij I_j for i = x, y, z, each as (2, d, 2, d): row
    axes, then column axes."""
    electron, ops = spin_operators(0.5), spin_operators(iso.spin)
    a_tensor = site.hyperfine_tensor()
    blocks = []
    for i in range(3):
        row = sum(a_tensor[i, j] * ops.component(j) for j in range(3))
        blocks.append(electron.component(i)[:, None, :, None] * row[None, :, None, :])
    return np.stack(blocks)


def _quadrupole_block(site: NuclearSite, iso: Isotope) -> np.ndarray:
    """I^T Q I for the site's EFG tensor, which must be present."""
    ops = spin_operators(iso.spin)
    q = efg_to_quadrupole(site.efg, iso)
    local = np.zeros((ops.dimension, ops.dimension), dtype=complex)
    for i in range(3):
        for j in range(3):
            if q[i, j] != 0.0:
                local += q[i, j] * (ops.component(i) @ ops.component(j))
    return local


# site -> {(isotope, builder): block}. Keyed by the site object: a site is
# frozen and its frame and EFG are read-only, so an entry never goes stale,
# and it goes with its site. One site can carry several isotopes.
_SITE_BLOCKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _site_block(site: NuclearSite, iso: Isotope, builder) -> np.ndarray:
    """``builder(site, iso)``, built on the first call and kept read-only."""
    blocks = _SITE_BLOCKS.setdefault(site, {})
    block = blocks.get((iso, builder))
    if block is None:
        block = builder(site, iso)
        block.flags.writeable = False
        blocks[iso, builder] = block
    return block


def normalize_terms(terms) -> frozenset:
    mask = frozenset(str(t).lower() for t in terms)
    bad = mask - ALL_TERMS
    if bad:
        raise ValueError(f"unknown Hamiltonian terms: {sorted(bad)}")
    return mask


def _checked_field(field) -> np.ndarray:
    """``field`` as a float array; ``ValueError`` unless a finite 3-vector."""
    b = np.asarray(field, dtype=float)
    if b.shape != (3,):
        raise ValueError("field must be a 3-vector in Gauss")
    if not np.isfinite(b).all():
        raise ValueError(f"field must be finite, got {b.tolist()}")
    return b


def build_hamiltonian(
    system: SpinSystem,
    field,
    terms=DEFAULT_TERMS,
    dimension_cap: int = DIMENSION_CAP,
) -> HamiltonianMatrix:
    """Assemble the requested terms for ``system`` at field ``field`` (Gauss).

    Raises ``DimensionError`` when the Hilbert space exceeds
    ``dimension_cap`` (use the hybrid solver for such systems) and
    ``ValueError`` for a field that is not a finite 3-vector or when NQI is
    requested for a quadrupolar site without an EFG tensor.
    """
    mask = normalize_terms(terms)
    b = _checked_field(field)
    dims = (2,) + system.site_dimensions()
    n = system.dimension
    if n > dimension_cap:
        raise DimensionError(
            f"dimension {n} exceeds cap {dimension_cap}; "
            "diagonalize a first-shell subsystem with hybrid_solve instead"
        )
    electron = spin_operators(0.5)
    h = np.zeros((n, n), dtype=complex)

    if "ezi" in mask:
        heff = ELECTRON_ZEEMAN_MHZ_PER_G * (system.g_tensor.T @ b)
        local = sum(heff[a] * electron.component(a) for a in range(3))
        _add_local(h, dims, (0,), local)

    for k, (site, iso) in enumerate(system.sites):
        slot = k + 1
        if iso.spin == 0.0:
            continue
        if "hfi" in mask:
            for op in _site_block(site, iso, _hyperfine_blocks):
                _add_local(h, dims, (0, slot), op)
        if "nzi" in mask:
            ops = spin_operators(iso.spin)
            # gamma/2pi in Hz/G times Gauss gives Hz; scale to MHz.
            coeff = -iso.gamma_over_2pi * 1e-6
            local = coeff * sum(b[j] * ops.component(j) for j in range(3))
            _add_local(h, dims, (slot,), local)
        if "nqi" in mask and iso.spin >= 1.0:
            if site.efg is None:
                raise ValueError(
                    f"site {k} ({site.element}, {site.group_id}): "
                    "NQI requested but no EFG tensor present"
                )
            _add_local(h, dims, (slot,), _site_block(site, iso, _quadrupole_block))

    return HamiltonianMatrix(matrix=h, terms=mask, dims=dims, field=b)
