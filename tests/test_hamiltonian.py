from __future__ import annotations

import gc
import math
import weakref
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectspin import hamiltonian
from defectspin.hamiltonian import (
    DimensionError,
    HamiltonianMatrix,
    build_hamiltonian,
    efg_to_quadrupole,
    normalize_terms,
    spin_operators,
)
from defectspin.isotopes import CONSTANTS, ELECTRON_ZEEMAN_MHZ_PER_G, lookup
from defectspin.system import (
    NuclearSite,
    SpinSystem,
    build_system,
    find_defect,
    load_defect_dataset,
)

FIELD = np.array([0.0, 0.0, 42.0])


def _site(element, principal_values, frame=None, efg=None):
    return NuclearSite(
        element=element,
        shell_distance=1.0,
        bond_azimuth=0.0,
        principal_values=principal_values,
        frame=np.eye(3) if frame is None else frame,
        efg=efg,
    )


@pytest.mark.parametrize("spin", [0.5, 1.0, 1.5, 3.0])
def test_angular_momentum_algebra(spin):
    ops = spin_operators(spin)
    comm = ops.jx @ ops.jy - ops.jy @ ops.jx
    np.testing.assert_allclose(comm, 1j * ops.jz, atol=1e-12)
    casimir = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
    np.testing.assert_allclose(
        casimir, spin * (spin + 1.0) * np.eye(ops.dimension), atol=1e-12
    )


def test_jz_diagonal_descending():
    ops = spin_operators(1.5)
    np.testing.assert_allclose(np.diag(ops.jz), [1.5, 0.5, -0.5, -1.5])


def test_operator_cache_returns_same_instance():
    assert spin_operators(1.0) is spin_operators(1.0)


def test_invalid_spin_rejected():
    with pytest.raises(ValueError):
        spin_operators(0.3)
    with pytest.raises(ValueError):
        spin_operators(-0.5)


def test_component_accessor():
    ops = spin_operators(0.5)
    assert ops.component(0) is ops.jx
    assert ops.component(2) is ops.jz
    with pytest.raises(IndexError):
        ops.component(3)


def test_electron_zeeman_splitting():
    system = SpinSystem("e", (), 2.0 * np.eye(3))
    h = build_hamiltonian(system, FIELD, terms=("ezi",))
    vals = np.linalg.eigvalsh(h.matrix)
    nu_e = 2.0 * CONSTANTS.electron_zeeman_factor * 42.0
    np.testing.assert_allclose(vals, [-nu_e / 2.0, nu_e / 2.0], atol=1e-9)


def test_anisotropic_g_tensor():
    g = np.diag([2.0, 2.0, 2.004])
    system = SpinSystem("e", (), g)
    h = build_hamiltonian(system, FIELD, terms=("ezi",))
    vals = np.linalg.eigvalsh(h.matrix)
    assert vals[1] - vals[0] == pytest.approx(
        2.004 * CONSTANTS.electron_zeeman_factor * 42.0
    )


def test_hyperfine_matches_explicit_kron():
    a = np.diag([5.0, 7.0, 11.0])
    system = SpinSystem("t", ((_site("C", (5.0, 7.0, 11.0)), lookup("13C")),))
    h = build_hamiltonian(system, FIELD, terms=("hfi",))
    s = spin_operators(0.5)
    expected = sum(
        a[i, i] * np.kron(s.component(i), s.component(i)) for i in range(3)
    )
    np.testing.assert_allclose(h.matrix, expected, atol=1e-12)


def test_nuclear_zeeman_splitting_sign_and_size():
    system = SpinSystem("t", ((_site("B", (0.0, 0.0, 0.0)), lookup("11B")),))
    h = build_hamiltonian(system, FIELD, terms=("nzi",))
    # -gamma/2pi * B * m_I, fourfold for I = 3/2, doubled by the idle electron
    step = lookup("11B").gamma_over_2pi * 42.0 * 1e-6
    vals = np.unique(np.round(np.linalg.eigvalsh(h.matrix), 12))
    np.testing.assert_allclose(np.diff(vals), np.full(3, step), atol=1e-12)


def test_quadrupole_from_efg_scaling():
    efg = np.diag([-15.0, -15.0, 30.0])
    q = efg_to_quadrupole(efg, lookup("14N"))
    np.testing.assert_allclose(q, 0.02471 * efg, atol=1e-12)
    assert abs(np.trace(q)) < 1e-9


def test_quadrupole_requires_spin_ge_one():
    with pytest.raises(ValueError):
        efg_to_quadrupole(np.zeros((3, 3)), lookup("13C"))


def test_nqi_term_requires_efg_data():
    system = SpinSystem("t", ((_site("N", (1.0, 1.0, 1.0)), lookup("14N")),))
    with pytest.raises(ValueError, match="EFG"):
        build_hamiltonian(system, FIELD, terms=("ezi", "nqi"))


def test_nqi_shifts_match_direct_contraction():
    efg = np.diag([-10.0, 4.0, 6.0])
    site = _site("N", (0.0, 0.0, 0.0), efg=efg)
    system = SpinSystem("t", ((site, lookup("14N")),))
    h = build_hamiltonian(system, FIELD, terms=("nqi",))
    ops = spin_operators(1.0)
    q = efg_to_quadrupole(efg, lookup("14N"))
    local = sum(
        q[i, j] * ops.component(i) @ ops.component(j)
        for i in range(3)
        for j in range(3)
    )
    np.testing.assert_allclose(h.matrix, np.kron(np.eye(2), local), atol=1e-12)


def test_terms_compose_additively():
    site = _site("N", (-9.0, -5.1, -9.0), efg=np.diag([-15.0, -15.0, 30.0]))
    system = SpinSystem("t", ((site, lookup("14N")),))
    pieces = [
        build_hamiltonian(system, FIELD, terms=(t,)).matrix
        for t in ("ezi", "hfi", "nzi", "nqi")
    ]
    combined = build_hamiltonian(
        system, FIELD, terms=("ezi", "hfi", "nzi", "nqi")
    ).matrix
    np.testing.assert_allclose(combined, sum(pieces), atol=1e-12)


def test_hamiltonian_is_hermitian():
    records = load_defect_dataset()
    cn = build_system(find_defect(records, "CN0"))
    sub = cn.subsystem((0, 1, 2))
    h = build_hamiltonian(sub, np.array([17.0, -5.0, 33.0]))
    np.testing.assert_allclose(h.matrix, h.matrix.conj().T, atol=1e-9)


def test_non_hermitian_matrix_rejected():
    matrix = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        HamiltonianMatrix(matrix, frozenset({"ezi"}), (2,), FIELD)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_rejected(bad):
    # A NaN entry fails every comparison, so the Hermitian check alone passes it.
    matrix = np.array([[1.0, 0.0], [0.0, bad]], dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        HamiltonianMatrix(matrix, frozenset({"ezi"}), (2,), FIELD)


def _reference_check(matrix):
    """The finite and Hermitian check with both complex abs sweeps: the
    error it raises, or None."""
    largest = float(np.abs(matrix).max())
    if not math.isfinite(largest):
        return "finite"
    if np.abs(matrix - matrix.conj().T).max() > 1e-9 * max(largest, 1e-30):
        return "Hermitian"
    return None


def _check_outcome(matrix):
    try:
        HamiltonianMatrix(matrix, frozenset({"ezi"}), (2,), FIELD)
    except ValueError as exc:
        return "finite" if "finite" in str(exc) else "Hermitian"
    return None


_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1e-300, 1e-9, np.nan, np.inf, -np.inf,
                     2.0**1022, -(2.0**1022), 1.3e308, -1.7e308]),
    st.floats(-1e3, 1e3),
)


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(1, 3),
    upper=st.lists(st.tuples(_PARTS, _PARTS), min_size=9, max_size=9),
    lower=st.lists(st.tuples(_PARTS, _PARTS), min_size=9, max_size=9),
    hermitian=st.booleans(),
    layout=st.sampled_from(["C", "F", "strided"]),
)
def test_hermitian_check_decides_as_the_abs_sweeps_do(size, upper, lower, hermitian, layout):
    # Exactly Hermitian inputs take the fast path; values at and past the
    # 2**1022 limit, NaN, infinities and other layouts must not change the
    # decision.
    m = np.array([complex(*z) for z in upper[: size * size]]).reshape(size, size)
    if hermitian:
        m = np.where(np.tri(size, k=-1, dtype=bool), m.T.conj(), m)
        m[np.diag_indices(size)] = m.diagonal().real
    else:
        m[np.tri(size, k=-1, dtype=bool)] = [complex(*z) for z in lower[: size * (size - 1) // 2]]
    if layout == "F":
        m = np.asfortranarray(m)
    elif layout == "strided":
        m = np.repeat(m, 2, axis=1)[:, ::2]
    with np.errstate(all="ignore"):
        expected = _reference_check(m)
        assert _check_outcome(m) == expected


@pytest.mark.parametrize("skew, expected", [(1e-12, None), (2e-9, None), (4e-9, "Hermitian"),
                                            (1e-6, "Hermitian")])
def test_hermitian_check_near_hermitian(skew, expected):
    # Not exactly Hermitian: the residual decides against 1e-9 of max |m_ij| = 3.
    matrix = np.array([[1.0, 2.0 + 1.0j], [2.0 - 1.0j, -3.0]])
    matrix[0, 1] += skew * 1j
    assert _reference_check(matrix) == expected
    assert _check_outcome(matrix) == expected
    assert _check_outcome(np.asfortranarray(matrix.conj())) == expected


@pytest.mark.parametrize("part, expected", [(2.0**1022, None), (1.3e308, "finite")])
def test_hermitian_check_at_the_overflow_edge(part, expected):
    # |1.3e308 (1 + i)| overflows, so the sweeps reject the matrix as not
    # finite although every part is finite.
    matrix = np.array([[part, complex(part, part)], [complex(part, -part), -part]])
    with np.errstate(over="ignore"):
        assert _reference_check(matrix) == expected
        assert _check_outcome(matrix) == expected


@pytest.mark.parametrize("field", [(0.0, 0.0, np.nan), (np.inf, 0.0, 42.0), (0.0, -np.inf, 1.0)])
def test_non_finite_field_rejected(field):
    system = SpinSystem("t", ((_site("B", (1.0, 1.0, 2.0)), lookup("11B")),))
    with pytest.raises(ValueError, match="field must be finite"):
        build_hamiltonian(system, np.array(field))


def test_unknown_term_rejected():
    with pytest.raises(ValueError):
        normalize_terms(("ezi", "zfs"))


def test_dimension_cap_enforced():
    records = load_defect_dataset()
    cb = build_system(find_defect(records, "CB0"))
    with pytest.raises(DimensionError, match="hybrid"):
        build_hamiltonian(cb, FIELD)


def _kron_reference(system, field, terms):
    """Term-by-term assembly with dense identities, in the solver's term order."""
    dims = (2,) + system.site_dimensions()

    def embed(local):
        return reduce(
            np.kron, [local.get(i, np.eye(d, dtype=complex)) for i, d in enumerate(dims)]
        )

    electron = spin_operators(0.5)
    h = np.zeros((system.dimension,) * 2, dtype=complex)
    if "ezi" in terms:
        heff = ELECTRON_ZEEMAN_MHZ_PER_G * (system.g_tensor.T @ field)
        h += embed({0: sum(heff[a] * electron.component(a) for a in range(3))})
    for k, (site, iso) in enumerate(system.sites):
        if iso.spin == 0.0:
            continue
        ops = spin_operators(iso.spin)
        if "hfi" in terms:
            a = site.hyperfine_tensor()
            for i in range(3):
                row = sum(a[i, j] * ops.component(j) for j in range(3))
                h += embed({0: electron.component(i), k + 1: row})
        if "nzi" in terms:
            coeff = -iso.gamma_over_2pi * 1e-6
            h += embed({k + 1: coeff * sum(field[j] * ops.component(j) for j in range(3))})
        if "nqi" in terms and iso.spin >= 1.0:
            q = efg_to_quadrupole(site.efg, iso)
            local = np.zeros((ops.dimension,) * 2, dtype=complex)
            for i in range(3):
                for j in range(3):
                    if q[i, j] != 0.0:
                        local += q[i, j] * (ops.component(i) @ ops.component(j))
            h += embed({k + 1: local})
    return h


_FIELD_VECTORS = st.one_of(
    st.just((0.0, 0.0, 0.0)),
    st.floats(1.0, 300.0).map(lambda b: (0.0, 0.0, b)),
    st.tuples(*[st.floats(-300.0, 300.0)] * 3),
)


@settings(max_examples=60, deadline=None)
@given(
    label=st.sampled_from(["CN0", "CB0"]),
    carbon13=st.booleans(),
    sites=st.lists(st.integers(0, 9), min_size=0, max_size=4, unique=True),
    terms=st.sets(st.sampled_from(["ezi", "hfi", "nzi", "nqi"])),
    field=_FIELD_VECTORS,
)
def test_assembly_is_bit_identical_to_kron_reference(label, carbon13, sites, terms, field):
    # Only the first shell (sites 1-3) carries EFG tensors.
    if not set(sites) <= {0, 1, 2, 3}:
        terms = terms - {"nqi"}
    record = find_defect(load_defect_dataset(), label)
    system = build_system(record, {"C": "13C"} if carbon13 else None).subsystem(sites)
    b = np.array(field)
    h = build_hamiltonian(system, b, terms=terms)
    assert np.array_equal(h.matrix, _kron_reference(system, b, terms))


# One site object under each of its element's isotopes: build_system with an
# override reuses the dataset's site objects, so the per-site blocks must be
# told apart by isotope (11B and 10B have different dimensions).
_OVERRIDES = [
    ("CN0", None), ("CN0", {"C": "13C"}), ("CN0", {"B": "10B"}),
    ("CB0", None), ("CB0", {"C": "13C"}), ("CB0", {"N": "15N"}),
]


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
def test_site_blocks_under_each_isotope_match_the_kron_reference(order):
    records = load_defect_dataset()
    field = np.array([13.0, -29.0, 151.0])
    for label, overrides in _OVERRIDES[::order] * 2:
        record = find_defect(records, label)
        system = build_system(record, overrides).subsystem((0, 1, 2, 3))
        assert all(site is record.sites[k] for k, (site, _) in enumerate(system.sites))
        for terms in (("ezi", "hfi", "nzi"), ("ezi", "hfi", "nzi", "nqi")):
            h = build_hamiltonian(system, field, terms=terms)
            assert np.array_equal(h.matrix, _kron_reference(system, field, terms))


def test_site_blocks_are_freed_with_their_site():
    site = _site("N", (-9.0, -5.1, -9.0), efg=np.diag([-15.0, -15.0, 30.0]))
    system = SpinSystem("t", ((site, lookup("14N")),))
    build_hamiltonian(system, FIELD, terms=("hfi", "nqi"))
    blocks = [weakref.ref(b) for b in hamiltonian._SITE_BLOCKS[site].values()]
    assert len(blocks) == 2
    del system, site
    gc.collect()
    assert all(ref() is None for ref in blocks)


def test_site_blocks_are_read_only():
    cn = build_system(find_defect(load_defect_dataset(), "CN0"), {"C": "13C"})
    build_hamiltonian(cn.subsystem((0, 1, 2, 3)), FIELD, terms=("hfi", "nqi"))
    builders = (hamiltonian._hyperfine_blocks, hamiltonian._quadrupole_block)
    blocks = [
        hamiltonian._SITE_BLOCKS[site][iso, builder]
        for site, iso in cn.sites[:4] for builder in builders[: 1 + (iso.spin >= 1.0)]
    ]
    assert len(blocks) == 7            # hfi for 13C and three 11B, nqi for the 11B
    assert not any(b.flags.writeable for b in blocks)


def test_site_block_errors_are_raised_on_every_call():
    bare = _site("N", (1.0, 1.0, 1.0))
    system = SpinSystem("t", ((bare, lookup("14N")),))
    build_hamiltonian(system, FIELD, terms=("hfi",))     # the site has blocks now
    for _ in range(2):
        with pytest.raises(ValueError, match="site 0 .*no EFG tensor"):
            build_hamiltonian(system, FIELD, terms=("hfi", "nqi"))
    carbon = _site("C", (1.0, 1.0, 1.0), efg=np.diag([-1.0, -1.0, 2.0]))
    for _ in range(2):
        with pytest.raises(ValueError, match="non-quadrupolar"):
            hamiltonian._site_block(carbon, lookup("13C"), hamiltonian._quadrupole_block)
    assert carbon not in hamiltonian._SITE_BLOCKS or not hamiltonian._SITE_BLOCKS[carbon]
