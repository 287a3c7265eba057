from __future__ import annotations

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_dimension_cap_adjustable():
    system = SpinSystem("t", ((_site("B", (1.0, 1.0, 2.0)), lookup("11B")),))
    with pytest.raises(DimensionError):
        build_hamiltonian(system, FIELD, dimension_cap=4)
    h = build_hamiltonian(system, FIELD, dimension_cap=8)
    assert h.dimension == 8


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
