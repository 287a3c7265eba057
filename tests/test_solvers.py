from __future__ import annotations

import gc
import warnings
import weakref
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from defectspin.hamiltonian import HamiltonianMatrix, build_hamiltonian, spin_operators
from defectspin.isotopes import CONSTANTS, lookup
from defectspin.isotopologues import apply_pattern, composite_lines, enumerate_patterns
from defectspin import solvers
from defectspin.solvers import (
    ENUMERATION_THRESHOLD,
    INTENSITY_FLOOR,
    MODE_ACONST,
    MODE_FULL,
    LineList,
    ZeroFieldError,
    _DEGENERACY_TOLERANCE,
    _block_pairs,
    _group_classes,
    _shift_distribution,
    _shift_tables,
    electron_axis,
    exact_transitions,
    hybrid_solve,
    perturb_lines,
    sample_configurations,
    shell_indices,
)
from defectspin.spectrum import peak_stats, perturb_stats
from defectspin.system import (
    NuclearSite,
    SpinSystem,
    axial_frame,
    build_system,
    find_defect,
    load_defect_dataset,
)

FIELD = np.array([0.0, 0.0, 42.0])
NU_E = 2.0 * CONSTANTS.electron_zeeman_factor * 42.0


def _site(element, principal_values, frame=None):
    return NuclearSite(
        element=element,
        shell_distance=1.0,
        bond_azimuth=0.0,
        principal_values=principal_values,
        frame=np.eye(3) if frame is None else frame,
    )


def _single(symbol, principal_values):
    return SpinSystem(
        "t", ((_site(lookup(symbol).element, principal_values), lookup(symbol)),)
    )


def _load(label):
    return build_system(find_defect(load_defect_dataset(), label))


def _raw_lines(system, field, order=2, mode=MODE_FULL):
    """One line per nuclear configuration: the enumeration before grouping."""
    nu_e, _ = electron_axis(system, field)
    tables = [
        perturb_lines(system.subsystem((k,)), field, order, mode).frequencies - nu_e
        for k in range(len(system.sites))
    ]
    freqs = nu_e + reduce(np.add.outer, tables, np.zeros(())).ravel()
    count = freqs.size
    return LineList("raw", field, freqs, np.ones(count), np.full(count, 1.0 / count))


def _assert_same_distribution(lines, reference, tol=1e-7, atol=1e-12):
    """Equal weight and mass (to ``atol``) per frequency; frequencies match
    within ``tol``.

    Both lists are binned on the clusters of their joint frequencies (gaps
    wider than ``tol`` MHz separate clusters), so a line and its rounded
    counterpart always share a bin.
    """
    joint = np.sort(np.concatenate([lines.frequencies, reference.frequencies]))
    cuts = joint[1:][np.diff(joint) > tol]

    def binned(ll, values):
        slot = np.searchsorted(cuts, ll.frequencies, side="right")
        return np.bincount(slot, weights=values, minlength=cuts.size + 1)

    for values in (lambda ll: ll.weights, lambda ll: ll.weights * ll.intensities):
        np.testing.assert_allclose(
            binned(lines, values(lines)), binned(reference, values(reference)),
            rtol=0.0, atol=atol,
        )


def _assert_same_stats(lines, reference, window=(-np.inf, np.inf)):
    a, b = peak_stats(lines, window), peak_stats(reference, window)
    assert abs(a.center - b.center) <= 1e-9
    assert abs(a.sigma - b.sigma) <= 1e-9
    assert abs(a.included_weight_fraction - b.included_weight_fraction) <= 1e-12


def test_electron_axis_along_field():
    system = SpinSystem("e", ())
    nu_e, axis = electron_axis(system, FIELD)
    assert nu_e == pytest.approx(NU_E)
    np.testing.assert_allclose(axis, [0.0, 0.0, 1.0])


def test_electron_axis_follows_g_tensor():
    g = np.diag([2.0, 2.0, 4.0])
    system = SpinSystem("e", (), g)
    b = np.array([30.0, 0.0, 30.0])
    nu_e, axis = electron_axis(system, b)
    heff = CONSTANTS.electron_zeeman_factor * g.T @ b
    assert nu_e == pytest.approx(np.linalg.norm(heff))
    np.testing.assert_allclose(axis, heff / np.linalg.norm(heff))


@pytest.mark.parametrize(
    "g, field",
    [(np.diag([2.0, 2.0, 1e308]), FIELD), (2.0 * np.eye(3), [0.0, 0.0, 1e308])],
    ids=["huge-g", "huge-field"],
)
def test_electron_axis_refuses_an_overflow_without_a_numpy_warning(g, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="electron Zeeman frequency overflows"):
            electron_axis(SpinSystem("e", (), g), field)


@pytest.mark.parametrize("symbol", ["11B", "12C"])
def test_perturbative_solve_refuses_a_huge_tensor_without_a_numpy_warning(symbol):
    # 12C carries no spin, but a pattern may give the site 13C.
    system = _single(symbol, (1.0, 2.0, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="hyperfine tensor too large"):
            perturb_lines(system, FIELD)


def test_isotropic_second_order_closed_form():
    a = 20.0
    system = _single("11B", (a, a, a))
    lines = perturb_lines(system, FIELD, order=2)
    spin = 1.5
    m = spin - np.arange(4)
    expected = NU_E + a * m + a * a * (spin * (spin + 1.0) - m * m) / (2.0 * NU_E)
    np.testing.assert_allclose(
        np.sort(lines.frequencies), np.sort(expected), atol=1e-9
    )


def test_first_order_center_is_electron_line():
    lines = perturb_lines(_load("CN0"), FIELD, order=1)
    stats = peak_stats(lines, window=(-np.inf, np.inf))
    assert stats.center == pytest.approx(NU_E, abs=1e-6)


def test_cn_second_order_reference_statistics():
    stats = peak_stats(perturb_lines(_load("CN0"), FIELD, order=2))
    assert stats.center == pytest.approx(132.26, abs=0.05)
    assert stats.fwhm_gauss == pytest.approx(74.26, abs=0.05)


def test_line_weights_are_class_probabilities():
    system = _load("CN0")
    lines = perturb_lines(system, FIELD)
    assert lines.meta["configurations"] == 64 * 729
    assert len(lines) == 560  # C(3+3, 3) boron classes x C(6+2, 2) nitrogen
    assert lines.total_weight == pytest.approx(1.0, abs=1e-12)
    configurations = lines.weights * 46656
    np.testing.assert_allclose(configurations, np.rint(configurations), atol=1e-8)
    assert configurations.min() == pytest.approx(1.0)
    _assert_same_distribution(lines, _raw_lines(system, FIELD))


def test_perturb_rejects_zero_field():
    with pytest.raises(ZeroFieldError):
        perturb_lines(_load("CN0"), np.zeros(3))


def test_perturb_rejects_bad_order():
    with pytest.raises(ValueError):
        perturb_lines(_load("CN0"), FIELD, order=3)


def test_strong_coupling_warns():
    system = _single("13C", (12.1, 12.1, 231.3))
    with pytest.warns(UserWarning, match="not small"):
        perturb_lines(system, FIELD)


def test_exact_electron_only_single_line():
    system = SpinSystem("e", ())
    h = build_hamiltonian(system, FIELD, terms=("ezi",))
    lines = exact_transitions(h, system)
    assert len(lines) == 1
    assert lines.frequencies[0] == pytest.approx(NU_E)
    assert lines.intensities[0] == pytest.approx(0.25)


def test_exact_matches_perturb2_for_weak_coupling():
    system = _single("14N", (5.0, 7.0, 9.0))
    h = build_hamiltonian(system, FIELD, terms=("ezi", "hfi"))
    exact = exact_transitions(h, system)
    approx = perturb_lines(system, FIELD, order=2)
    bound = 10.0 * 9.0**3 / NU_E**2
    for f in approx.frequencies:
        assert np.abs(exact.frequencies - f).min() < bound


def test_intensity_floor_prunes_forbidden_lines():
    system = _single("11B", (1.4, -0.9, 6.1))
    h = build_hamiltonian(system, FIELD)
    full = exact_transitions(h, system, intensity_floor=0.0)
    pruned = exact_transitions(h, system, intensity_floor=0.3)
    assert len(pruned) == 4
    assert len(full) > len(pruned)


def test_exact_output_sorted_ascending():
    system = _single("11B", (1.4, -0.9, 6.1))
    h = build_hamiltonian(system, FIELD)
    lines = exact_transitions(h, system)
    assert np.all(np.diff(lines.frequencies) >= 0)
    assert np.all(lines.frequencies > 0)


def _dense_moment_lines(h, intensity_floor, parity_allowed=False):
    """Exact lines with S_x embedded as a dense matrix: |U^H (S_x (x) 1) U|^2.

    With ``parity_allowed``, only the pairs whose eigenvectors lie in
    different parity blocks (H must split) are kept.
    """
    energies, states = np.linalg.eigh(h.matrix)
    sx = np.kron(np.array([[0.0, 0.5], [0.5, 0.0]]), np.eye(h.dimension // 2))
    moments = np.abs(states.conj().T @ sx @ states) ** 2
    ii, fi = np.triu_indices(h.dimension, k=1)
    if parity_allowed:
        block = np.rint((np.abs(states[_parity(h) == 1]) ** 2).sum(axis=0))
        across = block[fi] != block[ii]
        ii, fi = ii[across], fi[across]
    freqs, intens = energies[fi] - energies[ii], moments[fi, ii]
    keep = intens >= intensity_floor * intens.max()
    order = np.lexsort((intens[keep], freqs[keep]))
    return freqs[keep][order], intens[keep][order]


def _full_solve_lines(h, intensity_floor=INTENSITY_FLOOR):
    """``exact_transitions`` as it ran before the parity blocks: one ``eigh``
    of the whole H, moments from the electron halves of the eigenvectors."""
    energies, states = np.linalg.eigh(h.matrix)
    half = h.dimension // 2
    x = states[:half].conj().T @ states[half:]
    ii, fi = np.triu_indices(len(energies), k=1)
    freqs = energies[fi] - energies[ii]
    intens = np.abs(0.5 * (x[fi, ii] + x[ii, fi].conj())) ** 2
    keep = intens >= intensity_floor * intens.max()
    freqs, intens = freqs[keep], intens[keep]
    order = np.lexsort((intens, freqs))
    return freqs[order], intens[order]


def _parity(h):
    """Sum of factor indices mod 2 of every basis state."""
    return np.indices(h.dims).sum(axis=0).ravel() % 2


def _off_block(h):
    parity = _parity(h)
    return h.matrix[parity[:, None] != parity]


def _assert_blocks_match(lines, freqs, intens, h):
    """Block lines against a full solve: same count, frequencies to 1e-9 MHz,
    intensity per frequency cluster to 1e-12 plus the eigenvectors'
    conditioning, eps max|E| / (smallest level gap). Two valid double-precision
    solves differ by that much: for CN0 at 165 G along c, a full solve of the
    reversed basis moves intensities by 4.4e-12, and against a 30-digit solve
    of the blocks the full and the block intensities err by up to 8e-12 and
    9.5e-12."""
    assert len(lines) == freqs.size
    np.testing.assert_allclose(
        np.sort(lines.frequencies), np.sort(freqs), rtol=0.0, atol=1e-9
    )
    levels = np.linalg.eigvalsh(h.matrix)
    conditioning = np.finfo(float).eps * np.abs(levels).max() / np.diff(levels).min()
    reference = LineList("full", lines.field, freqs, intens, np.ones(freqs.size))
    _assert_same_distribution(lines, reference, tol=1e-9, atol=1e-12 + conditioning)


def _first_shell(label, carbon13, nqi, field, second_shell=()):
    system = build_system(
        find_defect(load_defect_dataset(), label), {"C": "13C"} if carbon13 else None
    )
    sub = system.subsystem(((0,) if carbon13 else ()) + shell_indices(system) + second_shell)
    terms = ("ezi", "hfi", "nzi") + (("nqi",) if nqi else ())
    return sub, build_hamiltonian(sub, np.array(field), terms=terms)


_FIRST_SHELL_CASES = [
    (label, carbon13, nqi)
    for label in ("CN0", "CB0")
    for carbon13 in (False, True)
    for nqi in (False, True)
]


@pytest.mark.parametrize("label, carbon13, nqi", _FIRST_SHELL_CASES)
@pytest.mark.parametrize("field", [(0.0, 0.0, 42.0), (11.0, 23.0, 37.0), (0.0, 0.0, 0.0)],
                         ids=["c-axis", "tilted", "zero"])
def test_exact_moments_match_dense_sx(label, carbon13, nqi, field):
    sub, h = _first_shell(label, carbon13, nqi, field)
    lines = exact_transitions(h, sub, intensity_floor=0.0)
    # Only CN0 along c splits with a non-degenerate spectrum. CB0's equivalent
    # 14N give degenerate levels, and at zero field the levels are Kramers
    # pairs, so both are solved in full.
    blocks = label == "CN0" and field == (0.0, 0.0, 42.0)
    assert (_block_pairs(h, sub, INTENSITY_FLOOR) is not None) == blocks
    if blocks:
        # A floor of 0 returns the n^2/4 pairs across the parity blocks and
        # none of the pairs inside a block, whose S_x moment is zero.
        freqs, intens = _dense_moment_lines(h, 0.0, parity_allowed=True)
        assert freqs.size == h.dimension**2 // 4
        _assert_blocks_match(lines, freqs, intens, h)
    else:
        freqs, intens = _dense_moment_lines(h, 0.0)
        assert np.array_equal(lines.frequencies, freqs)
        np.testing.assert_allclose(lines.intensities, intens, rtol=0.0, atol=1e-12)
    if any(field):
        pruned = exact_transitions(h, sub)
        assert len(pruned) == len(_dense_moment_lines(h, INTENSITY_FLOOR)[0])


@pytest.mark.parametrize("carbon13, nqi", [(c, q) for c in (False, True) for q in (False, True)])
@pytest.mark.parametrize("magnitude", [42.0, 155.0, 215.0, 300.0])
def test_cn0_blocks_match_the_full_solve_along_c(carbon13, nqi, magnitude):
    sub, h = _first_shell("CN0", carbon13, nqi, (0.0, 0.0, magnitude))
    assert not _off_block(h).any()
    assert _block_pairs(h, sub, INTENSITY_FLOOR) is not None
    freqs, intens = _full_solve_lines(h)
    _assert_blocks_match(exact_transitions(h, sub), freqs, intens, h)


# CB0 along c (degenerate levels) and both defects at tilted fields.
_FULL_SOLVE_CASES = [
    case + (field,)
    for case in _FIRST_SHELL_CASES
    for field in [(11.0, 23.0, 37.0), (30.0, 0.0, 30.0), (0.0, 0.4, 300.0)]
    + ([(0.0, 0.0, 150.0), (0.0, 0.0, -42.0)] if case[0] == "CB0" else [])
]


@pytest.mark.parametrize("label, carbon13, nqi, field", _FULL_SOLVE_CASES)
def test_full_solve_paths_stay_byte_identical(label, carbon13, nqi, field):
    _assert_full_solve_bytes(*_first_shell(label, carbon13, nqi, field))


# CB0 with one second-shell 11B (n = 216), CN0 with 13C (n = 256) and CB0 with
# 13C and one second-shell 11B (n = 432), at tilted fields.
@pytest.mark.parametrize("label, carbon13, second_shell, dimension",
                         [("CB0", False, (4,), 216), ("CN0", True, (), 256), ("CB0", True, (4,), 432)])
@pytest.mark.parametrize("field", [(11.0, 23.0, 37.0), (-80.0, 140.0, 210.0)])
def test_full_solve_paths_stay_byte_identical_on_larger_subsystems(
    label, carbon13, second_shell, dimension, field
):
    sub, h = _first_shell(label, carbon13, False, field, second_shell)
    assert h.dimension == dimension
    _assert_full_solve_bytes(sub, h)


def _assert_full_solve_bytes(sub, h):
    assert _block_pairs(h, sub, INTENSITY_FLOOR) is None
    for floor in (INTENSITY_FLOOR, 0.0, 1.0):
        lines = exact_transitions(h, sub, intensity_floor=floor)
        freqs, intens = _full_solve_lines(h, floor)
        assert np.array_equal(lines.frequencies, freqs)
        assert np.array_equal(lines.intensities, intens)


def _spied(monkeypatch, *names):
    """The names, in call order, of the calls to the solvers' functions
    ``names``, which still run."""
    calls = []
    for name in names:
        def spy(*args, _name=name, _real=getattr(solvers, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(solvers, name, spy)
    return calls


def test_tilted_field_stops_the_split_test_at_the_field(monkeypatch):
    # The field test is O(1): a tilted field reads neither the sites nor H.
    sub, h = _first_shell("CN0", True, True, (11.0, 23.0, 37.0))
    calls = _spied(monkeypatch, "_threefold_images", "_levels")
    assert _block_pairs(h, sub, INTENSITY_FLOOR) is None
    assert len(exact_transitions(h, sub)) > 0
    assert calls == []
    # Along c the same system goes on to the sites and to H's entries.
    along_c = build_hamiltonian(sub, np.array([0.0, 0.0, 37.0]), terms=h.terms)
    assert _block_pairs(along_c, sub, INTENSITY_FLOOR) is not None
    assert calls[0] == "_threefold_images" and "_levels" in calls


@pytest.mark.parametrize("field", [(0.0, 0.0, 42.0), (0.0, 0.0, -200.0)])
def test_c_axis_shells_without_the_turn_take_the_full_solve(monkeypatch, field):
    # CN0's first shell as 11B, 11B and 10B: c is a principal axis of every
    # tensor, so H keeps parity, but no turn maps the sites to themselves.
    # The sites end the split test before H is read, and the lines are the
    # full solve's, byte for byte.
    cn0 = _load("CN0")
    pattern, = (p for p in enumerate_patterns(cn0, ("B",)) if p.describe() == "2x11B+1x10B")
    system = apply_pattern(cn0, pattern)
    sub = system.subsystem(shell_indices(system))
    h = build_hamiltonian(sub, np.array(field), terms=("ezi", "hfi", "nzi", "nqi"))
    assert not _off_block(h).any()
    calls = _spied(monkeypatch, "_threefold_images", "_levels")
    assert solvers._sectors(h, sub) is None
    assert calls == ["_threefold_images"]
    _assert_full_solve_bytes(sub, h)


def test_any_entry_across_the_blocks_forces_the_full_solve():
    sub, h = _first_shell("CN0", False, False, (0.0, 0.0, 42.0))
    parity = _parity(h)
    even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
    for i, j in ((odd[-1], even[-1]), (even[-1], odd[-2])):   # not in row 0
        matrix = h.matrix.copy()
        matrix[i, j] = matrix[j, i] = 1e-300
        mixed = HamiltonianMatrix(matrix, h.terms, h.dims, h.field)
        assert _block_pairs(mixed, sub, INTENSITY_FLOOR) is None
        lines = exact_transitions(mixed, sub)
        freqs, intens = _full_solve_lines(mixed)
        assert np.array_equal(lines.frequencies, freqs)
        assert np.array_equal(lines.intensities, intens)


_C_PRINCIPAL_SITE = st.tuples(
    st.sampled_from(["11B", "10B", "14N", "15N", "13C"]),
    st.tuples(*[st.floats(-40.0, 40.0)] * 3),
    st.floats(0.0, 2.0 * np.pi),
    st.integers(0, 2),                  # which principal axis lies along c
    st.tuples(*[st.floats(-0.5, 0.5)] * 2),
)


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(_C_PRINCIPAL_SITE, min_size=1, max_size=3),
    magnitude=st.floats(5.0, 300.0),
    sign=st.sampled_from([1.0, -1.0]),
    terms=st.sampled_from([("ezi", "hfi"), ("ezi", "hfi", "nzi"), ("ezi", "hfi", "nzi", "nqi")]),
)
# Two equal 11B sites, not axial about c, with level pairs 2e-7 MHz apart: no
# turn maps them to themselves, so the full solve.
@example(
    kinds=[("11B", (0.0, 19.75, 0.1875), 1.552700896361322, 2, (0.0, 0.0)),
           ("11B", (0.0, 19.75, 0.1875), 0.1875, 2, (0.0, 0.0))],
    magnitude=300.0, sign=-1.0, terms=("ezi", "hfi"),
)
def test_blocks_match_the_full_solve_for_c_principal_systems(kinds, magnitude, sign, terms):
    sites = []
    for symbol, couplings, azimuth, roll, (v1, v2) in kinds:
        iso = lookup(symbol)
        # Columns are the principal axes; a cyclic roll keeps the frame proper.
        frame = axial_frame(azimuth)[:, np.roll(np.arange(3), roll)]
        efg = frame @ np.diag([v1, v2, -v1 - v2]) @ frame.T
        sites.append((NuclearSite(iso.element, 1.0, 0.0, couplings, frame, efg=efg), iso))
    system = SpinSystem("c-principal", tuple(sites))
    assume(system.dimension <= 300)
    h = build_hamiltonian(system, np.array([0.0, 0.0, sign * magnitude]), terms=terms)
    assert not _off_block(h).any()
    lines = exact_transitions(h, system)
    freqs, intens = _full_solve_lines(h)
    split = solvers._sectors(h, system)
    if split is not None and _block_pairs(h, system, INTENSITY_FLOOR) is not None:
        _assert_blocks_match(lines, freqs, intens, h)
        return
    if split is not None:       # sectors with levels degenerate across them
        levels = np.linalg.eigvalsh(h.matrix)
        gap = np.diff(levels).min()
        assert gap <= 2.0 * _DEGENERACY_TOLERANCE * np.abs(levels).max()
    # Without the turn, or degenerate: the full solve, byte for byte.
    assert np.array_equal(lines.frequencies, freqs)
    assert np.array_equal(lines.intensities, intens)


# Sector sizes, sorted, of the first shells along c: n = 128, 256, 54 and 108.
_SECTOR_SIZES = {
    ("CN0", False): [20, 20, 22, 22, 22, 22],
    ("CN0", True): [42, 42, 42, 42, 44, 44],
    ("CB0", False): [8, 8, 9, 9, 10, 10],
    ("CB0", True): [17, 17, 18, 18, 18, 20],
}


def _nudged(system, k, delta=1e-6):
    """``system`` with site k's first principal value moved by ``delta`` MHz."""
    site, iso = system.sites[k]
    moved = site._with_principal_values(np.add(site.principal_values, (delta, 0.0, 0.0)))
    sites = system.sites[:k] + ((moved, iso),) + system.sites[k + 1:]
    return SpinSystem(system.label, sites, system.g_tensor)


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(_FIRST_SHELL_CASES),
    magnitude=st.floats(5.0, 300.0),
    sign=st.sampled_from([1.0, -1.0]),
    variant=st.sampled_from(["symmetric", "tilted", "nudged"]),
    site=st.integers(0, 3),
)
def test_threefold_sectors_match_the_full_solve_along_c(case, magnitude, sign, variant, site):
    label, carbon13, nqi = case
    field = (0.0, 1.0 if variant == "tilted" else 0.0, sign * magnitude)
    sub, h = _first_shell(label, carbon13, nqi, field)
    if variant == "nudged":         # one site's tensor off the turned one's by 1e-6 MHz
        sub = _nudged(sub, site % len(sub.sites))
        h = build_hamiltonian(sub, h.field, terms=h.terms)
    split = solvers._sectors(h, sub)
    lines = exact_transitions(h, sub)
    if variant == "symmetric":
        assert sorted(split.sizes) == _SECTOR_SIZES[label, carbon13]
        if _block_pairs(h, sub, INTENSITY_FLOOR) is not None:
            _assert_blocks_match(lines, *solvers._full_pairs(h, INTENSITY_FLOOR), h)
            return
        # CB0: its three equal 14N, axial about c, give levels degenerate across sectors.
    else:
        assert split is None
    freqs, intens = _full_solve_lines(h)
    assert np.array_equal(lines.frequencies, freqs)
    assert np.array_equal(lines.intensities, intens)


def _shell(symbol, values, azimuths, twist):
    """Sites of ``symbol`` at ``azimuths`` (degrees), c-principal tensors with
    in-plane axes at azimuth + ``twist``, and EFGs likewise when quadrupolar."""
    iso = lookup(symbol)
    sites = []
    for azimuth in azimuths:
        frame = axial_frame(np.radians(azimuth + twist))
        efg = frame @ np.diag([0.2, 0.5, -0.7]) @ frame.T if iso.spin >= 1.0 else None
        sites.append((NuclearSite(iso.element, 1.0, np.radians(azimuth), values, frame, efg), iso))
    return tuple(sites)


def _field_along_c(sites, magnitude):
    system = SpinSystem("turned", sites)
    return system, build_hamiltonian(system, np.array([0.0, 0.0, magnitude]),
                                     terms=("ezi", "hfi", "nzi", "nqi"))


@pytest.mark.parametrize("magnitude", [-120.0, 60.0, 240.0])
def test_threefold_sectors_off_the_tested_mirror_planes_stay_complex(magnitude):
    # The shell's mirror plane runs through its tensors' axes at 42 degrees,
    # off the planes ``_mirror_images`` tests.
    system, h = _field_along_c(_shell("11B", (3.0, -7.0, 11.0), (17.0, 137.0, 257.0), 25.0),
                               magnitude)
    split = solvers._sectors(h, system)
    assert len(split.sizes) == 6 and split.real is None
    assert solvers._mirror_images(system.sites, solvers._threefold_images(system.sites)) is None
    assert _block_pairs(h, system, INTENSITY_FLOOR) is not None
    freqs, intens = _full_solve_lines(h)
    _assert_blocks_match(exact_transitions(h, system), freqs, intens, h)


def _embedded(dims, ops):
    """The Kronecker product over the factors ``dims`` of ``ops`` (factor ->
    matrix), identities elsewhere."""
    return reduce(np.kron, [ops.get(k, np.eye(d)) for k, d in enumerate(dims)])


@pytest.mark.parametrize("magnitude", [-150.0, 150.0])
def test_a_term_that_breaks_the_mirror_keeps_the_sector_blocks_complex(magnitude):
    # 0.5 MHz (S_x J_y - S_y J_x), J the first shell's nuclear spin: the
    # turn and parity keep it, complex conjugation flips its sign, so the
    # mirror's real form does not hold and the blocks must stay complex.
    sub, h = _first_shell("CN0", False, True, (0.0, 0.0, magnitude))
    s, i = spin_operators(0.5), spin_operators(sub.sites[0][1].spin)
    term = sum(_embedded(h.dims, {0: s.jx, k: i.jy}) - _embedded(h.dims, {0: s.jy, k: i.jx})
               for k in range(1, len(h.dims)))
    broken = HamiltonianMatrix(h.matrix + 0.5 * term, h.terms, h.dims, h.field)
    split = solvers._sectors(broken, sub)
    assert len(split.sizes) == 6 and split.real is not None
    assert _block_pairs(broken, sub, INTENSITY_FLOOR) is not None
    freqs, intens = _full_solve_lines(broken)
    _assert_blocks_match(exact_transitions(broken, sub), freqs, intens, broken)


def _turned_away(h, sub):
    """H with, in turn, a diagonal entry of a state that no sector row reads
    and an entry pair inside one parity block moved by 1e-3 MHz: each keeps
    parity and breaks the turn."""
    step = solvers._moved_states(h.dims, solvers._threefold_images(sub.sites))
    hidden = np.flatnonzero((step != np.arange(h.dimension)) & (step < np.arange(h.dimension)))
    i, j = np.flatnonzero(h.matrix[hidden[-1]] != 0)[:2]
    for rows, cols in (((hidden[-1],), (hidden[-1],)), ((i, j), (j, i))):
        matrix = h.matrix.copy()
        matrix[rows, cols] += 1e-3
        yield HamiltonianMatrix(matrix, h.terms, h.dims, h.field)


@pytest.mark.parametrize("label", ["CN0", "CB0"])
def test_an_entry_that_breaks_the_turn_takes_the_full_solve(label):
    sub, h = _first_shell(label, False, True, (0.0, 0.0, 150.0))
    assert len(solvers._sectors(h, sub).sizes) == 6
    # A term the sites do not show, and an H of another system of the same
    # layout (one site's tensor off the turned one's by 1e-3 MHz).
    other = build_hamiltonian(_nudged(sub, 1, 1e-3), h.field, terms=h.terms)
    for broken in (*_turned_away(h, sub), other):
        assert not _off_block(broken).any()
        assert solvers._sectors(broken, sub) is None
        lines = exact_transitions(broken, sub)
        freqs, intens = _full_solve_lines(broken)
        assert np.array_equal(lines.frequencies, freqs)
        assert np.array_equal(lines.intensities, intens)


def test_exact_requires_matching_layout():
    system = _single("14N", (5.0, 7.0, 9.0))
    other = _single("11B", (5.0, 7.0, 9.0))
    h = build_hamiltonian(system, FIELD)
    with pytest.raises(ValueError, match="layout"):
        exact_transitions(h, other)


def test_hybrid_empty_selection_reduces_to_perturbation():
    system = _load("CN0")
    direct = perturb_lines(system, FIELD)
    via_hybrid = hybrid_solve(system, (), FIELD)
    np.testing.assert_array_equal(
        np.sort(via_hybrid.frequencies), np.sort(direct.frequencies)
    )


def test_hybrid_full_selection_reduces_to_exact():
    system = _single("14N", (5.0, 7.0, 9.0))
    h = build_hamiltonian(system, FIELD, terms=("ezi", "hfi", "nzi"))
    exact = exact_transitions(h, system)
    via_hybrid = hybrid_solve(system, (0,), FIELD)
    np.testing.assert_allclose(via_hybrid.frequencies, exact.frequencies, atol=1e-12)
    assert via_hybrid.meta["method_detail"] == "all sites exact"


def test_hybrid_first_shell_reference_statistics():
    system = _load("CN0")
    lines = hybrid_solve(system, shell_indices(system), FIELD)
    stats = peak_stats(lines)
    assert stats.center == pytest.approx(131.80, abs=0.05)
    assert stats.fwhm_gauss == pytest.approx(72.47, abs=0.05)


def test_hybrid_weights_multiply_through_convolution():
    system = _load("CB0")
    shell = shell_indices(system)
    lines = hybrid_solve(system, shell, FIELD)
    subsystem = system.subsystem(shell)
    exact = exact_transitions(
        build_hamiltonian(subsystem, FIELD, terms=("ezi", "hfi", "nzi")), subsystem
    )
    remainder = [k for k in range(len(system.sites)) if k not in shell]
    rest = _raw_lines(system.subsystem(remainder), FIELD)   # 12C and six 11B
    assert lines.meta["configurations"] == 4096
    assert len(lines) == len(exact) * 84   # C(6+3, 3) classes per exact line
    # exact weights are 1 each; each class holds a whole number of the
    # remainder's 4^6 equally likely configurations
    configurations = lines.weights * 4096
    np.testing.assert_allclose(configurations, np.rint(configurations), atol=1e-8)
    assert configurations.min() == pytest.approx(1.0)
    nu_e, _ = electron_axis(system, FIELD)
    shifts = rest.frequencies - nu_e
    reference = LineList(
        "reference",
        FIELD,
        np.add.outer(exact.frequencies, shifts).ravel(),
        np.repeat(exact.intensities, shifts.size),
        np.repeat(exact.weights, shifts.size) / shifts.size,
    )
    _assert_same_distribution(lines, reference)
    _assert_same_stats(lines, reference, (30.0, np.inf))


def test_hybrid_rejects_duplicate_sites():
    system = _load("CN0")
    with pytest.raises(ValueError, match="duplicate"):
        hybrid_solve(system, (1, 1), FIELD)


def test_hybrid_rejects_out_of_range_site():
    system = _load("CN0")
    with pytest.raises(ValueError, match="range"):
        hybrid_solve(system, (99,), FIELD)


def test_shell_indices_exclude_spinless_and_distant_sites():
    cb = _load("CB0")
    assert shell_indices(cb, 1.0) == (1, 2, 3)
    assert shell_indices(cb, np.sqrt(3.0)) == tuple(range(1, 10))
    cn = _load("CN0")
    assert shell_indices(cn, 1.0) == (1, 2, 3)


def test_sampling_below_threshold_is_exact_enumeration():
    system = _load("CN0")
    sampled = sample_configurations(system, FIELD, seed=7)
    direct = perturb_lines(system, FIELD)
    assert sampled.meta["sampled"] is False
    np.testing.assert_array_equal(sampled.frequencies, direct.frequencies)


def test_sampling_is_seed_deterministic():
    system = _load("CN0")
    a = sample_configurations(
        system, FIELD, sample_count=2000, seed=3, enumeration_threshold=1
    )
    b = sample_configurations(
        system, FIELD, sample_count=2000, seed=3, enumeration_threshold=1
    )
    c = sample_configurations(
        system, FIELD, sample_count=2000, seed=4, enumeration_threshold=1
    )
    assert a.meta["sampled"] is True
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    assert not np.array_equal(a.frequencies, c.frequencies)


def test_sampling_accepts_composite_seed():
    system = _load("CN0")
    a = sample_configurations(
        system, FIELD, sample_count=500, seed=[5, 0], enumeration_threshold=1
    )
    b = sample_configurations(
        system, FIELD, sample_count=500, seed=[5, 1], enumeration_threshold=1
    )
    assert not np.array_equal(a.frequencies, b.frequencies)


def test_sampling_weights_sum_to_one():
    system = _load("CN0")
    lines = sample_configurations(
        system, FIELD, sample_count=1234, seed=0, enumeration_threshold=1
    )
    assert len(lines) == 1234
    assert lines.total_weight == pytest.approx(1.0)


def test_sampling_rejects_empty_draw():
    with pytest.raises(ValueError):
        sample_configurations(_load("CN0"), FIELD, sample_count=0)


def test_linelist_sorted_and_transitions():
    lines = LineList(
        "x",
        FIELD,
        np.array([5.0, 1.0, 3.0]),
        np.array([1.0, 1.0, 1.0]),
        np.array([0.2, 0.5, 0.3]),
    )
    ordered = lines.sorted()
    np.testing.assert_allclose(ordered.frequencies, [1.0, 3.0, 5.0])
    assert (ordered.frequencies[0], ordered.weights[0]) == (1.0, 0.5)
    assert lines.total_weight == pytest.approx(1.0)


def test_linelist_rejects_mismatched_arrays():
    with pytest.raises(ValueError):
        LineList("x", FIELD, np.zeros(3), np.zeros(2), np.zeros(3))


@pytest.mark.parametrize("column", [0, 1, 2], ids=["frequency", "intensity", "weight"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_linelist_rejects_nonfinite_values(column, bad):
    columns = [np.array([100.0, 110.0]), np.ones(2), np.full(2, 0.5)]
    columns[column][1] = bad
    with pytest.raises(ValueError, match="finite"):
        LineList("x", FIELD, *columns)


@pytest.mark.parametrize("column", [1, 2], ids=["intensity", "weight"])
def test_linelist_rejects_negative_mass(column):
    columns = [np.array([100.0, 110.0]), np.ones(2), np.full(2, 0.5)]
    columns[column][1] = -1e-300
    with pytest.raises(ValueError, match="non-negative"):
        LineList("x", FIELD, *columns)


def test_linelist_accepts_negative_frequency_and_zero_mass():
    lines = LineList("x", FIELD, np.array([-5.0, 0.0]), np.zeros(2), np.zeros(2))
    assert len(lines) == 2


_FIELDS = {
    "parallel": np.array([0.0, 0.0, 42.0]),
    "tilted": np.array([30.0, 0.0, 30.0]),
    "generic": np.array([11.0, 23.0, 37.0]),
}


@pytest.mark.parametrize("label", ["CN0", "CB0"])
@pytest.mark.parametrize("field", sorted(_FIELDS))
@pytest.mark.parametrize("order, mode", [(1, MODE_FULL), (2, MODE_FULL), (2, MODE_ACONST)])
def test_grouped_lines_match_raw_enumeration(label, field, order, mode):
    system = _load(label)
    lines = perturb_lines(system, _FIELDS[field], order, mode)
    raw = _raw_lines(system, _FIELDS[field], order, mode)
    assert lines.meta["configurations"] == len(raw)
    assert len(lines) < len(raw)
    _assert_same_distribution(lines, raw)
    _assert_same_stats(lines, raw)
    _assert_same_stats(lines, raw, (30.0, np.inf))


_ISOTOPES = ("11B", "10B", "14N", "15N", "13C", "12C")
_COUPLING = st.floats(-40.0, 40.0, allow_nan=False)


def _rotation(q) -> np.ndarray:
    """Proper rotation from a (not yet normalized) quaternion."""
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


_QUATERNION = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: np.linalg.norm(q) > 0.1
)
_SITE = st.tuples(st.sampled_from(_ISOTOPES), st.tuples(*[_COUPLING] * 3), _QUATERNION)
_DIRECTION = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda d: np.linalg.norm(d) > 0.1
)


@settings(max_examples=150, deadline=None)
@given(
    kinds=st.lists(_SITE, min_size=1, max_size=3),
    data=st.data(),
    magnitude=st.floats(5.0, 300.0),
    direction=_DIRECTION,
    order=st.sampled_from([1, 2]),
    mode=st.sampled_from([MODE_FULL, MODE_ACONST]),
)
def test_grouped_lines_match_raw_for_duplicated_sites(
    kinds, data, magnitude, direction, order, mode
):
    picks = data.draw(st.lists(st.integers(0, len(kinds) - 1), min_size=1, max_size=4))
    sites = []
    for k in picks:
        symbol, couplings, quaternion = kinds[k]
        iso = lookup(symbol)
        sites.append((_site(iso.element, couplings, _rotation(quaternion)), iso))
    system = SpinSystem("random", tuple(sites))
    field = magnitude * np.asarray(direction) / np.linalg.norm(direction)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # strong coupling is fine here
        lines = perturb_lines(system, field, order, mode)
        raw = _raw_lines(system, field, order, mode)
    assert lines.meta["configurations"] == len(raw)
    assert len(lines) <= len(raw)
    _assert_same_distribution(lines, raw)
    _assert_same_stats(lines, raw)


@settings(max_examples=100, deadline=None)
@given(
    symbol=st.sampled_from(["11B", "10B", "14N", "15N", "13C"]),
    shape=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: max(map(abs, v)) > 0.1),
    strength=st.floats(0.001, 0.1),
    quaternion=_QUATERNION,
    magnitude=st.floats(20.0, 300.0),
    direction=_DIRECTION,
)
def test_perturb2_converges_to_exact_for_weak_coupling(
    symbol, shape, strength, quaternion, magnitude, direction
):
    iso = lookup(symbol)
    field = magnitude * np.asarray(direction) / np.linalg.norm(direction)
    nu_e, axis = electron_axis(SpinSystem("e", ()), field)
    # Scale the couplings so the largest, K, is ``strength`` times nu_e.
    couplings = np.asarray(shape) * (strength * nu_e / max(map(abs, shape)))
    k = float(np.abs(couplings).max())
    site = _site(iso.element, tuple(couplings), _rotation(quaternion))
    # The expansion quantizes the nucleus along a = A^T n. When |a| is small
    # against K the projections m mix at second order, so that is excluded:
    # over 9,000 random sites the deviation reached 37 K^3/nu_e^2 at
    # |a| = 0.06 K, and stayed below 7.9 K^3/nu_e^2 wherever |a| >= 0.3 K.
    assume(np.linalg.norm(site.hyperfine_tensor().T @ axis) >= 0.3 * k)
    system = SpinSystem("weak", ((site, iso),))
    exact = exact_transitions(
        build_hamiltonian(system, field, terms=("ezi", "hfi")), system, intensity_floor=0.0
    )
    approx = perturb_lines(system, field, order=2)
    bound = 10.0 * k**3 / nu_e**2 + 1e-12 * nu_e   # plus eigh rounding
    deviation = max(np.abs(exact.frequencies - f).min() for f in approx.frequencies)
    assert deviation <= bound


_FRONT_DOORS = {
    "perturb_lines": perturb_lines,
    "sampled": lambda system, field, **kw: sample_configurations(
        system, field, sample_count=100, enumeration_threshold=1, **kw
    ),
    "hybrid_solve": lambda system, field, **kw: hybrid_solve(
        system, shell_indices(system), field, **kw
    ),
}


@pytest.mark.parametrize("solver", sorted(_FRONT_DOORS))
@pytest.mark.parametrize(
    "field, kwargs, error, match",
    [
        (np.zeros(3), {}, ZeroFieldError, None),
        (FIELD, {"mode": "bogus"}, ValueError, None),
        (FIELD, {"order": 3}, ValueError, None),
        (np.array([np.nan, 0.0, 1.0]), {}, ValueError, None),
        (np.array([np.inf, 0.0, 1.0]), {}, ValueError, None),
        ([1.0, 2.0], {}, ValueError, "field must be a 3-vector in Gauss"),
        ([[0.0, 0.0, 42.0]], {}, ValueError, "field must be a 3-vector in Gauss"),
        ([0.0, 0.0, 42.0, 1.0], {}, ValueError, "field must be a 3-vector in Gauss"),
    ],
    ids=["zero-field", "bad-mode", "bad-order", "nan-field", "inf-field",
         "two-components", "row-matrix", "four-components"],
)
def test_perturbative_front_doors_reject_bad_requests(solver, field, kwargs, error, match):
    with pytest.raises(error, match=match):
        _FRONT_DOORS[solver](_load("CN0"), field, **kwargs)


def _inequivalent_boron(count):
    """``count`` 10B sites in one group, no two with the same tensor: 7**count
    configurations and as many classes, since no two shift tables agree."""
    sites = tuple(
        (NuclearSite("B", 1.0, 0.0, (1.0 + k, 2.0 + k, 3.0 + 2 * k), np.eye(3),
                     group_id="B-big"), lookup("10B"))
        for k in range(count)
    )
    return SpinSystem("big", sites)


def test_enumeration_limit_raises_before_any_class_is_built(monkeypatch):
    # Ten sites, so that even the all-11B pattern of a composite has
    # 4**10 > 10**6 classes; hybrid_solve keeps 9 of them perturbative.
    system = _inequivalent_boron(10)

    def built(*args):
        raise AssertionError("a class list was started past the limit")

    monkeypatch.setattr(solvers, "_group_classes", built)
    calls = {
        7**10: lambda: perturb_lines(system, FIELD),
        7**9: lambda: hybrid_solve(system, (0,), FIELD),
        4**10: lambda: composite_lines(system, enumerate_patterns(system), FIELD),
    }
    for classes, call in calls.items():
        assert classes > ENUMERATION_THRESHOLD
        message = (f"{classes} configuration classes exceed the enumeration "
                   f"limit {ENUMERATION_THRESHOLD}")
        with pytest.raises(ValueError, match=message):
            call()


def test_sampling_still_takes_systems_past_the_enumeration_limit():
    lines = sample_configurations(_inequivalent_boron(10), FIELD, sample_count=500)
    assert lines.meta["sampled"] is True
    assert lines.meta["configurations"] == 7**10
    assert len(lines) == 500


def _reference_table(site, iso, axis, nu_e, order, mode):
    """One site's shift table, m descending, straight from the formula in
    the ``solvers`` docstring; the reference for the batched tables."""
    spin = iso.spin
    if spin == 0.0:
        return np.zeros(1)
    m = spin - np.arange(iso.multiplicity)
    a = np.diag(site.principal_values) if mode == MODE_ACONST else site.hyperfine_tensor()
    a_vec = a.T @ axis
    k = float(np.linalg.norm(a_vec))
    shifts = k * m
    if order == 2:
        au2 = float(np.sum((a @ (a_vec / k)) ** 2)) if k > 1e-12 else 0.0
        frob2 = float(np.sum(a * a))
        second = (au2 - k**2) * m**2 + (frob2 - au2) * (spin * (spin + 1.0) - m**2) / 2.0
        shifts = shifts + second / (2.0 * nu_e)
    return shifts


_AXES = st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])


@settings(max_examples=200, deadline=None)
@given(
    kinds=st.lists(_SITE, max_size=5),
    magnitude=st.floats(5.0, 300.0),
    direction=st.one_of(_DIRECTION, _AXES),
    order=st.sampled_from([1, 2]),
    mode=st.sampled_from([MODE_FULL, MODE_ACONST]),
)
# No sites at all: what hybrid_solve passes when every site is exact.
@example(kinds=[], magnitude=42.0, direction=(0.0, 0.0, 1.0), order=2, mode=MODE_FULL)
# A^T n = 0 exactly (zero principal value along the field): the K <= 1e-12 branch.
@example(
    kinds=[("11B", (0.0, 5.0, -7.0), (1.0, 0.0, 0.0, 0.0)),
           ("10B", (0.0, -3.0, 9.0), (1.0, 0.0, 0.0, 0.0))],
    magnitude=42.0, direction=(1.0, 0.0, 0.0), order=2, mode=MODE_FULL,
)
@example(
    kinds=[("11B", (0.0, 5.0, -7.0), (1.0, 0.0, 0.0, 0.0))],
    magnitude=42.0, direction=(1.0, 0.0, 0.0), order=2, mode=MODE_ACONST,
)
def test_shift_tables_match_per_site_formula(kinds, magnitude, direction, order, mode):
    sites = []
    for symbol, couplings, quaternion in kinds:
        iso = lookup(symbol)
        sites.append((_site(iso.element, couplings, _rotation(quaternion)), iso))
    system = SpinSystem("random", tuple(sites))
    field = magnitude * np.asarray(direction) / np.linalg.norm(direction)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # strong coupling is fine here
        nu_e, tables = _shift_tables(system, field, order, mode, range(len(sites)))
    _, axis = electron_axis(system, field)
    assert len(tables) == len(sites)
    for table, (site, iso) in zip(tables, sites):
        expected = _reference_table(site, iso, axis, nu_e, order, mode)
        assert table.shape == expected.shape
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(table, expected, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize("record", load_defect_dataset(), ids=lambda r: r.label)
def test_max_principal_value_is_the_spectral_norm(record):
    for site, _ in build_system(record).sites:
        norm = np.linalg.norm(site.hyperfine_tensor(), 2)
        assert max(map(abs, site.principal_values)) == pytest.approx(norm, rel=1e-12)


def test_strong_coupling_warns_once_with_its_site_index():
    system = SpinSystem("t", (
        (_site("B", (1.4, -0.9, 6.1)), lookup("11B")),
        (_site("C", (12.1, 12.1, 231.3)), lookup("13C")),
        (_site("C", (12.1, 12.1, 231.3)), lookup("12C")),   # spin 0: no warning
    ))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        perturb_lines(system, FIELD)
    assert [str(w.message) for w in caught] == [
        f"site 1: ||A|| = 231.3 MHz is not small against nu_e = {NU_E:.1f} MHz; "
        "perturbative lines are unreliable"
    ]
    assert caught[0].filename == __file__          # points at the caller


# Public functions that reach the shift distribution through another public
# function: the warning still points at their own caller.
@pytest.mark.parametrize("solve", [
    lambda system: sample_configurations(system, FIELD),
    lambda system: sample_configurations(system, FIELD, enumeration_threshold=1),
    lambda system: hybrid_solve(system, (), FIELD),
], ids=["enumerated", "sampled", "hybrid-no-exact-site"])
def test_strong_coupling_warns_at_the_caller_of_every_public_function(solve):
    system = SpinSystem("t", ((_site("C", (12.1, 12.1, 231.3)), lookup("13C")),))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve(system)
    assert [w.filename for w in caught] == [__file__]


def test_grouping_joins_the_first_matching_head():
    # a ~ b and b ~ c within the 1e-9 MHz tolerance, but a !~ c: c heads its
    # own group, because b joined a. x, of another size, sits between.
    a = np.array([1.0, -1.0])
    b, c = a + 0.6e-9, a + 1.2e-9
    x = np.array([2.0, 0.0, -2.0])
    shifts, probs = _shift_distribution([a, x, b, c])
    ab = (a + b) / 2.0
    pair = np.array([2.0 * ab[0], ab[0] + ab[1], 2.0 * ab[1]])
    expected = np.add.outer(np.add.outer(pair, x), c).ravel()
    weights = np.multiply.outer(np.multiply.outer([0.25, 0.5, 0.25], [1 / 3] * 3), [0.5] * 2)
    np.testing.assert_allclose(shifts, expected, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(probs, weights.ravel(), rtol=0.0, atol=1e-15)


def test_grouping_puts_a_nan_table_in_a_group_of_its_own():
    # NaN matches no table, itself included, so each NaN table heads its own
    # group and the distribution still comes back (and carries the NaN).
    a = np.array([1.0, -1.0])
    bad = np.array([np.nan, 0.0])
    shifts, probs = _shift_distribution([a, bad, a, bad])
    assert shifts.size == probs.size == 3 * 2 * 2
    assert np.isnan(shifts).any()
    assert probs.sum() == pytest.approx(1.0)


@settings(max_examples=300, deadline=None)
@given(
    head=st.lists(st.floats(-500.0, 500.0), min_size=1, max_size=7),
    size=st.integers(2, 7),
    data=st.data(),
)
def test_group_mean_is_np_mean_bit_for_bit(head, size, data):
    # Tables within the 1e-9 MHz tolerance of the head form one group; its
    # classes must come from exactly the table np.mean would give.
    head = np.array(head)
    offset = st.floats(-4e-10, 4e-10)
    members = [head] + [
        head + np.array(data.draw(st.lists(offset, min_size=head.size, max_size=head.size)))
        for _ in range(size - 1)
    ]
    assume(all(np.abs(head - t).max() <= 1e-9 for t in members))
    shifts, probs = _shift_distribution(members)
    counts, p = _group_classes(size, head.size)
    expected = np.add.outer(np.zeros(1), counts @ np.mean(members, axis=0)).ravel()
    assert shifts.tobytes() == expected.tobytes()
    assert probs.tobytes() == np.multiply.outer(np.ones(1), p).ravel().tobytes()


@pytest.mark.parametrize("floor", [np.nan, np.inf, 2.0, -1.0, 1.0 + 1e-12, -1e-300])
def test_exact_rejects_an_intensity_floor_outside_the_unit_interval(floor):
    system = SpinSystem("e", ())
    h = build_hamiltonian(system, FIELD, terms=("ezi",))
    with pytest.raises(ValueError, match=r"^intensity_floor must be in \[0, 1\], got "):
        exact_transitions(h, system, intensity_floor=floor)


# Floor 1 keeps only the strongest line. Floor 0 keeps every pair the path
# forms for these 8-state systems along c: an 11B axial about c turns into
# itself and takes the sectors, which form the 4 x 4 pairs across parity; a
# rhombic one takes the full solve, which forms all 28 upward pairs.
@pytest.mark.parametrize("principal_values, floor, count", [
    pytest.param((-0.9, -0.9, 6.1), 0.0, 16, id="0.0-16"),
    pytest.param((1.4, -0.9, 6.1), 0.0, 28, id="0.0-28"),
    pytest.param((1.4, -0.9, 6.1), 1.0, 1, id="1.0-1"),
])
def test_exact_accepts_the_unit_interval_ends(principal_values, floor, count):
    system = _single("11B", principal_values)
    h = build_hamiltonian(system, FIELD)
    assert (_block_pairs(h, system, floor) is not None) == (count == 16)
    lines = exact_transitions(h, system, intensity_floor=floor)
    assert len(lines) == count
    assert lines.intensities.max() == exact_transitions(h, system).intensities.max()


def test_exact_solves_an_h_of_zeros():
    # The bare electron at zero field: no entry to test the turn on.
    system = SpinSystem("e", ())
    h = build_hamiltonian(system, np.zeros(3), terms=("ezi",))
    lines = exact_transitions(h, system)
    freqs, intens = _full_solve_lines(h)
    assert np.array_equal(lines.frequencies, freqs)
    assert np.array_equal(lines.intensities, intens)


def _uncached_shift_tables(system, field, order, mode, sites=None):
    """``_shift_tables`` as it was before the site-array cache: every array
    rebuilt from ``system.sites`` on each call."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if mode not in (MODE_FULL, MODE_ACONST):
        raise ValueError(f"mode must be {MODE_FULL!r} or {MODE_ACONST!r}, not {mode!r}")
    b = np.asarray(field, dtype=float)
    if not np.isfinite(b).all():
        raise ValueError(f"field must be finite, got {b.tolist()}")
    nu_e, axis = electron_axis(system, field)
    if nu_e == 0.0:
        raise ZeroFieldError("zero electron Zeeman splitting; use exact_transitions instead")
    index = list(range(len(system.sites)) if sites is None else sites)
    picked = [system.sites[k] for k in index]
    spins = np.array([iso.spin for _, iso in picked])
    dims = [iso.multiplicity for _, iso in picked]
    pv = np.array([site.principal_values for site, _ in picked]).reshape(-1, 3)
    if mode == MODE_ACONST:
        tensors = pv[:, :, None] * np.eye(3)
    else:
        frames = np.array([site.frame for site, _ in picked]).reshape(-1, 3, 3)
        tensors = (frames * pv[:, None, :]) @ frames.transpose(0, 2, 1)
    a_vec = axis @ tensors
    coupling = np.sqrt((a_vec[:, None, :] @ a_vec[:, :, None]).ravel())
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
        row[:d] if spin > 0.0 else np.zeros(1) for row, d, spin in zip(shifts, dims, spins)
    ]
    return nu_e, tables


def _uncached_shift_distribution(tables):
    """``_shift_distribution`` as it was before the probability cache: numpy
    grouping, and the probabilities folded on every call."""
    groups = []
    for table in tables:
        for members in groups:
            head = members[0]
            if head.shape == table.shape and np.abs(head - table).max() <= 1e-9:
                members.append(table)
                break
        else:
            groups.append([table])
    shifts, probs = np.zeros(1), np.ones(1)
    for members in groups:
        counts, p = _group_classes(len(members), members[0].size)
        table = (members[0] if len(members) == 1
                 else np.array(members).sum(axis=0) / len(members))
        shifts = np.add.outer(shifts, counts @ table).ravel()
        probs = np.multiply.outer(probs, p).ravel()
    return shifts, probs


def _line_bytes(lines):
    return (lines.method, lines.frequencies.tobytes(), lines.intensities.tobytes(),
            lines.weights.tobytes(), repr(sorted(lines.meta.items())))


def _stats_bits(stats):
    """Center and sigma of closed-form statistics as ``float.hex``, or None."""
    return None if stats is None else (stats.center.hex(), stats.sigma.hex())


@settings(max_examples=150, deadline=None)
@given(
    kinds=st.lists(_SITE, min_size=1, max_size=4),
    data=st.data(),
    magnitude=st.floats(5.0, 300.0),
    direction=st.one_of(_DIRECTION, _AXES),
    order=st.sampled_from([1, 2]),
    mode=st.sampled_from([MODE_FULL, MODE_ACONST]),
)
def test_cached_solvers_match_the_uncached_set_up_bitwise(
    kinds, data, magnitude, direction, order, mode
):
    # Repeated kinds give groups of equal tables; the exact subset is kept
    # small so the hybrid's Hamiltonian stays tiny.
    picks = data.draw(st.lists(st.integers(0, len(kinds) - 1), min_size=1, max_size=4))
    sites = []
    for k in picks:
        symbol, couplings, quaternion = kinds[k]
        iso = lookup(symbol)
        sites.append((_site(iso.element, couplings, _rotation(quaternion)), iso))
    system = SpinSystem("random", tuple(sites))
    exact = data.draw(st.sets(st.integers(0, len(sites) - 1), max_size=2))
    field = magnitude * np.asarray(direction) / np.linalg.norm(direction)
    # Boron and nitrogen isotopes both carry a coupling, so every pattern applies.
    patterns = enumerate_patterns(system, (data.draw(st.sampled_from(["B", "N"])),))
    parts = [(apply_pattern(system, p), p.probability) for p in patterns]
    window = data.draw(st.sampled_from([(30.0, np.inf), (0.0, np.inf), (100.0, 400.0)]))
    shift = data.draw(st.sampled_from([0.0, 12.5]))
    calls = {
        "perturb": lambda: _line_bytes(perturb_lines(system, field, order, mode)),
        "hybrid": lambda: _line_bytes(hybrid_solve(system, exact, field, order=order, mode=mode)),
        "enumerated": lambda: _line_bytes(sample_configurations(system, field, order, mode)),
        "sampled": lambda: _line_bytes(sample_configurations(
            system, field, order, mode, sample_count=50, enumeration_threshold=1)),
        "composite": lambda: _line_bytes(composite_lines(system, patterns, field, order, mode)),
        "stats": lambda: _stats_bits(perturb_stats(parts, field, order, mode, window, shift)),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # strong coupling is fine here
        first = {name: call() for name, call in calls.items()}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "_shift_tables", _uncached_shift_tables)
            patch.setattr(solvers, "_shift_distribution", _uncached_shift_distribution)
            expected = {name: call() for name, call in calls.items()}
        again = {name: call() for name, call in calls.items()}
    assert first == expected
    assert again == expected


def test_mutating_returned_weights_leaves_the_next_call_unchanged():
    system = _load("CB0")
    field = np.array([30.0, 40.0, 190.0])
    lines = perturb_lines(system, field)
    kept = _line_bytes(lines)
    assert lines.weights.flags.writeable
    lines.weights *= 3.0
    lines.frequencies += 1.0
    assert _line_bytes(perturb_lines(system, field)) == kept
    shifts, probs = _shift_distribution([np.array([1.0, -1.0])] * 3)
    probs[:] = 0.0
    assert _shift_distribution([np.array([1.0, -1.0])] * 3)[1].tolist() == [
        0.125, 0.375, 0.375, 0.125
    ]


def test_site_arrays_are_freed_with_their_system():
    system = SpinSystem("t", ((_site("B", (1.4, -0.9, 6.1)), lookup("11B")),))
    perturb_lines(system, FIELD)
    arrays = solvers._SITE_ARRAYS[system]
    spins, tensors = weakref.ref(arrays.spins), weakref.ref(arrays.by_mode[MODE_FULL][0])
    del arrays, system
    gc.collect()
    assert spins() is None and tensors() is None


def test_site_arrays_are_read_only():
    system = _load("CN0")
    perturb_lines(system, FIELD)
    arrays = solvers._SITE_ARRAYS[system]
    frozen = [arrays.spins, arrays.norms, arrays.m, arrays.m2, arrays.transverse]
    frozen += [a for mode in (MODE_FULL, MODE_ACONST) for a in arrays.by_mode[mode]]
    assert not any(a.flags.writeable for a in frozen)


def test_probability_folds_above_the_cap_are_not_cached():
    # 15 distinct two-projection groups: 2**15 classes, above the 2**14 cap.
    big = [np.array([k + 1.0, -(k + 1.0)]) for k in range(15)]
    small = big[:3]
    before = solvers._cached_fold.cache_info()
    shifts, probs = _shift_distribution(big)
    after = solvers._cached_fold.cache_info()
    assert (after.hits, after.misses, after.currsize) == (
        before.hits, before.misses, before.currsize
    )
    assert probs.tobytes() == _uncached_shift_distribution(big)[1].tobytes()
    assert probs.size == 2**15
    _shift_distribution(small)
    _shift_distribution(small)
    final = solvers._cached_fold.cache_info()
    assert final.hits >= after.hits + 1
    assert final.currsize <= final.maxsize
