from __future__ import annotations

import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from defectspin.hamiltonian import build_hamiltonian
from defectspin.isotopes import CONSTANTS, lookup
from defectspin.solvers import (
    INTENSITY_FLOOR,
    MODE_ACONST,
    MODE_FULL,
    LineList,
    ZeroFieldError,
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
from defectspin.spectrum import peak_stats
from defectspin.system import (
    NuclearSite,
    SpinSystem,
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


def _assert_same_distribution(lines, reference, tol=1e-7):
    """Equal weight and mass per frequency; frequencies match within ``tol``.

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
            rtol=0.0, atol=1e-12,
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


def _dense_moment_lines(h, intensity_floor):
    """Exact lines with S_x embedded as a dense matrix: |U^H (S_x (x) 1) U|^2."""
    energies, states = np.linalg.eigh(h.matrix)
    sx = np.kron(np.array([[0.0, 0.5], [0.5, 0.0]]), np.eye(h.dimension // 2))
    moments = np.abs(states.conj().T @ sx @ states) ** 2
    ii, fi = np.triu_indices(h.dimension, k=1)
    freqs, intens = energies[fi] - energies[ii], moments[fi, ii]
    keep = intens >= intensity_floor * intens.max()
    order = np.lexsort((intens[keep], freqs[keep]))
    return freqs[keep][order], intens[keep][order]


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
    system = build_system(
        find_defect(load_defect_dataset(), label), {"C": "13C"} if carbon13 else None
    )
    sub = system.subsystem(((0,) if carbon13 else ()) + shell_indices(system))
    terms = ("ezi", "hfi", "nzi") + (("nqi",) if nqi else ())
    h = build_hamiltonian(sub, np.array(field), terms=terms)
    lines = exact_transitions(h, sub, intensity_floor=0.0)
    freqs, intens = _dense_moment_lines(h, 0.0)
    assert np.array_equal(lines.frequencies, freqs)
    np.testing.assert_allclose(lines.intensities, intens, rtol=0.0, atol=1e-12)
    if any(field):
        pruned = exact_transitions(h, sub)
        assert len(pruned) == len(_dense_moment_lines(h, INTENSITY_FLOOR)[0])


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
    "field, kwargs, error",
    [
        (np.zeros(3), {}, ZeroFieldError),
        (FIELD, {"mode": "bogus"}, ValueError),
        (FIELD, {"order": 3}, ValueError),
        (np.array([np.nan, 0.0, 1.0]), {}, ValueError),
        (np.array([np.inf, 0.0, 1.0]), {}, ValueError),
    ],
    ids=["zero-field", "bad-mode", "bad-order", "nan-field", "inf-field"],
)
def test_perturbative_front_doors_reject_bad_requests(solver, field, kwargs, error):
    with pytest.raises(error):
        _FRONT_DOORS[solver](_load("CN0"), field, **kwargs)


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
