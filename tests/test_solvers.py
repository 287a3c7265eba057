from __future__ import annotations

import numpy as np
import pytest

from defectspin.hamiltonian import build_hamiltonian
from defectspin.isotopes import CONSTANTS, lookup
from defectspin.solvers import (
    LineList,
    ZeroFieldError,
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


def test_line_weights_are_uniform_and_normalized():
    lines = perturb_lines(_load("CN0"), FIELD)
    assert len(lines) == 64 * 729  # one line per nuclear configuration
    assert lines.total_weight == pytest.approx(1.0)
    assert np.unique(lines.weights).size == 1


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
    lines = hybrid_solve(system, shell_indices(system), FIELD)
    # exact weights are 1 each; remainder weight is 1/4^6 per combination
    assert lines.weights.max() == pytest.approx(1.0 / 4096)


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
