from __future__ import annotations

import dataclasses

import pytest

from defectspin.isotopes import (
    CONSTANTS,
    Isotope,
    NUCLEAR_MAGNETON_HZ_PER_G,
    default_isotope,
    isotopes_of,
    load_isotope_registry,
    lookup,
)


def test_electron_zeeman_constant():
    assert CONSTANTS.electron_zeeman_factor == pytest.approx(1.3996246)


def test_registry_contains_expected_nuclei():
    symbols = {iso.symbol for iso in load_isotope_registry()}
    assert symbols >= {"11B", "10B", "14N", "15N", "13C", "12C"}


@pytest.mark.parametrize(
    "symbol,spin,abundance",
    [
        ("11B", 1.5, 0.801),
        ("10B", 3.0, 0.199),
        ("14N", 1.0, 0.996),
        ("15N", 0.5, 0.004),
        ("13C", 0.5, 0.011),
        ("12C", 0.0, 0.989),
    ],
)
def test_spin_and_abundance_values(symbol, spin, abundance):
    iso = lookup(symbol)
    assert iso.spin == spin
    assert iso.abundance == pytest.approx(abundance)


def test_gyromagnetic_ratio_consistent_with_g_factor():
    # gamma/2pi in Hz/G should equal g_n * (nuclear magneton / h).
    for iso in load_isotope_registry():
        expected = iso.g_n * NUCLEAR_MAGNETON_HZ_PER_G
        if expected == 0.0:
            assert iso.gamma_over_2pi == 0.0
            continue
        assert iso.gamma_over_2pi == pytest.approx(expected, rel=5e-3)


def test_abundances_sum_to_one_per_element():
    for element in ("B", "N", "C"):
        total = sum(iso.abundance for iso in isotopes_of(element))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_multiplicity():
    assert lookup("12C").multiplicity == 1
    assert lookup("13C").multiplicity == 2
    assert lookup("14N").multiplicity == 3
    assert lookup("11B").multiplicity == 4
    assert lookup("10B").multiplicity == 7


def test_element_property_strips_mass_number():
    assert lookup("11B").element == "B"
    assert lookup("15N").element == "N"


def test_isotopes_of_sorted_by_abundance():
    symbols = [iso.symbol for iso in isotopes_of("B")]
    assert symbols == ["11B", "10B"]


def test_isotopes_of_returns_a_new_list_each_call():
    first = isotopes_of("N")
    first.reverse()
    first.append(lookup("11B"))
    assert [iso.symbol for iso in isotopes_of("N")] == ["14N", "15N"]
    assert default_isotope("N").symbol == "14N"


def test_isotopes_of_unknown_element_raises():
    with pytest.raises(KeyError, match="no isotopes registered for element 'F'"):
        isotopes_of("F")


def test_default_isotope_is_most_abundant():
    assert default_isotope("B").symbol == "11B"
    assert default_isotope("N").symbol == "14N"
    assert default_isotope("C").symbol == "12C"


def test_lookup_unknown_symbol_raises():
    with pytest.raises(KeyError):
        lookup("19F")


def test_quadrupole_conversion_only_for_spin_ge_one():
    for iso in load_isotope_registry():
        if iso.spin < 1.0:
            assert iso.q_conversion == 0.0
        else:
            assert iso.q_conversion > 0.0


def test_invalid_spin_rejected():
    with pytest.raises(ValueError):
        Isotope("9X", 0.7, 0.0, 0.0, 1.0, 0.0)


def test_invalid_abundance_rejected():
    with pytest.raises(ValueError):
        Isotope("9X", 0.5, 0.0, 0.0, 1.2, 0.0)


def test_quadrupole_conversion_rejected_for_small_spin():
    with pytest.raises(ValueError):
        Isotope("9X", 0.5, 0.0, 0.0, 0.5, 0.02)


def test_isotope_is_immutable():
    iso = lookup("11B")
    with pytest.raises(dataclasses.FrozenInstanceError):
        iso.spin = 1.0
