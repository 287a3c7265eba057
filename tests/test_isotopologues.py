from __future__ import annotations

import argparse
import dataclasses
import gc
import inspect
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectspin.cli import _parse_pattern
from defectspin.isotopes import lookup
from defectspin.isotopologues import (
    IsotopePattern,
    apply_pattern,
    composite_lines,
    enumerate_patterns,
    rescale_hyperfine,
)
from defectspin.solvers import MODE_ACONST, MODE_FULL, perturb_lines
from defectspin.spectrum import peak_stats
from defectspin.system import (
    NuclearSite,
    SpinSystem,
    build_system,
    find_defect,
    load_defect_dataset,
)

FIELD = np.array([0.0, 0.0, 42.0])


def _load(label, carbon13=False):
    record = find_defect(load_defect_dataset(), label)
    return build_system(record, {"C": "13C"} if carbon13 else None)


def _binomial(n, k, p):
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


def test_cb_boron_patterns_probabilities():
    patterns = enumerate_patterns(_load("CB0"))
    assert len(patterns) == 7
    for k, pattern in enumerate(patterns):
        assert pattern.count_of("11B") == 6 - k
        assert pattern.count_of("10B") == k
        assert pattern.probability == pytest.approx(
            _binomial(6, k, 0.199), abs=1e-12
        )


def test_cn_boron_patterns_probabilities():
    patterns = enumerate_patterns(_load("CN0"))
    assert len(patterns) == 4
    for k, pattern in enumerate(patterns):
        assert pattern.probability == pytest.approx(
            _binomial(3, k, 0.199), abs=1e-12
        )


def test_patterns_cover_unit_probability():
    total = sum(p.probability for p in enumerate_patterns(_load("CB0")))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_pattern_ordering_first_isotope_descending():
    counts = [p.count_of("11B") for p in enumerate_patterns(_load("CB0"))]
    assert counts == sorted(counts, reverse=True)


def test_describe_is_compact():
    patterns = enumerate_patterns(_load("CB0"))
    assert patterns[0].describe() == "6x11B"
    assert patterns[1].describe() == "5x11B+1x10B"


def test_two_variable_elements_multiply():
    patterns = enumerate_patterns(_load("CN0"), variable_elements=("B", "N"))
    # 4 boron distributions x 7 nitrogen distributions over the 6-site shell
    assert len(patterns) == 4 * 7
    assert sum(p.probability for p in patterns) == pytest.approx(1.0, abs=1e-9)


def test_rescale_hyperfine_ratio():
    a = np.diag([1.4, -0.9, 6.1])
    scaled = rescale_hyperfine(a, "11B", "10B")
    np.testing.assert_allclose(scaled, a * (0.600 / 1.792), atol=1e-12)


def test_rescale_accepts_isotope_objects():
    a = np.eye(3)
    scaled = rescale_hyperfine(a, lookup("14N"), lookup("15N"))
    np.testing.assert_allclose(scaled, a * (-0.56638 / 0.40376), atol=1e-12)


def test_rescale_rejects_cross_element():
    with pytest.raises(ValueError):
        rescale_hyperfine(np.eye(3), "11B", "14N")


def test_rescale_rejects_spinless_source():
    with pytest.raises(ValueError):
        rescale_hyperfine(np.eye(3), "12C", "13C")


def test_apply_pattern_swaps_isotopes_in_declared_order():
    system = _load("CB0")
    pattern = enumerate_patterns(system)[2]  # 4x11B + 2x10B
    swapped = apply_pattern(system, pattern)
    boron = [(site, iso) for site, iso in swapped.sites if site.element == "B"]
    assert [iso.symbol for _, iso in boron] == ["11B"] * 4 + ["10B"] * 2
    assert "[4x11B+2x10B]" in swapped.label


def test_apply_pattern_rescales_tensor():
    system = _load("CB0")
    pattern = enumerate_patterns(system)[-1]  # all 10B
    swapped = apply_pattern(system, pattern)
    site_old, _ = system.sites[-1]
    site_new, iso_new = swapped.sites[-1]
    assert iso_new.symbol == "10B"
    np.testing.assert_allclose(
        np.array(site_new.principal_values),
        np.array(site_old.principal_values) * (0.600 / 1.792),
        atol=1e-12,
    )


def test_apply_pattern_rescales_as_a_rebuilt_site_would():
    system = _load("CB0")
    swapped = apply_pattern(system, enumerate_patterns(system)[-1])  # all 10B
    for (old, iso), (new, new_iso) in zip(system.sites, swapped.sites):
        if iso is new_iso:
            assert new is old
            continue
        rebuilt = dataclasses.replace(
            old, principal_values=rescale_hyperfine(old.principal_values, iso, new_iso)
        )
        assert new.principal_values == rebuilt.principal_values
        assert all(type(v) is float for v in new.principal_values)
        # The checked, read-only frame and EFG are shared, not rebuilt.
        assert new.frame is old.frame and new.efg is old.efg
        assert (new.element, new.shell_distance, new.bond_azimuth, new.group_id) == (
            old.element, old.shell_distance, old.bond_azimuth, old.group_id)


def test_apply_pattern_rejects_rescale_overflow():
    # 1e308 MHz is finite on 10B, but the 11B/10B g-factor ratio (~3) makes it inf.
    site = NuclearSite("B", 1.0, 0.0, (1.0, 2.0, 1e308), np.eye(3), group_id="g")
    system = SpinSystem("big", ((site, lookup("10B")),))
    pattern = IsotopePattern((("g", (("11B", 1), ("10B", 0))),), 1.0)
    with pytest.raises(ValueError, match="principal values must be finite"):
        apply_pattern(system, pattern)


def test_apply_pattern_leaves_other_elements_untouched():
    system = _load("CB0")
    swapped = apply_pattern(system, enumerate_patterns(system)[3])
    for (s1, i1), (s2, i2) in zip(system.sites, swapped.sites):
        if s1.element != "B":
            assert i1.symbol == i2.symbol
            assert s1.principal_values == s2.principal_values


@pytest.mark.parametrize(
    "counts, total",
    [((("11B", 1), ("10B", 1)), 2), ((("11B", 3), ("10B", 1)), 4)],
    ids=["shortfall", "surplus"],
)
def test_apply_pattern_rejects_counts_not_matching_group_size(counts, total):
    pattern = IsotopePattern((("B-shell1", counts),), 1.0)
    with pytest.raises(ValueError, match=f"group B-shell1 sum to {total}, but it has 3 B"):
        apply_pattern(_load("CN0"), pattern)


def test_apply_pattern_shares_one_system_per_counts_and_frees_it_with_its_system():
    site = NuclearSite("B", 1.0, 0.0, (1.0, 2.0, 3.0), np.eye(3), group_id="g")
    system = SpinSystem("t", ((site, lookup("11B")), (site, lookup("11B"))))
    pattern = enumerate_patterns(system)[1]
    concrete = apply_pattern(system, pattern)
    assert apply_pattern(system, enumerate_patterns(system)[1]) is concrete
    assert apply_pattern(system, dataclasses.replace(pattern, probability=1.0)) is concrete
    assert apply_pattern(system, enumerate_patterns(system)[2]) is not concrete
    freed = weakref.ref(concrete)
    del concrete, system
    gc.collect()
    assert freed() is None


def test_bad_pattern_raises_on_every_call():
    pattern = IsotopePattern((("B-shell1", (("11B", 1), ("10B", 1))),), 1.0)
    system = _load("CN0")
    for _ in range(2):
        with pytest.raises(ValueError, match="group B-shell1 sum to 2"):
            apply_pattern(system, pattern)


def _reassigned_sites(system, pattern):
    """The pattern's sites worked out site by site, without apply_pattern:
    each (group, element) hands out its isotopes in declared order; None
    when a site would rescale from a spinless isotope."""
    pending = {}
    for gid, counts in pattern.counts:
        element = lookup(counts[0][0]).element
        pending[gid, element] = [s for s, count in counts for _ in range(count)]
    sites = []
    for site, iso in system.sites:
        symbols = pending.get((site.group_id, site.element))
        new_iso = lookup(symbols.pop(0)) if symbols is not None else iso
        if new_iso is iso:
            sites.append((site.principal_values, iso))
        elif iso.g_n == 0.0:
            return None
        else:
            ratio = new_iso.g_n / iso.g_n
            sites.append((tuple(v * ratio for v in site.principal_values), new_iso))
    assert all(not symbols for symbols in pending.values())
    return sites


ISOTOPOLOGUE_CASES = pytest.mark.parametrize(
    "label, carbon13, element",
    [(label, c13, element) for label in ("CB0", "CN0") for c13 in (False, True)
     for element in ("B", "N", "C")],
)


@ISOTOPOLOGUE_CASES
def test_apply_pattern_matches_a_per_site_reassignment(label, carbon13, element):
    system = _load(label, carbon13)
    for pattern in enumerate_patterns(system, (element,)):
        expected = _reassigned_sites(system, pattern)
        if expected is None:
            with pytest.raises(ValueError, match="carries no hyperfine coupling"):
                apply_pattern(system, pattern)
            continue
        concrete = apply_pattern(system, pattern)
        got = [(site.principal_values, iso) for site, iso in concrete.sites]
        assert [iso.symbol for _, iso in got] == [iso.symbol for _, iso in expected]
        for (values, _), (want, _) in zip(got, expected):
            assert [v.hex() for v in values] == [float(w).hex() for w in want]
        assert [s.group_id for s, _ in concrete.sites] == [
            s.group_id for s, _ in system.sites]


@ISOTOPOLOGUE_CASES
def test_parse_pattern_rebuilds_each_pattern_with_probability_one(
    label, carbon13, element
):
    system = _load(label, carbon13)
    patterns = enumerate_patterns(system, (element,))
    assert len(patterns[0].counts) == 1            # the element fills one group
    for pattern in patterns:
        (_, group), = pattern.counts
        text = ",".join(f"{symbol}:{count}" for symbol, count in group)
        parsed = _parse_pattern(argparse.Namespace(pattern=text), system)
        assert parsed == IsotopePattern(pattern.counts, 1.0)


def test_composite_lines_weights_carry_probability():
    system = _load("CN0")
    patterns = enumerate_patterns(system)
    lines = composite_lines(system, patterns, FIELD)
    assert lines.total_weight == pytest.approx(
        sum(p.probability for p in patterns), abs=1e-9
    )
    stats = peak_stats(lines)
    # composite width sits between the pure-11B and pure-10B extremes
    assert 45.0 < stats.fwhm_gauss < 75.0


@pytest.mark.filterwarnings("ignore:site 0")      # 13C couples strongly at 42 G
@pytest.mark.parametrize(
    "field", [FIELD, (11.0, 23.0, 37.0), (-150.0, 40.0, 80.0)],
    ids=["c", "tilted", "tilted-150G"],
)
@pytest.mark.parametrize("carbon13", [False, True], ids=["12C", "13C"])
@pytest.mark.parametrize("label", ["CN0", "CB0"])
def test_composite_is_the_merge_of_per_pattern_solves(label, carbon13, field):
    # Every pattern solved, none skipped or sampled: each pattern's
    # perturb_lines list, weights times its probability, in pattern order.
    system = _load(label, carbon13)
    patterns = enumerate_patterns(system)
    solved = [perturb_lines(apply_pattern(system, p), field) for p in patterns]
    lines = composite_lines(system, patterns, field)
    np.testing.assert_array_equal(
        lines.frequencies, np.concatenate([s.frequencies for s in solved])
    )
    np.testing.assert_array_equal(
        lines.intensities, np.concatenate([s.intensities for s in solved])
    )
    np.testing.assert_array_equal(
        lines.weights,
        np.concatenate([s.weights * p.probability for s, p in zip(solved, patterns)]),
    )
    assert lines.meta == {"patterns_solved": len(patterns), "order": 2, "mode": MODE_FULL}
    assert lines.total_weight == pytest.approx(1.0, abs=1e-12)


def test_composite_is_deterministic():
    system = _load("CB0")
    patterns = enumerate_patterns(system)
    a = composite_lines(system, patterns, FIELD)
    b = composite_lines(system, patterns, FIELD)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_composite_rejects_inconsistent_probabilities():
    system = _load("CN0")
    patterns = enumerate_patterns(system)
    doubled = patterns + patterns
    with pytest.raises(ValueError):
        composite_lines(system, doubled, FIELD)


def test_composite_lines_defaults():
    parameters = inspect.signature(composite_lines).parameters.values()
    defaults = {p.name: p.default for p in parameters if p.default is not p.empty}
    assert defaults == {"order": 2, "mode": MODE_FULL}


@settings(max_examples=20, deadline=None)
@given(
    label=st.sampled_from(["CN0", "CB0"]),
    magnitude=st.floats(30.0, 300.0),
    direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: np.linalg.norm(v) > 0.1
    ),
    order=st.sampled_from([1, 2]),
    mode=st.sampled_from([MODE_FULL, MODE_ACONST]),
)
def test_composite_weights_conserve_probability(label, magnitude, direction, order, mode):
    system = _load(label)
    field = magnitude * np.array(direction) / np.linalg.norm(direction)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")          # strong-coupling warnings
        lines = composite_lines(
            system, enumerate_patterns(system), field, order=order, mode=mode
        )
    assert lines.total_weight == pytest.approx(1.0, abs=1e-9)
