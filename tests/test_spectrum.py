from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from defectspin.isotopes import GAUSSIAN_FWHM_FACTOR, lookup
from defectspin.isotopologues import apply_pattern, composite_lines, enumerate_patterns
from defectspin.solvers import MODE_ACONST, MODE_FULL, LineList, perturb_lines
from defectspin.spectrum import (
    DEFAULT_WINDOW,
    KERNEL_REACH,
    Spectrum,
    default_grid,
    peak_stats,
    perturb_stats,
    shift,
    synthesize,
    write_linelist,
    write_spectrum,
)
from defectspin.system import NuclearSite, SpinSystem

FIELD = np.array([0.0, 0.0, 42.0])


def _lines(freqs, weights=None, intensities=None, method="test"):
    freqs = np.asarray(freqs, dtype=float)
    if weights is None:
        weights = np.full(freqs.size, 1.0 / freqs.size)
    if intensities is None:
        intensities = np.ones(freqs.size)
    return LineList(method, FIELD, freqs, np.asarray(intensities), np.asarray(weights))


def test_weighted_moments_hand_computed():
    lines = _lines([100.0, 120.0], weights=[0.25, 0.75])
    stats = peak_stats(lines, window=(-math.inf, math.inf))
    assert stats.center == pytest.approx(115.0)
    assert stats.sigma == pytest.approx(math.sqrt(75.0))
    assert stats.fwhm_gauss == pytest.approx(
        2.0 * math.sqrt(2.0 * math.log(2.0)) * math.sqrt(75.0)
    )
    assert stats.included_weight_fraction == pytest.approx(1.0)


def test_intensity_multiplies_into_mass():
    lines = _lines([100.0, 120.0], weights=[0.5, 0.5], intensities=[1.0, 3.0])
    stats = peak_stats(lines, window=(-math.inf, math.inf))
    assert stats.center == pytest.approx(115.0)


def test_default_window_drops_low_branch():
    lines = _lines([20.0, 110.0, 130.0])
    stats = peak_stats(lines)
    assert stats.window == DEFAULT_WINDOW
    assert stats.center == pytest.approx(120.0)
    assert stats.included_weight_fraction == pytest.approx(2.0 / 3.0)


def test_window_bounds_are_inclusive():
    lines = _lines([30.0, 50.0])
    stats = peak_stats(lines, window=(30.0, 50.0))
    assert stats.included_weight_fraction == pytest.approx(1.0)


def test_empty_window_raises():
    lines = _lines([10.0, 20.0])
    with pytest.raises(ValueError, match="window"):
        peak_stats(lines, window=(100.0, 200.0))


def test_invalid_window_order_raises():
    with pytest.raises(ValueError):
        peak_stats(_lines([50.0]), window=(60.0, 40.0))


def test_single_line_has_zero_width():
    stats = peak_stats(_lines([117.57]))
    assert stats.sigma == 0.0
    assert stats.fwhm_gauss == 0.0


def test_default_grid_span():
    g = default_grid()
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(300.0)
    assert np.allclose(np.diff(g), 0.1)


def test_synthesize_peak_normalized():
    grid = np.arange(0.0, 200.0, 0.05)
    spec = synthesize(_lines([80.0, 120.0], weights=[0.3, 0.7]), grid)
    assert spec.intensity.max() == pytest.approx(1.0)
    assert spec.intensity.min() >= 0.0


def test_synthesize_mass_sets_area_ratio():
    grid = np.arange(0.0, 200.0, 0.02)
    spec = synthesize(_lines([60.0, 140.0], weights=[0.25, 0.75]), grid)
    left = spec.intensity[grid < 100.0].sum()
    right = spec.intensity[grid >= 100.0].sum()
    assert right / left == pytest.approx(3.0, rel=1e-6)


def test_synthesize_width_controls_kernel():
    grid = np.arange(90.0, 110.0, 0.01)
    narrow = synthesize(_lines([100.0]), grid, per_line_width=0.5)
    wide = synthesize(_lines([100.0]), grid, per_line_width=4.0)
    half_narrow = (narrow.intensity >= 0.5).sum()
    half_wide = (wide.intensity >= 0.5).sum()
    assert half_wide == pytest.approx(8 * half_narrow, rel=0.05)


def test_synthesize_warns_when_grid_misses_lines():
    grid = np.arange(0.0, 50.0, 0.1)
    with pytest.warns(UserWarning, match="cover"):
        synthesize(_lines([80.0]), grid)


def test_synthesize_warns_on_empty_mass():
    with pytest.warns(UserWarning, match="zero"):
        spec = synthesize(_lines([80.0], weights=[0.0]), np.arange(0.0, 100.0, 1.0))
    assert spec.intensity.max() == 0.0


def test_synthesize_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        synthesize(_lines([80.0]), per_line_width=0.0)


def test_spectrum_rejects_nonuniform_grid():
    with pytest.raises(ValueError):
        Spectrum(np.array([0.0, 1.0, 3.0]), np.zeros(3))


def test_spectrum_rejects_nonuniform_grid_with_tiny_steps():
    # Steps of 1e-9 and 5e-9 MHz differ by less than any fixed 1e-8.
    with pytest.raises(ValueError, match="uniform"):
        Spectrum(np.array([0.0, 1e-9, 6e-9, 7e-9]), np.zeros(4))


def test_spectrum_accepts_grid_rounded_at_large_magnitude():
    # Adding 1e9 MHz rounds each point by up to half an ulp of 1e9, far
    # more than 1e-9 of the 0.1 MHz step.
    spec = Spectrum(default_grid(), np.zeros(default_grid().size))
    assert shift(spec, 1e9).grid[0] == 1e9


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spectrum_rejects_nonfinite_intensity(bad):
    with pytest.raises(ValueError, match="finite"):
        Spectrum(np.arange(3.0), np.array([0.0, bad, 1.0]))


@pytest.mark.parametrize("column", [0, 1, 2], ids=["frequency", "weight", "intensity"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_synthesize_rejects_nonfinite_lines(column, bad):
    columns = [[100.0, 110.0], [0.5, 0.5], [1.0, 1.0]]
    columns[column][1] = bad
    with pytest.raises(ValueError, match="finite"):
        synthesize(_lines(*columns), default_grid())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("operation", [peak_stats, synthesize], ids=["peak_stats", "synthesize"])
@pytest.mark.parametrize("weights, intensities", [
    ([1e200, 1e200], [1e200, 1e200]),       # each product overflows
    ([1e308, 1e308], [1.0, 1.0]),           # the products are finite, their sum is not
], ids=["product", "sum"])
def test_overflowing_line_mass_is_refused_without_a_numpy_warning(
    operation, weights, intensities
):
    lines = LineList("t", [0.0, 0.0, 1.0], [100.0, 120.0], intensities, weights)
    with pytest.raises(ValueError, match="^line weights times intensities overflow$"):
        operation(lines)


def test_synthesize_rejects_nonuniform_grid_before_kernel_work():
    # The line is off this grid, so a grid check made only after the
    # coverage warning (or after the kernel sum) fails here as a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="uniform"):
            synthesize(_lines([80.0]), np.array([0.0, 1.0, 3.0]))


def _dense_reference(freqs, mass, grid, width):
    """Every line's Gaussian at every grid point, peak-normalized."""
    sig = width / GAUSSIAN_FWHM_FACTOR
    out = (mass[:, None] * np.exp(-((grid[None, :] - freqs[:, None]) ** 2)
                                  / (2.0 * sig * sig))).sum(axis=0)
    return out / out.max() if out.max() > 0 else out


# A line: where it sits, a uniform draw that places it, and its weight.
# "below"/"above" put it between 9 and about 40 sigma past the grid's ends.
_LINE = st.tuples(
    st.sampled_from(["inside", "low-edge", "high-edge", "below", "above"]),
    st.floats(0.0, 1.0),
    st.floats(1e-3, 1.0),
)


def _placed(specs, grid, width):
    """Frequencies and masses of ``_LINE`` draws on ``grid``."""
    lo, hi = grid[0], grid[-1]
    reach = (KERNEL_REACH + 1e-6) * width / GAUSSIAN_FWHM_FACTOR
    place = {
        "inside": lambda u: lo + u * (hi - lo),
        "low-edge": lambda u: lo,
        "high-edge": lambda u: hi,
        "below": lambda u: lo - reach * (1.0 + 3.4 * u),
        "above": lambda u: hi + reach * (1.0 + 3.4 * u),
    }
    freqs = np.array([place[where](u) for where, u, _ in specs])
    return freqs, np.array([w for _, _, w in specs])


@settings(max_examples=300, deadline=None)
@given(
    start=st.floats(-100.0, 100.0),
    log_step=st.floats(-2.0, 0.7),
    count=st.integers(1, 300),
    log_width=st.floats(-2.0, 2.0),
    specs=st.lists(_LINE, min_size=1, max_size=8),
)
@example(start=0.0, log_step=0.0, count=50, log_width=2.0,
         specs=[("inside", 0.3, 1.0), ("above", 0.0, 0.5)])          # W = n
@example(start=5.0, log_step=-1.0, count=1, log_width=0.0,
         specs=[("inside", 0.0, 1.0), ("below", 0.5, 0.2)])          # one point
@example(start=0.0, log_step=-1.0, count=20, log_width=308.0,
         specs=[("inside", 0.5, 1.0)])                    # 9 sigma overflows
@example(start=-3.0, log_step=-1.0, count=100, log_width=0.0,
         specs=[("inside", 0.5, 1.0)] * 30 + [("inside", 0.5001, 0.7)]
         + [("low-edge", 0.0, 0.3), ("below", 0.2, 0.5), ("below", 0.9, 0.1)])  # shared starts
def test_synthesize_matches_dense_sum(start, log_step, count, log_width, specs):
    step, width = 10.0 ** log_step, 10.0 ** log_width
    grid = np.arange(start, start + (count - 0.5) * step, step)
    assert grid.size == count
    freqs, mass = _placed(specs, grid, width)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = synthesize(_lines(freqs, weights=mass), grid, per_line_width=width)
    expected = _dense_reference(freqs, mass, grid, width)
    np.testing.assert_allclose(spec.intensity, expected, rtol=0.0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    log_step=st.floats(-2.0, 0.7),
    count=st.integers(1, 300),
    log_width=st.floats(-2.0, 2.0),
    specs=st.lists(_LINE, min_size=1, max_size=40),
    data=st.data(),
)
def test_synthesize_is_independent_of_line_order(log_step, count, log_width, specs, data):
    step, width = 10.0 ** log_step, 10.0 ** log_width
    grid = step * np.arange(count)
    freqs, mass = _placed(specs, grid, width)
    order = np.array(data.draw(st.permutations(range(freqs.size))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = synthesize(_lines(freqs, weights=mass), grid, per_line_width=width)
        shuffled = synthesize(_lines(freqs[order], weights=mass[order]), grid,
                              per_line_width=width)
    np.testing.assert_allclose(shuffled.intensity, spec.intensity, rtol=0.0, atol=1e-12)


def test_shift_linelist_moves_frequencies_and_records():
    lines = _lines([100.0, 120.0])
    moved = shift(shift(lines, -10.0), -5.0)
    np.testing.assert_allclose(moved.frequencies, [85.0, 105.0])
    assert moved.meta["shift"] == pytest.approx(-15.0)
    # original untouched
    np.testing.assert_allclose(lines.frequencies, [100.0, 120.0])


def test_shift_spectrum_moves_grid():
    spec = Spectrum(np.arange(0.0, 10.0, 1.0), np.ones(10))
    moved = shift(spec, 2.5)
    assert moved.grid[0] == pytest.approx(2.5)
    assert moved.meta["shift"] == pytest.approx(2.5)


def test_shift_rejects_other_types():
    with pytest.raises(TypeError):
        shift([1.0, 2.0], 1.0)


def test_write_linelist_round_trip(tmp_path):
    lines = _lines([120.0, 100.0], weights=[0.4, 0.6])
    path = tmp_path / "lines.tsv"
    write_linelist(lines, path, extra_meta={"seed": 0})
    body = path.read_text().splitlines()
    header = [ln for ln in body if ln.startswith("#")]
    assert any(ln.startswith("# method = ") for ln in header)
    assert any(ln.startswith("# seed = 0") for ln in header)
    data = np.loadtxt(path)
    # sorted ascending in frequency on disk
    np.testing.assert_allclose(data[:, 0], [100.0, 120.0])
    np.testing.assert_allclose(data[:, 2], [0.6, 0.4])


def test_write_linelist_byte_deterministic(tmp_path):
    lines = _lines([120.0, 100.0, 117.0])
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_linelist(lines, p1, extra_meta={"seed": 3})
    write_linelist(lines, p2, extra_meta={"seed": 3})
    assert p1.read_bytes() == p2.read_bytes()


def test_write_spectrum_round_trip(tmp_path):
    grid = np.arange(90.0, 110.0, 0.5)
    spec = synthesize(_lines([100.0]), grid)
    path = tmp_path / "spec.tsv"
    write_spectrum(spec, path, extra_meta={"seed": 1})
    data = np.loadtxt(path)
    assert data.shape == (grid.size, 2)
    assert data[:, 1].max() == pytest.approx(1.0)


def test_writers_pin_exact_rows(tmp_path):
    values = [123456789.5, 0.1 + 0.2, -3.5e-7, 1e-300]
    lines = _lines(values, weights=[2.0 / 3.0, 0.25, 1e-300, 0.1 + 0.2],
                   intensities=np.abs(values[::-1]))
    path = tmp_path / "lines.tsv"
    write_linelist(lines, path)
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert rows == [
        "-3.5e-07 0.3 1e-300",
        "1e-300 123456790 0.3",
        "0.3 3.5e-07 0.25",
        "123456790 1e-300 0.666666667",
    ]
    spec = Spectrum(np.array([-3.5e-7, 0.1 + 0.2]), np.array([1e-300, 123456789.5]))
    path = tmp_path / "spec.tsv"
    write_spectrum(spec, path)
    assert path.read_text().splitlines()[-3:] == [
        "# frequency_MHz intensity",
        "-3.5e-07 1e-300",
        "0.3 123456790",
    ]


# A line for the peak_stats properties: a frequency slot (5 MHz apart, so
# lines often coincide and some fall below the 30 MHz window floor), a
# weight and an intensity.
_STICK = st.tuples(st.integers(0, 30), st.floats(1e-3, 1.0), st.floats(1e-3, 1.0))


def _stats_tuple(lines, window):
    try:
        stats = peak_stats(lines, window)
    except ValueError:
        return None
    return stats.center, stats.sigma, stats.fwhm_gauss, stats.included_weight_fraction


def _assert_same_stats(actual, expected):
    if expected is None:
        assert actual is None
    else:
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    sticks=st.lists(_STICK, min_size=1, max_size=40),
    window=st.sampled_from([DEFAULT_WINDOW, (-math.inf, math.inf), (40.0, 90.0)]),
    data=st.data(),
)
def test_peak_stats_independent_of_line_order(sticks, window, data):
    freqs = np.array([5.0 * k + 0.1 for k, _, _ in sticks])
    weights = np.array([w for _, w, _ in sticks])
    intens = np.array([i for _, _, i in sticks])
    order = np.array(data.draw(st.permutations(range(len(sticks)))))
    permuted = _lines(freqs[order], weights=weights[order], intensities=intens[order])
    _assert_same_stats(
        _stats_tuple(permuted, window),
        _stats_tuple(_lines(freqs, weights=weights, intensities=intens), window),
    )


@settings(max_examples=200, deadline=None)
@given(
    sticks=st.lists(_STICK, min_size=1, max_size=40),
    window=st.sampled_from([DEFAULT_WINDOW, (-math.inf, math.inf), (40.0, 90.0)]),
)
def test_peak_stats_invariant_when_coincident_lines_merge(sticks, window):
    freqs = np.array([5.0 * k + 0.1 for k, _, _ in sticks])
    mass = np.array([w * i for _, w, i in sticks])
    weights = np.array([w for _, w, _ in sticks])
    intens = np.array([i for _, _, i in sticks])
    unique, slot = np.unique(freqs, return_inverse=True)
    merged = _lines(unique, weights=np.bincount(slot, weights=mass))
    _assert_same_stats(
        _stats_tuple(merged, window),
        _stats_tuple(_lines(freqs, weights=weights, intensities=intens), window),
    )


def _copying_peak_stats(lines, window):
    """peak_stats as it was before the all-inside fast path: the lines inside
    the window are always copied out first."""
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    mass = lines.weights * lines.intensities
    total = float(mass.sum())
    inside = (lines.frequencies >= lo) & (lines.frequencies <= hi)
    m = mass[inside]
    if m.size == 0 or m.sum() <= 0.0:
        raise ValueError("no line with positive mass inside the analysis window")
    f = lines.frequencies[inside]
    m_sum = float(m.sum())
    center = float((m * f).sum() / m_sum)
    sigma = float(math.sqrt(max((m * (f - center) ** 2).sum() / m_sum, 0.0)))
    return center, sigma, GAUSSIAN_FWHM_FACTOR * sigma, m_sum / total if total > 0 else 0.0


def _bits(values):
    return [float(v).hex() for v in values]


# Sizes past 128 reach numpy's pairwise-summation blocks, where a change of
# summation order would show in the last bits.
@settings(max_examples=300, deadline=None)
@given(
    freqs=st.lists(st.floats(-50.0, 400.0), min_size=1, max_size=300),
    data=st.data(),
)
def test_peak_stats_matches_copying_reference_bit_for_bit(freqs, data):
    n = len(freqs)
    unit = st.floats(0.0, 1.0) | st.just(0.0)
    weights = data.draw(st.lists(unit, min_size=n, max_size=n))
    intens = data.draw(st.lists(unit, min_size=n, max_size=n))
    lines = _lines(freqs, weights=weights, intensities=intens)
    lo, hi = min(freqs), max(freqs)
    mid = data.draw(st.floats(lo, hi))
    window = data.draw(st.sampled_from([
        (-math.inf, math.inf), (lo, hi), (lo, math.inf),   # every line inside
        (-math.inf, hi),
        (mid, math.inf), (-math.inf, mid), (mid, hi),      # some lines
        (lo, mid),
        (hi, math.inf), (-math.inf, lo),                   # the lines at one end
        (hi, hi + 1.0), (lo - 1.0, lo),
        (hi + 1.0, math.inf), (-math.inf, lo - 1.0),       # none
    ]))
    try:
        expected = _copying_peak_stats(lines, window)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            peak_stats(lines, window)
        return
    stats = peak_stats(lines, window)
    assert stats.window == (float(window[0]), float(window[1]))
    assert _bits([stats.center, stats.sigma, stats.fwhm_gauss,
                  stats.included_weight_fraction]) == _bits(expected)


@pytest.mark.parametrize("window", [
    DEFAULT_WINDOW, (-math.inf, math.inf), (0.0, 1.0), (-math.inf, 0.0),
])
def test_peak_stats_of_an_empty_line_list_matches_the_reference(window):
    lines = _lines([], weights=[], intensities=[])
    with pytest.raises(ValueError) as expected:
        _copying_peak_stats(lines, window)
    with pytest.raises(ValueError, match=f"^{expected.value}$"):
        peak_stats(lines, window)


def _format_writer(path, meta, extra_meta, columns, *arrays):
    """The export writer as it was: one ``"{:.9g}".format`` call per row."""
    meta = {**meta, **(extra_meta or {})}
    first = ("field", "method", "seed", "shift", "window")
    keys = [*first, *sorted(meta.keys() - set(first))]
    header = [f"# {k} = {meta[k]}" for k in keys if meta.get(k) is not None]
    rows = map(" ".join(["{:.9g}"] * len(arrays)).format, *(a.tolist() for a in arrays))
    with open(path, "w") as fh:
        fh.write("\n".join([*header, f"# {columns}", *rows]) + "\n")


_EDGE_VALUES = [-0.0, 5e-324, 1e22, 1234567890.0, 0.1 + 0.2, 123456789.5,
                -3.5e-7, 1.0 / 3.0, 1e-300, 2.0**53 + 2.0, 7.0]


@pytest.mark.parametrize(
    "freqs", [[], [117.5], _EDGE_VALUES, [-v for v in _EDGE_VALUES]],
    ids=["empty", "one-row", "edge-values", "negated"],
)
def test_write_linelist_bytes_match_format_writer(tmp_path, freqs):
    lines = _lines(freqs, weights=[abs(v) for v in reversed(freqs)],
                   intensities=[abs(v) for v in freqs])
    lines.meta.update(seed=5, note="x")
    write_linelist(lines, tmp_path / "fast.tsv", extra_meta={"shift": -0.0, "skip": None})
    ordered = lines.sorted()
    _format_writer(
        tmp_path / "slow.tsv",
        {**ordered.meta, "method": ordered.method, "field": ordered.field.tolist()},
        {"shift": -0.0, "skip": None}, "frequency_MHz intensity weight",
        ordered.frequencies, ordered.intensities, ordered.weights,
    )
    assert (tmp_path / "fast.tsv").read_bytes() == (tmp_path / "slow.tsv").read_bytes()


@pytest.mark.parametrize(
    "grid, intensity",
    [([], []), ([-0.0], [5e-324]), ([-1e22, 1e22], [-0.0, 1234567890.0]),
     (np.linspace(-0.0, 3.0, 7), np.abs(_EDGE_VALUES[:7]))],
    ids=["empty", "one-row", "two-rows", "edge-values"],
)
def test_write_spectrum_bytes_match_format_writer(tmp_path, grid, intensity):
    spec = Spectrum(np.array(grid, dtype=float), np.array(intensity, dtype=float),
                    {"method": "test", "per_line_width": 1.0})
    write_spectrum(spec, tmp_path / "fast.tsv", extra_meta={"seed": 2})
    _format_writer(tmp_path / "slow.tsv", spec.meta, {"seed": 2},
                   "frequency_MHz intensity", spec.grid, spec.intensity)
    assert (tmp_path / "fast.tsv").read_bytes() == (tmp_path / "slow.tsv").read_bytes()


# Random sites for the closed-form statistics: an isotope, principal values
# in MHz and a quaternion for the frame.
_COUPLINGS = st.tuples(*[st.floats(-40.0, 40.0)] * 3)
_QUATERNION = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: np.linalg.norm(q) > 0.1
)
_SITE = st.tuples(st.sampled_from(["11B", "10B", "14N", "15N", "13C", "12C"]),
                  _COUPLINGS, _QUATERNION)
_BORON = st.tuples(st.sampled_from(["11B", "10B"]), _COUPLINGS, _QUATERNION)
_NOT_BORON = st.tuples(st.sampled_from(["14N", "15N", "13C", "12C"]),
                       _COUPLINGS, _QUATERNION)
_FIELD = st.builds(
    lambda magnitude, d: magnitude * np.asarray(d) / np.linalg.norm(d),
    st.floats(5.0, 300.0),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda d: np.linalg.norm(d) > 0.1),
)
_ORDER, _MODE = st.sampled_from([1, 2]), st.sampled_from([MODE_FULL, MODE_ACONST])


def _sites(kinds, group_id=""):
    sites = []
    for symbol, couplings, q in kinds:
        w, x, y, z = np.asarray(q) / np.linalg.norm(q)
        frame = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
        iso = lookup(symbol)
        sites.append((NuclearSite(iso.element, 1.0, 0.0, couplings, frame,
                                  group_id=group_id), iso))
    return sites


def _window(data, frequencies):
    """A window about the lines: either edge may cut some off, or be infinite."""
    low, high = frequencies.min(), frequencies.max()
    span = high - low + 1.0
    lo = low + span * data.draw(st.floats(-0.5, 0.5) | st.just(-math.inf))
    hi = high + span * data.draw(st.floats(-0.5, 0.5) | st.just(math.inf))
    assume(lo < hi)
    return lo, hi


def _assert_closed_form(stats, lines, window):
    """``stats`` is ``None`` when the window cuts a line, else ``peak_stats``."""
    f = lines.frequencies
    if f.min() < window[0] or f.max() > window[1]:
        assert stats is None
    if stats is not None:
        expected = peak_stats(lines, window)
        for name in ("center", "sigma", "fwhm_gauss"):
            assert getattr(stats, name) == pytest.approx(
                getattr(expected, name), rel=0.0, abs=1e-9)
        assert (stats.window, stats.included_weight_fraction) == (expected.window, 1.0)


@settings(max_examples=200, deadline=None)
@given(kinds=st.lists(_SITE, min_size=1, max_size=3), field=_FIELD, order=_ORDER,
       mode=_MODE, delta=st.floats(-50.0, 50.0), data=st.data())
def test_perturb_stats_is_peak_stats_of_the_lines_or_none(
    kinds, field, order, mode, delta, data
):
    # Repeated kinds give groups of equal tables, as equivalent nuclei do.
    picks = data.draw(st.lists(st.integers(0, len(kinds) - 1), min_size=1, max_size=4))
    system = SpinSystem("random", tuple(_sites([kinds[k] for k in picks])))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # strong coupling is fine here
        lines = shift(perturb_lines(system, field, order, mode), delta)
        window = _window(data, lines.frequencies)
        stats = perturb_stats([(system, 1.0)], field, order, mode, window, delta)
    _assert_closed_form(stats, lines, window)


@settings(max_examples=150, deadline=None)
@given(borons=st.lists(_BORON, min_size=1, max_size=2),
       others=st.lists(_NOT_BORON, max_size=2), field=_FIELD, order=_ORDER,
       mode=_MODE, data=st.data())
def test_perturb_stats_of_a_mixture_is_peak_stats_of_the_composite(
    borons, others, field, order, mode, data
):
    # One or two boron sites in one group give two or three patterns.
    system = SpinSystem("mixture", tuple(_sites(borons, "B-g") + _sites(others)))
    patterns = enumerate_patterns(system)
    parts = [(apply_pattern(system, p), p.probability) for p in patterns]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # strong coupling is fine here
        lines = composite_lines(system, patterns, field, order, mode)
        window = _window(data, lines.frequencies)
        stats = perturb_stats(parts, field, order, mode, window)
    _assert_closed_form(stats, lines, window)
