"""Peak statistics, broadened spectra and plot-ready exports.

Statistics are moments of the weighted line list inside an analysis
window; the default window starts at 30 MHz because the low-frequency
branch of strongly coupled nuclei falls outside the measured range. The
width reported is the FWHM of a Gaussian sharing the distribution's
standard deviation (``perturb_stats``: in closed form, the moments of
``solvers.ShiftDistribution``, for a perturbative solve whose window cuts no
line). Rendered spectra are purely presentational.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .isotopes import GAUSSIAN_FWHM_FACTOR
from .solvers import MODE_FULL, LineList, ShiftDistribution

DEFAULT_WINDOW = (30.0, math.inf)
DEFAULT_GRID = (0.0, 300.0, 0.1)        # MHz: start, stop, step
DEFAULT_LINE_WIDTH = 1.0                # MHz FWHM per line
# Kernel half-width in standard deviations. Past it a Gaussian is below
# exp(-KERNEL_REACH**2 / 2) = exp(-40.5) ~ 2.6e-18 of its own peak.
KERNEL_REACH = 9.0

# Fixed header key order so identical runs serialize byte-identically.
_HEADER_KEYS = ("field", "method", "seed", "shift", "window")


@dataclass(frozen=True)
class PeakStats:
    """Weighted moments of a line list inside an analysis window."""

    center: float
    sigma: float
    fwhm_gauss: float
    window: tuple[float, float]
    included_weight_fraction: float


@dataclass(eq=False)
class Spectrum:
    """Broadened, peak-normalized spectrum on a uniform grid."""

    grid: np.ndarray
    intensity: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.intensity = np.asarray(self.intensity, dtype=float)
        _check_grid(self.grid)
        if self.grid.size != self.intensity.size:
            raise ValueError("grid and intensity must be matching 1-d arrays")
        if not np.isfinite(self.intensity).all():
            raise ValueError("intensities must be finite")
        if self.intensity.size and self.intensity.min() < 0:
            raise ValueError("intensities must be non-negative")


def _check_grid(grid: np.ndarray):
    """Reject anything but a finite, strictly increasing, uniform 1-d grid."""
    if grid.ndim != 1:
        raise ValueError("grid must be a 1-d array")
    if not np.isfinite(grid).all():
        raise ValueError("grid must be finite")
    if grid.size >= 2:
        # Point i must sit at grid[0] + i * step, where synthesize puts it.
        # Building a grid rounds each point by a few ulps of the grid's
        # largest magnitude, whatever the step, so that is allowed too.
        n = grid.size
        step = (grid[-1] - grid[0]) / (n - 1)
        tol = 1e-9 * step + 16 * np.finfo(float).eps * np.abs(grid).max()
        drift = np.abs(grid - (grid[0] + step * np.arange(n))).max()
        if not (np.diff(grid).min() > 0 and drift <= tol):
            raise ValueError("grid must be strictly increasing and uniform")


def peak_stats(lines: LineList, window=DEFAULT_WINDOW) -> PeakStats:
    """Weighted mean, standard deviation and Gaussian FWHM of the lines.

    Line mass is weight times intensity. Lines outside ``window`` are
    excluded from the moments; the included mass fraction is reported.
    When every line is inside the window the moments run on the line
    arrays themselves and the one mass sum is also the total; only a
    window that cuts lines off copies the lines inside it. (Masking the
    sums instead would change their summation order, and so their bits.)
    The smallest and largest frequency tell which case holds, so the
    membership mask is built only when the window cuts lines off. Clipped to
    the window, they bound the sums: moments that would overflow raise
    ``ValueError`` before any is taken.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    mass = lines.weights * lines.intensities
    f = lines.frequencies
    f_lo, f_hi = (float(f.min()), float(f.max())) if f.size else (lo, hi)
    if lo <= f_lo and f_hi <= hi:
        m = mass
        m_sum = total = float(m.sum())
    else:
        inside = (f >= lo) & (f <= hi)
        m, f = mass[inside], f[inside]
        total, m_sum = float(mass.sum()), float(m.sum())
        f_lo, f_hi = max(lo, f_lo), min(hi, f_hi)
    if m.size == 0 or m_sum <= 0.0:
        raise ValueError("no line with positive mass inside the analysis window")
    span = f_hi - f_lo      # each |f - center| <= span, each |f| <= |f_lo| + |f_hi|
    if not 2.0 * (span * span + abs(f_lo) + abs(f_hi)) * m_sum < math.inf:
        raise ValueError("line frequencies too large: their moments overflow")
    center = float((m * f).sum() / m_sum)
    d = f - center          # m * (f - center)**2, in place: the same bits
    d *= d
    d *= m
    sigma = float(math.sqrt(max(d.sum() / m_sum, 0.0)))
    return PeakStats(
        center=center,
        sigma=sigma,
        fwhm_gauss=GAUSSIAN_FWHM_FACTOR * sigma,
        window=(lo, hi),
        included_weight_fraction=m_sum / total if total > 0 else 0.0,
    )


def perturb_stats(parts, field, order: int = 2, mode: str = MODE_FULL,
                  window=DEFAULT_WINDOW, shift: float = 0.0) -> PeakStats | None:
    """``peak_stats`` of perturbative lines in closed form, else ``None``.

    ``parts`` holds (system, probability) pairs: ``[(system, 1)]`` stands for
    ``perturb_lines``, a composite's applied patterns for ``composite_lines``.
    The moments are ``ShiftDistribution.moments``, which checks as the
    solvers do: ``None`` when the window may cut a line or no probability is
    > 0. The solvers' strong-coupling warnings are given only with
    statistics: after ``None`` the caller's own solve gives them.
    """
    lo, hi = float(window[0]), float(window[1])
    moments = ShiftDistribution(parts, field, order, mode).moments(lo, hi, shift)
    if moments is None:
        return None
    return PeakStats(*moments, GAUSSIAN_FWHM_FACTOR * moments[1], (lo, hi), 1.0)


def _uniform_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Grid from ``start`` to ``stop`` (MHz) in steps of ``step``."""
    n = int(round((stop - start) / step))
    return start + step * np.arange(n + 1)


def default_grid() -> np.ndarray:
    return _uniform_grid(*DEFAULT_GRID)


def synthesize(
    lines: LineList, grid: np.ndarray | None = None,
    per_line_width: float = DEFAULT_LINE_WIDTH,
) -> Spectrum:
    """Sum one Gaussian kernel per line, peak-normalized.

    Kernel area is proportional to weight times intensity and
    ``per_line_width`` is the per-line FWHM in MHz. Each kernel is
    evaluated on the W = ``2*ceil(KERNEL_REACH*sigma/step) + 1`` grid points
    around its line (the whole grid when that is wider), which covers every
    grid point within 9 sigma of the line; a line off the grid lands on the
    points at the nearest edge. Pass k of W vectorized passes over the lines
    gives each line's value at its k-th point, so a kernel as wide as the
    grid costs the most. A term left out is below exp(-40.5) ~ 2.6e-18 of its
    line's largest value on the grid, so after normalization each point is
    off the full sum by at most 2.6e-18 times the number of lines. A point
    farther than 9 sigma from every line is exactly 0.

    Raises ``ValueError`` for a grid that is empty, not finite or not
    uniform, and for lines with a non-finite frequency or mass.
    """
    if not 0.0 < per_line_width < math.inf:
        raise ValueError("per_line_width must be positive and finite")
    g = default_grid() if grid is None else np.asarray(grid, dtype=float)
    _check_grid(g)
    if g.size == 0:
        raise ValueError("grid must have at least one point")
    mass = lines.weights * lines.intensities
    if not (np.isfinite(lines.frequencies).all() and np.isfinite(mass).all()):
        raise ValueError("line frequencies, weights and intensities must be finite")
    out = np.zeros(g.size)
    live = mass > 0
    freqs, mass = lines.frequencies[live], mass[live]
    if freqs.size == 0:
        warnings.warn("no lines with positive mass; spectrum is all zero")
        return Spectrum(g, out, {"per_line_width": per_line_width, "shift": 0.0})
    if freqs.min() < g[0] or freqs.max() > g[-1]:
        warnings.warn(
            f"grid [{g[0]}, {g[-1]}] MHz does not cover all lines "
            f"([{freqs.min():.2f}, {freqs.max():.2f}] MHz)"
        )
    sig = per_line_width / GAUSSIAN_FWHM_FACTOR
    n = g.size
    step = (g[-1] - g[0]) / (n - 1) if n > 1 else 1.0   # one point: width 1
    # Cap before rounding: a huge finite width makes the half-width inf.
    width = min(2 * math.ceil(min(KERNEL_REACH * sig / step, n)) + 1, n)
    # Clip in float, so a line far off the grid cannot overflow the cast.
    starts = np.clip(
        np.rint((freqs - g[0]) / step) - width // 2, 0, n - width
    ).astype(np.intp)
    # One pass per kernel offset k: every line's value at its k-th window
    # point, mass * exp(-(g - f)**2 / (2 sigma**2)), summed by window start.
    slots = n - width + 1                       # window starts
    for k in range(width):
        x = g[starts + k] - freqs
        x *= x
        x /= -2.0 * sig * sig
        np.exp(x, out=x)
        x *= mass
        out[k : k + slots] += np.bincount(starts, weights=x, minlength=slots)
    peak = out.max()
    if peak > 0:
        out /= peak
    meta = dict(lines.meta)
    meta.update(
        method=lines.method,
        field=lines.field.tolist(),
        per_line_width=per_line_width,
        shift=meta.get("shift", 0.0),
    )
    return Spectrum(g, out, meta)


def shift(obj, delta: float):
    """Translate every frequency by ``delta`` MHz; records the shift."""
    delta = float(delta)
    if not isinstance(obj, (LineList, Spectrum)):
        raise TypeError(f"cannot shift object of type {type(obj).__name__}")
    meta = dict(obj.meta)
    meta["shift"] = meta.get("shift", 0.0) + delta
    if isinstance(obj, LineList):
        return LineList(
            obj.method,
            obj.field,
            obj.frequencies + delta,
            obj.intensities.copy(),
            obj.weights.copy(),
            meta,
        )
    return Spectrum(obj.grid + delta, obj.intensity.copy(), meta)


def _write_table(path, meta: dict, extra_meta: dict | None, columns: str, *arrays):
    """``meta`` and ``extra_meta`` as ``# key = value`` lines (``_HEADER_KEYS``
    first, then sorted; ``None`` left out), ``# columns``, ``.9g`` rows of ``arrays``.

    All rows are formatted by one ``%`` over the row-major values and the
    file is written in one call; ``%.9g`` prints what ``{:.9g}`` does."""
    meta = {**meta, **(extra_meta or {})}
    keys = [*_HEADER_KEYS, *sorted(meta.keys() - set(_HEADER_KEYS))]
    header = "".join(f"# {k} = {meta[k]}\n" for k in keys if meta.get(k) is not None)
    row = " ".join(["%.9g"] * len(arrays)) + "\n"
    values = np.column_stack(arrays).ravel().tolist()
    with open(path, "w") as fh:
        fh.write(f"{header}# {columns}\n" + (row * len(arrays[0])) % tuple(values))


def write_linelist(lines: LineList, path, extra_meta: dict | None = None):
    """Three-column export (frequency_MHz, intensity, weight), sorted."""
    ordered = lines.sorted()
    meta = {**ordered.meta, "method": ordered.method, "field": ordered.field.tolist()}
    _write_table(
        path, meta, extra_meta, "frequency_MHz intensity weight",
        ordered.frequencies, ordered.intensities, ordered.weights,
    )


def write_spectrum(spectrum: Spectrum, path, extra_meta: dict | None = None):
    """Two-column export (frequency_MHz, intensity) with metadata header."""
    _write_table(
        path, spectrum.meta, extra_meta, "frequency_MHz intensity",
        spectrum.grid, spectrum.intensity,
    )
