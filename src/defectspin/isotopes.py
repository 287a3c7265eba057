"""Physical constants and the nuclear isotope registry.

Every interaction energy downstream is a frequency in MHz and every magnetic
field is in Gauss, so the only constants that matter are the electron Zeeman
prefactor mu_B/h and the nuclear data per isotope. Gyromagnetic ratios are
stored directly as gamma/2pi in Hz/Gauss; the dimensionless g_n factors are
carried alongside and checked against gamma at import time so the two
parameterizations cannot drift apart. Each element's isotope list, most
abundant first, is built once at import.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

# Electron Zeeman prefactor mu_B/h, MHz per Gauss per unit g.
ELECTRON_ZEEMAN_MHZ_PER_G = 1.3996246

# FWHM of a Gaussian with unit standard deviation, 2*sqrt(2*ln 2).
GAUSSIAN_FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

# Nuclear magneton over Planck constant, Hz per Gauss; links g_n to gamma/2pi.
NUCLEAR_MAGNETON_HZ_PER_G = 762.2593285


@dataclass(frozen=True)
class PhysicalConstants:
    """The two shared constants, bundled for callers that want a namespace."""

    electron_zeeman_factor: float = ELECTRON_ZEEMAN_MHZ_PER_G
    gaussian_fwhm_factor: float = GAUSSIAN_FWHM_FACTOR


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class Isotope:
    """Nuclear species entering the spin Hamiltonian.

    Attributes
    ----------
    symbol : str
        Mass number plus element, e.g. ``"11B"``.
    spin : float
        Nuclear spin quantum number I (non-negative half-integer).
    gamma_over_2pi : float
        Gyromagnetic ratio gamma/2pi in Hz/Gauss. Sign follows the magnetic
        moment.
    g_n : float
        Dimensionless nuclear g-factor, redundant with gamma_over_2pi.
    abundance : float
        Natural abundance as a fraction in [0, 1].
    q_conversion : float
        EFG-to-quadrupole conversion constant in MHz per (V/A^2).
        Zero exactly when I < 1 (no quadrupole moment).
    element : str
        The symbol without its mass number, e.g. ``"B"``; derived once at
        construction.
    """

    symbol: str
    spin: float
    gamma_over_2pi: float
    g_n: float
    abundance: float
    q_conversion: float
    element: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "element", re.sub(r"^\d+", "", self.symbol))
        twice = 2.0 * self.spin
        if self.spin < 0 or abs(twice - round(twice)) > 1e-12:
            raise ValueError(f"{self.symbol}: spin must be a non-negative half-integer")
        if not 0.0 <= self.abundance <= 1.0:
            raise ValueError(f"{self.symbol}: abundance outside [0, 1]")
        if (self.spin < 1.0) != (self.q_conversion == 0.0):
            raise ValueError(f"{self.symbol}: q_conversion must be zero iff I < 1")

    @property
    def multiplicity(self) -> int:
        """Number of m projections, 2I + 1."""
        return int(round(2.0 * self.spin)) + 1


_REGISTRY = {
    iso.symbol: iso
    for iso in (
        Isotope("11B", 1.5, 1366.0, 1.792, 0.801, 0.01636),
        Isotope("10B", 3.0, 457.36, 0.600, 0.199, 0.006827),
        Isotope("14N", 1.0, 308.0, 0.40376, 0.996, 0.02471),
        Isotope("15N", 0.5, -431.7, -0.56638, 0.004, 0.0),
        Isotope("13C", 0.5, 1071.0, 1.40482, 0.011, 0.0),
        Isotope("12C", 0.0, 0.0, 0.0, 0.989, 0.0),
    )
}

# Each element's isotopes, most abundant first (ties keep their registry order).
_BY_ELEMENT: dict[str, list[Isotope]] = {}
for _iso in sorted(_REGISTRY.values(), key=lambda i: -i.abundance):
    _BY_ELEMENT.setdefault(_iso.element, []).append(_iso)


def _check_registry():
    # gamma/2pi and g_n are two spellings of the same physics; a transcription
    # slip in either one shows up here rather than as a wrong spectrum.
    for iso in _REGISTRY.values():
        if iso.gamma_over_2pi == 0.0 and iso.g_n == 0.0:
            continue
        implied = iso.g_n * NUCLEAR_MAGNETON_HZ_PER_G
        if abs(implied - iso.gamma_over_2pi) > 0.005 * abs(iso.gamma_over_2pi):
            raise AssertionError(
                f"{iso.symbol}: gamma/2pi {iso.gamma_over_2pi} Hz/G inconsistent "
                f"with g_n {iso.g_n} (implies {implied:.2f} Hz/G)"
            )
    for element, isotopes in _BY_ELEMENT.items():
        total = sum(i.abundance for i in isotopes)
        if total > 1.0 + 1e-9:
            raise AssertionError(f"abundances for {element} sum to {total}")


_check_registry()


def load_isotope_registry() -> list[Isotope]:
    """Return all registered isotopes."""
    return list(_REGISTRY.values())


def lookup(symbol: str) -> Isotope:
    try:
        return _REGISTRY[symbol]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown isotope {symbol!r} (registry has {known})") from None


def isotopes_of(element: str) -> list[Isotope]:
    """Isotopes of one element, most abundant first, as a new list."""
    try:
        return list(_BY_ELEMENT[element])
    except KeyError:
        raise KeyError(f"no isotopes registered for element {element!r}") from None


def default_isotope(element: str) -> Isotope:
    """The highest-abundance isotope of an element (11B, 14N, 12C)."""
    return isotopes_of(element)[0]
