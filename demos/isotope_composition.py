"""Resolve a resonance line into its boron isotopologues.

Natural boron is 80.1% spin-3/2 boron-11 and 19.9% spin-3 boron-10.
Every defect center therefore exists as a mix of isotopologues, and each
composition has its own hyperfine width: boron-10 carries a smaller
nuclear g-factor, so each substitution narrows the line even though the
spin grows. The multinomial weights of the compositions are exact; the
line statistics come from the second-order perturbative solver.

Run as ``python demos/isotope_composition.py [defect]``.
"""

import sys

import numpy as np

from defectspin import (
    apply_pattern,
    build_system,
    composite_lines,
    enumerate_patterns,
    find_defect,
    load_defect_dataset,
    peak_stats,
    perturb_lines,
)

FIELD = np.array([0.0, 0.0, 42.0])


def main():
    label = sys.argv[1] if len(sys.argv) > 1 else "CB0"
    system = build_system(find_defect(load_defect_dataset(), label))
    patterns = enumerate_patterns(system)

    print(f"boron isotopologues of {label} at 42 G")
    print(f"{'composition':<18}{'probability':>12}{'center':>10}{'FWHM':>8}")
    for pattern in patterns:
        # the same per-pattern solve that composite_lines blends
        stats = peak_stats(perturb_lines(apply_pattern(system, pattern), FIELD))
        print(
            f"{pattern.describe():<18}{100 * pattern.probability:>11.2f}%"
            f"{stats.center:>10.1f}{stats.fwhm_gauss:>8.1f}"
        )

    blended = peak_stats(composite_lines(system, patterns, FIELD))
    print()
    print(
        f"abundance-weighted blend: center {blended.center:.1f} MHz, "
        f"FWHM {blended.fwhm_gauss:.1f} MHz"
    )
    print("Each boron-10 substitution narrows the line; an isotopically")
    print("purified boron-10 host would give the sharpest spectra.")


if __name__ == "__main__":
    main()
