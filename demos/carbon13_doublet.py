"""Show how a carbon-13 nucleus splits the resonance into a doublet.

Natural carbon is almost all spin-0 carbon-12, which is invisible to the
spin Hamiltonian. The 1.1% carbon-13 fraction carries spin 1/2 and a
very large, strongly axial hyperfine tensor at the defect's central
site. Its coupling (hundreds of MHz) rivals the electron Zeeman energy
at 42 G, so perturbation theory is the wrong tool; this script
diagonalizes the 4-dimensional electron-plus-carbon problem exactly and
then broadens the surrounding shells perturbatively.

Run as ``python demos/carbon13_doublet.py``.
"""

import numpy as np

from defectspin import (
    build_hamiltonian,
    build_system,
    exact_transitions,
    find_defect,
    hybrid_solve,
    load_defect_dataset,
    peak_stats,
)

FIELD = np.array([0.0, 0.0, 42.0])


def main():
    records = load_defect_dataset()
    system = build_system(find_defect(records, "CB0"), {"C": "13C"})

    # Exact solve of just the electron and the central carbon-13.
    central = system.subsystem((0,))
    h = build_hamiltonian(central, FIELD, terms=("ezi", "hfi", "nzi"))
    doublet = exact_transitions(h, central)
    print("electron + central 13C, exact (dimension 4):")
    for freq, intensity in zip(doublet.frequencies, doublet.intensities):
        print(f"  {freq:9.2f} MHz   relative intensity {intensity:.3f}")
    top = np.sort(doublet.frequencies[np.argsort(doublet.intensities)[-2:]])
    print(f"dominant doublet splitting: {top[1] - top[0]:.1f} MHz")

    # The nitrogen and boron shells then broaden each branch.
    full = hybrid_solve(system, (0,), FIELD, subset_terms=("hfi", "nzi"))
    upper = peak_stats(full, window=(150.0, np.inf))
    print(
        f"\nwith the nuclear shells attached, the upper branch sits at "
        f"{upper.center:.1f} MHz\nwith FWHM {upper.fwhm_gauss:.1f} MHz; "
        f"the lower branch falls below the measurement window."
    )
    print("In a natural sample only ~1% of centers show this doublet;")
    print("the rest keep the single carbon-12 line.")


if __name__ == "__main__":
    main()
