"""Charge transition levels and pair binding energies from total energies.

A defect's charge transition level is the Fermi-level position where two
of its charge states are equally stable; levels inside the band gap make
the defect electrically and optically active. This script prints the
level diagram for the bundled carbon defects, with and without the
a-posteriori electrostatic correction applied to the charged-cell
energies, and then the binding energies of the donor-acceptor complexes
relative to their isolated constituents.

Run as ``python demos/charge_levels.py``.
"""

from defectspin import (
    INDIRECT_GAP_EV,
    complex_binding_energies,
    ctl_diagram,
    load_complexes,
    load_energy_records,
)


def main():
    records = load_energy_records()
    print(ctl_diagram(records))

    print(f"band gap: {INDIRECT_GAP_EV} eV; a level above the gap means the")
    print("acceptor state never becomes stable inside the gap (the donor-only")
    print("defect keeps its deep-donor character).\n")

    table = load_complexes()
    print("binding energies of neutral complexes (negative = bound):")
    for name, constituents, eb in complex_binding_energies(records, table):
        members = " + ".join(constituents)
        print(f"  {name:<12} = {members:<18} E_b = {eb:6.2f} eV")
    print("\nThe nearest-neighbor donor-acceptor pair is by far the most")
    print("strongly bound two-site complex; adding a second donor or acceptor")
    print("deepens the binding further.")


if __name__ == "__main__":
    main()
