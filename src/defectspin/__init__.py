"""Spin-resonance spectra and charge-state energetics of point defects.

The package predicts continuous-wave resonance line shapes of
spin-1/2 defect centers coupled to shells of surrounding nuclei, and
evaluates charge transition levels and complex binding energies from
supercell total energies. Everything runs in frequency units of MHz,
fields in Gauss and energies in eV.
"""

from .energetics import (
    INDIRECT_GAP_EV,
    CtlResult,
    EnergyRecord,
    binding_energy,
    complex_binding_energies,
    compute_ctl,
    ctl_diagram,
    defect_levels,
    group_records,
    load_complexes,
    load_energy_records,
)
from .hamiltonian import (
    DimensionError,
    HamiltonianMatrix,
    OperatorTriple,
    build_hamiltonian,
    efg_to_quadrupole,
    spin_operators,
)
from .isotopes import (
    CONSTANTS,
    Isotope,
    default_isotope,
    isotopes_of,
    load_isotope_registry,
    lookup,
)
from .isotopologues import (
    IsotopePattern,
    apply_pattern,
    composite_lines,
    enumerate_patterns,
    rescale_hyperfine,
)
from .solvers import (
    LineList,
    ZeroFieldError,
    electron_axis,
    exact_transitions,
    hybrid_solve,
    perturb_lines,
    sample_configurations,
    shell_indices,
)
from .spectrum import (
    DEFAULT_WINDOW,
    PeakStats,
    Spectrum,
    peak_stats,
    shift,
    synthesize,
    write_linelist,
    write_spectrum,
)
from .system import (
    DatasetError,
    DefectRecord,
    NuclearSite,
    SpinSystem,
    build_system,
    find_defect,
    load_defect_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS",
    "CtlResult",
    "DatasetError",
    "DefectRecord",
    "DimensionError",
    "EnergyRecord",
    "HamiltonianMatrix",
    "INDIRECT_GAP_EV",
    "Isotope",
    "IsotopePattern",
    "LineList",
    "NuclearSite",
    "OperatorTriple",
    "PeakStats",
    "Spectrum",
    "SpinSystem",
    "ZeroFieldError",
    "DEFAULT_WINDOW",
    "apply_pattern",
    "binding_energy",
    "complex_binding_energies",
    "build_hamiltonian",
    "build_system",
    "composite_lines",
    "compute_ctl",
    "ctl_diagram",
    "default_isotope",
    "defect_levels",
    "efg_to_quadrupole",
    "electron_axis",
    "enumerate_patterns",
    "exact_transitions",
    "find_defect",
    "group_records",
    "hybrid_solve",
    "isotopes_of",
    "load_complexes",
    "load_defect_dataset",
    "load_energy_records",
    "load_isotope_registry",
    "lookup",
    "peak_stats",
    "perturb_lines",
    "rescale_hyperfine",
    "sample_configurations",
    "shell_indices",
    "shift",
    "spin_operators",
    "synthesize",
    "write_linelist",
    "write_spectrum",
]
