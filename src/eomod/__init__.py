"""Electro-optic modulator models: finite-mode su(2) dynamics vs Bessel sidebands."""

from .detection import FilterSpec, SpectralScan, spectral_scan
from .dynamics import (
    ClosedFormAngles,
    asymptotic_compare,
    central_column_sq,
    central_mode_probability,
    closed_form_angles,
    find_revival_peak,
    mean_field_envelope,
    mode_occupations,
    propagator,
    revival_scan,
)
from .numkernel import EigenDecomposition, hermitian_eigen
from .su2 import (
    MixingAngle,
    ModulatorParams,
    ladder_weights,
    mixing_angle,
    mode_offsets,
    quasi_energy_matrix,
)
from .unrestricted import (
    ModulationIndex,
    bessel_j,
    bessel_j_grid,
    bessel_j_sequence,
    classical_signal_check,
    default_cutoff,
    modulation_index,
    modulation_index_grid,
    unrestricted_occupations,
)
from .wigner import (
    CapabilityError,
    WignerMatrix,
    jacobi_bessel_limit_check,
    jacobi_poly,
    wigner_d_exponential,
    wigner_d_factorial,
    wigner_d_jacobi,
)

__version__ = "0.1.0"
