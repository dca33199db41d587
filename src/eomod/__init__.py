"""Electro-optic modulator models: finite-mode su(2) dynamics vs Bessel sidebands."""

from .detection import FilterSpec, spectral_scan
from .dynamics import (
    central_column_sq,
    closed_form_angles,
    find_revival_peak,
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
    bessel_j,
    bessel_j_grid,
    bessel_j_sequence,
    default_cutoff,
    modulation_index,
    unrestricted_occupations,
)
from .wigner import (
    CapabilityError,
    jacobi_poly,
    wigner_d_exponential,
    wigner_d_factorial,
    wigner_d_jacobi,
)

__version__ = "0.1.0"
