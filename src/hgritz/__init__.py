"""Variational spectral solver for 1D Schrodinger Hamiltonians.

Builds Hamiltonian matrices in an orthonormal Hermite-Gaussian basis of
adjustable width alpha, diagonalizes them with a self-contained symmetric
eigensolver, optimizes alpha variationally, and machine-checks the
structural facts about the results: exact diagonalization of the harmonic
oscillator at alpha = m omega / hbar, upper-bound/monotonicity/interlacing
of truncated spectra, and the node count of each eigenfunction.  A Numerov
shooting solver supplies independent reference energies.
"""

from .basis import BasisSpec, Constants, MAX_INDEX, basis_table
from .eigensolver import Spectrum, eigh, eigvalsh
from .errors import (ConvergenceError, DegenerateInputError, QuadratureError,
                     ScanResolutionError)
from .operators import (BandedSymMatrix, PotentialSpec, hamiltonian_matrix,
                        kinetic_matrix, potential_matrix)
from .quadrature import QuadratureRule, element_oracle, gauss_hermite_rule
from .spectral import ConvergenceTable, check_mhu, node_counts
from .variational import (AlphaScanResult, MinimizeResult, convergence_table,
                          exact_diagonal_alpha, minimize_alpha, scan_alpha,
                          solve_spectrum)
from . import numerov

__version__ = "0.1.0"

__all__ = [
    "BasisSpec", "Constants", "MAX_INDEX", "basis_table",
    "Spectrum", "eigh", "eigvalsh",
    "ConvergenceError", "DegenerateInputError", "QuadratureError", "ScanResolutionError",
    "BandedSymMatrix", "PotentialSpec", "hamiltonian_matrix",
    "kinetic_matrix", "potential_matrix",
    "QuadratureRule", "element_oracle", "gauss_hermite_rule",
    "ConvergenceTable", "check_mhu", "node_counts",
    "AlphaScanResult", "MinimizeResult", "convergence_table",
    "exact_diagonal_alpha", "minimize_alpha", "scan_alpha", "solve_spectrum",
    "numerov",
    "__version__",
]
