"""Optimal state manipulation of a dissipative two-qubit system driven by
coherent and incoherent controls: realified bilinear dynamics, adjoint
gradients of overlap objectives, and gradient projection optimizers."""

from .controls import (ConstraintSet, ControlGrid, constant_grid, contains,
                       init_from_functions, l2_norm, project, sample)
from .diagnostics import (aleph, compute_rows, diagnostics_header,
                          distance_squared, entropy, petz_renyi, purity,
                          relative_entropy, smoothed_overlap_dev, uj_fidelity)
from .dynamics import (Trajectory, min_state_eigenvalue, pairing_drift,
                       propagate_adjoint, propagate_forward, trace_drift,
                       zero_control_adjoint, zero_control_state)
from .errors import (BadAlphaError, BadTraceError, ConfigError, DivergedError,
                     DomainError, GridMismatchError, NotDensityMatrixError,
                     NotHermitianError, OutOfRangeError, TqocError)
from .gpm import (GPM1, GPM2, DecayingStep, FixedStep, GpmConfig, GpmReport,
                  first_iteration_equivalence_check)
from .gpm import run as run_gpm
from .model import (DIAG_SLOTS, OFFDIAG_SLOTS, SystemMatrices, SystemParams,
                    V1, V2, build_system_matrices, derealify, embed_diagonal,
                    lindblad_rhs, realify)
from .objectives import (MAXIMIZE_OVERLAP, MINIMIZE_OVERLAP, OVERLAP_WEIGHTS,
                         SMOOTHED_DEVIATION, SQUARED_DEVIATION, ObjectiveSpec,
                         OverlapBounds, evaluate, overlap, overlap_bounds,
                         transversality)
from .pmp import (COMPLETELY_MIXED, PURE_GROUND, GradientResult,
                  PmpCaseConfig, SwitchingValues, gradient,
                  pmp_zero_control_condition,
                  stationary_zero_control_condition, switching,
                  verify_pmp_numerically)
from .smallmat import EigenDecomposition4, hermitian_eigen, matrix_function
from .spectral import SpectralDensity, emit_curve, filtered, planck

__version__ = "0.1.0"
