"""Centralized numeric tolerances and size limits.

Every comparison in the package reads one of these constants; none of them
can be overridden per call.
"""

NORM_ATOL = 1e-10            # state-vector normalization
HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10             # density-matrix eigenvalue floor
PROJECTOR_ATOL = 1e-10       # completeness / mutual orthogonality
RECONSTRUCTION_ATOL = 1e-9   # operator vs spectral sum
EIGENVALUE_MERGE = 1e-8      # eigenvalues closer than this share an eigenspace
UNITARY_ATOL = 1e-10
COMMUTE_ATOL = 1e-10
ZERO_PROBABILITY = 1e-12     # outcomes below this are treated as impossible
BASIS_MATCH_ATOL = 1e-8      # projector-set matching for transported observables
INPUT_NORM_ATOL = 1e-8       # scenario-file state normalization
VALUE_ATOL = 1e-9            # outcome values compared by checks
DIMENSION_CAP = 4096         # total Hilbert-space dimension limit
