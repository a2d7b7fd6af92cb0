"""Centralized numeric tolerances and size limits."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """All tolerances used by the package, in one place so tests can pin them.

    Every comparison in the package routes through an instance of this
    record (module default: :data:`DEFAULT_TOLERANCES`).
    """

    norm_atol: float = 1e-10           # state-vector normalization
    hermitian_atol: float = 1e-10
    trace_atol: float = 1e-10
    psd_atol: float = 1e-10            # density-matrix eigenvalue floor
    projector_atol: float = 1e-10      # completeness / mutual orthogonality
    reconstruction_atol: float = 1e-9  # operator vs spectral sum
    eigenvalue_merge: float = 1e-8     # eigenvalues closer than this share an eigenspace
    unitary_atol: float = 1e-10
    commute_atol: float = 1e-10
    zero_probability: float = 1e-12    # outcomes below this are treated as impossible
    basis_match_atol: float = 1e-8     # projector-set matching for transported observables
    input_norm_atol: float = 1e-8      # scenario-file state normalization
    value_atol: float = 1e-9           # outcome values compared by checks
    dimension_cap: int = 4096          # total Hilbert-space dimension limit


DEFAULT_TOLERANCES = Tolerances()
