"""Finite-dimensional linear algebra: labeled composite spaces, states,
observables, Born probabilities, projection and observable transport.

Everything here is immutable after construction and all operations are pure
functions, so values can be shared freely between concurrent trial runners.

Index convention: the first subsystem is the most significant factor, i.e.
``|a⟩ ⊗ |b⟩`` maps basis index ``(i, j)`` to flat index ``i * dim_b + j``
(plain ``numpy.kron`` order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .config import (BASIS_MATCH_ATOL, COMMUTE_ATOL, DIMENSION_CAP, EIGENVALUE_MERGE,
                     HERMITIAN_ATOL, NORM_ATOL, PROJECTOR_ATOL, PSD_ATOL,
                     RECONSTRUCTION_ATOL, TRACE_ATOL, UNITARY_ATOL, ZERO_PROBABILITY)
from .errors import (
    ImpossibleOutcomeError,
    InvalidStateError,
    SpaceMismatchError,
)

SystemId = str


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex, copy=True)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositeSpace:
    """An ordered list of labeled subsystems spanning a tensor-product space."""

    subsystems: tuple[tuple[SystemId, int], ...]

    def __init__(self, subsystems: Iterable[tuple[SystemId, int]]):
        subs = tuple((str(name), int(dim)) for name, dim in subsystems)
        if not subs:
            raise SpaceMismatchError("a composite space needs at least one subsystem")
        ids = [name for name, _ in subs]
        if len(set(ids)) != len(ids):
            raise SpaceMismatchError(f"duplicate subsystem ids in {ids}")
        total = 1
        for name, dim in subs:
            if dim < 2:
                raise SpaceMismatchError(f"subsystem {name!r} has dimension {dim} < 2")
            total *= dim
        if total > DIMENSION_CAP:
            raise SpaceMismatchError(f"total dimension {total} exceeds cap {DIMENSION_CAP}")
        object.__setattr__(self, "subsystems", subs)
        # computed once: worlds look their axes and dimensions up here
        object.__setattr__(self, "ids", tuple(ids))
        object.__setattr__(self, "dims", tuple(dim for _, dim in subs))
        object.__setattr__(self, "total_dim", total)
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(ids)})

    def axis(self, system: SystemId) -> int:
        try:
            return self._index[system]
        except KeyError:
            raise SpaceMismatchError(f"unknown subsystem {system!r}") from None

    def axes(self, systems: Sequence[SystemId]) -> tuple[int, ...]:
        """The axes of ``systems``, in order; no id may appear twice."""
        axes = tuple(map(self.axis, systems))
        if len(set(axes)) < len(axes):
            raise SpaceMismatchError(f"subsystems {list(systems)} repeat an id")
        return axes

    def dim(self, system: SystemId) -> int:
        return self.dims[self.axis(system)]

    def subspace(self, keep: Sequence[SystemId]) -> "CompositeSpace":
        """Subspace of the listed subsystems, preserving this space's order."""
        keep_set = set(keep)
        missing = keep_set - set(self.ids)
        if missing:
            raise SpaceMismatchError(f"unknown subsystems {sorted(missing)}")
        return CompositeSpace(
            [(name, dim) for name, dim in self.subsystems if name in keep_set])


def qubits(*names: SystemId) -> CompositeSpace:
    """Composite space of two-level subsystems with the given ids."""
    return CompositeSpace([(name, 2) for name in names])


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state over a :class:`CompositeSpace`."""

    space: CompositeSpace
    amplitudes: np.ndarray = field(repr=False)

    def __init__(self, space: CompositeSpace, amplitudes: np.ndarray):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != space.total_dim:
            raise SpaceMismatchError(
                f"amplitude length {amps.shape[0]} != total dimension {space.total_dim}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise InvalidStateError(f"state norm {norm} deviates from 1 beyond tolerance")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "amplitudes", _readonly(amps))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on a labeled space."""

    space: CompositeSpace
    matrix: np.ndarray = field(repr=False)

    def __init__(self, space: CompositeSpace, matrix: np.ndarray):
        mat = np.asarray(matrix, dtype=complex)
        d = space.total_dim
        if mat.shape != (d, d):
            raise SpaceMismatchError(f"matrix shape {mat.shape} != ({d}, {d})")
        if not np.max(np.abs(mat - mat.conj().T)) <= HERMITIAN_ATOL:
            raise InvalidStateError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= TRACE_ATOL:
            raise InvalidStateError(f"density matrix trace {tr} deviates from 1")
        evals = np.linalg.eigvalsh(mat)
        if not evals.min() >= -PSD_ATOL:
            raise InvalidStateError(
                f"density matrix has negative eigenvalue {evals.min()}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "matrix", _readonly(mat))

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True, eq=False)
class ObservableSpec:
    """Named Hermitian observable with a cached spectral decomposition.

    Eigenvalues are distinct: no two lie within the merge tolerance, so each
    outcome value names one eigenspace. :meth:`from_matrix` stores them in
    descending order and collapses eigenvalues closer than that into a
    single eigenspace whose reported value is their mean.
    """

    name: str
    operator: np.ndarray = field(repr=False)
    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...] = field(repr=False)

    def __init__(self, name: str, operator: np.ndarray,
                 eigenvalues: Sequence[float], projectors: Sequence[np.ndarray]):
        op = np.asarray(operator, dtype=complex)
        projs = tuple(_readonly(p) for p in projectors)
        vals = tuple(float(v) for v in eigenvalues)
        d = op.shape[0]
        if op.shape != (d, d):
            raise SpaceMismatchError("observable operator must be square")
        if len(vals) != len(projs) or not vals:
            raise InvalidStateError("eigenvalues and projectors must pair up")
        if np.any(np.diff(np.sort(vals)) <= EIGENVALUE_MERGE):
            raise InvalidStateError(f"observable {name!r} repeats an eigenvalue")
        if not np.max(np.abs(op - op.conj().T)) <= HERMITIAN_ATOL:
            raise InvalidStateError(f"observable {name!r} is not Hermitian")
        total = sum(projs)
        if not np.max(np.abs(total - np.eye(d))) <= PROJECTOR_ATOL:
            raise InvalidStateError(f"projectors of {name!r} do not resolve the identity")
        for i, p in enumerate(projs):
            for q in projs[i + 1:]:
                if not np.max(np.abs(p @ q)) <= PROJECTOR_ATOL:
                    raise InvalidStateError(f"projectors of {name!r} are not orthogonal")
        recon = sum(v * p for v, p in zip(vals, projs))
        if not np.max(np.abs(recon - op)) <= RECONSTRUCTION_ATOL:
            raise InvalidStateError(
                f"projectors of {name!r} do not reconstruct the operator")
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "operator", _readonly(op))
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "projectors", projs)

    @classmethod
    def from_matrix(cls, name: str, matrix: np.ndarray) -> "ObservableSpec":
        """Build from a Hermitian matrix, merging near-degenerate eigenvalues."""
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise SpaceMismatchError("observable matrix must be square")
        if not np.max(np.abs(mat - mat.conj().T)) <= HERMITIAN_ATOL:
            raise InvalidStateError(f"observable {name!r} is not Hermitian")
        w, v = np.linalg.eigh(mat)
        order = np.argsort(w)[::-1]
        w = w[order]
        v = v[:, order]
        values: list[float] = []
        projectors: list[np.ndarray] = []
        start = 0
        for i in range(1, len(w) + 1):
            # chain rule: consecutive gaps below the merge tolerance share a space
            if i == len(w) or (w[i - 1] - w[i]) > EIGENVALUE_MERGE:
                block = v[:, start:i]
                projectors.append(block @ block.conj().T)
                values.append(float(np.mean(w[start:i])))
                start = i
        if len(values) < len(w):
            # eigenvalues were identified: the operator becomes the merged
            # spectral form so the spectral invariants stay exact
            mat = sum(val * p for val, p in zip(values, projectors))
        return cls(name, mat, values, projectors)

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    def outcome_index(self, value: float) -> int:
        for i, v in enumerate(self.eigenvalues):
            if abs(v - value) <= EIGENVALUE_MERGE:
                return i
        raise ImpossibleOutcomeError(
            f"{value} is not an eigenvalue of {self.name!r}")


# ---------------------------------------------------------------------------
# standard matrices
# ---------------------------------------------------------------------------

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


@lru_cache(maxsize=None)
def computational_observable(dim: int) -> ObservableSpec:
    """Basis-index observable ``diag(0 .. dim-1)`` on a ``dim``-level system.

    Eigenvalues are deliberately kept in register order (outcome ``i`` pairs
    with projector ``|i⟩⟨i|``) rather than sorted, so a pointer register read
    maps an outcome index straight back to the stored record slot.
    """
    projectors = []
    for i in range(dim):
        p = np.zeros((dim, dim), dtype=complex)
        p[i, i] = 1.0
        projectors.append(p)
    return ObservableSpec(f"basis({dim})", np.diag(np.arange(dim, dtype=float)),
                          list(range(dim)), projectors)


def is_unitary(matrix: np.ndarray) -> bool:
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    return bool(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))) <= UNITARY_ATOL)


def expm_hermitian(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """``exp(-i * hamiltonian * t)`` via the spectral decomposition."""
    h = np.asarray(hamiltonian, dtype=complex)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


# ---------------------------------------------------------------------------
# low-level tensor helpers (shared with the event layer)
# ---------------------------------------------------------------------------

def apply_matrix_on_axes(amps: np.ndarray, dims: Sequence[int],
                         matrix: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Apply ``matrix`` to the listed tensor axes of a flat amplitude vector."""
    return apply_planned(amps, matrix, _axes_plan(tuple(dims), tuple(axes)))


def apply_planned(amps: np.ndarray, matrix: np.ndarray, plan) -> np.ndarray:
    """Apply ``matrix`` through a ``plan`` from :func:`_axes_plan`: gather the
    amplitudes one row per basis state of the axes, multiply, scatter back."""
    gather, scatter = plan
    return (matrix @ amps[gather]).reshape(-1)[scatter]


@lru_cache(maxsize=1024)
def _axes_plan(dims: tuple[int, ...], axes: tuple[int, ...]):
    """The gather index of :func:`apply_planned` and of every read of a few
    axes, and its inverse permutation, computed once per layout."""
    perm = axes + tuple(i for i in range(len(dims)) if i not in axes)
    gather = np.arange(math.prod(dims)).reshape(dims).transpose(perm) \
        .reshape(math.prod(dims[a] for a in axes), -1)
    return gather, np.argsort(gather.reshape(-1))


def embed_matrix(matrix: np.ndarray, sub_axes: Sequence[int],
                 dims: Sequence[int]) -> np.ndarray:
    """Lift a matrix acting on ``sub_axes`` (in that order) to the full space."""
    n = len(dims)
    rest = [i for i in range(n) if i not in sub_axes]
    d_rest = math.prod(dims[i] for i in rest)
    big = np.kron(np.asarray(matrix, dtype=complex), np.eye(d_rest))
    perm = list(sub_axes) + rest
    inv = np.argsort(perm)
    shaped = big.reshape([dims[a] for a in perm] * 2)
    reorder = list(inv) + [n + i for i in inv]
    d = math.prod(dims)
    return shaped.transpose(reorder).reshape(d, d)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def tensor_product(a, b):
    """Tensor product of two states, density matrices or plain operators.

    Labeled operands must not share subsystem ids; the result lives on the
    concatenated space. Plain ``numpy`` arrays combine by ``kron``.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        space = _joined_space(a.space, b.space)
        return StateVector(space, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        space = _joined_space(a.space, b.space)
        return DensityMatrix(space, np.kron(a.matrix, b.matrix))
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.kron(a, b)
    raise TypeError(
        f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def _joined_space(a: CompositeSpace, b: CompositeSpace) -> CompositeSpace:
    overlap = set(a.ids) & set(b.ids)
    if overlap:
        raise SpaceMismatchError(f"subsystem ids {sorted(overlap)} appear on both operands")
    return CompositeSpace(a.subsystems + b.subsystems)


def apply_unitary(state: StateVector, u: np.ndarray,
                  targets: Sequence[SystemId]) -> StateVector:
    """Apply a unitary to the listed subsystems (matrix axes in target order)."""
    axes = state.space.axes(targets)
    d_t = math.prod(state.space.dims[a] for a in axes)
    u = np.asarray(u, dtype=complex)
    if u.shape != (d_t, d_t):
        raise SpaceMismatchError(
            f"unitary shape {u.shape} does not match target dimension {d_t}")
    if not is_unitary(u):
        raise InvalidStateError("operator is not unitary within tolerance")
    out = apply_matrix_on_axes(state.amplitudes, state.space.dims, u, axes)
    return StateVector(state.space, out)


def _reduced(state, axes: tuple[int, ...]) -> np.ndarray:
    """The matrix of ``state`` on ``axes``, in that order, the other axes
    traced out: the gather rows of :func:`_axes_plan` index the basis states
    of ``axes``, their columns those of the rest."""
    rows = _axes_plan(state.space.dims, axes)[0]
    if isinstance(state, StateVector):
        kept = state.amplitudes[rows]
        return kept @ kept.conj().T
    return state.matrix[rows[:, None], rows[None]].sum(axis=-1)


def partial_trace(rho, keep: Sequence[SystemId]) -> DensityMatrix:
    """Reduce a state or density matrix to the listed subsystems.

    Subsystem order of the result follows the original space, not ``keep``.
    """
    if not isinstance(rho, (StateVector, DensityMatrix)):
        raise TypeError(f"cannot trace {type(rho).__name__}")
    if not keep:
        raise SpaceMismatchError("keep list must be nonempty")
    axes = tuple(sorted(rho.space.axes(keep)))
    return DensityMatrix(rho.space.subspace(keep), _reduced(rho, axes))


def born_probabilities(state, obs: ObservableSpec,
                       targets: Sequence[SystemId]) -> dict[float, float]:
    """Outcome distribution of ``obs`` measured on the listed subsystems:
    ``tr(P ρ)`` for each projector ``P`` on the state reduced to them."""
    if not isinstance(state, (StateVector, DensityMatrix)):
        raise TypeError(f"cannot measure {type(state).__name__}")
    space = state.space
    axes = space.axes(targets)
    d_t = math.prod(space.dims[a] for a in axes)
    if obs.dim != d_t:
        raise SpaceMismatchError(
            f"observable {obs.name!r} has dimension {obs.dim}, targets span {d_t}")
    reduced = _reduced(state, axes)
    probs = {value: max(float(np.trace(proj @ reduced).real), 0.0)
             for value, proj in zip(obs.eigenvalues, obs.projectors)}
    total = sum(probs.values())
    if not abs(total - 1.0) <= 10 * NORM_ATOL:
        raise InvalidStateError(f"Born probabilities sum to {total}")
    return probs


def project(state: StateVector, obs: ObservableSpec, targets: Sequence[SystemId],
            outcome: float) -> tuple[StateVector, float]:
    """Condition a pure state on one outcome; returns (state, probability)."""
    idx = obs.outcome_index(outcome)
    axes = state.space.axes(targets)
    branch = apply_matrix_on_axes(state.amplitudes, state.space.dims,
                                  obs.projectors[idx], axes)
    p = float(np.vdot(branch, branch).real)
    if p <= ZERO_PROBABILITY:
        raise ImpossibleOutcomeError(
            f"outcome {outcome} of {obs.name!r} has probability {p}")
    return StateVector(state.space, branch / np.sqrt(p)), p


def observables_match(a: ObservableSpec, b: ObservableSpec) -> bool:
    """Same spectrum and same eigenspaces, compared projector-by-projector.

    Projector comparison (Frobenius distance after eigenvalue-ordered
    pairing) ignores eigenvector phases, which are gauge.
    """
    if a is b:
        return True
    if a.dim != b.dim or len(a.eigenvalues) != len(b.eigenvalues):
        return False
    for va, vb in zip(a.eigenvalues, b.eigenvalues):
        if not abs(va - vb) <= BASIS_MATCH_ATOL:
            return False
    for pa, pb in zip(a.projectors, b.projectors):
        if not np.linalg.norm(pa - pb) <= BASIS_MATCH_ATOL:
            return False
    return True


def commutes(a, b) -> bool:
    """True iff the max entry of ``|AB - BA|`` is below tolerance."""
    mat_a = a.operator if isinstance(a, ObservableSpec) else np.asarray(a, dtype=complex)
    mat_b = b.operator if isinstance(b, ObservableSpec) else np.asarray(b, dtype=complex)
    if mat_a.shape != mat_b.shape:
        raise SpaceMismatchError(
            f"dimension mismatch {mat_a.shape} vs {mat_b.shape}")
    return bool(np.max(np.abs(mat_a @ mat_b - mat_b @ mat_a)) < COMMUTE_ATOL)


def heisenberg_transform(v: ObservableSpec, u: np.ndarray,
                         inverse: bool = False) -> ObservableSpec:
    """Transport an observable through a unitary.

    With ``inverse=False`` returns ``U V U⁻¹``; with ``inverse=True`` returns
    ``U⁻¹ V U``. Eigenvalues are unchanged, eigenprojectors conjugated.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise InvalidStateError("transport operator is not unitary")
    if u.shape[0] != v.dim:
        raise SpaceMismatchError(
            f"unitary dimension {u.shape[0]} != observable dimension {v.dim}")
    w = u.conj().T if inverse else u
    projs = [w @ p @ w.conj().T for p in v.projectors]
    op = sum(val * p for val, p in zip(v.eigenvalues, projs))
    tag = "inv" if inverse else "fwd"
    return ObservableSpec(f"{v.name}~{tag}", op, v.eigenvalues, projs)
