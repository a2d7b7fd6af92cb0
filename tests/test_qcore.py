import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqmsim.config import NORM_ATOL
from rqmsim.errors import (
    ImpossibleOutcomeError,
    InvalidStateError,
    SpaceMismatchError,
)
from rqmsim.qcore import (
    CNOT,
    CompositeSpace,
    DensityMatrix,
    HADAMARD,
    ObservableSpec,
    PAULI_X,
    PAULI_Z,
    StateVector,
    apply_matrix_on_axes,
    apply_unitary,
    born_probabilities,
    commutes,
    computational_observable,
    embed_matrix,
    heisenberg_transform,
    identity,
    observables_match,
    partial_trace,
    project,
    qubits,
    tensor_product,
)

Z_OBS = ObservableSpec.from_matrix("pauli-z", PAULI_Z)
X_OBS = ObservableSpec.from_matrix("pauli-x", PAULI_X)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def single(name="S"):
    return CompositeSpace([(name, 2)])


def state(space, amps):
    return StateVector(space, np.asarray(amps, dtype=complex))


# ---------------------------------------------------------------------------
# composite space
# ---------------------------------------------------------------------------

def test_space_rejects_duplicate_ids():
    with pytest.raises(SpaceMismatchError):
        CompositeSpace([("S", 2), ("S", 2)])


def test_space_rejects_small_dimensions():
    with pytest.raises(SpaceMismatchError):
        CompositeSpace([("S", 1)])


def test_space_enforces_dimension_cap():
    with pytest.raises(SpaceMismatchError):
        CompositeSpace([(f"q{i}", 2) for i in range(13)])  # 8192 > 4096
    CompositeSpace([(f"q{i}", 2) for i in range(12)])  # exactly the cap


def test_state_vector_requires_normalization():
    with pytest.raises(InvalidStateError):
        state(single(), [1.0, 1.0])


def test_density_matrix_invariants():
    sp = single()
    with pytest.raises(InvalidStateError):
        DensityMatrix(sp, np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(InvalidStateError):
        DensityMatrix(sp, np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(InvalidStateError):
        DensityMatrix(sp, np.diag([1.5, -0.5]))  # negative eigenvalue


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: StateVector(qubits("S"), [NAN, 0.0]),
    lambda: DensityMatrix(single(), np.array([[1.0, 0.0], [0.0, NAN]])),
    lambda: ObservableSpec.from_matrix("nan", np.array([[1.0, 0.0], [0.0, NAN]])),
], ids=["state-vector", "density-matrix", "observable"])
def test_nan_entries_are_rejected(build):
    # every guard is written ``not err <= atol``, which is True for NaN
    with pytest.raises(InvalidStateError):
        build()


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def test_tensor_basis_states():
    a = state(single("A"), KET0)
    b = state(single("B"), KET1)
    joint = tensor_product(a, b)
    assert joint.space.total_dim == 4
    expected = np.zeros(4)
    expected[1] = 1.0
    assert np.allclose(joint.amplitudes, expected)


def test_tensor_identity_operators():
    assert np.allclose(tensor_product(identity(2), identity(2)), identity(4))


def test_tensor_is_linear():
    a = state(single("A"), PLUS)
    b = state(single("B"), KET0)
    joint = tensor_product(a, b)
    expected = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert np.allclose(joint.amplitudes, expected)


def test_tensor_rejects_shared_ids():
    a = state(single("S"), KET0)
    b = state(single("S"), KET1)
    with pytest.raises(SpaceMismatchError):
        tensor_product(a, b)


def test_tensor_density_matrices():
    a = state(single("A"), KET0).density_matrix()
    b = state(single("B"), PLUS).density_matrix()
    joint = tensor_product(a, b)
    assert np.allclose(joint.matrix, np.kron(a.matrix, b.matrix))


# ---------------------------------------------------------------------------
# unitaries
# ---------------------------------------------------------------------------

def test_hadamard_on_ground_state():
    out = apply_unitary(state(single(), KET0), HADAMARD, ["S"])
    assert np.allclose(out.amplitudes, PLUS)


def test_cnot_builds_bell_state():
    sp = qubits("A", "B")
    plus0 = state(sp, np.kron(PLUS, KET0))
    out = apply_unitary(plus0, CNOT, ["A", "B"])
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(out.amplitudes, bell)


def test_unitary_roundtrip_returns_original():
    rng = np.random.default_rng(5)
    draw = rng.normal(size=4) + 1j * rng.normal(size=4)
    sp = qubits("A", "B")
    psi = state(sp, draw / np.linalg.norm(draw))
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    there = apply_unitary(psi, u, ["B"])
    back = apply_unitary(there, u.conj().T, ["B"])
    assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-10


def test_unitary_preserves_norm_and_spectators():
    rng = np.random.default_rng(11)
    sp = qubits("A", "B", "C")
    draw = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = state(sp, draw / np.linalg.norm(draw))
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    out = apply_unitary(psi, u, ["B"])
    assert abs(out.norm() - 1.0) < 1e-10
    for spectator in ("A", "C"):
        before = partial_trace(psi, [spectator]).matrix
        after = partial_trace(out, [spectator]).matrix
        assert np.max(np.abs(before - after)) < 1e-10


def test_an_id_list_may_not_repeat_an_id():
    sp = qubits("A", "B")
    psi = state(sp, np.kron(PLUS, KET0))
    pair = computational_observable(4)
    with pytest.raises(SpaceMismatchError, match="repeat an id"):
        sp.axes(["A", "B", "A"])
    assert sp.axes(["B", "A"]) == (1, 0)
    with pytest.raises(SpaceMismatchError):
        apply_unitary(psi, CNOT, ["A", "A"])
    with pytest.raises(SpaceMismatchError):
        partial_trace(psi, ["B", "B"])
    with pytest.raises(SpaceMismatchError):
        partial_trace(psi.density_matrix(), ["B", "B"])
    with pytest.raises(SpaceMismatchError):
        born_probabilities(psi, pair, ["A", "A"])
    with pytest.raises(SpaceMismatchError):
        project(psi, pair, ["A", "A"], 0.0)


def test_unitary_rejects_bad_input():
    psi = state(single(), KET0)
    with pytest.raises(InvalidStateError):
        apply_unitary(psi, np.array([[1.0, 1.0], [0.0, 1.0]]), ["S"])
    with pytest.raises(SpaceMismatchError):
        apply_unitary(psi, HADAMARD, ["Q"])


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_bell_state_is_maximally_mixed():
    sp = qubits("A", "B")
    bell = state(sp, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
    rho = partial_trace(bell, ["A"])
    assert np.allclose(rho.matrix, identity(2) / 2.0)


def test_partial_trace_product_state():
    sp = qubits("A", "B")
    psi = state(sp, np.kron(KET0, PLUS))
    rho = partial_trace(psi, ["B"])
    assert np.allclose(rho.matrix, np.outer(PLUS, PLUS.conj()))


def test_partial_trace_ghz_pair_oracle():
    # oracle: direct index-summation over the traced qubit
    sp = qubits("A", "B", "C")
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
    full = np.outer(ghz, ghz.conj())
    expected = np.zeros((4, 4), dtype=complex)
    for k in range(2):
        for a in range(4):
            for b in range(4):
                expected[a, b] += full[k * 4 + a, k * 4 + b]
    rho = partial_trace(state(sp, ghz), ["B", "C"])
    assert np.max(np.abs(rho.matrix - expected)) < 1e-12
    mixture = np.zeros((4, 4))
    mixture[0, 0] = mixture[3, 3] = 0.5
    assert np.allclose(rho.matrix, mixture)


def test_partial_trace_of_a_density_matrix_matches_its_state():
    sp = qubits("A", "B", "C")
    psi = state(sp, np.kron(np.kron(PLUS, KET0), np.array([0.6, 0.8j])))
    for keep in (["A"], ["C", "B"]):
        assert np.allclose(partial_trace(psi.density_matrix(), keep).matrix,
                           partial_trace(psi, keep).matrix)


def test_a_plain_array_is_refused_with_a_type_error():
    # the type is tested before the argument's space is read
    with pytest.raises(TypeError, match="cannot trace ndarray"):
        partial_trace(np.eye(2) / 2, ["S"])
    with pytest.raises(TypeError, match="cannot measure ndarray"):
        born_probabilities(np.eye(2) / 2, Z_OBS, ["S"])


def test_partial_trace_of_everything_is_identity_operation():
    rng = np.random.default_rng(3)
    sp = qubits("A", "B")
    draw = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = state(sp, draw / np.linalg.norm(draw))
    rho = partial_trace(psi, ["A", "B"])
    assert np.max(np.abs(rho.matrix - psi.density_matrix().matrix)) < 1e-12


def test_partial_trace_requires_targets():
    psi = state(single(), KET0)
    with pytest.raises(SpaceMismatchError):
        partial_trace(psi, [])
    with pytest.raises(SpaceMismatchError):
        partial_trace(psi, ["Q"])


# ---------------------------------------------------------------------------
# Born probabilities and projection
# ---------------------------------------------------------------------------

def test_born_plus_state_is_unbiased():
    probs = born_probabilities(state(single(), PLUS), Z_OBS, ["S"])
    assert abs(probs[1.0] - 0.5) < 1e-12
    assert abs(probs[-1.0] - 0.5) < 1e-12


def test_born_eigenstate_is_certain():
    probs = born_probabilities(state(single(), KET0), Z_OBS, ["S"])
    assert abs(probs[1.0] - 1.0) < 1e-12
    assert abs(probs[-1.0]) < 1e-12


def test_born_amplitudes_squared_by_hand():
    # |psi> = sqrt(1/3)|0> + sqrt(2/3)|1>
    psi = state(single(), [np.sqrt(1.0 / 3.0), np.sqrt(2.0 / 3.0)])
    probs = born_probabilities(psi, Z_OBS, ["S"])
    assert abs(probs[1.0] - 1.0 / 3.0) < 1e-12
    assert abs(probs[-1.0] - 2.0 / 3.0) < 1e-12


def test_born_on_density_matrix_matches_pure_state():
    rng = np.random.default_rng(17)
    draw = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi = state(single(), draw / np.linalg.norm(draw))
    pure = born_probabilities(psi, X_OBS, ["S"])
    mixed = born_probabilities(psi.density_matrix(), X_OBS, ["S"])
    for value in pure:
        assert abs(pure[value] - mixed[value]) < 1e-12


def test_born_dimension_mismatch():
    with pytest.raises(SpaceMismatchError):
        born_probabilities(state(qubits("A", "B"), [1, 0, 0, 0]), Z_OBS,
                           ["A", "B"])


def test_born_sums_to_one_for_many_random_cases():
    rng = np.random.default_rng(2024)
    sp = qubits("A", "B")
    for _ in range(1000):
        draw = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = state(sp, draw / np.linalg.norm(draw))
        herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        obs = ObservableSpec.from_matrix("rand", herm + herm.conj().T)
        total = sum(born_probabilities(psi, obs, ["A", "B"]).values())
        assert abs(total - 1.0) <= 1e-10


def test_project_bell_correlation():
    sp = qubits("A", "B")
    bell = state(sp, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
    conditioned, p = project(bell, Z_OBS, ["A"], 1.0)
    assert abs(p - 0.5) < 1e-12
    expected = np.zeros(4)
    expected[0] = 1.0
    assert np.allclose(conditioned.amplitudes, expected)


def test_project_eigenstate_is_identity():
    conditioned, p = project(state(single(), KET0), Z_OBS, ["S"], 1.0)
    assert abs(p - 1.0) < 1e-12
    assert np.allclose(conditioned.amplitudes, KET0)


def test_project_impossible_outcome_raises():
    with pytest.raises(ImpossibleOutcomeError):
        project(state(single(), KET0), Z_OBS, ["S"], -1.0)


def test_projection_chain_reconstructs_born_exactly():
    rng = np.random.default_rng(8)
    sp = qubits("A", "B")
    for _ in range(50):
        draw = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = state(sp, draw / np.linalg.norm(draw))
        probs = born_probabilities(psi, Z_OBS, ["B"])
        for value, p in probs.items():
            if p < 1e-12:
                continue
            _, p_again = project(psi, Z_OBS, ["B"], value)
            assert abs(p - p_again) < 1e-12


# ---------------------------------------------------------------------------
# commutation and transport
# ---------------------------------------------------------------------------

def test_commutes_reflexive_and_pauli_algebra():
    assert commutes(Z_OBS, Z_OBS)
    assert not commutes(Z_OBS, X_OBS)


def test_commutes_on_disjoint_supports():
    zi = np.kron(PAULI_Z, identity(2))
    ix = np.kron(identity(2), PAULI_X)
    assert commutes(zi, ix)


def test_commutes_dimension_mismatch():
    with pytest.raises(SpaceMismatchError):
        commutes(PAULI_Z, identity(4))


def test_heisenberg_hadamard_maps_z_to_x():
    moved = heisenberg_transform(Z_OBS, HADAMARD)
    assert np.max(np.abs(moved.operator - PAULI_X)) < 1e-12
    assert moved.eigenvalues == Z_OBS.eigenvalues


def test_heisenberg_identity_is_noop():
    moved = heisenberg_transform(Z_OBS, identity(2))
    assert np.max(np.abs(moved.operator - PAULI_Z)) < 1e-12


def test_heisenberg_roundtrip():
    theta = np.pi / 2.0
    rx = np.cos(theta / 2) * identity(2) - 1j * np.sin(theta / 2) * PAULI_X
    once = heisenberg_transform(Z_OBS, rx)
    back = heisenberg_transform(once, rx, inverse=True)
    assert np.max(np.abs(back.operator - PAULI_Z)) < 1e-10


def test_heisenberg_opposite_flags_cancel():
    rng = np.random.default_rng(23)
    for _ in range(20):
        herm = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        obs = ObservableSpec.from_matrix("rand", herm + herm.conj().T)
        u, _ = np.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))
        back = heisenberg_transform(heisenberg_transform(obs, u), u,
                                    inverse=True)
        assert np.max(np.abs(back.operator - obs.operator)) < 1e-9


def test_heisenberg_rejects_nonunitary():
    with pytest.raises(InvalidStateError):
        heisenberg_transform(Z_OBS, np.array([[1.0, 1.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# observable construction
# ---------------------------------------------------------------------------

def test_observable_spectral_invariants():
    rng = np.random.default_rng(31)
    herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    obs = ObservableSpec.from_matrix("rand", herm + herm.conj().T)
    total = sum(obs.projectors)
    assert np.max(np.abs(total - identity(4))) < 1e-10
    for i, p in enumerate(obs.projectors):
        for q in obs.projectors[i + 1:]:
            assert np.max(np.abs(p @ q)) < 1e-10
    recon = sum(v * p for v, p in zip(obs.eigenvalues, obs.projectors))
    assert np.max(np.abs(recon - obs.operator)) < 1e-9


def test_observable_eigenvalues_sorted_descending():
    obs = ObservableSpec.from_matrix("z", PAULI_Z)
    assert obs.eigenvalues == (1.0, -1.0)


def test_observable_merges_near_degenerate_eigenvalues():
    obs = ObservableSpec.from_matrix("near", np.diag([1.0, 1.0 + 5e-9, -1.0]))
    assert len(obs.eigenvalues) == 2
    assert abs(obs.eigenvalues[0] - (1.0 + 2.5e-9)) < 1e-12
    assert abs(np.trace(obs.projectors[0]).real - 2.0) < 1e-10


def test_observable_rejects_repeated_eigenvalues():
    # once it constructed: its Born probabilities, keyed by value, lost an
    # eigenspace and summed to 1/2
    projectors = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    for values in ([1.0, 1.0], [1.0, 1.0 + 5e-9]):
        with pytest.raises(InvalidStateError, match="'dup' repeats"):
            ObservableSpec("dup", identity(2), values, projectors)


def test_observable_rejects_non_hermitian():
    with pytest.raises(InvalidStateError):
        ObservableSpec.from_matrix("bad", np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_computational_observable_keeps_register_order():
    obs = computational_observable(3)
    assert obs.eigenvalues == (0.0, 1.0, 2.0)
    for i, proj in enumerate(obs.projectors):
        assert abs(proj[i, i] - 1.0) < 1e-12


def test_observables_match_ignores_phase():
    phase = np.diag([np.exp(1j * 0.7), np.exp(-1j * 0.3)])
    rotated = phase @ PAULI_Z @ phase.conj().T  # Z is diagonal: unchanged
    assert observables_match(Z_OBS, ObservableSpec.from_matrix("z2", rotated))
    assert not observables_match(Z_OBS, X_OBS)


# ---------------------------------------------------------------------------
# axis kernels against the embedded reference
# ---------------------------------------------------------------------------

def _random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _embedded(state, matrix, targets):
    """``matrix`` on ``targets`` lifted to the full space, then ``⟨ψ|O|ψ⟩``
    or ``tr(O ρ)``."""
    full = embed_matrix(matrix, state.space.axes(targets), state.space.dims)
    if isinstance(state, StateVector):
        return complex(np.vdot(state.amplitudes, full @ state.amplitudes))
    return complex(np.trace(full @ state.matrix))


def _embedded_born(state, obs, targets):
    """Born probabilities with every projector lifted to the full space."""
    return {value: max(_embedded(state, proj, targets).real, 0.0)
            for value, proj in zip(obs.eigenvalues, obs.projectors)}


def _random_layouts(seed, count):
    """``count`` seeded layouts of one to five subsystems of dimension 2 or
    3: a pure state, a mixed state and a nonempty target list in a random
    order."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dims = rng.integers(2, 4, size=rng.integers(1, 6))
        space = CompositeSpace((f"q{i}", int(d)) for i, d in enumerate(dims))
        d = space.total_dim
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        draw = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
        mixed = draw @ draw.conj().T
        targets = tuple(rng.permutation(space.ids)[:rng.integers(1, len(dims) + 1)])
        yield (rng, StateVector(space, amps / np.linalg.norm(amps)),
               DensityMatrix(space, mixed / np.trace(mixed)), targets)


def test_born_on_a_density_matrix_matches_the_embedded_reference():
    rng = np.random.default_rng(6)
    draw = _random_matrix(rng, 4)
    rho = DensityMatrix(qubits("A", "B"), draw @ draw.conj().T
                        / np.trace(draw @ draw.conj().T))
    herm = _random_matrix(rng, 4)
    obs = ObservableSpec.from_matrix("rand", herm + herm.conj().T)
    # the whole space in order: the direct trace is the reference bit for bit
    assert born_probabilities(rho, obs, ("A", "B")) == \
        _embedded_born(rho, obs, ("A", "B"))
    for targets, o in ((("B", "A"), obs), (("B",), X_OBS)):
        got, ref = born_probabilities(rho, o, targets), \
            _embedded_born(rho, o, targets)
        assert got.keys() == ref.keys()
        assert all(abs(got[v] - ref[v]) <= 1e-12 for v in ref)
    # the reversed order really is another measurement
    swapped = _embedded_born(rho, obs, ("B", "A"))
    assert max(abs(swapped[v] - p) for v, p in
               _embedded_born(rho, obs, ("A", "B")).items()) > 1e-6
    # pure and mixed states on random layouts, targets in any order; three
    # eigenspaces at most keep a 243-dimensional observable cheap to build
    for rng, psi, mixed, targets in _random_layouts(16, 40):
        d_t = math.prod(psi.space.dim(t) for t in targets)
        basis, _ = np.linalg.qr(_random_matrix(rng, d_t))
        values = rng.integers(0, 3, size=d_t).astype(float)
        o = ObservableSpec.from_matrix(
            "rand", (basis * values) @ basis.conj().T)
        for state in (psi, mixed):
            got, ref = born_probabilities(state, o, targets), \
                _embedded_born(state, o, targets)
            assert got.keys() == ref.keys()
            assert all(abs(got[v] - ref[v]) <= 1e-12 for v in ref)


def test_partial_trace_matches_the_embedded_reference_on_random_layouts():
    # tr(O ρ_keep) for a random O fixes every entry of ρ_keep
    for rng, psi, mixed, targets in _random_layouts(16, 40):
        keep = tuple(t for t in psi.space.ids if t in targets)  # space order
        o = _random_matrix(rng, math.prod(psi.space.dim(t) for t in keep))
        for state in (psi, mixed):
            reduced = partial_trace(state, targets)
            assert reduced.space.ids == keep
            assert abs(np.trace(o @ reduced.matrix)
                       - _embedded(state, o, keep)) <= 1e-12


def _assert_axes_kernel_matches_embedding(dims, axes, rng):
    amps = rng.normal(size=int(np.prod(dims))) + 0j
    amps /= np.linalg.norm(amps)
    m = _random_matrix(rng, int(np.prod([dims[a] for a in axes])))
    ref = embed_matrix(m, axes, dims) @ amps
    assert np.max(np.abs(apply_matrix_on_axes(amps, dims, m, axes) - ref)) \
        <= 1e-12


def test_axes_kernel_matches_embedding_for_every_axes_order():
    rng = np.random.default_rng(7)
    dims = (2, 3, 2)
    for k in (1, 2, 3):
        for axes in itertools.permutations(range(3), k):
            _assert_axes_kernel_matches_embedding(dims, axes, rng)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_axes_kernel_matches_embedding_on_random_layouts(data):
    dims = tuple(data.draw(st.lists(st.integers(2, 3), min_size=1,
                                    max_size=4)))
    order = data.draw(st.permutations(range(len(dims))))
    axes = tuple(order[:data.draw(st.integers(1, len(dims)))])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    _assert_axes_kernel_matches_embedding(dims, axes, rng)


def _born_total_is_one(state, obs, targets):
    probs = born_probabilities(state, obs, targets)
    assert min(probs.values()) >= 0.0
    assert abs(sum(probs.values()) - 1.0) <= 10 * NORM_ATOL


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_born_probabilities_are_a_distribution_on_random_states(data):
    dims = data.draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    space = CompositeSpace((f"q{i}", d) for i, d in enumerate(dims))
    order = data.draw(st.permutations(space.ids))
    subset = tuple(order[:data.draw(st.integers(1, len(dims)))])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pure = rng.normal(size=space.total_dim) \
        + 1j * rng.normal(size=space.total_dim)
    draw = _random_matrix(rng, space.total_dim)
    mixed = draw @ draw.conj().T
    rho = DensityMatrix(space, mixed / np.trace(mixed))

    def observable(targets):
        herm = _random_matrix(rng, math.prod(space.dim(t) for t in targets))
        return ObservableSpec.from_matrix("rand", herm + herm.conj().T)

    _born_total_is_one(StateVector(space, pure / np.linalg.norm(pure)),
                       observable(subset), subset)
    # the whole space in order takes tr(P rho); any other targets embed P
    _born_total_is_one(rho, observable(space.ids), space.ids)
    _born_total_is_one(rho, observable(subset), subset)


# ---------------------------------------------------------------------------
# refusals of the public API
# ---------------------------------------------------------------------------

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)

# each call that a public constructor or function refuses: the exception
# class and a fragment of its message
REFUSALS = {
    "space-without-subsystems": (lambda: CompositeSpace(()),
                                 SpaceMismatchError, "at least one subsystem"),
    "subspace-of-an-unknown-id": (lambda: qubits("A").subspace(["Z"]),
                                  SpaceMismatchError, "unknown subsystems"),
    "state-of-the-wrong-length": (lambda: state(single(), [1.0, 0.0, 0.0]),
                                  SpaceMismatchError, "amplitude length 3"),
    "density-matrix-of-the-wrong-shape": (
        lambda: DensityMatrix(single(), np.eye(3) / 3),
        SpaceMismatchError, "matrix shape (3, 3)"),
    "observable-not-square": (
        lambda: ObservableSpec("q", np.zeros((2, 3)), [1.0], [np.eye(2)]),
        SpaceMismatchError, "must be square"),
    "eigenvalues-and-projectors-unpaired": (
        lambda: ObservableSpec("q", PAULI_Z, [1.0, -1.0], [P0]),
        InvalidStateError, "must pair up"),
    "observable-not-hermitian": (
        lambda: ObservableSpec("q", [[0, 1], [0, 0]], [1.0, -1.0], [P0, P1]),
        InvalidStateError, "'q' is not Hermitian"),
    "projectors-not-resolving-the-identity": (
        lambda: ObservableSpec("q", PAULI_Z, [1.0, -1.0], [P0, P0]),
        InvalidStateError, "do not resolve the identity"),
    "projectors-not-orthogonal": (
        lambda: ObservableSpec("q", PAULI_Z, [1.0, -1.0],
                               [np.eye(2) / 2, np.eye(2) / 2]),
        InvalidStateError, "are not orthogonal"),
    "matrix-not-square": (
        lambda: ObservableSpec.from_matrix("q", np.zeros((2, 3))),
        SpaceMismatchError, "must be square"),
    "value-not-an-eigenvalue": (lambda: Z_OBS.outcome_index(0.5),
                                ImpossibleOutcomeError, "not an eigenvalue"),
    "tensor-of-a-state-and-an-array": (
        lambda: tensor_product(state(single(), KET0), KET0),
        TypeError, "cannot tensor StateVector with ndarray"),
    "unitary-of-the-wrong-shape": (
        lambda: apply_unitary(state(single(), KET0), CNOT, ["S"]),
        SpaceMismatchError, "unitary shape (4, 4)"),
    "transport-of-the-wrong-dimension": (
        lambda: heisenberg_transform(Z_OBS, CNOT),
        SpaceMismatchError, "unitary dimension 4 != observable dimension 2"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_the_public_api_refuses_with_its_class_and_message(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error) as caught:
        call()
    assert fragment in str(caught.value)
