"""Shared-state construction, steering ensembles, and basis solving."""

import copy

import numpy as np
import pytest

from pqclone.entangle import (
    AliceBasis,
    alice_measure,
    build_shared_state,
    induced_ensemble,
    induced_states,
    target_to_basis,
)
from pqclone.errors import ConfigError, RankError
from pqclone.qcore import Ket, SeededRng

from born import (
    HermitianOperator,
    average_density,
    basis_ket,
    haar_unitary,
    inner_product,
    partial_trace,
    random_ket,
    rank_with_tolerance,
    state_rows,
    trace_distance,
)
from oracles import three_sigma_binomial

KET0 = basis_ket(2, 0)
KET1 = basis_ket(2, 1)


def random_basis(n: int, rng: SeededRng) -> AliceBasis:
    return AliceBasis.from_unitary(haar_unitary(n, rng))


def orthonormal_span(states) -> np.ndarray:
    """Gram-Schmidt orthonormal basis of the span, as matrix columns."""
    vectors = []
    for s in states:
        v = s.amplitudes.astype(complex)
        for u in vectors:
            v = v - np.vdot(u, v) * u
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            vectors.append(v / norm)
    return np.column_stack(vectors)


class TestAliceBasis:
    def test_identity_is_read_off_the_matrix(self):
        # a basis is its unitary; only the exact identity is the computational
        # basis, however it was built
        assert AliceBasis.computational(3).is_identity
        assert AliceBasis.computational(3).dim == 3
        assert AliceBasis.from_unitary(np.eye(2)).is_identity
        assert not AliceBasis.fourier(2).is_identity
        assert not AliceBasis.from_unitary(np.eye(2)[::-1]).is_identity
        assert not AliceBasis.from_unitary(np.diag([1.0, -1.0])).is_identity

    def test_fourier_is_orthonormal(self):
        mat = AliceBasis.fourier(4).matrix
        np.testing.assert_allclose(mat.conj().T @ mat, np.eye(4), atol=1e-12)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ConfigError, match="basis is not orthonormal within tolerance"):
            AliceBasis(state_rows((KET0, Ket.normalized([1, 1]))).T)

    def test_nan_matrix_rejected(self):
        # max|X*X - I| > tol is False for NaN, so a NaN basis used to pass
        with pytest.raises(ConfigError, match="basis is not orthonormal within tolerance"):
            AliceBasis(np.full((2, 2), np.nan))

    def test_non_numeric_matrix_rejected(self):
        with pytest.raises(ConfigError, match="a basis is a matrix of complex numbers"):
            AliceBasis("x")


class TestBuildSharedState:
    def test_bell_state(self):
        shared = build_shared_state(state_rows([KET0, KET1]))
        np.testing.assert_allclose(
            shared.joint.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12
        )

    def test_duplicate_states_give_product(self):
        shared = build_shared_state(state_rows([KET0, KET0]))
        plus = Ket.normalized([1, 1])
        np.testing.assert_allclose(
            shared.joint.amplitudes,
            np.kron(plus.amplitudes, KET0.amplitudes),
            atol=1e-12,
        )
        assert np.linalg.norm(shared.joint.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_reconstruction_from_definition(self):
        rng = SeededRng(200)
        states = [random_ket(3, rng) for _ in range(3)]
        shared = build_shared_state(state_rows(states))
        rebuilt = np.zeros(9, dtype=complex)
        for n, s in enumerate(states):
            label = np.zeros(3, dtype=complex)
            label[n] = 1.0
            rebuilt += np.kron(label, s.amplitudes)
        rebuilt /= np.sqrt(3)
        assert np.linalg.norm(shared.joint.amplitudes - rebuilt) <= 1e-12

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ConfigError, match="Bob states must have dimension 2, got 3"):
            build_shared_state([KET0.amplitudes, basis_ket(3, 0).amplitudes])


class TestInducedEnsemble:
    def test_basis_of_another_dimension_rejected(self):
        bob = state_rows([KET0, KET1])
        with pytest.raises(ConfigError, match="^basis dimension 3 does not match 2$"):
            induced_states(bob, (AliceBasis.computational(2), AliceBasis.fourier(3)))

    def test_a1_reproduces_bob_states_exactly(self):
        rng = SeededRng(201)
        states = [random_ket(3, rng) for _ in range(3)]
        shared = build_shared_state(state_rows(states))
        ens = induced_ensemble(shared, AliceBasis.computational(3))
        for n, (state, prob) in enumerate(ens.members):
            np.testing.assert_array_equal(state.amplitudes, states[n].amplitudes)
            assert prob == 1.0 / 3

    def test_an_identity_a2_steers_by_the_exact_rule(self):
        # an alternate basis that is the identity steers Bob into his own
        # states, bit for bit, like A1; the general rule's norms are off in
        # the last bit for most of these sets
        identity = AliceBasis.from_unitary(np.eye(3))
        for seed in range(200, 210):
            rng = SeededRng(seed)
            bob = state_rows([random_ket(3, rng) for _ in range(3)])
            kets, probs = induced_states(bob, (identity,))
            np.testing.assert_array_equal(kets[0], bob)
            np.testing.assert_array_equal(probs[0], np.full(3, 1.0 / 3))

    def test_fourier_on_bell_gives_plus_minus(self):
        shared = build_shared_state(state_rows([KET0, KET1]))
        ens = induced_ensemble(shared, AliceBasis.fourier(2))
        (s0, p0), (s1, p1) = ens.members
        assert p0 == pytest.approx(0.5, abs=1e-12)
        assert p1 == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(s0.amplitudes, np.array([1, 1]) / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(s1.amplitudes, np.array([1, -1]) / np.sqrt(2), atol=1e-12)

    def test_members_lie_in_span(self):
        rng = SeededRng(202)
        # two independent states plus one combination: rank 2 span in dim 3
        states = [random_ket(3, rng) for _ in range(3)]
        shared = build_shared_state(state_rows(states))
        ens = induced_ensemble(shared, random_basis(3, rng))
        span = orthonormal_span(states)
        for state, prob in ens.members:
            v = state.amplitudes
            residual = np.linalg.norm(v - span @ (span.conj().T @ v))
            assert residual <= 1e-10

    def test_marginal_matches_partial_trace(self):
        # the no-signalling identity at the density-matrix level
        rng = SeededRng(203)
        for n in (2, 3):
            states = [random_ket(n, rng) for _ in range(n)]
            shared = build_shared_state(state_rows(states))
            reduced = partial_trace(
                HermitianOperator.projector(shared.joint), (n, n), "B"
            )
            for basis in (
                AliceBasis.computational(n),
                AliceBasis.fourier(n),
                random_basis(n, rng),
            ):
                avg = average_density(induced_ensemble(shared, basis))
                assert trace_distance(avg, reduced) <= 1e-12


def measured_outcomes(shared, basis, rng, trials: int) -> np.ndarray:
    """``trials`` of ``alice_measure``'s outcomes from one uniforms draw.

    Each ``alice_measure`` call draws one uniform and picks its outcome by
    ``searchsorted`` over the cumulative Born probabilities. The edges are
    built here once, with the same arithmetic, and the first 1 000
    outcomes are checked against ``alice_measure`` on a copy of the stream.
    """
    replay = copy.deepcopy(rng)
    n = len(shared.bob_states)
    conditionals = basis.matrix.conj().T @ shared.joint.amplitudes.reshape(n, n)
    probs = np.sum(np.abs(conditionals) ** 2, axis=1)
    probs /= probs.sum()
    edges = np.cumsum(probs)
    edges[-1] = max(edges[-1], 1.0)
    outcomes = np.searchsorted(edges, rng.uniforms(trials), side="right")
    direct = [alice_measure(shared, basis, replay)[0] for _ in range(1_000)]
    assert outcomes[:1_000].tolist() == direct
    return outcomes


class TestAliceMeasure:
    def test_a1_frequencies_on_bell(self):
        shared = build_shared_state(state_rows([KET0, KET1]))
        rng = SeededRng(204)
        trials = 100_000
        outcomes = measured_outcomes(shared, AliceBasis.computational(2), rng, trials)
        zeros = int(np.count_nonzero(outcomes == 0))
        assert abs(zeros / trials - 0.5) < three_sigma_binomial(0.5, trials)

    def test_a1_outcome_prepares_matching_state(self):
        rng = SeededRng(205)
        states = [random_ket(3, rng) for _ in range(3)]
        shared = build_shared_state(state_rows(states))
        basis = AliceBasis.computational(3)
        for _ in range(100):
            outcome, post = alice_measure(shared, basis, rng)
            assert abs(abs(inner_product(post, states[outcome])) - 1.0) < 1e-10

    def test_a2_frequencies_match_induced_probabilities(self):
        rng = SeededRng(206)
        states = [random_ket(3, rng) for _ in range(3)]
        shared = build_shared_state(state_rows(states))
        basis = random_basis(3, rng)
        expected = [p for _, p in induced_ensemble(shared, basis).members]
        trials = 100_000
        counts = np.bincount(measured_outcomes(shared, basis, rng, trials), minlength=3)
        for m in range(3):
            assert abs(counts[m] / trials - expected[m]) < three_sigma_binomial(
                expected[m], trials
            )


class TestTargetToBasis:
    def test_target_equal_to_first_state(self):
        rng = SeededRng(207)
        states = [random_ket(3, rng) for _ in range(3)]
        # force independence for the solve
        while rank_with_tolerance(states) != 3:
            states = [random_ket(3, rng) for _ in range(3)]
        basis = target_to_basis(states[0].amplitudes, state_rows(states))
        first = basis.matrix[:, 0]
        assert abs(abs(first[0]) - 1.0) < 1e-9
        np.testing.assert_allclose(np.abs(first[1:]), 0.0, atol=1e-9)

    def test_plus_target_on_computational_pair(self):
        plus = Ket.normalized([1, 1]).amplitudes
        basis = target_to_basis(plus, state_rows([KET0, KET1]))
        overlap = abs(np.vdot(basis.matrix[:, 0], np.array([1, 1]) / np.sqrt(2)))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_fidelity(self):
        rng = SeededRng(208)
        for _ in range(10):
            states = [random_ket(3, rng) for _ in range(3)]
            if rank_with_tolerance(states) != 3:
                continue
            target = random_ket(3, rng)
            basis = target_to_basis(target.amplitudes, state_rows(states))
            shared = build_shared_state(state_rows(states))
            induced = induced_ensemble(shared, basis).members[0][0]
            assert abs(inner_product(induced, target)) >= 1.0 - 1e-9

    def test_dependent_states_rejected(self):
        with pytest.raises(RankError):
            target_to_basis(KET0.amplitudes, state_rows([KET0, KET0]))

    def test_states_of_another_dimension_rejected(self):
        # two states of dimension 3 passed the rank rule, then the solve
        # raised a raw LinAlgError; Bob's N states must have dimension N
        with pytest.raises(ConfigError, match="Bob states must have dimension 2, got 3"):
            target_to_basis(np.array([1, 0]), [[1, 0, 0], [0, 1, 0]])
        # and the target has N amplitudes, one per Bob state
        with pytest.raises(ConfigError, match="^target dimension 3 does not match 2$"):
            target_to_basis(np.array([1, 0, 0]), state_rows([KET0, KET1]))

    def test_second_set_is_linearly_dependent_on_first(self):
        # every alternate-basis preparation stays inside the original span
        rng = SeededRng(209)
        states = [random_ket(4, rng) for _ in range(4)]
        shared = build_shared_state(state_rows(states))
        span = orthonormal_span(states)
        ens = induced_ensemble(shared, AliceBasis.fourier(4))
        for state, _ in ens.members:
            v = state.amplitudes
            assert np.linalg.norm(v - span @ (span.conj().T @ v)) <= 1e-10
