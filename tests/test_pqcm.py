"""Feasibility analysis, machine construction, illegal cloner."""

import copy
import dataclasses
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pqclone import pqcm, qcore
from pqclone.config import load_states
from pqclone.entangle import AliceBasis
from pqclone.errors import ConfigError, FeasibilityError, RankError
from pqclone.pqcm import (
    CHOLESKY_COND,
    FactoredSet,
    IllegalClonerSpec,
    PqcmMachine,
    apply_machine,
    construct_machine,
    feasibility_matrix,
    illegal_clone,
    max_uniform_gamma,
)
from pqclone.qcore import Ket, SeededRng, is_psd, tensor_power
from pqclone.signalling import ProtocolConfig

from born import basis_ket, inner_product, normals, random_ket, state_rows
from oracles import (
    failure_operator_at_construction,
    gamma_by_bisection,
    gamma_max_high_precision,
    three_sigma_binomial,
    two_state_feasibility_min_eig,
    two_state_gamma_by_bisection,
    two_state_gamma_closed_form,
)
from test_config_cli import CONFIGS

KET0 = basis_ket(2, 0)
KET1 = basis_ket(2, 1)
SQ2 = 0.70710678


def overlap_pair(s: float) -> np.ndarray:
    """Two real unit vectors in dimension 2 with <a|b> = s, one per row."""
    return np.array([[1.0, 0.0], [s, np.sqrt(1 - s * s)]], dtype=complex)


def independent_set(n: int, rng: SeededRng, max_cond: float = 100.0) -> np.ndarray:
    while True:
        states = state_rows([random_ket(n, rng) for _ in range(n)])
        sing = np.linalg.svd(states, compute_uv=False)
        if sing[-1] > 0 and sing[0] / sing[-1] <= max_cond:
            return states


class TestFeasibilityMatrix:
    def test_orthogonal_at_unit_gamma_is_zero(self):
        m = feasibility_matrix(state_rows([KET0, KET1]), 2, [1.0, 1.0])
        np.testing.assert_allclose(m, np.zeros((2, 2)), atol=1e-14)
        assert is_psd(m)

    def test_two_state_entries_match_hand_formula(self):
        for s, mm, gamma in [(0.3, 2, 0.4), (0.6, 3, 0.7), (0.9, 4, 0.2)]:
            matrix = feasibility_matrix(overlap_pair(s), mm, [gamma, gamma])
            off = s - gamma * s**mm
            np.testing.assert_allclose(
                matrix, [[1 - gamma, off], [off, 1 - gamma]], atol=1e-12
            )

    def test_boundary_min_eigenvalue(self):
        m = feasibility_matrix(overlap_pair(SQ2), 2, [0.585786, 0.585786])
        assert abs(np.linalg.eigvalsh(m)[0]) < 1e-6

    def test_not_psd_above_boundary(self):
        gamma = two_state_gamma_by_bisection(SQ2, 2) + 1e-6
        m = feasibility_matrix(overlap_pair(SQ2), 2, [gamma, gamma])
        assert not is_psd(m)

    def test_dependent_states_rejected(self):
        with pytest.raises(RankError):
            feasibility_matrix(state_rows([KET0, KET0]), 2, [0.5, 0.5])


class TestMaxUniformGamma:
    def test_orthogonal_states(self):
        assert max_uniform_gamma(state_rows([KET0, KET1]), 2) == 1.0

    def test_closed_form_case(self):
        assert max_uniform_gamma(overlap_pair(SQ2), 2) == pytest.approx(
            0.58578644, abs=1e-6
        )

    def test_near_dependent_degrades_with_copy_count(self):
        # at s close to 1 the efficiency collapses toward 1 - s as M grows;
        # the PSD acceptance tolerance widens the boundary by tol/(1 - s^M)
        s = 0.9999
        states = overlap_pair(s)
        slack = qcore.PSD_TOL / (1 - s**2) + 1e-9
        assert max_uniform_gamma(states, 2) == pytest.approx(
            two_state_gamma_closed_form(s, 2), abs=1e-6 + slack
        )
        assert max_uniform_gamma(states, 10_000) <= 1e-3

    def test_copy_count_must_be_an_integer(self):
        # a fractional count used to give gamma_max for "2.5 copies"
        states = overlap_pair(0.5)
        with pytest.raises(ConfigError, match="copy count must be an integer, got 2.5"):
            max_uniform_gamma(states, 2.5)
        with pytest.raises(ConfigError, match="copy count must be an integer, got 2.5"):
            FactoredSet(states, 2.5)
        with pytest.raises(ConfigError, match="copy count must be an integer, got '3'"):
            FactoredSet(states, "3")
        with pytest.raises(ConfigError, match="copy count must be at least 2, got 1"):
            FactoredSet(states, 1)

    def test_copy_count_capped(self):
        # past the cap the unit Gram diagonal's (1 + eps)^M overflows, and the
        # verdict was "infeasible" with gamma_max 1.0
        states = overlap_pair(0.5)
        assert FactoredSet(states, pqcm.MAX_COPIES).copies == pqcm.MAX_COPIES
        with pytest.raises(ConfigError, match=r"copy count must be at most 2\*\*30"):
            FactoredSet(states, 2**62)

    @pytest.mark.parametrize(
        "entry_point",
        [
            FactoredSet,
            max_uniform_gamma,
            lambda states, m: feasibility_matrix(states, m, [0.5, 0.5]),
            lambda states, m: construct_machine(states, m, [0.5, 0.5]),
        ],
        ids=[
            "FactoredSet", "max_uniform_gamma", "feasibility_matrix", "construct_machine"
        ],
    )
    @pytest.mark.parametrize(
        "scale, states",
        [(2, np.eye(2)), (3, overlap_pair(SQ2))],
        ids=["2-eye", "3-overlap"],
    )
    def test_states_must_be_unit_vectors(self, entry_point, scale, states):
        # the Gram condition is stated for unit states: 2 * eye(2) gave
        # gamma_max 0.25 where the unit pair gives 1.0
        with pytest.raises(ConfigError, match="clonable states must be unit vectors"):
            entry_point(scale * states, 2)

    def test_efficiencies_must_be_numbers(self):
        states = overlap_pair(0.5)
        with pytest.raises(ConfigError, match="efficiencies must be a sequence, got None"):
            feasibility_matrix(states, 3, None)
        with pytest.raises(ConfigError, match="efficiencies must be real numbers, got 'a'"):
            feasibility_matrix(states, 3, ["a", "b"])
        with pytest.raises(ConfigError, match="efficiencies must be real numbers, got True"):
            PqcmMachine(FactoredSet(states, 3), [True, 0.5])

    def test_monotone_in_gamma(self):
        states = overlap_pair(0.5)
        gmax = max_uniform_gamma(states, 3)
        for frac in np.linspace(0.0, 1.0, 7):
            gamma = frac * gmax
            assert is_psd(feasibility_matrix(states, 3, [gamma, gamma]))

    def test_more_copies_are_harder(self):
        # monotone in M for sets with nonnegative real overlaps; with
        # negative overlaps the fixed output-phase convention breaks it
        # (overlap -1/2: gamma_max is 0.4 at M=2 but 4/7 at M=3)
        rng = SeededRng(300)
        for trial in range(12):
            n = 2 + trial % 3
            states = state_rows(
                [Ket.normalized(np.abs(normals(rng, n))) for _ in range(n)]
            )
            if np.linalg.svd(states, compute_uv=False)[-1] < 1e-3:
                continue
            gammas = [max_uniform_gamma(states, m) for m in (2, 3, 4, 5)]
            for earlier, later in zip(gammas, gammas[1:]):
                assert later <= earlier + 1e-8


class TestClosedFormGamma:
    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        n=st.integers(2, 4),
        m=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_bisection_and_is_constructible(self, n, m, seed):
        states = state_rows([random_ket(n, SeededRng(seed, i)) for i in range(n)])
        gamma = max_uniform_gamma(states, m)
        assert abs(gamma - gamma_by_bisection(states.T, m)) <= 1e-8
        # the boundary itself is feasible: a machine exists at exactly gamma
        machine = construct_machine(states, m, [gamma] * n)
        assert machine.gammas == (gamma,) * n


def near_dependent_set(n: int, cond: float, real: bool, rng: SeededRng) -> np.ndarray:
    """n unit columns spanning dimension n, from B = U diag(s) V^H with
    singular values s from 1 down to 1/cond; normalizing the columns moves
    cond(B) somewhat."""

    def unitary():
        z = normals(rng, n * n).reshape(n, n)
        if not real:
            z = z + 1j * normals(rng, n * n).reshape(n, n)
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    b_mat = (unitary() * np.geomspace(1.0, 1.0 / cond, n)) @ unitary().conj().T
    return (b_mat / np.linalg.norm(b_mat, axis=0)).astype(complex)


def factored_with_branch(states: np.ndarray, m: int) -> tuple[FactoredSet, str]:
    """``FactoredSet(states, m)`` and the branch that built its factor R:
    'cholesky' (``_cholesky_factor``) or 'qr' (``_product_factor``)."""
    with mock.patch.object(
        pqcm, "_cholesky_factor", wraps=pqcm._cholesky_factor
    ) as cholesky, mock.patch.object(
        pqcm, "_product_factor", wraps=pqcm._product_factor
    ) as qr:
        legal = FactoredSet(states, m)
    assert cholesky.call_count + qr.call_count == 1
    return legal, "cholesky" if cholesky.called else "qr"


def near_orthogonal_set(n: int, rng: SeededRng) -> np.ndarray:
    """n unit states of dimension n, each e_k plus a 5 % complex Gaussian
    perturbation, one per row: cond(B) stays below about 10."""
    noise = normals(rng, n * n) + 1j * normals(rng, n * n)
    states = np.eye(n) + 0.05 * noise.reshape(n, n)
    return states / np.linalg.norm(states, axis=1, keepdims=True)


class TestGammaMaxAccuracy:
    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        n=st.integers(2, 4),
        m=st.integers(2, 6),
        log_cond=st.floats(0.0, 4.5),
        real=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=3, m=4, log_cond=4.3, real=True, seed=7)
    @example(n=2, m=6, log_cond=4.5, real=False, seed=3)
    # cond(B) 294.7 and 305.5: one on each side of CHOLESKY_COND
    @example(n=3, m=5, log_cond=2.5, real=False, seed=7)
    @example(n=3, m=5, log_cond=2.5, real=False, seed=1)
    def test_near_dependent_sets_match_50_digit_reference(
        self, n, m, log_cond, real, seed
    ):
        # whitening by X^(-1/2) loses cond(B)^2 * eps (1e-7 at cond 3e4);
        # K = R B^+ keeps the error near cond(B) * eps on the QR branch, and
        # the Cholesky branch's cond(B)^2 * eps stays small below its gate
        b_mat = near_dependent_set(n, 10.0**log_cond, real, SeededRng(seed))
        try:
            legal, branch = factored_with_branch(b_mat.T, m)
        except RankError:
            assume(False)
        cond = np.linalg.cond(b_mat)
        if abs(cond / CHOLESKY_COND - 1.0) > 1e-9:  # clear of the gate's rounding
            assert branch == ("cholesky" if cond < CHOLESKY_COND else "qr")
        reference = gamma_max_high_precision(b_mat, m)
        assert abs(legal.gamma_max - reference) <= 1e-10 * reference

    @pytest.mark.parametrize("n, m", [(16, 128), (32, 64), (64, 128)])
    def test_branches_agree_on_near_orthogonal_sets(self, n, m, monkeypatch):
        # where the Cholesky branch runs, the QR factor of the same set gives
        # the same R*R = X^(o M) and the same gamma_max
        states = near_orthogonal_set(n, SeededRng(n))
        legal, branch = factored_with_branch(states, m)
        assert branch == "cholesky"
        monkeypatch.setattr(pqcm, "CHOLESKY_COND", 0.0)  # every set takes QR
        qr, branch = factored_with_branch(states, m)
        assert branch == "qr"
        for factored in (legal, qr):
            r_mat = factored.product_factor
            np.testing.assert_allclose(
                r_mat.conj().T @ r_mat, legal.gram_power, rtol=0, atol=1e-13
            )
        assert abs(legal.gamma_max - qr.gamma_max) <= 1e-12 * qr.gamma_max


class TestConstructMachine:
    def test_orthogonal_unit_gamma_is_deterministic(self):
        machine = construct_machine(state_rows([KET0, KET1]), 2, [1.0, 1.0])
        np.testing.assert_allclose(machine.kraus_fail, 0.0, atol=1e-10)
        assert machine.clone_residual < 1e-10

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        n=st.integers(2, 4),
        extra=st.integers(0, 2),
        m=st.integers(2, 5),
        frac=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_clone_residual_is_linalg_norm_bit_for_bit(self, n, extra, m, frac, seed):
        # R V's column norms, V = W B - D, are numpy's own for axis=0
        rng = SeededRng(seed)
        states = state_rows([random_ket(n + extra, rng) for _ in range(n)])
        try:
            legal = FactoredSet(states, m)
        except RankError:
            assume(False)
        gammas = [frac * legal.gamma_max] * n
        machine = pqcm.PqcmMachine(legal, gammas)
        w_mat = legal._verdict(machine.gammas)[2]
        v_mat = w_mat @ legal.b_mat - np.diag(np.sqrt(machine.gammas))
        expected = np.linalg.norm(legal.product_factor @ v_mat, axis=0).max()
        assert machine.clone_residual == expected  # exact: a norm is never NaN or -0

    def test_invariants_verified_directly(self):
        states = overlap_pair(SQ2)
        machine = construct_machine(states, 2, [0.5, 0.5])
        for s, g in zip(states, machine.gammas):
            expected = np.sqrt(g) * tensor_power(s, 2)
            assert np.linalg.norm(machine.kraus_success @ s - expected) < 1e-9
        total = (
            machine.kraus_success.conj().T @ machine.kraus_success
            + machine.kraus_fail.conj().T @ machine.kraus_fail
        )
        np.testing.assert_allclose(total, np.eye(2), atol=1e-9)

    def test_explicit_operator_checked_with_failure_operator(self):
        machine = construct_machine(overlap_pair(SQ2), 2, [0.5, 0.5])
        assert machine.kraus_success.shape == (4, 2)
        # F is checked on its own first read, so a skewed one is forced into
        # the cache of a fresh machine whose explicit A has not been read yet
        skewed = dataclasses.replace(machine)
        failure = (1.01 * machine.kraus_fail, machine.trace_residual)
        object.__setattr__(skewed, "_failure", failure)
        with pytest.raises(RankError, match="trace residual"):
            skewed.kraus_success

    def test_replaced_efficiencies_are_verified_again(self):
        # a replace() copy is constructed, so forged efficiencies are refused
        # with their own fault, not when the law is built
        machine = construct_machine(overlap_pair(SQ2), 4, [0.3, 0.3])
        with pytest.raises(ConfigError, match=r"efficiencies must lie in \[0, 1\]"):
            dataclasses.replace(machine, gammas=(5.0, 5.0))
        with pytest.raises(FeasibilityError, match="infeasible"):
            dataclasses.replace(machine, gammas=(0.99, 0.99))
        with pytest.raises(ConfigError, match="needs a FactoredSet, got ndarray"):
            PqcmMachine(overlap_pair(SQ2), (0.3, 0.3))
        copy = dataclasses.replace(machine, gammas=(0.2, 0.3))
        assert copy.gammas == (0.2, 0.3) and copy.factored is machine.factored
        assert copy.clonable is machine.clonable and copy.copies == 4

    def test_replaced_copy_count_is_factored_again(self):
        # a replace() copy used to keep the M = 6 Gram power and factor under
        # copies=3, and its run's law lay 0.025 from the honest M = 3 law
        states = load_states(CONFIGS / "states_legal_n2.txt")
        legal = FactoredSet(states, 6)
        copy = dataclasses.replace(legal, copies=3)
        honest = FactoredSet(states, 3)
        np.testing.assert_array_equal(copy.gram_power, copy.gram**3)
        assert copy.gamma_max == honest.gamma_max
        gammas = [0.9 * legal.gamma_max] * 2

        def law(factored: FactoredSet) -> np.ndarray:
            return ProtocolConfig(
                bob_states=states,
                a2_basis=AliceBasis.fourier(2),
                trials=1,
                pairs_per_bit=1,
                machine=PqcmMachine(factored, gammas),
                seed=0,
            ).law

        np.testing.assert_array_equal(law(copy), law(honest))
        with pytest.raises(ConfigError, match="copy count must be an integer, got 2.5"):
            dataclasses.replace(legal, copies=2.5)

    def test_success_operator_is_trace_non_increasing(self):
        rng = SeededRng(301)
        states = independent_set(3, rng)
        gamma = 0.7 * max_uniform_gamma(states, 2)
        machine = construct_machine(states, 2, [gamma] * 3)
        gap = np.eye(3) - machine.kraus_success.conj().T @ machine.kraus_success
        assert np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0] >= -1e-9

    def test_infeasible_gammas_rejected(self):
        gamma = two_state_gamma_closed_form(SQ2, 2) + 0.05
        with pytest.raises(FeasibilityError):
            construct_machine(overlap_pair(SQ2), 2, [gamma, gamma])

    def test_dependent_states_rejected(self):
        with pytest.raises(RankError):
            construct_machine(state_rows([KET0, KET0]), 2, [0.5, 0.5])

    def test_one_state_too_many_always_rejected(self):
        # N+1 states in dimension N can never be independent
        rng = SeededRng(302)
        for n in (2, 3):
            states = state_rows([random_ket(n, rng) for _ in range(n + 1)])
            with pytest.raises(RankError):
                construct_machine(states, 2, [0.1] * (n + 1))

    def test_embedded_subset_of_larger_space(self):
        # two independent states in dimension 3: machine acts on the span
        states = state_rows([basis_ket(3, 0), Ket.normalized([1, 1, 0])])
        gamma = 0.5 * max_uniform_gamma(states, 2)
        machine = construct_machine(states, 2, [gamma, gamma])
        for s, g in zip(states, machine.gammas):
            expected = np.sqrt(g) * tensor_power(s, 2)
            assert np.linalg.norm(machine.kraus_success @ s - expected) < 1e-9


def rotated_set(
    n: int, dim: int, cond: float, real: bool, rng: SeededRng
) -> np.ndarray:
    """``near_dependent_set``'s n unit columns, turned into dimension ``dim``
    >= n by a random unitary; one state per row."""
    b_mat = near_dependent_set(n, cond, real, rng)
    if dim > n:
        z = normals(rng, dim * dim) + 1j * normals(rng, dim * dim)
        unitary = np.linalg.qr(z.reshape(dim, dim))[0]
        b_mat = unitary[:, :n] @ b_mat
    return b_mat.T


def along_ray(legal: FactoredSet, shape, factor: float) -> list:
    """Efficiencies t * shape, at ``factor`` times the ray's largest t.

    Feasibility is monotone along a ray: G scales by sqrt(t), so the peak
    success probability by t. The ray ends where the peak reaches 1 or an
    efficiency reaches 1; for a uniform shape its end is ``gamma_max``.
    Per-state efficiencies each below ``gamma_max`` can still be far
    infeasible on a near-dependent set.
    """
    peak = 1.0 - legal.gram_verdict(shape)[1]
    end = min(1.0 / peak, 1.0 / max(shape))
    return [min(1.0, factor * end * f) for f in shape]


def pickled(machine: PqcmMachine) -> PqcmMachine:
    return pickle.loads(pickle.dumps(machine))


class TestFailureOperator:
    # F and the trace residual are built on first read, bit for bit as
    # oracles.failure_operator_at_construction builds them

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "per-state"])
    @pytest.mark.parametrize(
        "log_cond, branch", [(0.5, "cholesky"), (3.0, "qr")], ids=["cholesky", "qr"]
    )
    def test_each_factor_branch_keeps_its_bits(self, log_cond, branch, uniform):
        states = rotated_set(3, 3, 10.0**log_cond, False, SeededRng(11))
        legal, taken = factored_with_branch(states, 4)
        assert taken == branch
        shape = (1.0, 1.0, 1.0) if uniform else (1.0, 0.5, 0.8)
        machine = PqcmMachine(legal, along_ray(legal, shape, 0.9))
        f_op, trace = failure_operator_at_construction(legal, machine.gammas)
        assert machine.kraus_fail.tobytes() == f_op.tobytes()
        assert machine.trace_residual == trace
        assert not machine.kraus_fail.flags.writeable

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        n=st.integers(2, 4),
        extra=st.integers(0, 1),
        m=st.integers(2, 8),
        log_cond=st.floats(0.0, 4.5),
        real=st.booleans(),
        uniform=st.booleans(),
        shape=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
        factor=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, extra=0, m=3, log_cond=3.0, real=True, uniform=True,
             shape=[1.0] * 4, factor=0.9, seed=5)
    @example(n=3, extra=1, m=5, log_cond=3.5, real=False, uniform=False,
             shape=[1.0, 0.3, 0.7, 0.05], factor=1.0, seed=6)
    def test_lazy_failure_operator_keeps_its_bits(
        self, n, extra, m, log_cond, real, uniform, shape, factor, seed
    ):
        states = rotated_set(n, n + extra, 10.0**log_cond, real, SeededRng(seed))
        try:
            legal = FactoredSet(states, m)
        except RankError:
            assume(False)
        shape = [1.0] * n if uniform else shape[:n]
        machine = PqcmMachine(legal, along_ray(legal, shape, factor))
        f_op, trace = failure_operator_at_construction(legal, machine.gammas)
        assert machine.kraus_fail.tobytes() == f_op.tobytes()
        assert machine.trace_residual == trace

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(
        n=st.integers(2, 4),
        extra=st.integers(0, 1),
        m=st.integers(2, 8),
        log_cond=st.floats(0.0, 4.5),
        real=st.booleans(),
        uniform=st.booleans(),
        shape=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
        factor=st.one_of(st.floats(0.0, 1.0 - 1e-9), st.just(1.0 + 4e-10)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, extra=0, m=3, log_cond=3.0, real=True, uniform=True,
             shape=[1.0] * 4, factor=1.0 + 4e-10, seed=5)
    @example(n=3, extra=1, m=8, log_cond=4.3, real=False, uniform=False,
             shape=[1.0, 0.2, 0.6, 0.9], factor=1.0 + 4e-10, seed=7)
    @example(n=4, extra=0, m=6, log_cond=2.0, real=False, uniform=True,
             shape=[1.0] * 4, factor=1.0 - 1e-9, seed=8)
    def test_no_verdict_is_lost(
        self, n, extra, m, log_cond, real, uniform, shape, factor, seed
    ):
        # construction leaves the trace check to F's first read, and no
        # admitted machine fails it: the verdict's PSD_TOL is half the
        # residual's tolerance, and an admitted trace defect is the negative
        # least discard mass, if any, plus rounding; efficiencies run along a
        # ray up to (1 - 1e-9) times its end, or just past it, at (1 + 4e-10)
        states = rotated_set(n, n + extra, 10.0**log_cond, real, SeededRng(seed))
        try:
            legal = FactoredSet(states, m)
        except RankError:
            assume(False)
        gammas = along_ray(legal, [1.0] * n if uniform else shape[:n], factor)
        feasible, least = legal.gram_verdict(gammas)
        try:
            machine = PqcmMachine(legal, gammas)
        except FeasibilityError:
            assert not feasible
            return
        assert feasible
        assert machine.trace_residual <= max(0.0, -least) + 1e-12

    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    @pytest.mark.parametrize(
        "copier",
        [copy.copy, copy.deepcopy, pickled, dataclasses.replace],
        ids=["copy", "deepcopy", "pickle", "replace"],
    )
    @pytest.mark.parametrize("overlap", [SQ2, 1.0 - 1e-6], ids=["cholesky", "qr"])
    def test_copies_give_the_same_failure_operator(self, overlap, copier, read_first):
        legal = FactoredSet(overlap_pair(overlap), 3)
        machine = PqcmMachine(legal, along_ray(legal, (1.0, 0.6), 0.9))
        f_op, trace = failure_operator_at_construction(legal, machine.gammas)
        if read_first:
            machine.kraus_fail
        twin = copier(machine)
        for each in (twin, machine):
            assert each.kraus_fail.tobytes() == f_op.tobytes()
            assert each.trace_residual == trace

    def test_failure_operator_cannot_be_given(self):
        machine = construct_machine(overlap_pair(SQ2), 3, [0.4, 0.4])
        for name in ("kraus_fail", "trace_residual"):
            with pytest.raises(TypeError, match=name):
                dataclasses.replace(machine, **{name: machine.kraus_fail})
            with pytest.raises(TypeError, match=name):
                PqcmMachine(machine.factored, machine.gammas, **{name: 0.0})
            with pytest.raises(AttributeError):
                setattr(machine, name, 0.0)
        with pytest.raises(ValueError, match="clone_residual"):
            dataclasses.replace(machine, clone_residual=0.0)

    def test_failed_trace_check_raises_on_every_read(self, monkeypatch):
        # a skewed eigh skews F; construction calls no eigh, so it passes,
        # and each read that needs F raises and keeps nothing
        eigh, calls = np.linalg.eigh, []

        def skewed_eigh(a):
            calls.append(a.shape)
            vals, vecs = eigh(a)
            return vals, 1.01 * vecs

        monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
        machine = construct_machine(overlap_pair(SQ2), 2, [0.5, 0.5])
        assert calls == [] and machine.clone_residual <= 1e-12
        message = r"verification failed \(trace residual"
        for name in ("kraus_fail", "trace_residual", "kraus_success", "kraus_fail"):
            with pytest.raises(RankError, match=message):
                getattr(machine, name)
        assert calls == [(2, 2)] * 4
        assert set(vars(machine)) == {"factored", "gammas", "clone_residual"}


def gram_form_success(states, m: int, gammas) -> np.ndarray:
    """A*A of the machine for a square state set, from N x N matrices.

    A = C D B^-1 and C*C = X^(o M), so A*A = B^-H D X^(o M) D B^-1, and
    I - A*A is congruent to the feasibility matrix X - D X^(o M) D through B.
    """
    b_mat = states.T
    w_mat = np.sqrt(gammas)[:, None] * np.linalg.inv(b_mat)
    return w_mat.conj().T @ (b_mat.conj().T @ b_mat) ** m @ w_mat


def explicit_checks(states, m: int, gammas) -> tuple[float, float, float]:
    """lambda_min(I - A*A), clone and trace residuals of the explicit pair.

    A = C D B^+ is built as an N^M x N array and F as the principal root of
    I - A*A, which is how machines were verified before the N x N checks.
    """
    b_mat = states.T
    c_mat = np.column_stack([tensor_power(s, m) for s in states])
    target = c_mat * np.sqrt(gammas)[None, :]
    a_op = target @ np.linalg.pinv(b_mat)
    eye = np.eye(b_mat.shape[0])
    success_gram = a_op.conj().T @ a_op
    gap = eye - success_gram
    vals, vecs = np.linalg.eigh((gap + gap.conj().T) / 2.0)
    f_op = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    clone = np.max(np.linalg.norm(a_op @ b_mat - target, axis=0))
    trace = np.max(np.abs(success_gram + f_op.conj().T @ f_op - eye))
    return float(vals[0]), float(clone), float(trace)


class TestFeasibilityEquivalence:
    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(
        n=st.integers(2, 4),
        m=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        factors=st.lists(
            st.one_of(st.just(1.0), st.floats(0.0, 1.6)), min_size=4, max_size=4
        ),
    )
    @example(n=2, m=2, seed=303, factors=[0.5] * 4)
    @example(n=3, m=2, seed=303, factors=[0.95] * 4)
    @example(n=2, m=2, seed=304, factors=[1.05] * 4)
    @example(n=3, m=2, seed=304, factors=[1.3] * 4)
    def test_psd_verdict_matches_construction(self, n, m, seed, factors):
        # per-state efficiencies up to and beyond the uniform boundary gamma_max
        states = independent_set(n, SeededRng(seed))
        gmax = max_uniform_gamma(states, m)
        gammas = np.array([min(1.0, f * gmax) for f in factors[:n]])
        feasible = is_psd(feasibility_matrix(states, m, gammas))
        success_gram = gram_form_success(states, m, gammas)
        gap_ok = np.linalg.eigvalsh(np.eye(n) - success_gram)[0] >= -qcore.PSD_TOL
        try:
            machine = construct_machine(states, m, gammas)
        except FeasibilityError:
            machine = None
        assert (machine is not None) == feasible == gap_ok
        if machine is None:
            return
        # the explicit N^M x N operator agrees with the N x N checks
        a_op = machine.kraus_success
        explicit_gram = a_op.conj().T @ a_op
        np.testing.assert_allclose(explicit_gram, success_gram, rtol=0, atol=1e-12)
        fail_gram = machine.kraus_fail.conj().T @ machine.kraus_fail
        assert np.max(np.abs(explicit_gram + fail_gram - np.eye(n))) <= 1e-9
        for s, g in zip(states, gammas):
            expected = np.sqrt(g) * tensor_power(s, m)
            assert np.linalg.norm(a_op @ s - expected) <= 1e-9
        assert machine.clone_residual <= 1e-9 and machine.trace_residual <= 1e-9

    @pytest.mark.parametrize("gap_exponent", [6, 7, 8, 8.5])
    def test_near_dependent_pairs_match_explicit_verification(self, gap_exponent):
        # overlap 1 - 10^-k puts cond(B) near 1.4 * 10^(k/2): up to 2.5e4,
        # just inside the rank tolerance, where forming the Gram kernel
        # X^(o M) entrywise and undoing B twice loses ~cond(B)^2 * eps
        states = overlap_pair(1.0 - 10.0**-gap_exponent)
        tol = qcore.PSD_TOL
        decided = 0
        for m in (2, 3, 4, 6):
            gmax = max_uniform_gamma(states, m)
            for factor in (0.5, 1.0, 1.0 + 1e-9, 1.0 + 1e-6):
                gammas = np.array([min(1.0, factor * gmax)] * 2)
                lam, clone, trace = explicit_checks(states, m, gammas)
                if min(abs(lam + tol), abs(trace - tol)) < 1e-11:
                    continue  # on the tolerance edge to within rounding
                decided += 1
                expected = (
                    is_psd(feasibility_matrix(states, m, gammas))
                    and lam >= -tol
                    and max(clone, trace) <= 1e-9
                )
                try:
                    machine = construct_machine(states, m, gammas)
                except FeasibilityError:
                    machine = None
                assert (machine is not None) == expected, (m, factor, lam)
                if machine is not None:
                    a_op = machine.kraus_success
                    f_op = machine.kraus_fail
                    total = a_op.conj().T @ a_op + f_op.conj().T @ f_op
                    assert np.max(np.abs(total - np.eye(2))) <= 1e-9
        assert decided >= 12

    def test_pair_dependent_to_rounding_is_rejected(self):
        states = overlap_pair(1.0 - 1e-12)
        with pytest.raises(RankError):
            max_uniform_gamma(states, 2)
        with pytest.raises(RankError):
            construct_machine(states, 2, [0.5, 0.5])

    def test_rank_rule_bounds_the_condition_number(self):
        # the rank rule is the one conditioning check: pairs of overlap
        # 1 - 10**-k have cond(B) ~ sqrt(2 * 10**k), and every pair the
        # factorization accepts lies within 3.2e4, every one past 3.3e4 fails
        verdicts = []
        for k in range(2, 15):
            states = overlap_pair(1.0 - 10.0**-k)
            cond = np.linalg.cond(states.T)
            try:
                FactoredSet(states, 2)
                accepted = True
            except RankError:
                accepted = False
            if accepted:
                assert cond <= 3.2e4, (k, cond)
            if cond >= 3.3e4:
                assert not accepted, (k, cond)
            verdicts.append(accepted)
        assert verdicts == [True] * 7 + [False] * 6

    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(
        n=st.integers(2, 4),
        m=st.integers(3, 8),
        seed=st.integers(0, 2**32 - 1),
        gap=st.sampled_from([None, 1e-2, 1e-3]),
        factor=st.floats(0.3, 1.5),
    )
    @example(n=2, m=3, seed=7, gap=1e-3, factor=1.0 + 1e-9)
    @example(n=2, m=3, seed=7, gap=1e-3, factor=1.0 + qcore.PSD_TOL)
    @example(n=3, m=8, seed=8, gap=1e-2, factor=1.0 + 1e-6)
    def test_one_verdict_decides_construction(self, n, m, seed, gap, factor):
        # gram_verdict and PqcmMachine read one least discard probability,
        # and a machine the verdict admits passes its explicit checks too
        assume(m > n)
        states = np.array(independent_set(n, SeededRng(seed)))
        if gap is not None:  # a near-parallel pair, cond(B) ~ 1 / gap
            pair = states[0] + gap * states[1]
            states[1] = pair / np.linalg.norm(pair)
        legal = FactoredSet(states, m)
        gmax = legal.gamma_max
        gamma = min(1.0, factor * gmax)
        feasible, least = legal.gram_verdict([gamma] * n)
        try:
            PqcmMachine(legal, [gamma] * n).kraus_success
            built = True
        except FeasibilityError:
            built = False
        assert built == feasible, (least, factor)
        # at uniform gamma the peak success probability is gamma / gamma_max
        assert abs(least - (1.0 - gamma / gmax)) <= 1e-12


def success_verdicts(machine, state: Ket, seed: int, trials: int) -> np.ndarray:
    """The success flags of ``trials`` apply_machine calls on one stream.

    Each call draws one uniform and succeeds when it falls below
    ||A|in>||^2, so one vector draw gives every verdict; the first 1 000
    are replayed through ``apply_machine`` and must match exactly.
    """
    branch = machine.kraus_success @ state.amplitudes
    p_success = min(float(np.real(np.vdot(branch, branch))), 1.0)
    wins = SeededRng(seed).uniforms(trials) < p_success
    rng = SeededRng(seed)
    replay = [apply_machine(machine, state, rng)[0] for _ in range(1_000)]
    assert replay == wins[:1_000].tolist()
    return wins


class TestApplyMachine:
    def test_clonable_success_frequency(self):
        states = overlap_pair(SQ2)
        machine = construct_machine(states, 2, [0.5, 0.5])
        trials = 100_000
        wins = success_verdicts(machine, Ket(states[0]), 304, trials)
        assert abs(wins.mean() - 0.5) < three_sigma_binomial(0.5, trials)

    def test_success_output_is_exact_copies(self):
        states = overlap_pair(SQ2)
        machine = construct_machine(states, 2, [0.5, 0.5])
        rng = SeededRng(305)
        target = Ket(tensor_power(states[1], 2))
        seen = 0
        while seen < 20:
            success, out = apply_machine(machine, Ket(states[1]), rng)
            if success:
                seen += 1
                assert abs(abs(inner_product(out, target)) - 1.0) < 1e-9

    def test_input_of_another_dimension_refused(self):
        machine = construct_machine(overlap_pair(SQ2), 2, [0.5, 0.5])
        with pytest.raises(ConfigError, match="^input dimension 3 does not match machine 2$"):
            apply_machine(machine, basis_ket(3, 0), SeededRng(306))

    def test_nonclonable_input_success_probability(self):
        states = overlap_pair(SQ2)
        machine = construct_machine(states, 2, [0.5, 0.5])
        probe = Ket.normalized([0.3, 0.9539392014169456])
        analytic = float(
            np.linalg.norm(machine.kraus_success @ probe.amplitudes) ** 2
        )
        trials = 50_000
        wins = success_verdicts(machine, probe, 306, trials)
        assert abs(wins.mean() - analytic) < three_sigma_binomial(analytic, trials)


class TestIllegalCloner:
    def test_clonable_label_copies_itself_without_a_draw(self):
        spec = IllegalClonerSpec(clonable_labels=(1, 2, 3), copies=8, total_labels=4)
        rng = SeededRng(311)
        assert illegal_clone(spec, 3, rng) == 3
        np.testing.assert_array_equal(rng.uniforms(3), SeededRng(311).uniforms(3))

    def test_default_junk_branch(self):
        spec = IllegalClonerSpec(clonable_labels=(1, 2, 3), copies=8, total_labels=4)
        rng = SeededRng(312)
        for _ in range(50):
            assert illegal_clone(spec, 4, rng) is None

    def test_uniform_branch_frequencies(self):
        c = np.sqrt([1 / 3, 1 / 3, 1 / 3])
        spec = IllegalClonerSpec(
            clonable_labels=(1, 2, 3),
            copies=8,
            total_labels=4,
            coefficients={4: (c, 0.0)},
        )
        trials = 100_000
        # illegal_clone picks its branch with one uniform, by SeededRng.choice
        edges = np.cumsum(spec.branch_weights[3])
        edges[-1] = max(edges[-1], 1.0)
        branches = np.searchsorted(edges, SeededRng(313).uniforms(trials), side="right")
        labels = spec.clonable_labels + (None,)  # the last branch is junk
        rng = SeededRng(313)
        replay = [illegal_clone(spec, 4, rng) for _ in range(1_000)]
        assert replay == [labels[b] for b in branches[:1_000]]
        counts = np.bincount(branches, minlength=4)
        for l in range(3):
            assert abs(counts[l] / trials - 1 / 3) < three_sigma_binomial(1 / 3, trials)

    def test_label_out_of_range(self):
        spec = IllegalClonerSpec(clonable_labels=(1, 2, 3), copies=8, total_labels=4)
        with pytest.raises(ConfigError, match=r"label 5 outside 1\.\.4"):
            illegal_clone(spec, 5, SeededRng(314))
        with pytest.raises(ConfigError, match=r"label 0 outside 1\.\.4"):
            illegal_clone(spec, 0, SeededRng(314))

    def test_branch_weights_one_row_per_label(self):
        # clonable labels are their own branch, listed labels their |c|^2 and
        # |d|^2, and unlisted unclonable labels pure junk
        c = np.sqrt(0.5) * np.array([0.6, 0.0, 0.8j])
        spec = IllegalClonerSpec(
            clonable_labels=(4, 1, 3),
            copies=8,
            total_labels=6,
            coefficients={2: (c, np.sqrt(0.5))},
        )
        expected = [
            [1, 0, 0, 0],
            [0.18, 0, 0.32, 0.5],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 1],
        ]
        np.testing.assert_allclose(spec.branch_weights, expected, rtol=0, atol=1e-15)
        assert not spec.branch_weights.flags.writeable

    def test_non_integer_labels_refused(self):
        # a float label or coefficient key would otherwise name another label
        with pytest.raises(ConfigError, match="clonable label must be an integer"):
            IllegalClonerSpec(clonable_labels=(1.7, 2, 3), copies=4, total_labels=4)
        with pytest.raises(ConfigError, match="coefficient label must be an integer"):
            IllegalClonerSpec(
                clonable_labels=(1, 2, 3),
                copies=4,
                total_labels=4,
                coefficients={4.9: (np.zeros(3), 1.0)},
            )

    def test_nan_branch_amplitude_refused(self):
        # abs(nan - 1) > tol is False, so a NaN amplitude used to pass
        with pytest.raises(ConfigError, match="branch amplitudes for label 4 sum to nan"):
            IllegalClonerSpec(
                clonable_labels=(1, 2, 3),
                copies=8,
                total_labels=4,
                coefficients={4: (np.array([np.nan, 0.0, 0.0]), 0.0)},
            )

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"clonable_labels": None}, "clonable labels must be a sequence, got None"),
            ({"coefficients": [1]}, r"coefficients must map labels to \(c, d\), got \[1\]"),
            ({"coefficients": {4: 5}}, "coefficients for label 4 must be a .* got 5"),
            (
                {"coefficients": {4: ("abc", 0)}},
                r"coefficients for label 4 must be a .* got \('abc', 0\)",
            ),
            ({"clonable_labels": (1, 2, 2)}, "^clonable labels must be distinct$"),
            (
                {"coefficients": {3: (np.zeros(3), 1.0)}},
                "^coefficients given for non-unclonable label 3$",
            ),
            (
                {"coefficients": {4: (np.array([0.6, 0.0]), 0.8)}},
                r"^need 3 branch amplitudes, got \(2,\)$",
            ),
        ],
        ids=["labels-none", "coefficients-list", "entry-int", "entry-string",
             "labels-repeated", "clonable-label", "c-too-short"],
    )
    def test_malformed_spec_refused(self, changes, message):
        fields = {"clonable_labels": (1, 2, 3), "copies": 8, "total_labels": 4}
        with pytest.raises(ConfigError, match=message) as err:
            IllegalClonerSpec(**{**fields, **changes})
        assert "\n" not in str(err.value)

    def test_coefficient_normalization_enforced(self):
        with pytest.raises(ConfigError, match="branch amplitudes for label 4 sum to 1.62, not 1"):
            IllegalClonerSpec(
                clonable_labels=(1, 2, 3),
                copies=8,
                total_labels=4,
                coefficients={4: (np.array([0.9, 0.0, 0.0]), 0.9)},
            )
