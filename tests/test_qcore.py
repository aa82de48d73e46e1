"""Quantum primitive layer: states, operators, sampling, spectral analysis."""

import copy
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from pqclone import qcore
from pqclone.errors import ConfigError, RankError
from pqclone.qcore import (
    Ensemble,
    Ket,
    SeededRng,
    is_psd,
    measure_subsystem,
    tensor_power,
)

from born import (
    HermitianOperator,
    average_density,
    basis_ket,
    born_measure,
    gram_matrix,
    haar_unitary,
    hermitian_eigenvalues,
    inner_product,
    normals,
    partial_trace,
    random_ket,
    rank_with_tolerance,
    tensor,
    trace_distance,
)
from oracles import (
    bob_state_set_by_rows,
    char_poly_roots,
    multinomial_by_support,
    state_set_by_rows,
    three_sigma_binomial,
)

KET0 = basis_ket(2, 0)
KET1 = basis_ket(2, 1)
PLUS = Ket.normalized([1, 1])


class TestKet:
    def test_normalized_constructor(self):
        k = Ket.normalized([3, 4j])
        assert abs(np.linalg.norm(k.amplitudes) - 1.0) < qcore.NORM_TOL
        assert k.dim == 2

    def test_zero_vector_rejected(self):
        with pytest.raises(ConfigError, match="state has zero norm"):
            Ket.normalized([0, 0, 0])

    def test_amplitudes_read_only(self):
        with pytest.raises(ValueError):
            KET0.amplitudes[0] = 5.0


class TestNormalize:
    # the arithmetic of one vector, np.linalg.norm then a division, is the
    # reference every row of a stack must reproduce bit for bit
    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        n=st.integers(1, 6),
        d=st.sampled_from([1, 2, 3, 5, 16, 64]),
        scale=st.floats(-6, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_rows_match_one_vector_arithmetic(self, n, d, scale, seed):
        rng = np.random.default_rng(seed)
        stack = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        stack *= 10.0**scale
        stack[0, 0] = complex(-0.0, stack[0, 0].imag)
        expected = np.array([row / np.linalg.norm(row) for row in stack])
        got = qcore.normalize(stack)
        assert got.shape == (n, d)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        one = qcore.normalize(stack[-1])
        assert np.array_equal(one.view(np.uint64), expected[-1].view(np.uint64))

    @pytest.mark.parametrize(
        "stack, message",
        [
            ([[1, 0], [0, 0], [np.inf, 0]], "state has zero norm"),
            ([[1, 0], [np.nan, 0], [0, 0]], "state norm is not finite"),
            ([[1e308, 1e308], [0, 1]], "state norm is not finite"),
            ([[]], "state has zero norm"),
        ],
    )
    def test_stack_names_first_bad_row(self, stack, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            qcore.normalize(stack)


class TestInnerProduct:
    def test_identity_case(self):
        assert inner_product(KET0, KET0) == pytest.approx(1.0)

    def test_orthogonality(self):
        assert inner_product(KET0, KET1) == pytest.approx(0.0)

    def test_plus_overlap(self):
        assert inner_product(KET0, PLUS) == pytest.approx(0.70710678, abs=1e-8)

    def test_conjugate_symmetry(self):
        rng = SeededRng(100)
        for _ in range(25):
            a, b = random_ket(4, rng), random_ket(4, rng)
            assert inner_product(a, b) == pytest.approx(
                np.conj(inner_product(b, a)), abs=1e-12
            )

    def test_cauchy_schwarz(self):
        rng = SeededRng(101)
        for _ in range(25):
            a, b = random_ket(5, rng), random_ket(5, rng)
            norms = np.linalg.norm(a.amplitudes) * np.linalg.norm(b.amplitudes)
            assert abs(inner_product(a, b)) <= norms + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError, match="inner product of dims 2 and 3"):
            inner_product(KET0, basis_ket(3, 0))


class TestTensor:
    def test_basis_products(self):
        np.testing.assert_allclose(tensor(KET0, KET0).amplitudes, [1, 0, 0, 0])
        np.testing.assert_allclose(tensor(KET0, KET1).amplitudes, [0, 1, 0, 0])

    def test_plus_plus(self):
        np.testing.assert_allclose(
            tensor(PLUS, PLUS).amplitudes, [0.5, 0.5, 0.5, 0.5], atol=1e-12
        )

    def test_index_convention_left_factor_slow(self):
        a = Ket(np.array([1, 2], dtype=complex) / np.sqrt(5))
        b = Ket(np.array([3, 4], dtype=complex) / 5.0)
        out = tensor(a, b)
        for i in range(2):
            for j in range(2):
                assert out.amplitudes[i * 2 + j] == pytest.approx(
                    a.amplitudes[i] * b.amplitudes[j]
                )

    def test_capacity_guard(self):
        big = basis_ket(2**13, 0)
        with pytest.raises(ConfigError, match="tensor dimension 67108864 exceeds cap 16777216"):
            tensor(big, big)
        with pytest.raises(ConfigError, match=r"tensor dimension 2\*\*25 exceeds cap 16777216"):
            tensor_power(basis_ket(2, 0).amplitudes, 25)

    def test_tensor_power_matches_repeated_tensor(self):
        rng = SeededRng(102)
        k = random_ket(3, rng)
        np.testing.assert_allclose(
            tensor_power(k.amplitudes, 3),
            tensor(tensor(k, k), k).amplitudes,
            atol=1e-14,
        )

    def test_tensor_power_equals_kron_chain_exactly(self):
        rng = SeededRng(103)
        for dim in (2, 3, 4):
            k = random_ket(dim, rng)
            for m in range(1, 6):
                chain = k.amplitudes
                for _ in range(m - 1):
                    chain = np.kron(chain, k.amplitudes)
                np.testing.assert_array_equal(tensor_power(k.amplitudes, m), chain)


def _frozen(arr):
    arr.setflags(write=False)
    return arr


class _Sub(np.ndarray):
    pass


def _owned_subclass():
    arr = np.ndarray.__new__(_Sub, (2, 2), dtype=np.complex128)
    arr[...] = np.eye(2)
    return _frozen(arr)


class TestStateSet:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: qcore.state_set([[1.0, 0.0], [0.6, 0.8]], "states"),
            lambda: np.eye(2, dtype=np.complex128),
            lambda: _frozen(np.eye(2)),
            lambda: _frozen(np.asfortranarray([[1.0, 0.0], [0.6, 0.8]], complex)),
            lambda: _frozen(np.eye(2, dtype=np.complex128)[:]),
            _owned_subclass,
            lambda: [[1.0, 0.0], [0.0, 1.0]],
        ],
        ids=["state-set", "writable", "real", "fortran", "read-only-view", "subclass",
             "list"],
    )
    def test_every_input_is_copied(self, make):
        # each owner holds a copy of its own, a checked state set's included
        source = make()
        for states in (qcore.state_set(source, "states"), qcore.bob_state_set(source)):
            assert states is not source
            assert type(states) is np.ndarray and states.dtype == np.complex128
            flags = states.flags
            assert flags.c_contiguous and not flags.writeable and flags.owndata
            np.testing.assert_array_equal(states, np.asarray(source))

    def test_a_read_only_view_does_not_follow_its_base(self):
        base = np.eye(2, dtype=np.complex128)
        states = qcore.state_set(_frozen(base[:]), "states")
        base[0, 0] = 5.0
        assert states[0, 0] == 1.0

    def test_a_state_set_written_after_its_check_does_not_reach_the_copy(self):
        source = qcore.state_set([[1.0, 0.0], [0.6, 0.8]], "states")
        states = qcore.state_set(source, "states")
        source.setflags(write=True)
        source[1] = [0.0, 2.0]
        np.testing.assert_array_equal(states, [[1.0, 0.0], [0.6, 0.8]])
        with pytest.raises(ConfigError, match=r"^states must be unit vectors, got norms \[1\.0, 2\.0\]$"):
            qcore.state_set(source, "states")

    @pytest.mark.parametrize(
        "rows, norms",
        [
            ([[2.0, 0.0], [0.0, 1.0]], "[2.0, 1.0]"),
            ([[1.0, 0.0], [0.0, 1.0 + 2e-10]], "[1.0, 1.0000000002]"),
            ([[1.0, 0.0], [np.nan, 0.0]], "[1.0, nan]"),
            ([[1.0, 0.0], [np.inf, 0.0]], "[1.0, nan]"),  # inf * conj(inf)
        ],
        ids=["two", "off-by-2e-10", "nan", "inf"],
    )
    def test_a_row_that_is_not_unit_is_refused_naming_the_set(self, rows, norms):
        with pytest.raises(ConfigError) as err:
            qcore.state_set(rows, "clonable states")
        assert str(err.value) == f"clonable states must be unit vectors, got norms {norms}"
        with pytest.raises(ConfigError) as err:
            qcore.bob_state_set(rows)
        assert str(err.value) == f"Bob states must be unit vectors, got norms {norms}"

    def test_a_norm_within_norm_tol_passes(self):
        row = [0.0, 1.0 + 0.5 * qcore.NORM_TOL]
        np.testing.assert_array_equal(qcore.state_set([[1.0, 0.0], row], "s")[1], row)

    def test_bob_state_width_is_checked_on_an_array(self):
        with pytest.raises(ConfigError, match="^Bob states must have dimension 3, got 2$"):
            qcore.bob_state_set(_frozen(np.eye(3, 2)))

    # rows scaled to norm 1 + k NORM_TOL, near both edges of the rule, with
    # one NaN, infinite, huge or zero entry or row; a RuntimeWarning fails
    # the test (pyproject's filterwarnings)
    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(
        n=st.integers(1, 64),
        extra=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        k=st.floats(-3.0, 3.0),
        scaled=st.integers(0, 64),
        special=st.sampled_from([None, "zero row", np.nan, np.inf, -np.inf, 1e200]),
        imag=st.booleans(),
        where=st.integers(0, 2**16),
        as_list=st.booleans(),
    )
    @example(n=3, extra=0, seed=1, k=1.5, scaled=1, special=None, imag=False,
             where=0, as_list=False)
    @example(n=2, extra=0, seed=2, k=-1.9, scaled=2, special=None, imag=False,
             where=0, as_list=True)
    @example(n=4, extra=0, seed=3, k=0.9, scaled=4, special=None, imag=False,
             where=0, as_list=False)
    def test_every_verdict_and_message_is_the_per_row_rule(
        self, n, extra, seed, k, scaled, special, imag, where, as_list
    ):
        rng = np.random.default_rng(seed)
        shape = (n, n + extra)
        rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        rows[:scaled] *= 1.0 + k * qcore.NORM_TOL
        if special == "zero row":
            rows[where % n] = 0.0
        elif special is not None:
            rows.flat[where % rows.size] = complex(0.0, special) if imag else special
        source = rows.tolist() if as_list else rows
        def named(gate):
            return lambda states: gate(states, "states")

        for gate, oracle in (
            (named(qcore.state_set), named(state_set_by_rows)),
            (qcore.bob_state_set, bob_state_set_by_rows),
        ):
            try:
                expected = oracle(source)
            except ConfigError as exc:
                with pytest.raises(ConfigError) as err:
                    gate(source)
                assert str(err.value) == str(exc)
                continue
            got = gate(source)
            assert not got.flags.writeable
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestGramAndRank:
    def test_orthonormal_pair(self):
        np.testing.assert_allclose(
            gram_matrix([KET0, KET1]).entries, np.eye(2), atol=1e-14
        )

    def test_overlap_pair(self):
        g = gram_matrix([KET0, PLUS]).entries
        np.testing.assert_allclose(
            g, [[1, 0.70710678], [0.70710678, 1]], atol=1e-8
        )

    def test_duplicate_is_rank_one(self):
        g = gram_matrix([KET0, KET0])
        np.testing.assert_allclose(g.entries, np.ones((2, 2)), atol=1e-14)
        assert rank_with_tolerance([KET0, KET0]) == 1

    def test_empty_input(self):
        with pytest.raises(ConfigError, match="a state set needs at least one nonempty state"):
            gram_matrix([])

    def test_rank_counts(self):
        assert rank_with_tolerance([KET0, KET1]) == 2
        assert rank_with_tolerance([KET0, PLUS, KET1]) == 2

    def test_rank_rule_refuses_more_states_than_dimensions(self):
        # the thin SVD of this 2 x 3 B has two singular values of order 1,
        # yet three states in dimension 2 are always dependent
        b_mat = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]], dtype=complex)
        assert np.linalg.svd(b_mat, compute_uv=False).min() > 0.5
        dependent = r"3 states of dimension 2 .* ratio 0\.00e\+00"
        with pytest.raises(RankError, match=dependent):
            qcore.independent_svd(b_mat)

    def test_rank_rule_names_the_gram_eigenvalue_ratio(self):
        b_mat = np.array([[1.0, 1.0], [0.0, 1e-5]], dtype=complex)
        b_mat /= np.linalg.norm(b_mat, axis=0)
        ratio = "ratio 2.50e-11 is not above RANK_TOL 1e-09"
        with pytest.raises(RankError, match=ratio):
            qcore.independent_svd(b_mat)
        with pytest.raises(RankError, match="ratio nan"):
            qcore.independent_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        _, singulars, _ = qcore.independent_svd(np.eye(3, 2))
        np.testing.assert_array_equal(singulars, [1.0, 1.0])

    def test_gram_always_psd(self):
        rng = SeededRng(103)
        for _ in range(20):
            states = [random_ket(3, rng) for _ in range(4)]
            assert is_psd(gram_matrix(states).entries)


class TestEigendecomposition:
    def test_identity_spectrum(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(HermitianOperator.identity(2)), [1, 1]
        )

    def test_rank_one_spectrum(self):
        m = HermitianOperator(np.ones((2, 2), dtype=complex))
        np.testing.assert_allclose(hermitian_eigenvalues(m), [0, 2], atol=1e-14)

    def test_matches_characteristic_polynomial_roots(self):
        rng = SeededRng(104)
        for _ in range(10):
            raw = (normals(rng, 16) + 1j * normals(rng, 16)).reshape(4, 4)
            m = HermitianOperator.from_matrix(raw + raw.conj().T)
            np.testing.assert_allclose(
                hermitian_eigenvalues(m), char_poly_roots(m.entries), atol=1e-8
            )

    def test_spectrum_invariant_under_conjugation(self):
        rng = SeededRng(105)
        raw = (normals(rng, 16) + 1j * normals(rng, 16)).reshape(4, 4)
        m = HermitianOperator.from_matrix(raw + raw.conj().T)
        u = haar_unitary(4, rng)
        rotated = HermitianOperator.from_matrix(u @ m.entries @ u.conj().T)
        np.testing.assert_allclose(
            hermitian_eigenvalues(m), hermitian_eigenvalues(rotated), atol=1e-8
        )

    def test_non_hermitian_rejected(self):
        with pytest.raises(ConfigError, match="matrix is not Hermitian within tolerance"):
            HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))


class TestPsd:
    def test_identity_is_psd(self):
        assert is_psd(np.eye(3))

    def test_indefinite_diagonal(self):
        assert not is_psd(np.diag([1.0, -0.5]).astype(complex))


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        bell = Ket.normalized([1, 0, 0, 1])
        rho = HermitianOperator.projector(bell)
        np.testing.assert_allclose(
            partial_trace(rho, (2, 2), "B").entries, np.eye(2) / 2, atol=1e-12
        )

    def test_product_state_marginal(self):
        rho = HermitianOperator.projector(tensor(KET0, PLUS))
        np.testing.assert_allclose(
            partial_trace(rho, (2, 2), "B").entries,
            HermitianOperator.projector(PLUS).entries,
            atol=1e-12,
        )

    def test_trace_preserved(self):
        rng = SeededRng(107)
        rho = HermitianOperator.projector(random_ket(6, rng))
        for keep in ("A", "B"):
            reduced = partial_trace(rho, (2, 3), keep)
            assert reduced.trace() == pytest.approx(1.0, abs=1e-12)

    def test_unfactorable_dimension(self):
        rho = HermitianOperator.identity(6)
        with pytest.raises(ConfigError, match="cannot factor dim 6 as 2 x 2"):
            partial_trace(rho, (2, 2), "B")


class TestBornMeasure:
    def test_deterministic_outcome(self):
        rng = SeededRng(108)
        for _ in range(50):
            outcome, post = born_measure(KET0, [KET0, KET1], rng)
            assert outcome == 0
            assert post is KET0

    def test_plus_state_frequencies(self):
        rng = SeededRng(109)
        trials = 100_000
        zeros = sum(
            born_measure(PLUS, [KET0, KET1], rng)[0] == 0 for _ in range(trials)
        )
        assert abs(zeros / trials - 0.5) < three_sigma_binomial(0.5, trials)

    def test_dim3_frequencies_match_born_rule(self):
        rng = SeededRng(110)
        state = random_ket(3, rng)
        basis = [basis_ket(3, k) for k in range(3)]
        exact = np.abs(state.amplitudes) ** 2
        trials = 100_000
        counts = np.zeros(3)
        for _ in range(trials):
            counts[born_measure(state, basis, rng)[0]] += 1
        for k in range(3):
            assert abs(counts[k] / trials - exact[k]) < three_sigma_binomial(
                exact[k], trials
            )

    def test_non_orthonormal_basis_rejected(self):
        rng = SeededRng(111)
        with pytest.raises(ConfigError, match="basis is not orthonormal within tolerance"):
            born_measure(KET0, [KET0, PLUS], rng)
        with pytest.raises(ConfigError, match="1 basis vectors cannot span dimension 2"):
            born_measure(KET0, [KET0], rng)


class TestMeasureSubsystem:
    def test_bell_conditional_states(self):
        bell = Ket.normalized([1, 0, 0, 1])
        basis = np.eye(2)
        rng = SeededRng(112)
        counts = [0, 0]
        for _ in range(2000):
            outcome, post = measure_subsystem(bell, (2, 2), "A", basis, rng)
            counts[outcome] += 1
            np.testing.assert_allclose(post.amplitudes, basis[:, outcome], atol=1e-12)
        assert abs(counts[0] / 2000 - 0.5) < three_sigma_binomial(0.5, 2000)

    def test_measure_second_subsystem(self):
        state = tensor(PLUS, KET1)
        rng = SeededRng(113)
        outcome, post = measure_subsystem(state, (2, 2), "B", np.eye(2), rng)
        assert outcome == 1
        assert abs(abs(inner_product(post, PLUS)) - 1.0) < 1e-12


class TestTraceDistance:
    def test_zero_for_equal(self):
        rho = HermitianOperator.projector(PLUS)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_states(self):
        assert trace_distance(
            HermitianOperator.projector(KET0), HermitianOperator.projector(KET1)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_zero_plus_pair(self):
        # eigenvalues of the explicit 2x2 difference are +-1/sqrt(2)
        assert trace_distance(
            HermitianOperator.projector(KET0), HermitianOperator.projector(PLUS)
        ) == pytest.approx(0.7071067811865476, abs=1e-10)

    def test_symmetry(self):
        rng = SeededRng(114)
        a = HermitianOperator.projector(random_ket(3, rng))
        b = HermitianOperator.projector(random_ket(3, rng))
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError, match="trace distance needs equal dimensions"):
            trace_distance(
                HermitianOperator.identity(2), HermitianOperator.identity(3)
            )


class TestSeededRng:
    def test_reproducible_streams(self):
        a = SeededRng(7, 3).uniforms(10)
        b = SeededRng(7, 3).uniforms(10)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        assert not np.array_equal(SeededRng(7, 0).uniforms(5), SeededRng(7, 1).uniforms(5))

    @pytest.mark.parametrize("low, high", [(0, 2**64 - 1), (2**63, 2**63 + 1)])
    def test_seeds_above_2_63_keep_their_own_stream(self, low, high):
        # a key rounded through float64 would alias these seed pairs
        assert not np.array_equal(
            SeededRng(low, 2).uniforms(5), SeededRng(high, 2).uniforms(5)
        )

    def test_choice_skips_zero_probability(self):
        rng = SeededRng(115)
        probs = np.array([0.0, 1.0, 0.0])
        assert all(rng.choice(probs) == 1 for _ in range(100))

    def test_multinomial_skips_zero_mass_cells(self):
        # these cells sum to exactly 1.0, yet numpy alone leaves the trailing
        # zero cell a roundoff share of about 50 counts at this n; the
        # wrapper must leave it exactly empty
        probs = [0.11040378794601367, 0.29989663307842795, 0.28749343780306735,
                 0.15526188267530527, 0.14694425849718568, 0.0]
        for seed in range(20):
            counts = SeededRng(116, seed).multinomial(10**18, [0.0] + probs)
            assert counts[0] == 0 and counts[-1] == 0
            assert counts.dtype == np.int64 and counts.sum() == 10**18

    def test_multinomial_rows_are_consecutive_draws(self):
        probs = np.array([0.2, 0.0, 0.5, 0.3])
        rows = SeededRng(117, 1).multinomial(1_000, probs, 6)
        rng = SeededRng(117, 1)
        np.testing.assert_array_equal(
            rows, [rng.multinomial(1_000, probs) for _ in range(6)]
        )
        assert SeededRng(117, 1).multinomial(5, probs, 0).shape == (0, 4)

    KEY = st.integers(0, 2**64 - 1)

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        seed=KEY,
        stream_id=KEY,
        n=st.integers(0, 8),
        probs=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5),
        size=st.integers(0, 4),
    )
    @example(seed=0, stream_id=0, n=3, probs=[0.5, 0.5], size=2)
    @example(seed=2**63 - 1, stream_id=2**63, n=3, probs=[0.5, 0.5], size=2)
    @example(seed=2**63, stream_id=2**63 - 1, n=3, probs=[0.5, 0.5], size=2)
    @example(seed=2**64 - 1, stream_id=2**64 - 1, n=3, probs=[0.5, 0.5], size=2)
    def test_draws_match_philox_keyed_directly(self, seed, stream_id, n, probs, size):
        rng = SeededRng(seed, stream_id)
        ref = Generator(Philox(key=np.array([seed, stream_id], dtype=np.uint64)))
        probs = np.array(probs)
        np.testing.assert_array_equal(rng.uniforms(n), ref.random(n))
        np.testing.assert_array_equal(normals(rng, n), ref.standard_normal(n))
        edges = np.cumsum(probs / probs.sum())
        edges[-1] = max(edges[-1], 1.0)
        assert rng.choice(probs / probs.sum()) == np.searchsorted(
            edges, ref.random(), side="right"
        )
        np.testing.assert_array_equal(
            rng.multinomial(10**6, probs, size),
            ref.multinomial(10**6, probs / probs.sum(), size),
        )
        assert rng.random() == ref.random()

    def test_construction_draws_nothing(self, monkeypatch):
        keys = []
        rekey = qcore._rekey
        monkeypatch.setattr(qcore, "_rekey", lambda *key: keys.append(key) or rekey(*key))
        rng = SeededRng(118, 5)
        assert keys == [] and qcore._holder() is not rng
        first = rng.uniforms(3)
        second = rng.uniforms(3)
        # one re-key, on the first draw; the stream keeps the generator
        assert keys == [(118, 5)] and qcore._holder() is rng
        np.testing.assert_array_equal(
            np.concatenate([first, second]), SeededRng(118, 5).uniforms(6)
        )

    @pytest.mark.parametrize("draws", [0, 3])
    def test_deepcopy_replays_the_same_draws(self, draws):
        # a copy of a stream that holds the generator, or never drew
        rng = SeededRng(119, 2)
        if draws:
            rng.uniforms(draws)
        assert (qcore._holder() is rng) == bool(draws)
        twin = copy.deepcopy(rng)
        np.testing.assert_array_equal(twin.uniforms(5), rng.uniforms(5))
        np.testing.assert_array_equal(normals(twin, 4), normals(rng, 4))

    def test_deepcopy_after_handover_replays_the_same_draws(self):
        rng, other = SeededRng(119, 3), SeededRng(119, 4)
        rng.uniforms(3)
        other.uniforms(1)  # rng hands the generator over
        assert qcore._holder() is other
        twin = copy.deepcopy(rng)
        expected = Generator(Philox(key=np.array([119, 3], dtype=np.uint64)))
        expected.random(3)
        rest = expected.random(5)
        np.testing.assert_array_equal(twin.uniforms(5), rest)
        np.testing.assert_array_equal(rng.uniforms(5), rest)

    KINDS = ["random", "uniforms", "normals", "choice", "multinomial"]

    @staticmethod
    def draw(rng, kind, probs, size):
        """One draw of ``kind`` from a stream, or from a generator when
        ``rng`` is a numpy ``Generator``."""
        own = isinstance(rng, Generator)
        if kind == "random":
            return rng.random()
        if kind == "uniforms":
            return rng.random(size or 0) if own else rng.uniforms(size or 0)
        if kind == "normals":
            return rng.standard_normal(size or 0) if own else normals(rng, size or 0)
        probs = probs / probs.sum()
        if kind == "choice":
            if not own:
                return rng.choice(probs)
            edges = np.cumsum(probs)
            edges[-1] = max(edges[-1], 1.0)
            return int(np.searchsorted(edges, rng.random(), side="right"))
        return rng.multinomial(1_000, probs, size)

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(
        keys=st.lists(st.tuples(KEY, KEY), min_size=2, max_size=4, unique=True),
        steps=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(KINDS),
                st.sampled_from([None, 1, 3]),
            ),
            max_size=25,
        ),
        probs=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
    )
    @example(
        keys=[(0, 0), (0, 1)],
        steps=[(0, "uniforms", 3), (1, "multinomial", None), (0, "normals", 1),
               (1, "choice", None), (0, "multinomial", 3), (1, "random", None)],
        probs=[0.5, 0.25, 0.25],
    )
    def test_interleaved_streams_match_their_own_generators(self, keys, steps, probs):
        # live streams that take the generator from each other draw what a
        # generator of their own would
        probs = np.array(probs)
        rngs = [SeededRng(*key) for key in keys]
        refs = [Generator(Philox(key=np.array(key, dtype=np.uint64))) for key in keys]
        for which, kind, size in steps:
            which %= len(keys)
            np.testing.assert_array_equal(
                self.draw(rngs[which], kind, probs, size),
                self.draw(refs[which], kind, probs, size),
            )

    def test_threads_draw_their_own_streams(self):
        def draws(stream_id):
            rng = SeededRng(122, stream_id)
            return np.concatenate([rng.uniforms(3) for _ in range(2_000)])

        # more threads than a CI runner has cores, switching every few draws,
        # so the streams take the generator from each other many times
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(draws, stream_id) for stream_id in range(4)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for stream_id, result in enumerate(results):
            gen = Generator(Philox(key=np.array([122, stream_id], dtype=np.uint64)))
            np.testing.assert_array_equal(result, gen.random(6_000))

    @pytest.mark.parametrize(
        "seed, stream_id",
        [(1.5, 0), (True, 0), (-1, 0), (2**64, 0), (0, 1.5), (0, False), (0, -1),
         (0, 2**64), (np.uint64(1), 0), ("1", 0)],
    )
    def test_bad_key_rejected_at_construction(self, seed, stream_id):
        with pytest.raises(ConfigError) as err:
            SeededRng(seed, stream_id)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize(
        "probs",
        [[np.nan, 0.5, 0.5], [-0.1, 0.6, 0.5], [np.inf, 1.0], [-np.inf, 1.0],
         [0.0, 0.0, 0.0], []],
    )
    def test_multinomial_rejects_bad_probabilities(self, probs):
        with pytest.raises(ConfigError) as err:
            SeededRng(120).multinomial(10, probs)
        assert "\n" not in str(err.value)

    # a cell is 0 or a float from the smallest subnormal to 1e300
    CELL = st.one_of(st.just(0.0), st.floats(5e-324, 1e300))

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(
        key=st.tuples(KEY, KEY),
        n=st.integers(0, 10**12),
        probs=st.lists(CELL, min_size=1, max_size=20),
        size=st.sampled_from([None, 0, 1, 7]),
    )
    # every cell positive; a leading, an inner and a trailing zero; subnormal
    # and huge cells; no mass at all
    @example(key=(0, 0), n=200, probs=[0.3, 0.3, 0.4], size=7)
    @example(key=(1, 2), n=200, probs=[0.0, 0.5, 0.5], size=None)
    @example(key=(1, 2), n=200, probs=[0.5, 0.0, 0.5], size=1)
    @example(key=(1, 2), n=10**12, probs=[0.5, 0.5, 0.0], size=7)
    @example(key=(3, 4), n=9, probs=[5e-324, 1e-310, 1e300], size=None)
    @example(key=(3, 4), n=9, probs=[1e300] * 20, size=0)
    @example(key=(5, 6), n=9, probs=[0.0, 0.0], size=None)
    def test_multinomial_matches_support_reference(self, key, n, probs, size):
        # the ndarray methods and the direct reduction give the counts of
        # the reference written with np.flatnonzero and .sum()
        gen = Generator(Philox(key=np.array(key, dtype=np.uint64)))
        try:
            expected = multinomial_by_support(gen, n, probs, size)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as err:
                SeededRng(*key).multinomial(n, probs, size)
            assert str(err.value) == str(exc)
            return
        counts = SeededRng(*key).multinomial(n, probs, size)
        assert counts.dtype == np.int64 and counts.shape == expected.shape
        np.testing.assert_array_equal(counts, expected)

    @pytest.mark.parametrize(
        "probs",
        [[np.nan, 0.5, 0.5], [0.5, np.nan], [np.nan], [-0.1, 0.6, 0.5],
         [0.5, -0.0, -1e-300], [np.inf, 1.0], [1.0, np.inf], [-np.inf, 1.0],
         [0.0, 0.0, 0.0], [0.0], [], [[0.5, 0.5]], [[0.5], [0.5]], 0.5, "x",
         [None, 1.0]],
    )
    @pytest.mark.parametrize("size", [None, 3])
    def test_multinomial_refusals_match_support_reference(self, probs, size):
        gen = Generator(Philox(key=np.array([120, 0], dtype=np.uint64)))
        with pytest.raises(ConfigError) as expected:
            multinomial_by_support(gen, 10, probs, size)
        with pytest.raises(ConfigError) as err:
            SeededRng(120).multinomial(10, probs, size)
        assert str(err.value) == str(expected.value)

    def test_multinomial_draws_when_the_sum_overflows(self):
        # finite cells whose float64 sum overflows draw like their ratios;
        # an infinite cell is still refused
        counts = SeededRng(121).multinomial(10, [1e308, 1e308])
        np.testing.assert_array_equal(
            counts, SeededRng(121).multinomial(10, [0.5, 0.5])
        )
        with pytest.raises(ConfigError):
            SeededRng(121).multinomial(10, [1e308, np.inf])


class TestEnsemble:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="ensemble probabilities sum to 1.1, not 1"):
            Ensemble(((KET0, 0.5), (KET1, 0.6)))

    def test_average_density(self):
        ens = Ensemble(((KET0, 0.5), (KET1, 0.5)))
        np.testing.assert_allclose(
            average_density(ens).entries, np.eye(2) / 2, atol=1e-14
        )


BELL = Ket.normalized([1, 0, 0, 1])


@pytest.mark.parametrize(
    "refuse, message",
    [
        (lambda: Ket(np.zeros(0)), "a ket must be a nonempty 1-D amplitude vector"),
        (lambda: Ensemble(()), "an ensemble needs at least one member"),
        (
            lambda: Ensemble(((KET0, 0.5), (basis_ket(3, 0), 0.5))),
            "ensemble members must share one dimension",
        ),
        (lambda: tensor_power(KET0.amplitudes, 0), "tensor power needs m >= 1"),
        (
            lambda: measure_subsystem(BELL, (2, 3), "A", np.eye(2), SeededRng(114)),
            "cannot factor dim 4 as 2 x 3",
        ),
        (
            lambda: measure_subsystem(BELL, (2, 2), "C", np.eye(2), SeededRng(114)),
            "subsystem must be 'A' or 'B'",
        ),
    ],
    ids=["empty-ket", "empty-ensemble", "mixed-ensemble", "power-0",
         "unfactored-dims", "subsystem-C"],
)
def test_malformed_input_is_refused_with_one_line(refuse, message):
    with pytest.raises(ConfigError) as err:
        refuse()
    assert str(err.value) == message
