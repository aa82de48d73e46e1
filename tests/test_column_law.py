"""The exact column law: properties, the Born-rule reference, stream keys."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqclone.entangle import (
    AliceBasis,
    build_shared_state,
    induced_ensemble,
    induced_states,
    target_to_basis,
)
from pqclone.errors import ConditioningError, ConfigError
from pqclone.pqcm import IllegalClonerSpec, construct_machine, max_uniform_gamma
from pqclone.qcore import Ket, SeededRng
from pqclone.signalling import (
    LAW_TOL,
    ProtocolConfig,
    _clip_law,
    _legal_rows,
    _stream_id,
    column_law,
    group_sizes,
    prepare_context,
)

from born import haar_unitary, random_ket
from oracles import (
    contracted_legal_rows,
    exact_copy_column_distribution,
    induced_members_by_kets,
    trajectory_tally,
)

KET0 = Ket.basis_state(2, 0)
KET1 = Ket.basis_state(2, 1)

# Fixed example order keeps the suite deterministic; the instances are still
# drawn over the whole seed range.
PROPERTY = settings(deadline=None, max_examples=40, derandomize=True)


def _haar_basis(n: int, rng: SeededRng) -> AliceBasis:
    return AliceBasis.from_unitary(haar_unitary(n, rng))


@st.composite
def legal_instances(draw, max_n=3, target_a2=False):
    """Random legal machine: N = 2..max_n, M = N+1..5 copies, Haar A2.

    With ``target_a2`` the A2 basis may instead steer Bob into a random
    target or into one of his own states, which makes candidate N+1 equal
    to candidate 1.
    """
    n = draw(st.integers(2, max_n))
    mu = draw(st.integers(n + 1, 5))
    rng = SeededRng(draw(st.integers(0, 2**32 - 1)))
    frac = draw(st.floats(0.05, 0.95))
    states = tuple(random_ket(n, rng) for _ in range(n))
    try:
        gamma = frac * max_uniform_gamma(states, mu)
        machine = construct_machine(states, mu, [gamma] * n)
    except ConditioningError:
        assume(False)
    a2_kind = draw(st.sampled_from(["haar", "target", "own"])) if target_a2 else "haar"
    if a2_kind == "haar":
        a2_basis = _haar_basis(n, rng)
    else:
        target = random_ket(n, rng) if a2_kind == "target" else states[0]
        a2_basis = target_to_basis(target, states)
    return ProtocolConfig(
        bob_states=states,
        a2_basis=a2_basis,
        mu=mu,
        trials=1,
        pairs_per_bit=1,
        machine=machine,
        seed=0,
    )


@st.composite
def illegal_instances(draw):
    """Random illegal cloner on random states, with or without branch mixing."""
    n = draw(st.integers(2, 3))
    mu = draw(st.integers(n + 1, 12))
    rng = SeededRng(draw(st.integers(0, 2**32 - 1)))
    states = tuple(random_ket(n, rng) for _ in range(n))
    coefficients = {}
    if draw(st.booleans()):
        for label in range(n + 2, 2 * n + 1):
            amps = rng.normals(n + 2) + 1j * rng.normals(n + 2)
            amps /= np.linalg.norm(amps)
            coefficients[label] = (amps[: n + 1], amps[n + 1])
    spec = IllegalClonerSpec(
        clonable_labels=tuple(range(1, n + 2)),
        copies=mu,
        total_labels=2 * n,
        coefficients=coefficients or None,
    )
    return ProtocolConfig(
        bob_states=states,
        a2_basis=_haar_basis(n, rng),
        mu=mu,
        trials=1,
        pairs_per_bit=1,
        machine=spec,
        seed=0,
    )


@st.composite
def steering_cases(draw):
    """Bob states and an A2 basis: Haar, a random target, or Fourier.

    The ``one-ray`` kind puts Bob's states on one ray with Fourier phases,
    |B_n> = exp(2 pi i k n / N) |v>; under the Fourier basis every outcome
    but k then has probability 0 and the placeholder state.
    """
    n = draw(st.integers(2, 4))
    rng = SeededRng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["haar", "target", "fourier", "one-ray"]))
    if kind == "one-ray":
        ray = random_ket(n, rng).amplitudes
        phases = np.exp(2j * np.pi * draw(st.integers(0, n - 1)) * np.arange(n) / n)
        return tuple(Ket(phase * ray) for phase in phases), AliceBasis.fourier(n)
    states = tuple(random_ket(n, rng) for _ in range(n))
    if kind == "haar":
        return states, _haar_basis(n, rng)
    if kind == "target":
        return states, target_to_basis(random_ket(n, rng), states)
    return states, AliceBasis.fourier(n)


def assert_is_distribution(law: np.ndarray) -> None:
    assert law.min() >= 0.0  # column_law clips only inside [-LAW_TOL, 0)
    np.testing.assert_allclose(law.sum(axis=(1, 2)), 1.0, rtol=0, atol=1e-12)


class TestRunContext:
    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(steering_cases())
    def test_arrays_match_member_by_member_steering(self, case):
        # induced_states against the old per-member loop; induced_ensemble
        # wraps it exactly, and a run's context holds its arrays
        states, a2_basis = case
        n = len(states)
        bases = (AliceBasis.computational(n), a2_basis)
        kets, probs = induced_states(np.array([s.amplitudes for s in states]), bases)
        shared = build_shared_state(states)
        for s, basis in enumerate(bases):
            reference = induced_members_by_kets(shared, basis)
            members = induced_ensemble(shared, basis).members
            for m, ((ref_ket, ref_p), (ket, p)) in enumerate(zip(reference, members)):
                assert np.abs(kets[s, m] - ref_ket.amplitudes).max() <= 1e-15
                assert abs(probs[s, m] - ref_p) <= 1e-15
                if ref_p == 0.0:
                    assert probs[s, m] == 0.0
                    np.testing.assert_array_equal(kets[s, m], np.eye(1, n)[0])
                np.testing.assert_array_equal(ket.amplitudes, kets[s, m])
                assert p == probs[s, m]
        config = ProtocolConfig(
            bob_states=states,
            a2_basis=a2_basis,
            mu=n + 1,
            trials=1,
            pairs_per_bit=1,
            machine=IllegalClonerSpec(tuple(range(1, n + 2)), n + 1, 2 * n),
            seed=0,
        )
        if probs[1, 0] == 0.0:  # candidate B_{N+1} is never prepared
            with pytest.raises(ConfigError):
                prepare_context(config)
            return
        ctx = prepare_context(config)
        np.testing.assert_array_equal(ctx.kets, kets)
        np.testing.assert_array_equal(ctx.probs, probs)
        np.testing.assert_array_equal(ctx.preparations, kets.reshape(2 * n, n))
        np.testing.assert_array_equal(ctx.candidates, kets.reshape(2 * n, n)[: n + 1])


class TestLawProperties:
    @PROPERTY
    @given(legal_instances())
    def test_legal_law_is_blind_to_alice_basis(self, config):
        law = column_law(config)
        n = config.n
        assert_is_distribution(law)
        # Bob's column law, discard mass included, is the same for A1 and A2
        np.testing.assert_allclose(
            law[0].sum(axis=0), law[1].sum(axis=0), rtol=0, atol=1e-12
        )
        # a legal machine never fills column N+1, in any row
        assert law[:, :, n].max() <= 1e-12

    @PROPERTY
    @given(legal_instances(max_n=4, target_a2=True))
    def test_gram_rows_match_contracted_success_branch(self, config):
        # Gram-form rows against inclusion-exclusion on the explicit N^mu
        # success branch A psi_m; the appended member has probability 0
        ctx = prepare_context(config)
        n = config.n
        candidate_kets = [Ket(row) for row in ctx.candidates]
        for kets, probs in zip(ctx.kets, ctx.probs):
            kets = np.vstack([kets, np.eye(1, n)])
            probs = np.append(probs, 0.0)
            members = [(Ket(row), p) for row, p in zip(kets, probs)]
            np.testing.assert_allclose(
                _legal_rows(config.machine, kets, probs, ctx.candidates, config.mu),
                contracted_legal_rows(
                    config.machine.kraus_success, members, candidate_kets, config.mu
                ),
                rtol=0,
                atol=1e-12,
            )

    @PROPERTY
    @given(illegal_instances())
    def test_illegal_law_structure(self, config):
        law = column_law(config)
        n = config.n
        assert_is_distribution(law)
        assert law[0, :, n].max() <= 1e-12  # A1 rows leave column N+1 empty
        assert law[1, :, n].sum() > 0.0  # A2 rows populate it
        assert law[:, :, n + 2].max() == 0.0  # the device never reports failure

    @PROPERTY
    @given(illegal_instances())
    def test_illegal_law_signals_through_column_n_plus_1(self, config):
        # The label-aware cloner's output depends on the label, not only on
        # Bob's state. A1's clonable rows never fill column N+1, while A2's
        # outcome 1 (label N+1, clonable) alone puts
        # p(B_{N+1}) prod_{j<=N} (1 - |<B_j|B_{N+1}>|^(2 g_j)) there, so
        # Bob's A1 and A2 cell marginals are at least that far apart.
        law = column_law(config)
        n = config.n
        ctx = config.context
        target = ctx.candidates[n]
        overlaps = np.array(
            [abs(np.vdot(b.amplitudes, target)) for b in config.bob_states]
        )
        sizes = np.array(group_sizes(config.mu, n + 1)[:n])
        bound = ctx.probs[1, 0] * np.prod(1.0 - overlaps ** (2 * sizes))
        marginals = law.sum(axis=1)
        distance = 0.5 * np.abs(marginals[0] - marginals[1]).sum()
        assert np.all(law[0, :, n] == 0.0)
        assert law[1, :, n].sum() >= bound * (1.0 - 1e-9)
        assert distance >= bound * (1.0 - 1e-9)
        assert bound > 0.0 or overlaps.max() >= 1.0 - 1e-12

    @PROPERTY
    @given(illegal_instances())
    def test_illegal_rows_mix_exact_copy_laws(self, config):
        law = column_law(config)
        spec = config.machine
        ctx = prepare_context(config)
        candidates = list(ctx.candidates)
        shared = build_shared_state(config.bob_states)
        n = config.n
        bases = (AliceBasis.computational(n), config.a2_basis)
        for setting, basis in enumerate(bases):
            for m, (_, p) in enumerate(induced_ensemble(shared, basis).members):
                label = setting * n + m + 1
                if label in spec.clonable_labels:
                    weights = np.zeros(len(spec.clonable_labels) + 1)
                    weights[spec.clonable_labels.index(label)] = 1.0
                else:
                    weights = spec.branch_probabilities(label)
                expected = np.zeros(n + 2)
                expected[n + 1] = weights[-1]  # junk branch
                for w, clonable in zip(weights, spec.clonable_labels):
                    single = ctx.preparations[clonable - 1]
                    expected += w * exact_copy_column_distribution(
                        single, candidates, config.mu
                    )
                np.testing.assert_allclose(
                    law[setting, m, : n + 2], p * expected, rtol=0, atol=1e-12
                )

    @PROPERTY
    @given(
        n=st.integers(2, 4),
        extra_copies=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        fractions=st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
    )
    def test_legal_rows_blind_to_alice_basis_for_any_gammas(
        self, n, extra_copies, seed, fractions
    ):
        # The legal law is linear in Bob's state, so A1 and A2 leave him the
        # same cell marginals for every diagonal Gamma, infeasible ones up to
        # 2 gamma_max included; the Gram condition only keeps cells >= 0. The
        # stand-in carries just what _legal_rows reads: no Kraus pair is built.
        rng = SeededRng(seed)
        mu = n + extra_copies
        states = tuple(random_ket(n, rng) for _ in range(n))
        assume(np.linalg.cond(np.array([s.amplitudes for s in states])) < 1e3)
        gammas = np.array(fractions[:n]) * max_uniform_gamma(states, mu)
        stand_in = SimpleNamespace(clonable=states, gammas=gammas)
        kets, probs = induced_states(
            np.array([s.amplitudes for s in states]),
            (AliceBasis.computational(n), _haar_basis(n, rng)),
        )
        candidates = np.vstack([kets[0], kets[1, :1]])
        a1_cells, a2_cells = (
            _legal_rows(stand_in, kets[s], probs[s], candidates, mu).sum(axis=0)
            for s in (0, 1)
        )
        np.testing.assert_allclose(a1_cells, a2_cells, rtol=0, atol=1e-12)

    def test_clip_only_inside_roundoff_band(self):
        raw = np.array([[[0.5, -0.5 * LAW_TOL, 0.5]]])
        np.testing.assert_array_equal(_clip_law(raw), [[[0.5, 0.0, 0.5]]])
        with pytest.raises(ConditioningError):
            _clip_law(np.array([[[0.5, -2.0 * LAW_TOL, 0.5]]]))
        with pytest.raises(ConditioningError):
            _clip_law(np.array([[[0.5, np.nan, 0.5]]]))


def _legal(states, mu, seed):
    gamma = 0.9 * max_uniform_gamma(states, mu)
    return ProtocolConfig(
        bob_states=tuple(states),
        a2_basis=AliceBasis.fourier(len(states)),
        mu=mu,
        trials=1,
        pairs_per_bit=1,
        machine=construct_machine(states, mu, [gamma] * len(states)),
        seed=seed,
    )


def _illegal_mixed(mu, seed):
    spec = IllegalClonerSpec(
        clonable_labels=(1, 2, 3),
        copies=mu,
        total_labels=4,
        coefficients={4: (np.sqrt([0.3, 0.3, 0.3]), np.sqrt(0.1))},
    )
    return ProtocolConfig(
        bob_states=(KET0, KET1),
        a2_basis=AliceBasis.fourier(2),
        mu=mu,
        trials=1,
        pairs_per_bit=1,
        machine=spec,
        seed=seed,
    )


LAW_VS_TRAJECTORY = {
    "legal_n2_mu6": lambda: _legal((KET0, Ket.normalized([0.5, np.sqrt(0.75)])), 6, 61),
    "legal_n3_mu4": lambda: _legal(
        (
            Ket.basis_state(3, 0),
            Ket.normalized([0.6, 0.8, 0.0]),
            Ket.normalized([0.6, 0.0, 0.8]),
        ),
        4,
        62,
    ),
    "illegal_n2_mu6": lambda: _illegal_mixed(6, 63),
}


@pytest.mark.parametrize("case", sorted(LAW_VS_TRAJECTORY))
def test_law_matches_born_rule_trajectories(case):
    # pair-by-pair alice_measure -> cloner -> group_verify against the law;
    # every nonzero cell expects at least 5 counts, so z is near-normal
    config = LAW_VS_TRAJECTORY[case]()
    law = column_law(config)
    trials = 2_000
    for setting in (0, 1):
        counts = trajectory_tally(config, setting, trials, seed=config.seed)
        p = law[setting]
        zero = p <= LAW_TOL
        assert np.all(counts[zero] == 0), f"{case}: hits in zero-mass cells"
        mean = trials * p[~zero]
        assert mean.min() >= 5.0
        z = (counts[~zero] - mean) / np.sqrt(mean * (1.0 - p[~zero]))
        assert np.abs(z).max() <= 5.0, f"{case} A{setting + 1}: z = {z}"


class TestStreamId:
    def test_fields_pack_without_overlap(self):
        assert _stream_id(0, 15) == 15
        assert _stream_id(1, 0) == 16
        assert _stream_id(2**60 - 1, 15) == 2**64 - 1

    @pytest.mark.parametrize(
        "phase, setting", [(0, 16), (2**60, 0), (0, -1), (-1, 0)]
    )
    def test_overflowing_field_rejected(self, phase, setting):
        with pytest.raises(ConfigError):
            _stream_id(phase, setting)
