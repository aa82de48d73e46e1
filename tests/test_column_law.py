"""The exact column law: properties, the Born-rule reference, stream keys."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqclone import qcore
from pqclone.entangle import AliceBasis, build_shared_state, induced_ensemble
from pqclone.errors import ConditioningError, ConfigError
from pqclone.pqcm import IllegalClonerSpec, construct_machine, max_uniform_gamma
from pqclone.qcore import Ket, SeededRng, random_ket
from pqclone.signalling import (
    LAW_TOL,
    ProtocolConfig,
    _clip_law,
    _stream_id,
    column_law,
    prepare_context,
)

from oracles import exact_copy_column_distribution, trajectory_tally

KET0 = Ket.basis_state(2, 0)
KET1 = Ket.basis_state(2, 1)

# Fixed example order keeps the suite deterministic; the instances are still
# drawn over the whole seed range.
PROPERTY = settings(deadline=None, max_examples=40, derandomize=True)


def _haar_basis(n: int, rng: SeededRng) -> AliceBasis:
    return AliceBasis.from_unitary(qcore.haar_unitary(n, rng))


@st.composite
def legal_instances(draw):
    """Random legal machine: N = 2..3, M = N+1..5 copies, Haar A2."""
    n = draw(st.integers(2, 3))
    mu = draw(st.integers(n + 1, 5))
    rng = SeededRng(draw(st.integers(0, 2**32 - 1)))
    frac = draw(st.floats(0.05, 0.95))
    states = tuple(random_ket(n, rng) for _ in range(n))
    try:
        gamma = frac * max_uniform_gamma(states, mu)
        machine = construct_machine(states, mu, [gamma] * n)
    except ConditioningError:
        assume(False)
    return ProtocolConfig(
        bob_states=states,
        a2_basis=_haar_basis(n, rng),
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


def assert_is_distribution(law: np.ndarray) -> None:
    assert law.min() >= 0.0  # column_law clips only inside [-LAW_TOL, 0)
    np.testing.assert_allclose(law.sum(axis=(1, 2)), 1.0, rtol=0, atol=1e-12)


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
    def test_illegal_rows_mix_exact_copy_laws(self, config):
        law = column_law(config)
        spec = config.machine
        ctx = prepare_context(config)
        candidates = [c.amplitudes for c in ctx.candidates]
        shared = build_shared_state(config.bob_states)
        n = config.n
        for setting, basis in enumerate(ctx.bases):
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
                    single = ctx.all_states[clonable - 1].amplitudes
                    expected += w * exact_copy_column_distribution(
                        single, candidates, config.mu
                    )
                np.testing.assert_allclose(
                    law[setting, m, : n + 2], p * expected, rtol=0, atol=1e-12
                )

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
        assert _stream_id(0, 0, 2**40 - 1) == 2**40 - 1
        assert _stream_id(0, 15, 0) == 15 << 40
        assert _stream_id(2**20 - 1, 15, 2**40 - 1) == 2**64 - 1

    @pytest.mark.parametrize(
        "phase, setting, index",
        [(0, 0, 2**40), (0, 16, 0), (2**20, 0, 0), (0, 0, -1), (-1, 0, 0)],
    )
    def test_overflowing_field_rejected(self, phase, setting, index):
        with pytest.raises(ConfigError):
            _stream_id(phase, setting, index)
