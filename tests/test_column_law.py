"""The exact column law: properties, the Born-rule reference, stream keys."""

import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pqclone.config import RunConfig, build_protocol
from pqclone.entangle import (
    AliceBasis,
    build_shared_state,
    induced_ensemble,
    induced_states,
    target_to_basis,
)
from pqclone.errors import ConfigError, RankError
from pqclone.pqcm import (
    FactoredSet,
    IllegalClonerSpec,
    PqcmMachine,
    construct_machine,
    max_uniform_gamma,
)
from pqclone.qcore import Ket, SeededRng, normalize
from pqclone.signalling import (
    LAW_TOL,
    ProtocolConfig,
    _branches,
    _clip_law,
    _law_rows,
    _stay,
    _CHANNEL_STREAM,
    _MESSAGE_STREAM,
    _PROTOCOL_STREAM,
    _VOTE_STREAM,
    column_law,
    group_sizes,
    prepare_context,
)

from born import basis_ket, haar_unitary, normals, random_ket, state_rows
from oracles import (
    contracted_legal_rows,
    exact_copy_column_distribution,
    high_precision_legal_law,
    induced_members_by_kets,
    induced_states_by_scatter,
    law_by_gather,
    stay_by_gather,
    trajectory_tally,
)

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
KET0 = basis_ket(2, 0)
KET1 = basis_ket(2, 1)

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
    states = state_rows([random_ket(n, rng) for _ in range(n)])
    gamma = frac * max_uniform_gamma(states, mu)
    machine = construct_machine(states, mu, [gamma] * n)
    a2_kind = draw(st.sampled_from(["haar", "target", "own"])) if target_a2 else "haar"
    if a2_kind == "haar":
        a2_basis = _haar_basis(n, rng)
    else:
        target = random_ket(n, rng).amplitudes if a2_kind == "target" else states[0]
        a2_basis = target_to_basis(target, states)
    return ProtocolConfig(
        bob_states=states,
        a2_basis=a2_basis,
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
    states = state_rows([random_ket(n, rng) for _ in range(n)])
    coefficients = {}
    if draw(st.booleans()):
        for label in range(n + 2, 2 * n + 1):
            amps = normals(rng, n + 2) + 1j * normals(rng, n + 2)
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
        return phases[:, None] * ray, AliceBasis.fourier(n)
    states = state_rows([random_ket(n, rng) for _ in range(n)])
    if kind == "haar":
        return states, _haar_basis(n, rng)
    if kind == "target":
        return states, target_to_basis(random_ket(n, rng).amplitudes, states)
    return states, AliceBasis.fourier(n)


@st.composite
def steered_configs(draw):
    """A ``steering_cases`` pair under the label-aware cloner, with any N+1
    clonable labels and branch mixing or not, or, when Bob's states are
    independent, under a legal machine."""
    states, a2_basis = draw(steering_cases())
    n = len(states)
    mu = draw(st.integers(n + 1, 6))
    if draw(st.booleans()) and np.linalg.cond(states) < 1e3:
        gamma = draw(st.floats(0.05, 0.95)) * max_uniform_gamma(states, mu)
        machine = construct_machine(states, mu, [gamma] * n)
    else:
        labels = draw(
            st.lists(st.integers(1, 2 * n), min_size=n + 1, max_size=n + 1, unique=True)
        )
        coefficients = {}
        if draw(st.booleans()):
            rng = SeededRng(draw(st.integers(0, 2**32 - 1)))
            for label in set(range(1, 2 * n + 1)) - set(labels):
                amps = normalize(normals(rng, n + 2) + 1j * normals(rng, n + 2))
                coefficients[label] = (amps[: n + 1], amps[n + 1])
        machine = IllegalClonerSpec(tuple(labels), mu, 2 * n, coefficients or None)
    return ProtocolConfig(
        bob_states=states,
        a2_basis=a2_basis,
        trials=1,
        pairs_per_bit=1,
        machine=machine,
        seed=0,
    )


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
        kets, probs = induced_states(states, bases)
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
            trials=1,
            pairs_per_bit=1,
            machine=IllegalClonerSpec(tuple(range(1, n + 2)), n + 1, 2 * n),
            seed=0,
        )
        if probs[1, 0] == 0.0:  # candidate B_{N+1} is never prepared
            with pytest.raises(ConfigError):
                config.context
            return
        ctx = config.context
        np.testing.assert_array_equal(ctx.kets, kets)
        np.testing.assert_array_equal(ctx.probs, probs)

    def test_stay_matches_the_gather_bit_for_bit(self):
        # the masked product takes each (l, i)'s factors in the gather's order
        rng = np.random.default_rng(11)
        for n in range(1, 129):
            shape = (n + 1, 2 * n)
            hit = rng.random(shape) ** rng.integers(1, 9, size=(n + 1, 1))
            hit[rng.random(shape) < 0.1] = 0.0
            hit[rng.random(shape) < 0.1] = 1.0
            stay, reference = _stay(hit), stay_by_gather(hit)
            assert stay.shape == shape
            assert np.array_equal(stay.view(np.uint64), reference.view(np.uint64)), n

    @settings(deadline=None, max_examples=120, derandomize=True)
    @given(steered_configs())
    def test_law_path_matches_the_gather_forms_bit_for_bit(self, config):
        # the context and law on basic indexing against the fancy gathers,
        # boolean scatters and np.eye forms they replaced; the one-ray kind
        # has zero-probability members, and so placeholder states
        n = config.n
        bases = (AliceBasis.computational(n), config.a2_basis)
        kets, probs = induced_states(config.bob_states, bases)
        ref_kets, ref_probs = induced_states_by_scatter(config.bob_states, bases)
        assert same_bits(kets, ref_kets) and same_bits(probs, ref_probs)
        try:
            reference = law_by_gather(config)
        except (ConfigError, RankError) as exc:
            with pytest.raises(type(exc)):
                config.law
            return
        ctx = config.context
        for name in ("kets", "probs", "only"):
            assert same_bits(getattr(ctx, name), getattr(reference, name)), name
        assert same_bits(config.law, reference.law)

    def test_table_memory_is_quadratic_in_n(self):
        # at this size an (N+1) x N x 2N gather of the table traces ~110 MiB
        n, mu = 192, 384
        rng = np.random.default_rng(n)
        states = normalize(rng.standard_normal((n, n, 2)) @ [1.0, 1j])
        a2_basis = AliceBasis.fourier(n)
        tracemalloc.start()
        try:
            prepare_context(states, a2_basis, mu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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
        # a legal machine never fills column N+1, in any row, and an A1
        # member (clonable state B_m) fills no classified column but its own:
        # both are exact zeros of the law, not roundoff
        assert np.all(law[:, :, n] == 0.0)
        assert np.all(law[0, :, :n][~np.eye(n, dtype=bool)] == 0.0)

    @PROPERTY
    @given(legal_instances(max_n=4, target_a2=True))
    def test_gram_rows_match_contracted_success_branch(self, config):
        # mixture-form rows against inclusion-exclusion on the explicit N^mu
        # success branch A psi_m; the appended A2 member has probability 0
        ctx = config.context
        n = config.n
        kets = np.vstack([ctx.kets.reshape(2 * n, n), np.eye(1, n)])
        probs = np.append(ctx.probs.ravel(), 0.0)
        # A1's members, then A2's with the appended one
        stand_in = SimpleNamespace(kets=(kets[:n], kets[n:]), only=ctx.only)
        np.testing.assert_allclose(
            _law_rows(config.machine, probs, stand_in),
            contracted_legal_rows(
                config.machine.kraus_success, kets, probs, kets[: n + 1], config.mu
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
        target = ctx.kets[1, 0]  # candidate B_{N+1}
        overlaps = np.array(
            [abs(np.vdot(b, target)) for b in config.bob_states]
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
        ctx = config.context
        n = config.n
        preparations = ctx.kets.reshape(2 * n, n)
        candidates = list(preparations[: n + 1])
        shared = build_shared_state(config.bob_states)
        bases = (AliceBasis.computational(n), config.a2_basis)
        for setting, basis in enumerate(bases):
            for m, (_, p) in enumerate(induced_ensemble(shared, basis).members):
                label = setting * n + m + 1
                if label in spec.clonable_labels:
                    weights = np.zeros(len(spec.clonable_labels) + 1)
                    weights[spec.clonable_labels.index(label)] = 1.0
                else:
                    weights = spec.branch_weights[label - 1]
                expected = np.zeros(n + 2)
                expected[n + 1] = weights[-1]  # junk branch
                for w, clonable in zip(weights, spec.clonable_labels):
                    single = preparations[clonable - 1]
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
        # 2 gamma_max included; the Gram condition only keeps the discard cell
        # >= 0. The stand-in carries just what _law_rows reads, the factored
        # set and the efficiencies: no Kraus pair is built.
        rng = SeededRng(seed)
        mu = n + extra_copies
        states = state_rows([random_ket(n, rng) for _ in range(n)])
        assume(np.linalg.cond(states) < 1e3)
        gammas = np.array(fractions[:n]) * max_uniform_gamma(states, mu)
        legal = FactoredSet(states, mu)
        stand_in = SimpleNamespace(factored=legal, gammas=gammas)
        ctx = prepare_context(states, _haar_basis(n, rng), mu)
        rows = _law_rows(stand_in, ctx.probs.ravel(), ctx)
        a1_cells, a2_cells = rows[:n].sum(axis=0), rows[n:].sum(axis=0)
        np.testing.assert_allclose(a1_cells, a2_cells, rtol=0, atol=1e-12)

    @PROPERTY
    @given(
        n=st.integers(2, 4),
        extra_copies=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        fractions=st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
    )
    def test_legal_branch_masses_sum_to_gamma_over_n(
        self, n, extra_copies, seed, fractions
    ):
        # The identity behind blindness: Bob's state averaged over Alice's
        # outcomes is B B*/N under either setting, so the branch masses
        # |beta|^2 summed over her outcomes are Gamma/N, and the success
        # masses sum to sum(gamma)/N, since X^(o mu) has a unit diagonal.
        # It holds for every diagonal Gamma, infeasible ones included.
        rng = SeededRng(seed)
        mu = n + extra_copies
        states = state_rows([random_ket(n, rng) for _ in range(n)])
        assume(np.linalg.cond(states) < 1e3)
        gammas = np.array(fractions[:n]) * max_uniform_gamma(states, mu)
        stand_in = SimpleNamespace(factored=FactoredSet(states, mu), gammas=gammas)
        ctx = prepare_context(states, _haar_basis(n, rng), mu)
        branches, mass, success = _branches(stand_in, ctx.probs.ravel(), ctx)
        # the selected columns are those of B_1..B_N
        np.testing.assert_array_equal(ctx.only[:, branches], ctx.only[:, :n])
        for setting in (0, 1):
            members = slice(setting * n, (setting + 1) * n)
            np.testing.assert_allclose(
                mass[members].sum(axis=0), gammas / n, rtol=0, atol=1e-12
            )
            assert abs(success[members].sum() - gammas.sum() / n) <= 1e-12

    def test_illegal_branch_b_n_plus_1_has_mass_only_under_a2(self):
        # the illegal cloner's readable bit, in its branch masses: label 3
        # (B_3, A2's first outcome) is clonable, so only A2 puts mass on it
        run = RunConfig.load(CONFIGS / "illegal_n2.json")
        config = build_protocol(run, CONFIGS)
        ctx = config.context
        branches, mass, success = _branches(
            config.machine, ctx.probs.ravel(), ctx
        )
        np.testing.assert_array_equal(branches, [0, 1, 2])
        assert mass[:2, 2].sum() == 0.0
        assert mass[2:, 2].sum() == 0.5
        np.testing.assert_array_equal(success, ctx.probs.ravel())

    @PROPERTY
    @given(st.one_of(legal_instances(max_n=4), illegal_instances()))
    def test_clip_never_touches_a_classified_cell(self, config):
        # columns B_1..B_{N+1} are products of probabilities, never negative;
        # only PHI and the discard cell, both differences, can carry roundoff
        # below 0 for _clip_law to clip
        n = config.n
        ctx = config.context
        probs = ctx.probs.ravel()
        raw = _law_rows(config.machine, probs, ctx)
        assert raw[:, : n + 1].min() >= 0.0
        np.testing.assert_array_equal(
            column_law(config)[:, :, : n + 1], raw.reshape(2, n, n + 3)[:, :, : n + 1]
        )

    @PROPERTY
    @given(
        n=st.integers(2, 3),
        extra_copies=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        log_spread=st.floats(-4.8, 0.0),
        frac=st.floats(0.3, 1.0),
    )
    # cond(B) 3.0e4 and 2.6e4, at gamma_max
    @example(n=2, extra_copies=5, seed=3, log_spread=-4.4, frac=1.0)
    @example(n=3, extra_copies=1, seed=1, log_spread=-4.0, frac=1.0)
    # cond(B) 293.6 and 324.4: one on each side of pqcm.CHOLESKY_COND
    @example(n=3, extra_copies=5, seed=2, log_spread=-1.8, frac=1.0)
    @example(n=3, extra_copies=5, seed=1, log_spread=-2.1, frac=1.0)
    def test_legal_law_matches_50_digit_reference(
        self, n, extra_copies, seed, log_spread, frac
    ):
        # states spread by 10**log_spread about one ray reach cond(B) up to
        # the rank rule's limit (~3.2e4), across both branches of the
        # product factor; the float law stays within LAW_TOL of the law
        # computed at 50 digits from the same float inputs
        rng = SeededRng(seed)
        mu = n + extra_copies
        ray = random_ket(n, rng).amplitudes
        states = state_rows(
            [
                Ket.normalized(ray + 10**log_spread * random_ket(n, rng).amplitudes)
                for _ in range(n)
            ]
        )
        try:
            legal = FactoredSet(states, mu)
        except RankError:
            assume(False)
        config = ProtocolConfig(
            bob_states=states,
            a2_basis=_haar_basis(n, rng),
            trials=1,
            pairs_per_bit=1,
            machine=PqcmMachine(legal, [frac * legal.gamma_max] * n),
            seed=0,
        )
        reference = high_precision_legal_law(
            legal.b_mat.T, config.a2_basis.matrix, config.machine.gammas, mu
        )
        error = np.abs(column_law(config) - reference.astype(float)).max()
        assert error <= LAW_TOL

    def test_clip_only_inside_roundoff_band(self):
        raw = np.array([[[0.5, -0.5 * LAW_TOL, 0.5]]])
        np.testing.assert_array_equal(_clip_law(raw), [[[0.5, 0.0, 0.5]]])
        with pytest.raises(RankError, match="too ill-conditioned for an accurate law"):
            _clip_law(np.array([[[0.5, -2.0 * LAW_TOL, 0.5]]]))
        with pytest.raises(RankError, match="column law entry nan lies below"):
            _clip_law(np.array([[[0.5, np.nan, 0.5]]]))


def _legal(states, mu, seed):
    gamma = 0.9 * max_uniform_gamma(states, mu)
    return ProtocolConfig(
        bob_states=states,
        a2_basis=AliceBasis.fourier(len(states)),
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
        bob_states=state_rows((KET0, KET1)),
        a2_basis=AliceBasis.fourier(2),
        trials=1,
        pairs_per_bit=1,
        machine=spec,
        seed=seed,
    )


LAW_VS_TRAJECTORY = {
    "legal_n2_mu6": lambda: _legal(
        state_rows((KET0, Ket.normalized([0.5, np.sqrt(0.75)]))), 6, 61
    ),
    "legal_n3_mu4": lambda: _legal(
        state_rows(
            (
                basis_ket(3, 0),
                Ket.normalized([0.6, 0.8, 0.0]),
                Ket.normalized([0.6, 0.0, 0.8]),
            )
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


# The Born-rule reference's exact verdicts, as (trials, A1 counts, A2
# counts) of trajectory_tally at seed 1: the three benchmark configs, and
# the mixed illegal cloner, whose unclonable label draws a branch and whose
# overlapping candidates draw every clone test
PINNED_TRAJECTORIES = {
    "illegal_n2": (
        300,
        [[167, 0, 0, 0, 0], [0, 133, 0, 0, 0]],
        [[0, 0, 144, 0, 0], [0, 0, 0, 156, 0]],
    ),
    "illegal_n2_mu6_mixed": (
        300,
        [[122, 0, 0, 45, 0], [0, 106, 0, 27, 0]],
        [[0, 0, 90, 54, 0], [35, 42, 21, 58, 0]],
    ),
    "legal_n2": (
        300,
        [[38, 0, 0, 44, 85], [0, 19, 0, 35, 79]],
        [[9, 17, 0, 38, 157], [10, 18, 0, 43, 8]],
    ),
    "legal_n3_wide": (
        60,
        [[3, 0, 0, 0, 5, 15], [0, 3, 0, 0, 1, 16], [0, 0, 1, 0, 3, 13]],
        [[0, 0, 1, 0, 4, 28], [0, 2, 0, 0, 3, 8], [1, 1, 2, 0, 3, 7]],
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_TRAJECTORIES))
def test_born_rule_trajectories_are_pinned(case):
    # any change to a draw or a verdict of the per-pair reference moves
    # these counts, where the z-bound above would let it pass
    if case == "illegal_n2_mu6_mixed":
        config = _illegal_mixed(6, 0)
    else:
        folder = REPO / "bench" if case == "legal_n3_wide" else CONFIGS
        path = folder / f"{case}.json"
        config = build_protocol(RunConfig.load(path), path.parent)
    trials, *expected = PINNED_TRAJECTORIES[case]
    for setting in (0, 1):
        counts = trajectory_tally(config, setting, trials, seed=1)
        np.testing.assert_array_equal(counts, expected[setting])


class TestStreamId:
    def test_fields_pack_without_overlap(self):
        # every output depends on these ids: the protocol and channel
        # streams add the setting (0 or 1), and no two streams share an id
        ids = (_PROTOCOL_STREAM, _CHANNEL_STREAM, _VOTE_STREAM, _MESSAGE_STREAM)
        assert ids == (0, 16, 32, 48)
        streams = [_PROTOCOL_STREAM + s for s in (0, 1)]
        streams += [_CHANNEL_STREAM + s for s in (0, 1)]
        streams += [_VOTE_STREAM, _MESSAGE_STREAM]
        assert len(set(streams)) == len(streams)
