"""Protocol harness: classification, tallies, channel decoding, certificates."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqclone import config as config_mod
from pqclone import signalling
from pqclone.entangle import AliceBasis, build_shared_state, induced_states
from pqclone.errors import ConfigError, DimensionError
from pqclone.pqcm import (
    CloneOutput,
    IllegalClonerSpec,
    construct_machine,
    max_uniform_gamma,
)
from pqclone.qcore import Ensemble, Ket, SeededRng, inner_product
from pqclone.signalling import (
    _PHASE_CHANNEL,
    _PHASE_PROTOCOL,
    PHI,
    ProtocolConfig,
    TallyTable,
    _stream_id,
    analytic_leakage,
    analytic_no_signal_certificate,
    channel_accuracy,
    column_law,
    group_sizes,
    group_verify,
    guess_rule,
    random_message,
    run_channel,
    run_protocol,
    stats_from_tally,
)

from born import CollapseTree, haar_unitary, materialize_illegal_output, random_ket
from test_config_cli import REPO
from oracles import (
    channel_accuracy_by_pairs,
    ensemble_certificate,
    exact_copy_column_distribution,
    induced_members_by_kets,
    random_message_by_draws,
    three_sigma_binomial,
    two_sample_sigma,
)

KET0 = Ket.basis_state(2, 0)
KET1 = Ket.basis_state(2, 1)
PLUS = Ket.normalized([1, 1])
MINUS = Ket.normalized([1, -1])

# The two demo configs and the benchmark's wide legal config
DEMO_CONFIGS = {
    "illegal_n2": REPO / "configs" / "illegal_n2.json",
    "legal_n2": REPO / "configs" / "legal_n2.json",
    "legal_n3_wide": REPO / "bench" / "legal_n3_wide.json",
}


def demo_protocol(name, **changes):
    path = DEMO_CONFIGS[name]
    run = dataclasses.replace(config_mod.RunConfig.load(path), **changes)
    return config_mod.build_protocol(run, path.parent)


def illegal_config(trials=20_000, mu=48, seed=42, coefficients=None, pairs_per_bit=200):
    spec = IllegalClonerSpec(
        clonable_labels=(1, 2, 3),
        copies=mu,
        total_labels=4,
        coefficients=coefficients,
    )
    return ProtocolConfig(
        bob_states=(KET0, KET1),
        a2_basis=AliceBasis.fourier(2),
        mu=mu,
        trials=trials,
        pairs_per_bit=pairs_per_bit,
        machine=spec,
        seed=seed,
    )


def legal_config(trials=5_000, mu=6, seed=43, gamma_frac=0.9, pairs_per_bit=5):
    states = (KET0, Ket.normalized([0.5, np.sqrt(0.75)]))
    gamma = gamma_frac * max_uniform_gamma(states, mu)
    machine = construct_machine(states, mu, [gamma, gamma])
    return ProtocolConfig(
        bob_states=states,
        a2_basis=AliceBasis.fourier(2),
        mu=mu,
        trials=trials,
        pairs_per_bit=pairs_per_bit,
        machine=machine,
        seed=seed,
    )


class TestGroupSizes:
    def test_even_split(self):
        assert group_sizes(48, 3) == [16, 16, 16]

    def test_remainder_goes_to_earlier_groups(self):
        assert group_sizes(10, 3) == [4, 3, 3]
        assert group_sizes(7, 4) == [2, 2, 2, 1]


class TestGroupVerify:
    def test_orthogonal_exact_copies_always_classified(self):
        candidates = tuple(Ket.basis_state(3, k) for k in range(3))
        rng = SeededRng(400)
        for l, cand in enumerate(candidates):
            out = CloneOutput.exact_copies(l + 1, cand, 9)
            for _ in range(20):
                assert group_verify(out, candidates, 9, rng) == l + 1

    def test_junk_marker_always_phi(self):
        candidates = (KET0, KET1, PLUS)
        rng = SeededRng(401)
        out = CloneOutput.junk(6)
        for _ in range(50):
            assert group_verify(out, candidates, 6, rng) == PHI

    def test_duplicate_candidates_tie_to_phi(self):
        candidates = (KET0, KET0, KET1)
        out = CloneOutput.exact_copies(1, KET0, 6)
        rng = SeededRng(402)
        for _ in range(50):
            assert group_verify(out, candidates, 6, rng) == PHI

    def test_column_frequencies_match_independent_group_law(self):
        candidates = (KET0, KET1, PLUS)
        mu = 9
        sizes = group_sizes(mu, len(candidates))
        rng = SeededRng(403)
        trials = 100_000
        for label, single in ((3, PLUS), (1, KET0)):
            expected = exact_copy_column_distribution(
                single.amplitudes, [c.amplitudes for c in candidates], mu
            )
            out = CloneOutput.exact_copies(label, single, mu)
            # group_verify draws mu uniforms per trial; row t of one
            # (trials, mu) draw holds trial t's, so the verdicts are the same
            replay = copy.deepcopy(rng)
            overlaps = [abs(inner_product(c, single)) ** 2 for c in candidates]
            thresholds = np.repeat(overlaps, sizes)
            hits = rng.uniforms(trials * mu).reshape(trials, mu) < thresholds
            starts = np.cumsum([0] + sizes[:-1])
            group_ok = np.logical_and.reduceat(hits, starts, axis=1)
            one_winner = group_ok.sum(axis=1) == 1
            cols = np.where(one_winner, group_ok.argmax(axis=1) + 1, PHI)
            direct = [group_verify(out, candidates, mu, replay) for _ in range(1_000)]
            assert cols[:1_000].tolist() == direct
            counts = np.bincount(np.where(cols == PHI, 3, cols - 1), minlength=4)
            for k in range(4):
                assert abs(counts[k] / trials - expected[k]) < three_sigma_binomial(
                    expected[k], trials
                )

    def test_mu_below_group_count_rejected(self):
        with pytest.raises(ConfigError):
            group_verify(CloneOutput.junk(2), (KET0, KET1, PLUS), 2, SeededRng(404))

    def test_joint_exact_copies_match_product_law(self):
        # sequential collapse on a true product state reproduces the
        # independent per-clone statistics
        candidates = (KET0, KET1, PLUS)
        mu = 6
        joint = PLUS.amplitudes
        for _ in range(mu - 1):
            joint = np.kron(joint, PLUS.amplitudes)
        out = CloneOutput.joint_state(Ket(joint), mu, 2)
        expected = exact_copy_column_distribution(
            PLUS.amplitudes, [c.amplitudes for c in candidates], mu
        )
        # group_verify's sequential collapse, memoized per outcome prefix;
        # the first 1 000 trials also run group_verify itself and must agree
        collapse = CollapseTree(out, candidates, mu)
        rng = SeededRng(405)
        trials = 20_000
        counts = np.zeros(4)
        for t in range(trials):
            if t < 1_000:
                direct = group_verify(out, candidates, mu, copy.deepcopy(rng))
            col = collapse.verdict(rng)
            if t < 1_000:
                assert col == direct
            counts[3 if col == PHI else col - 1] += 1
        for k in range(4):
            assert abs(counts[k] / trials - expected[k]) < three_sigma_binomial(
                expected[k], trials
            )


class TestGuessRule:
    def test_low_columns_mean_zero(self):
        assert guess_rule(3, 5) == 0
        assert guess_rule(1, 5) == 0

    def test_last_column_means_one(self):
        assert guess_rule(6, 5) == 1

    def test_phi_abstains(self):
        assert guess_rule(PHI, 5) is None

    @pytest.mark.parametrize("column", [-1, 7])
    def test_column_outside_range_rejected(self, column):
        with pytest.raises(ConfigError):
            guess_rule(column, 5)


@st.composite
def tallies(draw):
    """A random tally for N = 2..4, each setting's counts within the 2**62 cap."""
    n = draw(st.integers(2, 4))
    cells = 2 * n * (n + 2)
    high = draw(st.sampled_from([3, 1_000, 2**62 // (n * (n + 2))]))
    counts = np.array(
        draw(st.lists(st.integers(0, high), min_size=cells, max_size=cells)),
        dtype=np.int64,
    ).reshape(2 * n, n + 2)
    classified = tuple(int(counts[s * n : (s + 1) * n].sum()) for s in (0, 1))
    assume(min(classified) > 0)
    discards = tuple(draw(st.integers(0, high)) for _ in (0, 1))
    return TallyTable(
        n=n,
        counts=counts,
        classified=classified,
        discards=discards,
        trials=tuple(c + d for c, d in zip(classified, discards)),
    )


class TestStatsFromTally:
    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(tallies())
    def test_bit_statistics_match_cell_by_cell_votes(self, tally):
        # setting s sends bit s; every cell's count goes to guess_rule's vote
        n = tally.n
        votes = [[0, 0, 0], [0, 0, 0]]  # 0-votes, 1-votes, abstentions
        for row in range(2 * n):
            for cell in range(n + 2):
                vote = guess_rule(PHI if cell == n + 1 else cell + 1, n)
                votes[row // n][2 if vote is None else vote] += int(
                    tally.counts[row, cell]
                )
        stats = stats_from_tally(tally, 0.0)
        for s, (p0, p1) in enumerate(
            ((stats.p0_a1, stats.p1_a1), (stats.p0_a2, stats.p1_a2))
        ):
            total = tally.classified[s]
            assert sum(votes[s]) == total
            assert p0 == pytest.approx(votes[s][0] / total, rel=0, abs=1e-12)
            assert p1 == pytest.approx(votes[s][1] / total, rel=0, abs=1e-12)
        for p, se, total in (
            (stats.p0_a1, stats.stderr_p0_a1, tally.classified[0]),
            (stats.p1_a1, stats.stderr_p1_a1, tally.classified[0]),
            (stats.p0_a2, stats.stderr_p0_a2, tally.classified[1]),
            (stats.p1_a2, stats.stderr_p1_a2, tally.classified[1]),
        ):
            assert se == np.sqrt(max(p * (1.0 - p), 0.0) / total)
        correct = votes[0][0] + votes[1][1]
        decided = sum(votes[0][:2]) + sum(votes[1][:2])
        assert stats.accuracy == (correct / decided if decided else 0.5)


class TestRunProtocol:
    def test_illegal_structure(self):
        tally, stats = run_protocol(illegal_config(trials=10_000))
        n = 2
        # zero-count invariant: clonable inputs never land in column N+1
        assert tally.counts[0:n, n].sum() == 0
        assert stats.p1_a1 == 0.0
        assert stats.p0_a1 >= 0.999
        # positivity with analytic lower bound: half the A2 pairs prepare
        # the third candidate, which classifies correctly up to leakage
        lower = 0.5 * (1.0 - stats.leakage)
        assert stats.p1_a2 >= lower - 3 * stats.stderr_p1_a2

    def test_single_tick_rows_for_clonable_inputs(self):
        tally, _ = run_protocol(illegal_config(trials=5_000))
        n = 2
        for row in range(n + 1):
            own = tally.counts[row, row]
            assert tally.counts[row].sum() == own + tally.counts[row, n + 1]

    def test_tally_row_sums_match_classified(self):
        tally, stats = run_protocol(illegal_config(trials=5_000))
        n = 2
        for setting in (0, 1):
            rows = tally.counts[setting * n : (setting + 1) * n]
            assert rows.sum() == tally.classified[setting]
        np.testing.assert_allclose(stats.p_col.sum(axis=1), 1.0, atol=1e-12)

    def test_determinism_same_seed(self):
        cfg = illegal_config(trials=3_000)
        tally_a, stats_a = run_protocol(cfg)
        tally_b, stats_b = run_protocol(cfg)
        np.testing.assert_array_equal(tally_a.counts, tally_b.counts)
        assert stats_a.p1_a2 == stats_b.p1_a2

    def test_setting_order_invariance(self):
        # each setting draws from its own stream, so drawing A2 before A1
        # reproduces the run's counts
        cfg = legal_config(trials=10**9)
        tally, _ = run_protocol(cfg)
        law = column_law(cfg)
        n = cfg.n
        for setting in (1, 0):
            rng = SeededRng(cfg.seed, _stream_id(_PHASE_PROTOCOL, setting))
            hits = rng.multinomial(cfg.trials, law[setting].ravel()).reshape(n, n + 3)
            np.testing.assert_array_equal(
                hits[:, : n + 2], tally.counts[setting * n : (setting + 1) * n]
            )
            assert hits[:, n + 2].sum() == tally.discards[setting]

    @pytest.mark.parametrize(
        "name, zero_cells", [("illegal_n2", 13), ("legal_n2", 6), ("legal_n3_wide", 12)]
    )
    def test_zero_mass_cells_get_no_counts(self, name, zero_cells):
        cfg = demo_protocol(name, trials=10**12)
        tally, _ = run_protocol(cfg)
        law = cfg.law
        n = cfg.n
        assert np.count_nonzero(law == 0.0) == zero_cells
        for setting in (0, 1):
            rows = slice(setting * n, (setting + 1) * n)
            counts = tally.counts[rows]
            assert np.all(counts[law[setting][:, : n + 2] == 0.0] == 0)
            if not law[setting][:, n + 2].any():
                assert tally.discards[setting] == 0
            assert counts.sum() == tally.classified[setting]
            assert tally.classified[setting] + tally.discards[setting] == 10**12

    @pytest.mark.parametrize("name", sorted(DEMO_CONFIGS))
    def test_counts_fit_the_law(self, name):
        # every cell expecting at least 5 counts lies within 5 sigma of
        # trials * p; discards count as one cell per setting
        trials = 10**9
        cfg = demo_protocol(name, trials=trials, seed=600)
        tally, _ = run_protocol(cfg)
        n = cfg.n
        for setting in (0, 1):
            law = cfg.law[setting]
            prob = np.append(law[:, : n + 2].ravel(), law[:, n + 2].sum())
            observed = np.append(
                tally.counts[setting * n : (setting + 1) * n].ravel(),
                tally.discards[setting],
            )
            mean = trials * prob
            fit = mean >= 5.0
            z = (observed[fit] - mean[fit]) / np.sqrt(mean[fit] * (1.0 - prob[fit]))
            assert np.abs(z).max() <= 5.0, f"{name} A{setting + 1}: z = {z}"

    def test_settings_sum_without_int64_overflow(self):
        # at the 2**62 cap, the decided pairs of both settings reach 2**63
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0] = counts[2, 0] = 2**62  # A2 pairs all land in column B1
        tally = TallyTable(
            n=2,
            counts=counts,
            classified=(2**62, 2**62),
            discards=(0, 0),
            trials=(2**62, 2**62),
        )
        assert stats_from_tally(tally, 0.0).accuracy == 0.5

    def test_legal_machine_does_not_signal(self):
        tally, stats = run_protocol(legal_config(trials=8_000))
        sigma = two_sample_sigma(
            stats.p1_a1, stats.classified[0], stats.p1_a2, stats.classified[1]
        )
        assert abs(stats.p1_a2 - stats.p1_a1) <= 3 * sigma
        # the whole column distribution must match across settings
        for col in range(stats.n + 2):
            s = two_sample_sigma(
                stats.p_col[0, col],
                stats.classified[0],
                stats.p_col[1, col],
                stats.classified[1],
            )
            assert abs(stats.p_col[0, col] - stats.p_col[1, col]) <= 4 * s + 1e-12

    def test_discards_are_logged(self):
        _, stats = run_protocol(legal_config(trials=2_000))
        assert 0.0 < stats.discard_rate[0] < 1.0
        assert 0.0 < stats.discard_rate[1] < 1.0

    def test_run_never_builds_the_explicit_success_operator(self):
        # the law reads only the clonable set and the gammas, so a full run
        # on the N=3, mu=8 config leaves the 6561 x 3 operator unbuilt
        cfg = demo_protocol("legal_n3_wide")
        run_protocol(cfg)
        run_channel(cfg, random_message(cfg.seed, 40))
        machine = cfg.machine
        assert "kraus_success" not in machine.__dict__
        kraus = machine.kraus_success  # built and checked on first read
        assert kraus.shape == (3**8, 3) and not kraus.flags.writeable
        assert machine.__dict__["kraus_success"] is kraus


class TestChannel:
    def test_majority_vote_blocks(self):
        # per-pair votes (0, 0, 1) and (1, abstain, 1) as per-bit counts
        sent = np.array([0, 1])
        votes = np.array([[2, 1, 0], [0, 2, 1]])
        result = channel_accuracy(sent, votes, 3, SeededRng(406))
        assert result.decoded == (0, 1)
        assert result.accuracy == 1.0
        assert result.coin_flips == 0

    def test_all_abstain_block_is_coin_flip(self):
        votes = np.array([[0, 0, 4]])
        result = channel_accuracy(np.array([1]), votes, 4, SeededRng(407))
        assert result.coin_flips == 1
        assert result.decoded[0] in (0, 1)

    def test_illegal_channel_decodes_reliably(self):
        cfg = illegal_config(trials=1, pairs_per_bit=25)
        message = random_message(cfg.seed, 40)
        result = run_channel(cfg, message)
        assert result.sent == message
        assert result.accuracy == 1.0

    @pytest.mark.parametrize("name", ["illegal_n2", "legal_n2"])
    def test_zero_mass_votes_never_drawn(self, name):
        # illegal: A1 never votes 1 and A2 never votes 0, so even 10**12
        # pairs per bit decode every bit exactly; legal: no pair ever votes 1
        cfg = demo_protocol(name, pairs_per_bit=10**12)
        message = random_message(cfg.seed, 64)
        result = run_channel(cfg, message)
        assert result.coin_flips == 0
        if name == "illegal_n2":
            assert result.decoded == message
        else:
            assert result.decoded == (0,) * len(message)

    def test_bits_of_a_setting_draw_consecutively(self, monkeypatch):
        # bit k's votes are the next draw of its setting's stream, whatever
        # the bits of the other setting
        drawn = []
        decode = signalling.channel_accuracy

        def keeping_decode(sent, votes, pairs_per_bit, rng):
            drawn.append(votes)
            return decode(sent, votes, pairs_per_bit, rng)

        monkeypatch.setattr(signalling, "channel_accuracy", keeping_decode)
        cfg = legal_config(pairs_per_bit=7)
        message = (1, 0, 0, 1, 1, 0, 1)
        run_channel(cfg, message)
        streams = [
            SeededRng(cfg.seed, _stream_id(_PHASE_CHANNEL, setting))
            for setting in (0, 1)
        ]
        n = cfg.n
        for bit, votes in zip(message, drawn[0]):
            cells = cfg.law[bit].sum(axis=0)
            vote_law = [cells[:n].sum(), cells[n], cells[n + 1 :].sum()]
            expected = streams[bit].multinomial(7, vote_law)
            np.testing.assert_array_equal(votes, expected)

    def test_single_pair_blocks_decompose(self):
        # pairs_per_bit = 1, all-zero message: per-block accuracy is
        # P(column <= N) plus half the abstain mass
        cfg = illegal_config(trials=10_000, pairs_per_bit=1, seed=45)
        _, stats = run_protocol(cfg)
        message = (0,) * 4_000
        result = run_channel(cfg, message)
        expected = stats.p0_a1 + 0.5 * stats.p_col[0, cfg.n + 1]
        sigma = two_sample_sigma(
            result.accuracy, len(message), expected, stats.classified[0]
        )
        assert abs(result.accuracy - expected) <= 3 * sigma + 1e-9


@st.composite
def vote_streams(draw):
    """(pairs_per_bit, sent, votes, seed) with tie and all-abstain blocks.

    Per-pair votes are 0, 1 or None (an abstention).
    """
    pairs_per_bit = draw(st.integers(1, 6))
    sent, votes = [], []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["any", "tie", "abstain"]))
        if kind == "abstain":
            block = [None] * pairs_per_bit
        elif kind == "tie":
            half = draw(st.integers(0, pairs_per_bit // 2))
            block = [0] * half + [1] * half + [None] * (pairs_per_bit - 2 * half)
            block = draw(st.permutations(block))
        else:
            block = draw(
                st.lists(
                    st.sampled_from([None, 0, 1]),
                    min_size=pairs_per_bit,
                    max_size=pairs_per_bit,
                )
            )
        sent += [draw(st.integers(0, 1))] * pairs_per_bit
        votes += block
    return pairs_per_bit, sent, votes, draw(st.integers(0, 2**64 - 1))


# Fixed example order keeps the suite deterministic.
PROPERTY = settings(deadline=None, max_examples=200, derandomize=True)


class TestChannelOracle:
    """The count decoder against the per-pair reference in ``oracles``."""

    @PROPERTY
    @given(vote_streams())
    def test_decoder_matches_per_pair_reference(self, stream):
        pairs_per_bit, sent, votes, seed = stream
        blocks = [
            votes[start : start + pairs_per_bit]
            for start in range(0, len(votes), pairs_per_bit)
        ]
        counts = [[block.count(v) for v in (0, 1, None)] for block in blocks]
        result = channel_accuracy(
            np.array(sent[::pairs_per_bit]),
            np.array(counts),
            pairs_per_bit,
            SeededRng(seed, 2),
        )
        reference = channel_accuracy_by_pairs(
            zip(sent, votes), pairs_per_bit, SeededRng(seed, 2)
        )
        assert (
            result.accuracy,
            result.sent,
            result.decoded,
            result.coin_flips,
        ) == reference

    @PROPERTY
    @given(st.integers(0, 2**64 - 1), st.integers(0, 300))
    def test_random_message_matches_per_draw_reference(self, seed, n_bits):
        assert random_message(seed, n_bits) == random_message_by_draws(seed, n_bits)

    @pytest.mark.parametrize(
        "sent, votes, pairs_per_bit",
        [
            ([0, 0], [[2, 0, 0], [1, 0, 0]], 2),  # a bit's counts miss a pair
            ([], np.zeros((0, 3)), 3),  # no bits
            ([2], [[1, 1, 0]], 2),  # a bit other than 0 or 1
            ([0], [[3, -1, 0]], 2),  # a negative vote count
            ([0, 1], [[1, 0, 0]], 1),  # one count row for two bits
            ([0], [[0, 0, 0]], 0),  # no pairs per bit
        ],
        ids=[
            "ragged",
            "empty",
            "non-binary-bit",
            "bad-vote",
            "length-mismatch",
            "zero-pairs-per-bit",
        ],
    )
    def test_bad_streams_rejected(self, sent, votes, pairs_per_bit):
        with pytest.raises(ConfigError):
            channel_accuracy(
                np.array(sent, dtype=np.int64),
                np.array(votes, dtype=np.int64),
                pairs_per_bit,
                SeededRng(413),
            )

    def test_run_channel_rejects_non_binary_message(self):
        with pytest.raises(ConfigError):
            run_channel(illegal_config(trials=1, pairs_per_bit=3), (0, 2, 1))


def _certificate(states, basis_a, basis_b) -> float:
    # the array route, checked on the way against averaged density matrices
    # of member-by-member ensembles
    kets, probs = induced_states(
        np.array([s.amplitudes for s in states]), (basis_a, basis_b)
    )
    certificate = analytic_no_signal_certificate(kets, probs)
    shared = build_shared_state(states)
    reference = ensemble_certificate(
        *(Ensemble(induced_members_by_kets(shared, b)) for b in (basis_a, basis_b))
    )
    assert abs(certificate - reference) <= 1e-15
    return certificate


class TestCertificate:
    def test_bell_type_state(self):
        assert (
            _certificate(
                (KET0, KET1), AliceBasis.computational(2), AliceBasis.fourier(2)
            )
            <= 1e-12
        )

    def test_random_nonorthogonal_states(self):
        rng = SeededRng(409)
        states = tuple(random_ket(3, rng) for _ in range(3))
        basis_a = AliceBasis.computational(3)
        basis_b = AliceBasis.from_unitary(haar_unitary(3, rng))
        assert _certificate(states, basis_a, basis_b) <= 1e-12

    def test_two_alternate_bases(self):
        rng = SeededRng(410)
        states = tuple(random_ket(3, rng) for _ in range(3))
        b1 = AliceBasis.from_unitary(haar_unitary(3, rng))
        b2 = AliceBasis.fourier(3)
        assert _certificate(states, b1, b2) <= 1e-12


class TestMaterialization:
    def spec_and_states(self, mu, coefficients=None):
        spec = IllegalClonerSpec(
            clonable_labels=(1, 2, 3),
            copies=mu,
            total_labels=4,
            coefficients=coefficients,
        )
        return spec, (KET0, KET1, PLUS, MINUS)

    def test_pure_junk_materializes_to_phi(self):
        spec, all_states = self.spec_and_states(6)
        out, embedded = materialize_illegal_output(spec, 4, all_states)
        rng = SeededRng(411)
        for _ in range(40):
            assert group_verify(out, embedded, 6, rng) == PHI

    def test_clonable_label_matches_product_record(self):
        spec, all_states = self.spec_and_states(6)
        out_joint, embedded = materialize_illegal_output(spec, 3, all_states)
        out_product = CloneOutput.exact_copies(3, PLUS, 6)
        candidates = (KET0, KET1, PLUS)
        # the joint ket is tested as in test_joint_exact_copies_match_product_law
        collapse = CollapseTree(out_joint, embedded, 6)
        rng = SeededRng(412)
        trials = 8_000
        freq = np.zeros((2, 4))
        for t in range(trials):
            if t < 1_000:
                direct = group_verify(out_joint, embedded, 6, copy.deepcopy(rng))
            col = collapse.verdict(rng)
            if t < 1_000:
                assert col == direct
            freq[0, 3 if col == PHI else col - 1] += 1
            col = group_verify(out_product, candidates, 6, rng)
            freq[1, 3 if col == PHI else col - 1] += 1
        freq /= trials
        for k in range(4):
            sigma = two_sample_sigma(freq[0, k], trials, freq[1, k], trials)
            assert abs(freq[0, k] - freq[1, k]) <= 3 * sigma + 1e-12

    def test_leakage_bound_matches_column_law(self):
        # the bound is the worst own-column miss of exact copies: in the
        # law's clonable rows exactly, and in the independent group law to
        # its roundoff
        cfg = illegal_config(mu=12)
        candidates = cfg.context.candidates
        bound = analytic_leakage(candidates, cfg.mu)
        law = column_law(cfg)
        probs = cfg.context.probs.ravel()
        misses = []
        for own, single in enumerate(candidates):  # candidate own has label own+1
            setting, m = divmod(own, cfg.n)
            misses.append(1.0 - law[setting, m, own] / probs[own])
            dist = exact_copy_column_distribution(single, list(candidates), cfg.mu)
            assert abs(1.0 - dist[own] - misses[-1]) <= 1e-12
        assert abs(bound - max(misses)) <= 1e-15
        assert bound > 0.1  # PLUS ties with KET0 and KET1 at 12 copies


class TestProtocolConfigValidation:
    def test_mu_lower_bound(self):
        with pytest.raises(ConfigError):
            illegal_config(mu=2)

    @pytest.mark.parametrize(
        "bob_states",
        [(Ket.basis_state(1, 0),), (KET0, Ket.basis_state(3, 1))],
        ids=["one-state", "ragged"],
    )
    def test_bob_states_must_be_n_states_of_dimension_n(self, bob_states):
        # the run context stacks them into an N x N array
        with pytest.raises(DimensionError):
            ProtocolConfig(
                bob_states=bob_states,
                a2_basis=AliceBasis.fourier(2),
                mu=4,
                trials=10,
                pairs_per_bit=1,
                machine=IllegalClonerSpec((1, 2, 3), 4, 4),
                seed=1,
            )

    def test_machine_copy_count_must_match(self):
        machine = construct_machine((KET0, KET1), 2, [1.0, 1.0])
        with pytest.raises(ConfigError):
            ProtocolConfig(
                bob_states=(KET0, KET1),
                a2_basis=AliceBasis.fourier(2),
                mu=4,
                trials=10,
                pairs_per_bit=1,
                machine=machine,
                seed=1,
            )
