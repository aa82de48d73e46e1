"""Protocol harness: classification, tallies, channel decoding, certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqclone.entangle import AliceBasis
from pqclone.errors import ConfigError
from pqclone.pqcm import (
    CloneOutput,
    IllegalClonerSpec,
    construct_machine,
    max_uniform_gamma,
)
from pqclone.qcore import Ket, SeededRng, random_ket
from pqclone.signalling import (
    _PHASE_PROTOCOL,
    ABSTAIN,
    PHI,
    SAMPLE_BLOCK,
    ProtocolConfig,
    _block_cells,
    _blocks,
    _cumulative,
    analytic_leakage,
    analytic_no_signal_certificate,
    channel_accuracy,
    column_law,
    group_sizes,
    group_verify,
    guess_rule,
    materialize_illegal_output,
    random_message,
    run_channel,
    run_protocol,
    stats_from_tally,
)

from oracles import (
    channel_accuracy_by_pairs,
    exact_copy_column_distribution,
    random_message_by_draws,
    three_sigma_binomial,
    two_sample_sigma,
)

KET0 = Ket.basis_state(2, 0)
KET1 = Ket.basis_state(2, 1)
PLUS = Ket.normalized([1, 1])
MINUS = Ket.normalized([1, -1])


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
        rng = SeededRng(403)
        trials = 100_000
        for label, single in ((3, PLUS), (1, KET0)):
            expected = exact_copy_column_distribution(
                single.amplitudes, [c.amplitudes for c in candidates], mu
            )
            counts = np.zeros(4)
            out = CloneOutput.exact_copies(label, single, mu)
            for _ in range(trials):
                col = group_verify(out, candidates, mu, rng)
                counts[3 if col == PHI else col - 1] += 1
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
        rng = SeededRng(405)
        trials = 20_000
        counts = np.zeros(4)
        for _ in range(trials):
            col = group_verify(out, candidates, mu, rng)
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

    def test_block_order_invariance(self):
        # each block of draws has its own stream, so drawing the blocks of a
        # multi-block run in reverse order reproduces the run's counts
        trials = 3 * SAMPLE_BLOCK + 1_234
        cfg = legal_config(trials=trials)
        tally, _ = run_protocol(cfg)
        law = column_law(cfg)
        n = cfg.n
        blocks = _blocks(trials)
        assert len(blocks) == 4
        for setting in (0, 1):
            cum = _cumulative(law[setting])
            hits = np.zeros(cum.size, dtype=np.int64)
            for block, size in reversed(blocks):
                cells = _block_cells(
                    cum, cfg.seed, _PHASE_PROTOCOL, setting, block, size
                )
                hits += np.bincount(cells, minlength=cum.size)
            hits = hits.reshape(n, n + 3)
            np.testing.assert_array_equal(
                hits[:, : n + 2], tally.counts[setting * n : (setting + 1) * n]
            )
            assert hits[:, n + 2].sum() == tally.discards[setting]

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


class TestChannel:
    def test_majority_vote_blocks(self):
        sent = np.array([0, 0, 0, 1, 1, 1])
        votes = np.array([0, 0, 1, 1, ABSTAIN, 1])
        result = channel_accuracy(sent, votes, 3, SeededRng(406))
        assert result.decoded == (0, 1)
        assert result.accuracy == 1.0
        assert result.coin_flip_blocks == 0

    def test_all_abstain_block_is_coin_flip(self):
        sent = np.full(4, 1)
        votes = np.full(4, ABSTAIN)
        result = channel_accuracy(sent, votes, 4, SeededRng(407))
        assert result.coin_flip_blocks == 1
        assert result.decoded[0] in (0, 1)

    def test_mixed_bits_in_block_rejected(self):
        with pytest.raises(ConfigError):
            channel_accuracy(np.array([0, 1]), np.array([0, 0]), 2, SeededRng(408))

    def test_illegal_channel_decodes_reliably(self):
        cfg = illegal_config(trials=1, pairs_per_bit=25)
        message = random_message(cfg.seed, 40)
        result = run_channel(cfg, message)
        assert result.sent == message
        assert result.accuracy == 1.0

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
    """(pairs_per_bit, sent, votes, seed) with tie and all-abstain blocks."""
    pairs_per_bit = draw(st.integers(1, 6))
    sent, votes = [], []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["any", "tie", "abstain"]))
        if kind == "abstain":
            block = [ABSTAIN] * pairs_per_bit
        elif kind == "tie":
            half = draw(st.integers(0, pairs_per_bit // 2))
            block = [0] * half + [1] * half + [ABSTAIN] * (pairs_per_bit - 2 * half)
            block = draw(st.permutations(block))
        else:
            block = draw(
                st.lists(
                    st.sampled_from([ABSTAIN, 0, 1]),
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
    """The array decoder against the per-pair reference in ``oracles``."""

    @PROPERTY
    @given(vote_streams())
    def test_decoder_matches_per_pair_reference(self, stream):
        pairs_per_bit, sent, votes, seed = stream
        result = channel_accuracy(
            np.array(sent), np.array(votes), pairs_per_bit, SeededRng(seed, 2)
        )
        guesses = [None if v == ABSTAIN else v for v in votes]
        reference = channel_accuracy_by_pairs(
            zip(sent, guesses), pairs_per_bit, SeededRng(seed, 2)
        )
        assert (
            result.accuracy,
            result.sent,
            result.decoded,
            result.coin_flip_blocks,
        ) == reference

    @PROPERTY
    @given(st.integers(0, 2**64 - 1), st.integers(0, 300))
    def test_random_message_matches_per_draw_reference(self, seed, n_bits):
        assert random_message(seed, n_bits) == random_message_by_draws(seed, n_bits)

    @pytest.mark.parametrize(
        "sent, votes, pairs_per_bit",
        [
            ([0, 0, 1, 0], [0, 0, 1, 1], 2),  # mixed bits in the second block
            ([0, 0, 0], [0, 1, 0], 2),  # length not a multiple of pairs_per_bit
            ([], [], 3),  # no blocks
            ([2, 2], [0, 1], 2),  # a bit other than 0 or 1
            ([0, 0], [0, 2], 2),  # a vote other than 0, 1 or ABSTAIN
            ([0, 0], [0], 1),  # lengths differ
            ([0], [0], 0),  # no pairs per bit
        ],
        ids=[
            "mixed-bits",
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


class TestCertificate:
    def test_bell_type_state(self):
        assert (
            analytic_no_signal_certificate(
                (KET0, KET1), AliceBasis.computational(2), AliceBasis.fourier(2)
            )
            <= 1e-12
        )

    def test_random_nonorthogonal_states(self):
        rng = SeededRng(409)
        states = tuple(random_ket(3, rng) for _ in range(3))
        from pqclone.qcore import haar_unitary

        basis_a = AliceBasis.computational(3)
        basis_b = AliceBasis.from_unitary(haar_unitary(3, rng))
        assert analytic_no_signal_certificate(states, basis_a, basis_b) <= 1e-12

    def test_two_alternate_bases(self):
        rng = SeededRng(410)
        from pqclone.qcore import haar_unitary

        states = tuple(random_ket(3, rng) for _ in range(3))
        b1 = AliceBasis.from_unitary(haar_unitary(3, rng))
        b2 = AliceBasis.fourier(3)
        assert analytic_no_signal_certificate(states, b1, b2) <= 1e-12


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
        rng = SeededRng(412)
        trials = 8_000
        freq = np.zeros((2, 4))
        for _ in range(trials):
            col = group_verify(out_joint, embedded, 6, rng)
            freq[0, 3 if col == PHI else col - 1] += 1
            col = group_verify(out_product, candidates, 6, rng)
            freq[1, 3 if col == PHI else col - 1] += 1
        freq /= trials
        for k in range(4):
            sigma = two_sample_sigma(freq[0, k], trials, freq[1, k], trials)
            assert abs(freq[0, k] - freq[1, k]) <= 3 * sigma + 1e-12

    def test_leakage_bound_matches_column_law(self):
        candidates = (KET0, KET1, PLUS)
        mu = 12
        bound = analytic_leakage(candidates, mu)
        for own, single in enumerate(candidates):
            dist = exact_copy_column_distribution(
                single.amplitudes, [c.amplitudes for c in candidates], mu
            )
            assert 1.0 - dist[own] <= bound + 1e-12


class TestProtocolConfigValidation:
    def test_mu_lower_bound(self):
        with pytest.raises(ConfigError):
            illegal_config(mu=2)

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
