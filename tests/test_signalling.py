"""Protocol harness: classification, tallies, channel decoding, certificates."""

import copy
import dataclasses
import pickle
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqclone import config as config_mod
from pqclone import cli, qcore, signalling
from pqclone.entangle import (
    AliceBasis,
    build_shared_state,
    induced_states,
    target_to_basis,
)
from pqclone.errors import ConfigError
from pqclone.pqcm import (
    FactoredSet,
    IllegalClonerSpec,
    construct_machine,
    max_uniform_gamma,
)
from pqclone.qcore import Ensemble, Ket, SeededRng
from pqclone.signalling import (
    _CHANNEL_STREAM,
    _PROTOCOL_STREAM,
    _VOTE_STREAM,
    PHI,
    _majority,
    ProtocolConfig,
    TallyTable,
    analytic_leakage,
    analytic_no_signal_certificate,
    column_law,
    group_sizes,
    group_verify,
    random_message,
    run_channel,
    run_protocol,
    stats_from_tally,
)

from born import (
    CollapseTree,
    JointKet,
    basis_ket,
    haar_unitary,
    inner_product,
    joint_verify,
    materialize_illegal_output,
    random_ket,
    state_rows,
)
from test_config_cli import REPO
from oracles import (
    channel_accuracy_by_pairs,
    ensemble_certificate,
    exact_copy_column_distribution,
    guess_rule,
    induced_members_by_kets,
    random_message_by_draws,
    three_sigma_binomial,
    two_sample_sigma,
)

KET0 = basis_ket(2, 0)
KET1 = basis_ket(2, 1)
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
        bob_states=state_rows((KET0, KET1)),
        a2_basis=AliceBasis.fourier(2),
        trials=trials,
        pairs_per_bit=pairs_per_bit,
        machine=spec,
        seed=seed,
    )


def legal_config(trials=5_000, mu=6, seed=43, gamma_frac=0.9, pairs_per_bit=5):
    states = state_rows((KET0, Ket.normalized([0.5, np.sqrt(0.75)])))
    gamma = gamma_frac * max_uniform_gamma(states, mu)
    machine = construct_machine(states, mu, [gamma, gamma])
    return ProtocolConfig(
        bob_states=states,
        a2_basis=AliceBasis.fourier(2),
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
        candidates = np.eye(3, dtype=complex)
        rng = SeededRng(400)
        for l, cand in enumerate(candidates):
            for _ in range(20):
                assert group_verify(cand, candidates, 9, rng) == l + 1

    def test_junk_marker_always_phi(self):
        candidates = state_rows((KET0, KET1, PLUS))
        rng = SeededRng(401)
        for _ in range(50):
            assert group_verify(None, candidates, 6, rng) == PHI

    def test_duplicate_candidates_tie_to_phi(self):
        candidates = state_rows((KET0, KET0, KET1))
        rng = SeededRng(402)
        for _ in range(50):
            assert group_verify(KET0.amplitudes, candidates, 6, rng) == PHI

    def test_column_frequencies_match_independent_group_law(self):
        candidates = (KET0, KET1, PLUS)
        mu = 9
        sizes = group_sizes(mu, len(candidates))
        rng = SeededRng(403)
        trials = 100_000
        for single in (PLUS, KET0):
            expected = exact_copy_column_distribution(
                single.amplitudes, [c.amplitudes for c in candidates], mu
            )
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
            rows = state_rows(candidates)
            direct = [
                group_verify(single.amplitudes, rows, mu, replay) for _ in range(1_000)
            ]
            assert cols[:1_000].tolist() == direct
            counts = np.bincount(np.where(cols == PHI, 3, cols - 1), minlength=4)
            for k in range(4):
                assert abs(counts[k] / trials - expected[k]) < three_sigma_binomial(
                    expected[k], trials
                )

    def test_mu_below_group_count_rejected(self):
        with pytest.raises(ConfigError):
            group_verify(None, state_rows((KET0, KET1, PLUS)), 2, SeededRng(404))

    @pytest.mark.parametrize("mu", [3, 9])
    def test_draws_mu_uniforms_for_copies_and_none_for_junk(self, mu):
        # junk leaves the stream where it was; exact copies take exactly mu
        # uniforms from it, whatever their verdict
        candidates = state_rows((KET0, KET1, PLUS))
        following = SeededRng(415).uniforms(mu + 4)
        rng = SeededRng(415)
        assert group_verify(None, candidates, mu, rng) == PHI
        np.testing.assert_array_equal(rng.uniforms(4), following[:4])
        for single in (KET0, PLUS, MINUS):
            rng = SeededRng(415)
            group_verify(single.amplitudes, candidates, mu, rng)
            np.testing.assert_array_equal(rng.uniforms(4), following[mu:])

    def test_joint_exact_copies_match_product_law(self):
        # sequential collapse on a true product state reproduces the
        # independent per-clone statistics
        candidates = state_rows((KET0, KET1, PLUS))
        mu = 6
        joint = PLUS.amplitudes
        for _ in range(mu - 1):
            joint = np.kron(joint, PLUS.amplitudes)
        out = JointKet(joint, mu, 2)
        expected = exact_copy_column_distribution(PLUS.amplitudes, list(candidates), mu)
        # joint_verify's sequential collapse, memoized per outcome prefix;
        # the first 1 000 trials also run joint_verify itself and must agree
        collapse = CollapseTree(out, candidates)
        rng = SeededRng(405)
        trials = 20_000
        counts = np.zeros(4)
        for t in range(trials):
            if t < 1_000:
                direct = joint_verify(out, candidates, copy.deepcopy(rng))
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
    size = 2 * n * (n + 3)
    high = draw(st.sampled_from([3, 1_000, 2**62 // (n * (n + 3))]))
    cells = np.array(
        draw(st.lists(st.integers(0, high), min_size=size, max_size=size)),
        dtype=np.int64,
    ).reshape(2, n, n + 3)
    assume(cells[:, :, :-1].sum(axis=(1, 2)).min() > 0)
    return TallyTable(cells)


class TestStatsFromTally:
    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(tallies())
    def test_bit_statistics_match_cell_by_cell_votes(self, tally):
        # setting s sends bit s; every cell's count goes to guess_rule's vote
        n = tally.n
        votes = [[0, 0, 0], [0, 0, 0]]  # 0-votes, 1-votes, abstentions
        for (setting, _, cell), count in np.ndenumerate(tally.cells[:, :, : n + 2]):
            vote = guess_rule(PHI if cell == n + 1 else cell + 1, n)
            votes[setting][2 if vote is None else vote] += int(count)
        stats = stats_from_tally(tally, 0.0)
        for s, (p0, p1) in enumerate(stats.p_vote):
            total = tally.classified[s]
            assert sum(votes[s]) == total
            assert p0 == pytest.approx(votes[s][0] / total, rel=0, abs=1e-12)
            assert p1 == pytest.approx(votes[s][1] / total, rel=0, abs=1e-12)
            for p, se in zip((p0, p1), stats.stderr[s]):
                assert se == np.sqrt(max(p * (1.0 - p), 0.0) / total)
        correct = votes[0][0] + votes[1][1]
        decided = sum(votes[0][:2]) + sum(votes[1][:2])
        assert stats.accuracy == (correct / decided if decided else 0.5)


    def test_sizes_are_derived_from_the_counts(self):
        # sizes given beside the counts could disagree with them
        cells = np.zeros((2, 2, 5), dtype=np.int64)
        cells[0, 0, 0] = cells[0, 1, 1] = cells[1, 0, 2] = cells[1, 1, 3] = 5
        cells[0, 1, 4] = 3  # discarded
        tally = TallyTable(cells)
        assert tally.classified == (10, 10) and tally.trials == (13, 10)
        assert all(type(size) is int for size in tally.classified + tally.trials)
        stats = stats_from_tally(tally, 0.0)
        np.testing.assert_array_equal(stats.p_col.sum(axis=1), [1.0, 1.0])
        assert stats.p_vote[0, 0] == 1.0 and stats.discard_rate == (3 / 13, 0.0)
        with pytest.raises(TypeError):
            TallyTable(cells, discards=(0, 0))
        with pytest.raises(TypeError):
            TallyTable(cells=cells, classified=(5, 5), trials=(3, 3))

    def test_sizes_survive_copy_pickle_and_replace(self):
        # the sizes and cell totals are fields set at construction, so a copy
        # carries them and a replace copy recomputes them from its own counts
        cells = np.arange(20, dtype=np.int64).reshape(2, 2, 5)
        tally = TallyTable(cells)
        sizes = (tally.classified, tally.discards, tally.trials)
        assert sizes == ((32, 112), (13, 33), (45, 145))
        totals = [[5, 7, 9, 11, 13], [25, 27, 29, 31, 33]]
        np.testing.assert_array_equal(tally.cell_totals, totals)
        assert tally.cell_totals.dtype == np.int64
        assert not tally.cell_totals.flags.writeable
        for other in (
            copy.deepcopy(tally),
            pickle.loads(pickle.dumps(tally)),
            dataclasses.replace(tally),
        ):
            assert (other.classified, other.discards, other.trials) == sizes
            np.testing.assert_array_equal(other.cells, cells)
            np.testing.assert_array_equal(other.cell_totals, totals)
        doubled = dataclasses.replace(tally, cells=2 * cells)
        assert (doubled.classified, doubled.discards, doubled.trials) == (
            (64, 224), (26, 66), (90, 290)
        )
        np.testing.assert_array_equal(doubled.cell_totals, 2 * np.array(totals))
        for name in ("classified", "cell_totals"):
            with pytest.raises(ValueError):
                dataclasses.replace(tally, **{name: tally.cell_totals})

    @pytest.mark.parametrize(
        "shape",
        [(4, 4), (2, 2, 4), (2, 2, 6), (3, 2, 5), (1, 2, 5), (2, 2, 5, 1), (2, 5)],
        ids=["file-view", "no-discard-cell", "extra-cell", "three-settings",
             "one-setting", "four-axes", "one-draw"],
    )
    def test_cells_of_another_shape_are_refused(self, shape):
        with pytest.raises(ConfigError, match="is not \\(2, N, N\\+3\\)"):
            TallyTable(np.ones(shape, dtype=np.int64))

    @pytest.mark.parametrize("setting", [0, 1])
    def test_a_setting_with_no_classified_pair_is_refused(self, setting):
        # its rates would divide by zero
        cells = np.ones((2, 2, 5), dtype=np.int64)
        cells[setting, :, :-1] = 0
        with pytest.raises(ConfigError) as err:
            stats_from_tally(TallyTable(cells), 0.0)
        assert str(err.value) == (
            f"no cloner successes for setting A{setting + 1}; cannot estimate"
        )

    @pytest.mark.parametrize("where", [(0, 0, 0), (1, 1, 4)], ids=["cell", "discard"])
    def test_a_negative_count_is_refused(self, where):
        cells = np.ones((2, 2, 5), dtype=np.int64)
        cells[where] = -1
        with pytest.raises(ConfigError, match="nonnegative"):
            TallyTable(cells)

    @pytest.mark.parametrize(
        "cells",
        [
            np.full((2, 2, 5), 2.5),
            np.full((2, 2, 5), 2.0),
            np.ones((2, 2, 5), dtype=bool),
            np.ones((2, 2, 5), dtype=object),
        ],
        ids=["float", "whole-float", "bool", "object"],
    )
    def test_counts_that_are_not_integers_are_refused(self, cells):
        # an int64 cast would truncate 2.5 and count True as 1
        with pytest.raises(ConfigError) as err:
            TallyTable(cells)
        assert str(err.value) == f"tally counts must be integers, got dtype {cells.dtype}"

    @pytest.mark.parametrize(
        "cells",
        [np.full((2, 2, 5), 3, dtype=np.int32), np.full((2, 2, 5), 3).tolist()],
        ids=["int32", "int-list"],
    )
    def test_integer_counts_are_cast_to_int64(self, cells):
        tally = TallyTable(cells)
        assert tally.cells.dtype == np.int64 and not tally.cells.flags.writeable
        np.testing.assert_array_equal(tally.cells, np.full((2, 2, 5), 3))
        assert tally.classified == (24, 24)

    def test_the_callers_array_stays_its_own(self):
        # the tally freezes its own copy, so the caller may still write to
        # an int64 array it passed, and doing so leaves the tally as it was
        cells = np.ones((2, 2, 5), dtype=np.int64)
        tally = TallyTable(cells)
        assert cells.flags.writeable and not tally.cells.flags.writeable
        cells[0, 0, 0] = 7
        np.testing.assert_array_equal(tally.cells, np.ones((2, 2, 5)))
        assert tally.classified == (8, 8)

    def test_no_vote_at_all_is_a_coin_flip(self):
        # every classified pair lands in PHI, so no pair votes and Bob can
        # only guess; discards are not pairs that vote either
        n = 2
        cells = np.zeros((2, n, n + 3), dtype=np.int64)
        cells[:, :, n + 1] = 7  # PHI
        cells[1, 0, n + 2] = 3  # discarded
        stats = stats_from_tally(TallyTable(cells), 0.0)
        assert stats.accuracy == 0.5
        np.testing.assert_array_equal(stats.p_vote, np.zeros((2, 2)))
        np.testing.assert_array_equal(stats.p_col[:, n + 1], [1.0, 1.0])


# numpy's Python-level helpers (np.eye, np.where, np.fill_diagonal, .min(),
# np.count_nonzero, ...): right after a garbage collection, the first call
# into each costs tens of µs, so the law path keeps to basic indexing and
# ufuncs. einsumfunc is not listed: np.einsum's norms keep the law's bits.
_NUMPY_HELPERS = {"twodim_base", "index_tricks", "fromnumeric", "methods", "numeric",
                  "multiarray"}


def numpy_helper_calls(action) -> list:
    """module.function of every numpy helper frame that ``action()`` enters."""
    entered = []

    def hook(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            stem = module.rsplit(".", 1)[-1].strip("_").removesuffix("_impl")
            if module.startswith("numpy.") and stem in _NUMPY_HELPERS:
                entered.append(f"{module}.{frame.f_code.co_name}")

    sys.setprofile(hook)
    try:
        action()
    finally:
        sys.setprofile(None)
    return entered


class TestLawPathFrames:
    def test_the_hook_sees_a_numpy_helper(self):
        assert numpy_helper_calls(lambda: np.eye(2)) != []

    @pytest.mark.parametrize("name", sorted(DEMO_CONFIGS))
    def test_a_fresh_law_and_tally_enter_no_numpy_helper(self, name):
        demo_protocol(name).law  # fills the per-size caches, as a first run does
        config = demo_protocol(name)
        cells = np.zeros((2, config.n, config.n + 3), dtype=np.int64)

        def law_and_tally():
            config.law
            TallyTable(cells)

        assert numpy_helper_calls(law_and_tally) == []


class TestRunProtocol:
    def test_illegal_structure(self):
        tally, stats = run_protocol(illegal_config(trials=10_000))
        n = 2
        # zero-count invariant: clonable inputs never land in column N+1
        assert tally.cells[0, :, n].sum() == 0
        assert stats.p_vote[0, 1] == 0.0
        assert stats.p_vote[0, 0] >= 0.999
        # positivity with analytic lower bound: half the A2 pairs prepare
        # the third candidate, which classifies correctly up to leakage
        lower = 0.5 * (1.0 - stats.leakage)
        assert stats.p_vote[1, 1] >= lower - 3 * stats.stderr[1, 1]

    def test_single_tick_rows_for_clonable_inputs(self):
        tally, _ = run_protocol(illegal_config(trials=5_000))
        n = 2
        for row in range(n + 1):
            draw = tally.cells[divmod(row, n)]  # preparation B_{row+1}
            assert draw.sum() == draw[row] + draw[n + 1]

    def test_tally_row_sums_match_classified(self):
        tally, stats = run_protocol(illegal_config(trials=5_000))
        n = 2
        for setting in (0, 1):
            assert tally.cells[setting, :, : n + 2].sum() == tally.classified[setting]
        np.testing.assert_allclose(stats.p_col.sum(axis=1), 1.0, atol=1e-12)

    def test_determinism_same_seed(self):
        cfg = illegal_config(trials=3_000)
        tally_a, stats_a = run_protocol(cfg)
        tally_b, stats_b = run_protocol(cfg)
        np.testing.assert_array_equal(tally_a.cells, tally_b.cells)
        assert stats_a.p_vote[1, 1] == stats_b.p_vote[1, 1]

    def test_setting_order_invariance(self):
        # each setting draws from its own stream, so drawing A2 before A1
        # reproduces the run's counts
        cfg = legal_config(trials=10**9)
        tally, _ = run_protocol(cfg)
        law = column_law(cfg)
        n = cfg.n
        for setting in (1, 0):
            rng = SeededRng(cfg.seed, _PROTOCOL_STREAM + setting)
            hits = rng.multinomial(cfg.trials, law[setting].ravel()).reshape(n, n + 3)
            np.testing.assert_array_equal(hits, tally.cells[setting])

    @pytest.mark.parametrize(
        "name, zero_cells", [("illegal_n2", 13), ("legal_n2", 6), ("legal_n3_wide", 12)]
    )
    def test_zero_mass_cells_get_no_counts(self, name, zero_cells):
        cfg = demo_protocol(name, trials=10**12)
        tally, _ = run_protocol(cfg)
        law = cfg.law
        assert np.count_nonzero(law == 0.0) == zero_cells
        assert np.all(tally.cells[law == 0.0] == 0)
        assert tally.trials == (10**12, 10**12)
        assert np.array_equal(tally.cells.sum(axis=(1, 2)), [10**12, 10**12])

    @pytest.mark.parametrize("name", sorted(DEMO_CONFIGS))
    def test_counts_fit_the_law(self, name):
        # every cell expecting at least 5 counts lies within 5 sigma of
        # trials * p; discards count as one cell per setting
        trials = 10**9
        cfg = demo_protocol(name, trials=trials, seed=600)
        tally, _ = run_protocol(cfg)
        for setting in (0, 1):
            law, cells = cfg.law[setting], tally.cells[setting]
            prob = np.append(law[:, :-1].ravel(), law[:, -1].sum())
            observed = np.append(cells[:, :-1].ravel(), cells[:, -1].sum())
            mean = trials * prob
            fit = mean >= 5.0
            z = (observed[fit] - mean[fit]) / np.sqrt(mean[fit] * (1.0 - prob[fit]))
            assert np.abs(z).max() <= 5.0, f"{name} A{setting + 1}: z = {z}"

    def test_settings_sum_without_int64_overflow(self):
        # at the 2**62 cap, the decided pairs of both settings reach 2**63
        cells = np.zeros((2, 2, 5), dtype=np.int64)
        cells[0, 0, 0] = cells[1, 0, 0] = 2**62  # A2 pairs all land in column B1
        tally = TallyTable(cells)
        assert stats_from_tally(tally, 0.0).accuracy == 0.5

    def test_legal_machine_does_not_signal(self):
        tally, stats = run_protocol(legal_config(trials=8_000))
        (_, p1_a1), (_, p1_a2) = stats.p_vote
        sigma = two_sample_sigma(p1_a1, tally.classified[0], p1_a2, tally.classified[1])
        assert abs(p1_a2 - p1_a1) <= 3 * sigma
        # the whole column distribution must match across settings
        for col in range(stats.n + 2):
            s = two_sample_sigma(
                stats.p_col[0, col],
                tally.classified[0],
                stats.p_col[1, col],
                tally.classified[1],
            )
            assert abs(stats.p_col[0, col] - stats.p_col[1, col]) <= 4 * s + 1e-12

    def test_discards_are_logged(self):
        _, stats = run_protocol(legal_config(trials=2_000))
        assert 0.0 < stats.discard_rate[0] < 1.0
        assert 0.0 < stats.discard_rate[1] < 1.0

    def test_run_never_builds_the_explicit_success_operator(self):
        # the law reads only the clonable set and the gammas, so a full run
        # on the N=3, mu=8 config leaves the 6561 x 3 operator unbuilt, and
        # the failure operator F and its trace residual too
        cfg = demo_protocol("legal_n3_wide")
        run_protocol(cfg)
        run_channel(cfg, random_message(cfg.seed, 40))
        machine = cfg.machine
        assert set(machine.__dict__) == {"factored", "gammas", "clone_residual"}
        kraus = machine.kraus_success  # built and checked on first read
        assert kraus.shape == (3**8, 3) and not kraus.flags.writeable
        assert machine.__dict__["kraus_success"] is kraus
        fail, trace = machine.__dict__["_failure"]  # A's check reads F
        assert machine.kraus_fail is fail and machine.trace_residual == trace

    @pytest.mark.parametrize("name", ["legal_n2", "legal_n3_wide"])
    def test_signal_test_calls_no_eigh(self, name, tmp_path, monkeypatch):
        # F is the one eigh of a legal machine, and no signal-test reads it
        calls, eigh = [], np.linalg.eigh

        def counted_eigh(a, *args):
            calls.append(a.shape)
            return eigh(a, *args)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        out = tmp_path / "run"
        code = cli.main(["signal-test", str(DEMO_CONFIGS[name]), "--out", str(out)])
        assert code == 0 and (out / "stats.json").exists()
        assert calls == []


class TestChannel:
    def test_majority_vote_blocks(self):
        # per-pair votes (0, 0, 1) and (1, abstain, 1) as per-bit counts
        sent = np.array([0, 1])
        votes = np.array([[2, 1, 0], [0, 2, 1]])
        result = _majority(sent, votes, SeededRng(406))
        assert result.decoded == (0, 1)
        assert result.accuracy == 1.0
        assert result.coin_flips == 0

    def test_tie_free_message_leaves_vote_stream_unbuilt(self, monkeypatch):
        # the vote stream never draws, so it never re-keys the shared generator
        rekeys = []
        monkeypatch.setattr(qcore, "_rekey", lambda *key: rekeys.append(key))
        rng = SeededRng(408)
        result = _majority(np.array([0, 1]), np.array([[2, 1, 0], [0, 2, 1]]), rng)
        assert result.coin_flips == 0
        assert rekeys == [] and qcore._holder() is not rng

    def test_all_abstain_block_is_coin_flip(self):
        votes = np.array([[0, 0, 4]])
        result = _majority(np.array([1]), votes, SeededRng(407))
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
        decode = signalling._majority

        def keeping_decode(sent, votes, rng):
            drawn.append(votes)
            return decode(sent, votes, rng)

        monkeypatch.setattr(signalling, "_majority", keeping_decode)
        cfg = legal_config(pairs_per_bit=7)
        message = (1, 0, 0, 1, 1, 0, 1)
        run_channel(cfg, message)
        streams = [
            SeededRng(cfg.seed, _CHANNEL_STREAM + setting)
            for setting in (0, 1)
        ]
        n = cfg.n
        for bit, votes in zip(message, drawn[0]):
            cells = cfg.law[bit].sum(axis=0)
            vote_law = [cells[:n].sum(), cells[n], cells[n + 1 :].sum()]
            expected = streams[bit].multinomial(7, vote_law)
            np.testing.assert_array_equal(votes, expected)

    @pytest.mark.parametrize(
        "name, pairs_per_bit",
        [(name, None) for name in sorted(DEMO_CONFIGS)]
        + [(name, k) for name in ("illegal_n2", "legal_n2") for k in (1, 2)],
    )
    def test_run_channel_decodes_as_per_pair_reference(self, name, pairs_per_bit, monkeypatch):
        # the votes run_channel drew, spread back into one vote per pair and
        # decoded pair by pair with a fresh vote stream, give the same
        # result, coin flips included
        caught = []
        decode = signalling._majority

        def keeping_decode(sent, votes, rng):
            caught.append((sent, votes))
            return decode(sent, votes, rng)

        monkeypatch.setattr(signalling, "_majority", keeping_decode)
        changes = {} if pairs_per_bit is None else {"pairs_per_bit": pairs_per_bit}
        cfg = demo_protocol(name, **changes)
        message = random_message(cfg.seed, 400)
        result = run_channel(cfg, message)
        [(sent, votes)] = caught
        pairs = [
            (bit, vote)
            for bit, counts in zip(sent.tolist(), votes.tolist())
            for vote, count in zip((0, 1, None), counts)
            for _ in range(count)
        ]
        reference = channel_accuracy_by_pairs(
            pairs, cfg.pairs_per_bit, SeededRng(cfg.seed, _VOTE_STREAM)
        )
        assert (
            result.accuracy,
            result.sent,
            result.decoded,
            result.coin_flips,
        ) == reference
        assert result.sent == message
        if pairs_per_bit is not None:
            assert result.coin_flips > 0

    @pytest.mark.parametrize("name", sorted(DEMO_CONFIGS))
    def test_vote_law_sums_cells_by_guess_rule(self, name, monkeypatch):
        # the law each setting's vote draws read: every cell's mass, summed
        # over Alice's outcomes, added in cell order to its vote's total
        laws = []
        draw = SeededRng.multinomial

        def keeping_draw(rng, n, probabilities, size=None):
            laws.append(np.array(probabilities))
            return draw(rng, n, probabilities, size)

        monkeypatch.setattr(SeededRng, "multinomial", keeping_draw)
        cfg = demo_protocol(name)
        run_channel(cfg, (0, 1))
        n = cfg.n
        assert len(laws) == 2
        for setting, law in enumerate(laws):
            expected = [0.0, 0.0, 0.0]
            for cell, mass in enumerate(cfg.law[setting].sum(axis=0)):
                # cell N+2 holds discarded cloner failures, which abstain
                column = PHI if cell == n + 1 else cell + 1
                vote = None if cell == n + 2 else guess_rule(column, n)
                expected[2 if vote is None else vote] += mass
            np.testing.assert_array_equal(law, expected)

    def test_single_pair_blocks_decompose(self):
        # pairs_per_bit = 1, all-zero message: per-block accuracy is
        # P(column <= N) plus half the abstain mass
        cfg = illegal_config(trials=10_000, pairs_per_bit=1, seed=45)
        tally, stats = run_protocol(cfg)
        message = (0,) * 4_000
        result = run_channel(cfg, message)
        expected = stats.p_vote[0, 0] + 0.5 * stats.p_col[0, cfg.n + 1]
        sigma = two_sample_sigma(
            result.accuracy, len(message), expected, tally.classified[0]
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
        result = _majority(
            np.array(sent[::pairs_per_bit], dtype=np.int64),
            np.array(counts, dtype=np.int64),
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

    @pytest.mark.parametrize("message", [(), ((0, 1), (1, 0))], ids=["empty", "2-d"])
    def test_run_channel_rejects_a_message_not_flat_and_non_empty(self, message):
        # run_channel checks the message's shape itself, before any draw
        with pytest.raises(ConfigError, match="one flat, non-empty sequence of bits"):
            run_channel(illegal_config(trials=1, pairs_per_bit=3), message)

    def test_run_channel_rejects_non_binary_message(self):
        with pytest.raises(ConfigError):
            run_channel(illegal_config(trials=1, pairs_per_bit=3), (0, 2, 1))

    @pytest.mark.parametrize("message", [[0.5], [1, 0.5], ["1"], [None]])
    def test_run_channel_rejects_non_integer_bits(self, message):
        # a cast to int64 first used to send 0.5 as the bit 0
        with pytest.raises(ConfigError, match="message bits must be 0 or 1"):
            run_channel(illegal_config(trials=1, pairs_per_bit=3), message)


def _certificate(states, basis_a, basis_b) -> float:
    # the array route, checked on the way against averaged density matrices
    # of member-by-member ensembles
    kets, probs = induced_states(state_rows(states), (basis_a, basis_b))
    certificate = analytic_no_signal_certificate(kets, probs)
    shared = build_shared_state(state_rows(states))
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
        return spec, state_rows((KET0, KET1, PLUS, MINUS))

    def test_pure_junk_materializes_to_phi(self):
        spec, all_states = self.spec_and_states(6)
        out, embedded = materialize_illegal_output(spec, 4, all_states)
        rng = SeededRng(411)
        for _ in range(40):
            assert joint_verify(out, embedded, rng) == PHI

    def test_clonable_label_matches_product_record(self):
        spec, all_states = self.spec_and_states(6)
        out_joint, embedded = materialize_illegal_output(spec, 3, all_states)
        candidates = state_rows((KET0, KET1, PLUS))
        # the joint ket is tested as in test_joint_exact_copies_match_product_law
        collapse = CollapseTree(out_joint, embedded)
        rng = SeededRng(412)
        trials = 8_000
        freq = np.zeros((2, 4))
        for t in range(trials):
            if t < 1_000:
                direct = joint_verify(out_joint, embedded, copy.deepcopy(rng))
            col = collapse.verdict(rng)
            if t < 1_000:
                assert col == direct
            freq[0, 3 if col == PHI else col - 1] += 1
            col = group_verify(PLUS.amplitudes, candidates, 6, rng)
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
        candidates = cfg.context.kets.reshape(2 * cfg.n, cfg.n)[: cfg.n + 1]
        bound = analytic_leakage(cfg.context.own_stay)
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
    # The legal law takes the clonable states to be Bob's B_1..B_N, so a
    # machine built on other states, or on Bob's up to a phase, is refused.
    @pytest.mark.parametrize(
        "clonable",
        [(KET0, Ket.normalized([0.6, 0.8])), (KET0, Ket(-KET1.amplitudes))],
        ids=["other-state", "phase"],
    )
    def test_machine_must_clone_bob_states(self, clonable):
        machine = construct_machine(state_rows(clonable), 4, [0.4, 0.4])
        with pytest.raises(ConfigError) as err:
            ProtocolConfig(
                bob_states=state_rows((KET0, KET1)),
                a2_basis=AliceBasis.fourier(2),
                trials=10,
                pairs_per_bit=1,
                machine=machine,
                seed=1,
            )
        assert "Bob's" in str(err.value) and "\n" not in str(err.value)

    def _legal(self, bob_states, machine):
        return ProtocolConfig(
            bob_states=bob_states,
            a2_basis=AliceBasis.fourier(2),
            trials=10,
            pairs_per_bit=1,
            machine=machine,
            seed=1,
        )

    def test_each_stage_holds_its_own_copy(self):
        # the factored set, the machine and the protocol config each hold a
        # read-only copy, none of them the caller's array
        states = state_rows((KET0, Ket.normalized([0.5, np.sqrt(0.75)])))
        machine = construct_machine(states, 6, [0.3, 0.3])
        legal = self._legal(states, machine)
        owned = (machine.factored.states, machine.clonable, legal.bob_states)
        assert owned[0] is not states and owned[2] is not states
        assert owned[2] is not owned[1]
        before = states.copy()
        states[1] = [0.6, 0.8]  # reaches none of them
        for array in owned:
            np.testing.assert_array_equal(array, before)
            assert not array.flags.writeable

    @pytest.mark.parametrize(
        "row, message",
        [
            ([0.0, 2.0], "Bob states must be unit vectors, got norms [1.0, 2.0]"),
            ([0.6, 0.8], "machine clones other states than Bob's (amplitude gap 1.0e-01)"),
        ],
        ids=["not-unit", "other-unit-state"],
    )
    def test_a_state_set_written_after_the_machine_is_refused(self, row, message):
        # an owning array can be made writable, rewritten and frozen again:
        # the protocol config checks it again instead of trusting its identity
        states = qcore.bob_state_set(
            config_mod.load_states(REPO / "configs" / "states_legal_n2.txt")
        )
        machine = construct_machine(states, 6, [0.3, 0.3])
        states.setflags(write=True)
        states[1] = row
        states.setflags(write=False)
        with pytest.raises(ConfigError) as err:
            self._legal(states, machine)
        assert str(err.value) == message

    @pytest.mark.parametrize("gap", [0.0, 1e-11], ids=["copy", "gap-1e-11"])
    def test_another_clonable_array_is_compared(self, gap):
        # a legal machine on an equal but separate array is checked against
        # Bob's, and refused above an amplitude gap of 1e-12
        clonable = state_rows((KET0, Ket.normalized([0.6, 0.8])))
        machine = construct_machine(clonable, 4, [0.4, 0.4])
        other = np.array(machine.clonable)
        other[1] = [0.6 - gap, np.sqrt(1 - (0.6 - gap) ** 2)]
        bob_states = qcore.state_set(other, "Bob states")
        if gap == 0.0:
            legal = self._legal(bob_states, machine)
            np.testing.assert_array_equal(legal.bob_states, bob_states)
            return
        with pytest.raises(ConfigError) as err:
            self._legal(bob_states, machine)
        assert str(err.value) == (
            "machine clones other states than Bob's (amplitude gap 1.0e-11)"
        )

    def test_a_frozen_non_unit_state_set_is_refused(self):
        bob_states = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
        bob_states.setflags(write=False)
        with pytest.raises(ConfigError, match="^Bob states must be unit vectors"):
            self._legal(bob_states, IllegalClonerSpec((1, 2, 3), 4, 4))

    @pytest.mark.parametrize(
        "refuse, role",
        [
            (lambda rows: ProtocolConfig(
                rows, AliceBasis.fourier(2), 10, 1, IllegalClonerSpec((1, 2, 3), 4, 4), 1
            ), "Bob states"),
            (build_shared_state, "Bob states"),
            (lambda rows: target_to_basis(np.array([1.0, 0.0]), rows), "Bob states"),
            (lambda rows: FactoredSet(rows, 3), "clonable states"),
        ],
        ids=["protocol-config", "shared-state", "target-basis", "factored-set"],
    )
    def test_each_refusal_is_one_line_naming_its_role(self, refuse, role):
        with pytest.raises(ConfigError) as err:
            refuse(np.array([[1.0, 0.0], [0.0, 3.0]]))
        assert str(err.value) == f"{role} must be unit vectors, got norms [1.0, 3.0]"

    def test_mu_lower_bound(self):
        with pytest.raises(ConfigError):
            illegal_config(mu=2)

    def test_mu_is_the_machine_copy_count(self):
        # the run has no copy count of its own to disagree with the machine's
        with pytest.raises(ConfigError) as err:
            ProtocolConfig(
                bob_states=state_rows((KET0, KET1)),
                a2_basis=AliceBasis.fourier(2),
                trials=10,
                pairs_per_bit=1,
                machine=IllegalClonerSpec((1, 2, 3), 2, 4),
                seed=1,
            )
        assert str(err.value) == "mu must be at least N+1 = 3, got 2"
        for protocol, mu in ((illegal_config(mu=12), 12), (legal_config(mu=6), 6)):
            assert protocol.mu == protocol.machine.copies == mu
        # a legal machine's count is its factored set's, checked there, and
        # the run's lower bound holds for it too
        assert protocol.machine.copies == protocol.machine.factored.copies
        machine = construct_machine(protocol.bob_states, 2, [0.5, 0.5])
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(protocol, machine=machine)
        assert str(err.value) == "mu must be at least N+1 = 3, got 2"

    def test_machine_on_states_of_another_shape(self):
        # three clonable states of dimension 3 against Bob's two of dimension 2
        machine = construct_machine(np.eye(3), 4, [0.5, 0.5, 0.5])
        with pytest.raises(ConfigError) as err:
            ProtocolConfig(
                bob_states=state_rows((KET0, KET1)),
                a2_basis=AliceBasis.fourier(2),
                trials=10,
                pairs_per_bit=1,
                machine=machine,
                seed=1,
            )
        assert str(err.value).startswith("machine clones other states than Bob's")

    @pytest.mark.parametrize(
        "bob_states, message",
        [
            ([[1.0]], "need at least two Bob states, got 1"),
            ([[1.0, 0.0], [0.0, 1.0, 0.0]], "Bob states must have dimension 2, got 3"),
        ],
        ids=["one-state", "ragged"],
    )
    def test_bob_states_must_be_n_states_of_dimension_n(self, bob_states, message):
        # the run context and the shared state stack them into an N x N
        # array; a run config, a protocol config and a shared state all
        # refuse them with the same message
        pairs = [[[value, 0.0] for value in state] for state in bob_states]
        run = config_mod.RunConfig(
            mu=4,
            trials=10,
            pairs_per_bit=1,
            seed=1,
            machine={"kind": "illegal"},
            bob_states=pairs,
        )
        entry_points = {
            "build_protocol": lambda: config_mod.build_protocol(run),
            "ProtocolConfig": lambda: ProtocolConfig(
                bob_states=bob_states,
                a2_basis=AliceBasis.fourier(2),
                trials=10,
                pairs_per_bit=1,
                machine=IllegalClonerSpec((1, 2, 3), 4, 4),
                seed=1,
            ),
            "build_shared_state": lambda: build_shared_state(bob_states),
        }
        for name, entry_point in entry_points.items():
            with pytest.raises(ConfigError) as err:
                entry_point()
            assert str(err.value) == message, name

    @pytest.mark.parametrize(
        "field, value",
        [("trials", 2.5), ("trials", True), ("pairs_per_bit", 3.7)],
        ids=["trials-float", "trials-bool", "pairs_per_bit-float"],
    )
    def test_run_counts_must_be_integers(self, field, value):
        # a float count would draw int(value) pairs but report value
        cfg = demo_protocol("illegal_n2")
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(cfg, **{field: value})
        assert str(err.value) == f"{field} must be an integer, got {value!r}"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (
                "a2_basis",
                AliceBasis.fourier(3),
                "alternate basis dimension does not match state count",
            ),
            (
                "machine",
                IllegalClonerSpec((1, 2, 3), 48, 6),
                "cloner expects 6 labels, run has 4",
            ),
        ],
        ids=["a2-basis", "cloner-labels"],
    )
    def test_parts_built_for_another_state_count(self, field, value, message):
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(demo_protocol("illegal_n2"), **{field: value})
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "first",
        [[2.0, 0.0], [np.nan, 0.0], [1.0 + 1e-9, 0.0], [0.0, np.inf]],
        ids=["norm-2", "nan", "off-by-1e-9", "inf"],
    )
    def test_bob_states_must_be_unit_vectors(self, first):
        # the laws take unit states; a norm-2 state would still give rows summing to 1
        def build(bob_states):
            return ProtocolConfig(
                bob_states=bob_states,
                a2_basis=AliceBasis.fourier(2),
                trials=10,
                pairs_per_bit=1,
                machine=IllegalClonerSpec((1, 2, 3), 4, 4),
                seed=1,
            )

        with pytest.raises(ConfigError) as err:
            build([first, [0.0, 1.0]])
        assert "\n" not in str(err.value)
        assert build([[1.0 + 1e-11, 0.0], [0.0, 1.0]]).n == 2

    def test_machine_copy_count_must_match(self):
        # mu is the machine's copy count, so two copies for N = 2 are too few
        machine = construct_machine(state_rows((KET0, KET1)), 2, [1.0, 1.0])
        with pytest.raises(ConfigError, match=r"mu must be at least N\+1 = 3, got 2"):
            ProtocolConfig(
                bob_states=state_rows((KET0, KET1)),
                a2_basis=AliceBasis.fourier(2),
                trials=10,
                pairs_per_bit=1,
                machine=machine,
                seed=1,
            )
