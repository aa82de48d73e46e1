"""Acceptance suite: one test per criterion, printed as a pass/fail checklist.

Every tolerance is pinned here. Monte Carlo criteria run on fixed seeds so
the whole suite is deterministic.
"""

import numpy as np
import pytest

from pqclone import cli
from pqclone.entangle import AliceBasis
from pqclone.errors import FeasibilityError, RankError
from pqclone.pqcm import (
    IllegalClonerSpec,
    construct_machine,
    feasibility_matrix,
    illegal_clone,
    max_uniform_gamma,
)
from pqclone.qcore import (
    Ket,
    SeededRng,
    is_psd,
    rank_with_tolerance,
    tensor_power,
)
from pqclone.signalling import (
    PHI,
    ProtocolConfig,
    analytic_no_signal_certificate,
    column_law,
    group_verify,
    random_message,
    run_channel,
    run_protocol,
)

from born import CollapseTree, haar_unitary, materialize_illegal_output, random_ket
from test_config_cli import CONFIGS
from oracles import (
    projected_column_law,
    two_sample_sigma,
    two_state_gamma_by_bisection,
    two_state_gamma_closed_form,
)

KET0 = Ket.basis_state(2, 0)
KET1 = Ket.basis_state(2, 1)


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def illegal_demo_config(trials: int, mu: int = 48, seed: int = 42, pairs_per_bit: int = 200):
    return ProtocolConfig(
        bob_states=(KET0, KET1),
        a2_basis=AliceBasis.fourier(2),
        mu=mu,
        trials=trials,
        pairs_per_bit=pairs_per_bit,
        machine=IllegalClonerSpec(
            clonable_labels=(1, 2, 3), copies=mu, total_labels=4
        ),
        seed=seed,
    )


@pytest.fixture(scope="module")
def illegal_run():
    return run_protocol(illegal_demo_config(trials=100_000))


def well_conditioned_set(n: int, rng: SeededRng, max_cond: float = 60.0):
    while True:
        states = [random_ket(n, rng) for _ in range(n)]
        mat = np.column_stack([s.amplitudes for s in states])
        sing = np.linalg.svd(mat, compute_uv=False)
        if sing[-1] > 0 and sing[0] / sing[-1] <= max_cond:
            return states


def test_criterion_1_first_basis_column_structure(illegal_run):
    # illegal cloner, N=2, mu=48, 1e5 success events per setting:
    # the forbidden column stays empty and the first-set mass is >= 0.999
    tally, stats = illegal_run
    assert tally.classified[0] == 100_000
    assert stats.p1_a1 <= 1e-4
    assert stats.p0_a1 >= 0.999
    report(1, f"p1_a1={stats.p1_a1}, p0_a1={stats.p0_a1:.6f}")


def test_criterion_2_second_basis_reveals_the_extra_state(illegal_run):
    tally, stats = illegal_run
    assert tally.classified[1] == 100_000
    assert stats.stderr_p1_a2 > 0
    significance = stats.p1_a2 / stats.stderr_p1_a2
    assert significance >= 5.0
    assert stats.p0_a2 <= 1.0 - stats.p1_a2 + 3.0 * stats.stderr_p1_a2
    report(2, f"p1_a2={stats.p1_a2:.5f} at {significance:.0f} sigma")


def test_criterion_3_legal_machines_never_signal():
    rng = SeededRng(901)
    mu = 4
    worst_z = 0.0
    worst_exact = 0.0
    for instance in range(20):
        n = 2 + instance % 2
        states = well_conditioned_set(n, rng)
        gamma = 0.8 * max_uniform_gamma(states, mu)
        machine = construct_machine(states, mu, [gamma] * n)
        a2 = AliceBasis.from_unitary(haar_unitary(n, rng))
        config = ProtocolConfig(
            bob_states=tuple(states),
            a2_basis=a2,
            mu=mu,
            trials=4_000,
            pairs_per_bit=1,
            machine=machine,
            seed=9000 + instance,
        )
        _, stats = run_protocol(config)
        sigma = two_sample_sigma(
            stats.p1_a1, stats.classified[0], stats.p1_a2, stats.classified[1]
        )
        diff = abs(stats.p1_a2 - stats.p1_a1)
        assert diff <= 3.0 * sigma, f"instance {instance}: diff {diff}, sigma {sigma}"
        context = config.context
        certificate = analytic_no_signal_certificate(context.kets, context.probs)
        assert certificate <= 1e-12
        # exact: Bob's column law, discard mass included, ignores Alice's basis
        law = column_law(config)
        exact_gap = float(np.max(np.abs(law[0].sum(axis=0) - law[1].sum(axis=0))))
        assert exact_gap <= 1e-12, f"instance {instance}: exact gap {exact_gap}"
        worst_exact = max(worst_exact, exact_gap)
        if sigma > 0:
            worst_z = max(worst_z, diff / sigma)
    report(
        3,
        f"20 instances, worst |p1_a2 - p1_a1| = {worst_z:.2f} sigma, "
        f"worst exact A1/A2 column-law gap = {worst_exact:.1e}",
    )


def test_criterion_4_channel_demonstration():
    # illegal: a 100-bit message decodes essentially perfectly
    config = illegal_demo_config(trials=1, seed=77, pairs_per_bit=200)
    message = random_message(config.seed, 100)
    result = run_channel(config, message)
    assert result.accuracy >= 0.99

    # legal: accuracy stays at coin-flip level over 1e4 blocks
    states = (KET0, Ket.normalized([0.5, np.sqrt(0.75)]))
    mu = 4
    gamma = 0.9 * max_uniform_gamma(states, mu)
    machine = construct_machine(states, mu, [gamma, gamma])
    legal = ProtocolConfig(
        bob_states=states,
        a2_basis=AliceBasis.fourier(2),
        mu=mu,
        trials=1,
        pairs_per_bit=3,
        machine=machine,
        seed=78,
    )
    blocks = random_message(legal.seed, 10_000)
    legal_result = run_channel(legal, blocks)
    assert 0.47 <= legal_result.accuracy <= 0.53
    report(
        4,
        f"illegal accuracy={result.accuracy:.3f}, "
        f"legal accuracy={legal_result.accuracy:.4f}",
    )


def _machine_invariants_hold(machine, states, m) -> bool:
    for s, g in zip(states, machine.gammas):
        expected = np.sqrt(g) * tensor_power(s, m).amplitudes
        if np.linalg.norm(machine.kraus_success @ s.amplitudes - expected) > 1e-9:
            return False
    total = (
        machine.kraus_success.conj().T @ machine.kraus_success
        + machine.kraus_fail.conj().T @ machine.kraus_fail
    )
    return bool(np.max(np.abs(total - np.eye(machine.dim))) <= 1e-9)


def test_criterion_5_feasibility_matches_construction_and_rank():
    rng = SeededRng(905)
    factors = [0.5, 0.9, 1.05, 1.3]
    m = 2
    independents = 0
    dependents = 0
    for case in range(200):
        n = 2 + case % 2
        style = case % 10
        if style < 6:
            states = well_conditioned_set(n, rng)
            k = n
        elif style < 8:
            base = well_conditioned_set(n, rng)
            if style == 6:
                states = base[: n - 1] + [base[0]]  # duplicate
            else:
                combo = Ket.normalized(
                    base[0].amplitudes + 0.5 * base[min(1, n - 1)].amplitudes
                )
                states = base[: n - 1] + [combo] if n == 2 else base[:2] + [
                    Ket.normalized(
                        base[0].amplitudes - 2.0 * base[1].amplitudes
                    )
                ]
            k = len(states)
        else:
            states = [random_ket(n, rng) for _ in range(n + 1)]
            k = n + 1

        independent = rank_with_tolerance(states) == k
        if not independent:
            dependents += 1
            with pytest.raises(RankError):
                feasibility_matrix(states, m, [0.5] * k)
            with pytest.raises(RankError):
                construct_machine(states, m, [0.5] * k)
            continue

        independents += 1
        gamma_max = max_uniform_gamma(states, m)
        gamma = min(factors[case % 4] * gamma_max, 1.0)
        gammas = [gamma] * k
        verdict = is_psd(feasibility_matrix(states, m, gammas))
        try:
            machine = construct_machine(states, m, gammas)
            built = _machine_invariants_hold(machine, states, m)
            assert built, f"case {case}: machine built but invariants fail"
            assert all(g > 0 for g in machine.gammas)
        except FeasibilityError:
            built = False
        assert built == verdict, f"case {case}: verdict {verdict} vs built {built}"
    assert dependents >= 40 and independents >= 100
    report(5, f"{independents} independent + {dependents} dependent cases agree")


def test_criterion_6_two_state_closed_form():
    worst = 0.0
    for s in (0.1, 0.5, 0.70710678, 0.9):
        states = (KET0, Ket(np.array([s, np.sqrt(1 - s * s)], dtype=complex)))
        for m in (2, 3, 4):
            closed = two_state_gamma_closed_form(s, m)
            oracle = two_state_gamma_by_bisection(s, m)
            assert abs(closed - oracle) <= 1e-6  # closed form vs direct bisection
            value = max_uniform_gamma(states, m)
            worst = max(worst, abs(value - closed))
            assert abs(value - closed) <= 1e-6
    report(6, f"12 (s, M) pairs, max |gamma - closed form| = {worst:.2e}")


def test_criterion_7_materialized_joint_matches_branch_sampling():
    plus, minus = Ket.normalized([1, 1]), Ket.normalized([1, -1])
    all_states = (KET0, KET1, plus, minus)
    c = np.sqrt([0.3, 0.3, 0.3])
    d = np.sqrt(0.1)
    worst_z = 0.0
    worst_exact = 0.0
    for mu, trials, seed in ((6, 40_000, 910), (7, 20_000, 911)):
        spec = IllegalClonerSpec(
            clonable_labels=(1, 2, 3),
            copies=mu,
            total_labels=4,
            coefficients={4: (c, d)},
        )
        default_spec = IllegalClonerSpec(
            clonable_labels=(1, 2, 3), copies=mu, total_labels=4
        )
        # exact: the group projectors applied to the materialized joint ket
        # give label 4's row of the library's law, divided by its p
        for exact_spec in (spec, default_spec):
            config = ProtocolConfig(
                bob_states=(KET0, KET1),
                a2_basis=AliceBasis.fourier(2),
                mu=mu,
                trials=1,
                pairs_per_bit=1,
                machine=exact_spec,
                seed=0,
            )
            p = config.context.probs[1, 1]
            row = column_law(config)[1, 1, :4] / p
            joint, embedded = materialize_illegal_output(exact_spec, 4, all_states)
            projected = projected_column_law(joint, embedded, mu)
            gap = float(np.max(np.abs(projected - row)))
            assert gap <= 1e-12, f"mu={mu}: {projected} vs {row}"
            worst_exact = max(worst_exact, gap)

        joint, embedded = materialize_illegal_output(spec, 4, all_states)
        # group_verify's sequential collapse, memoized per outcome prefix;
        # the first 1 000 trials also run group_verify itself and must agree
        collapse = CollapseTree(joint, embedded, mu)
        freq = np.zeros((2, 4))
        for t in range(trials):
            col = collapse.verdict(SeededRng(seed, t))
            if t < 1_000:
                assert col == group_verify(joint, embedded, mu, SeededRng(seed, t))
            freq[0, 3 if col == PHI else col - 1] += 1
            rng = SeededRng(seed + 1, t)
            out = illegal_clone(spec, 4, all_states, rng)
            col = group_verify(out, all_states[:3], mu, rng)
            freq[1, 3 if col == PHI else col - 1] += 1
        freq /= trials
        for k in range(4):
            sigma = two_sample_sigma(freq[0, k], trials, freq[1, k], trials)
            gap = abs(freq[0, k] - freq[1, k])
            assert gap <= 3.0 * sigma + 1e-12, f"mu={mu} column {k}: {freq[:, k]}"
            if sigma > 0:
                worst_z = max(worst_z, gap / sigma)

        # the default pure-junk output materializes to the junk column exactly
        joint_junk, embedded_junk = materialize_illegal_output(
            default_spec, 4, all_states
        )
        rng = SeededRng(912)
        assert all(
            group_verify(joint_junk, embedded_junk, mu, rng) == PHI for _ in range(50)
        )
    report(
        7,
        f"mu in {{6, 7}}, worst column gap = {worst_z:.2f} sigma, "
        f"worst exact projection gap = {worst_exact:.1e}",
    )


def test_criterion_8_cli_byte_determinism(tmp_path, monkeypatch):
    # PQCM_THREADS is no longer read, and the runs that set it show that it
    # changes nothing
    trials = 198_108
    outputs = []
    for name, threads in (("t1", None), ("t1b", None), ("t3", "3"), ("t8", "8")):
        if threads is None:
            monkeypatch.delenv("PQCM_THREADS", raising=False)
        else:
            monkeypatch.setenv("PQCM_THREADS", threads)
        out_dir = tmp_path / name
        code = cli.main(
            [
                "signal-test",
                str(CONFIGS / "illegal_n2.json"),
                "--trials",
                str(trials),
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        outputs.append(
            (
                (out_dir / "tally.json").read_bytes(),
                (out_dir / "stats.json").read_bytes(),
            )
        )
    for other in outputs[1:]:
        assert other == outputs[0]
    report(8, f"{len(outputs)} runs of {trials} trials byte-identical")
