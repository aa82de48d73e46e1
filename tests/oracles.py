"""Independent reference computations used to cross-check the library.

Everything here is deliberately implemented from scratch against the
underlying definitions (characteristic polynomials, bisection on a
hand-built matrix, independent-Bernoulli group statistics, projectors
applied to an explicit Kraus success branch or joint clone ket,
member-by-member steering, averaged density matrices built from kets,
pair-by-pair Born-rule trajectories, per-pair majority voting) so that a
test never validates code against itself.
"""

from types import SimpleNamespace

import numpy as np

from pqclone import qcore, signalling
from pqclone.entangle import AliceBasis, build_shared_state
from pqclone.errors import ConfigError
from pqclone.pqcm import CloneOutput, IllegalClonerSpec
from pqclone.qcore import Ket, SeededRng


def char_poly_coefficients(matrix: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via Faddeev-LeVerrier.

    Returns [1, c1, ..., cn] with p(x) = x^n + c1 x^(n-1) + ... + cn,
    computed from traces of powers only (no eigensolver involved).
    """
    a = np.asarray(matrix, dtype=np.complex128)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def char_poly_roots(matrix: np.ndarray) -> np.ndarray:
    """Sorted real parts of the characteristic-polynomial roots."""
    roots = np.roots(char_poly_coefficients(matrix))
    return np.sort(roots.real)


def two_state_feasibility_min_eig(s: float, m: int, gamma: float) -> float:
    """Smallest eigenvalue of the 2x2 cloning feasibility matrix, built by hand."""
    off = s - gamma * s**m
    matrix = np.array([[1.0 - gamma, off], [off, 1.0 - gamma]])
    return float(np.linalg.eigvalsh(matrix)[0])


def two_state_gamma_by_bisection(s: float, m: int, tol: float = 1e-9) -> float:
    """Largest uniform gamma keeping the 2x2 matrix PSD, by direct bisection."""
    lo, hi = 0.0, 1.0
    if two_state_feasibility_min_eig(s, m, hi) >= -1e-12:
        return hi
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if two_state_feasibility_min_eig(s, m, mid) >= -1e-12:
            lo = mid
        else:
            hi = mid
    return lo


def gamma_by_bisection(states: np.ndarray, m: int, tol: float = 1e-12) -> float:
    """Largest uniform gamma with X - gamma X^(M) PSD, by direct bisection.

    ``states`` holds the kets as columns; X = B^H B is built here and the
    PSD test is the sign of the smallest eigenvalue, with no tolerance.
    """
    gram = states.conj().T @ states
    gram_m = gram**m

    def feasible(gamma: float) -> bool:
        return np.linalg.eigvalsh(gram - gamma * gram_m)[0] >= 0.0

    lo, hi = 0.0, 1.0
    if feasible(hi):
        return hi
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def two_state_gamma_closed_form(s: float, m: int) -> float:
    return (1.0 - s) / (1.0 - s**m)


def induced_members_by_kets(shared, basis) -> list:
    """Bob's (state, probability) members for one Alice basis, one at a time.

    Member m has unnormalized state sum_n <a_m|n> |B_n> and probability its
    squared norm over N, renormalized; under A1 exactly (|B_n>, 1/N). A
    member of squared norm at most 1e-24 gets probability 0 and the
    placeholder |0>.
    """
    n = shared.alice_dim
    if basis.label == "A1":
        return [(s, 1.0 / n) for s in shared.bob_states]
    bob_mat = np.column_stack([s.amplitudes for s in shared.bob_states])
    members = []
    for vec in basis.vectors:
        raw = bob_mat @ vec.amplitudes.conj()
        norm_sq = float(np.real(np.vdot(raw, raw)))
        if norm_sq > 1e-24:
            members.append((Ket(raw / np.sqrt(norm_sq)), norm_sq / n))
        else:
            members.append((Ket.basis_state(n, 0), 0.0))
    total = sum(p for _, p in members)
    return [(s, p / total) for s, p in members]


def ensemble_certificate(ensemble_a, ensemble_b) -> float:
    """Trace distance of two ``Ensemble``s' averaged density matrices."""
    return qcore.trace_distance(
        ensemble_a.average_density(), ensemble_b.average_density()
    )


def split_sizes(mu: int, n_groups: int) -> list:
    base, extra = divmod(mu, n_groups)
    return [base + 1] * extra + [base] * (n_groups - extra)


def exact_copy_column_distribution(
    single: np.ndarray, candidates: list, mu: int
) -> np.ndarray:
    """Exact column law for mu independent copies of one state.

    Group j succeeds as a whole with probability |<cand_j|state>|^(2 g_j),
    independently across groups, so column l needs group l to succeed and
    every other group to fail; the remainder is the junk column. Returns
    [P(col 1), ..., P(col K), P(junk)].
    """
    sizes = split_sizes(mu, len(candidates))
    group_p = np.array(
        [
            abs(np.vdot(c, single)) ** (2 * g)
            for c, g in zip(candidates, sizes)
        ]
    )
    cols = np.zeros(len(candidates) + 1)
    for l in range(len(candidates)):
        others = np.prod([1.0 - p for j, p in enumerate(group_p) if j != l])
        cols[l] = group_p[l] * others
    cols[-1] = 1.0 - cols[:-1].sum()
    return cols


def _group_bras(candidates, sizes) -> list:
    """<c_j|^(x g_j) per verification group, as one flat vector each."""
    bras = []
    for c, g in zip(candidates, sizes):
        bra = np.ones(1, dtype=np.complex128)
        for _ in range(g):
            bra = np.kron(bra, c.amplitudes.conj())
        bras.append(bra)
    return bras


def _only_group_masses(phi: np.ndarray, bras: list) -> np.ndarray:
    """P(only group l all-succeeds), unnormalized, per row of ``phi``.

    ``phi`` has one leading row axis and one axis per verification group.
    Tests on distinct factors commute, so the result follows by
    inclusion-exclusion from
    P(every group in T all-succeeds) = ||(x_{j in T} <c_j|^(x g_j)) phi||^2.
    """
    k = len(bras)
    rows = phi.shape[0]
    only = np.zeros((rows, k))
    for subset in range(1, 1 << k):
        groups = [j for j in range(k) if subset >> j & 1]
        amp = phi
        for j in reversed(groups):  # highest axis first keeps lower axes in place
            amp = np.tensordot(amp, bras[j], axes=([j + 1], [0]))
        p_all = np.sum(np.abs(amp.reshape(rows, -1)) ** 2, axis=1)
        sign = 1.0 if len(groups) % 2 else -1.0
        only[:, groups] += sign * p_all[:, None]
    return only


def contracted_legal_rows(
    kraus_success: np.ndarray, members, candidates, mu: int
) -> np.ndarray:
    """Law rows of a Kraus machine by contracting its explicit success branch.

    ``members`` lists (ket, probability) pairs and ``candidates`` kets.
    Phi_m = sqrt(p_m) A psi_m is reshaped into one tensor factor per
    verification group, and the group projectors are applied to it by
    inclusion-exclusion. Rows are laid out like one setting of
    ``column_law``: columns B_1..B_K, then PHI, then discarded cloner
    failures.
    """
    k = len(candidates)
    clone_dim = kraus_success.shape[1]
    sizes = split_sizes(mu, k)
    probs = np.array([p for _, p in members])
    inputs = np.stack([np.sqrt(p) * ket.amplitudes for ket, p in members])
    phi = inputs @ kraus_success.T
    success = np.sum(np.abs(phi) ** 2, axis=1)
    phi = phi.reshape((len(members),) + tuple(clone_dim**g for g in sizes))
    only = _only_group_masses(phi, _group_bras(candidates, sizes))
    rows = np.empty((len(members), k + 2))
    rows[:, :k] = only
    rows[:, k] = success - only.sum(axis=1)  # PHI
    rows[:, k + 1] = probs - success  # discarded cloner failures
    return rows


def projected_column_law(clones: CloneOutput, candidates, mu: int) -> np.ndarray:
    """[P(col 1..K), P(PHI)] of a joint clone record, without sampling.

    The group projectors are applied to the explicit joint ket by
    inclusion-exclusion, and the leading (flag) register is summed out.
    """
    sizes = split_sizes(mu, len(candidates))
    phi = clones.state.amplitudes.reshape(
        (clones.lead_dim,) + tuple(clones.clone_dim**g for g in sizes)
    )
    only = _only_group_masses(phi, _group_bras(candidates, sizes)).sum(axis=0)
    return np.append(only, 1.0 - only.sum())


def three_sigma_binomial(p: float, n: int) -> float:
    return 3.0 * np.sqrt(max(p * (1.0 - p), 1e-12) / n)


def two_sample_sigma(p1: float, n1: int, p2: float, n2: int) -> float:
    """Pooled standard error for the difference of two proportions."""
    pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
    return np.sqrt(max(pooled * (1.0 - pooled), 0.0) * (1.0 / n1 + 1.0 / n2))


def born_context(config) -> SimpleNamespace:
    """The kets and shared state of the Born-rule reference.

    They are read off the run's ``RunContext`` arrays: the shared state
    pairs Alice's labels with A1's member states (Bob's own), ``bases`` is
    (A1, A2), and ``all_states`` and ``candidates`` wrap the preparation
    and candidate rows as kets.
    """
    ctx = config.context
    return SimpleNamespace(
        shared=build_shared_state(tuple(Ket(row) for row in ctx.kets[0])),
        bases=(AliceBasis.computational(config.n), config.a2_basis),
        all_states=tuple(Ket(row) for row in ctx.preparations),
        candidates=tuple(Ket(row) for row in ctx.candidates),
    )


def run_one_pair(config, ctx, setting: int, rng: SeededRng):
    """One shared pair: Alice measures, the cloner runs, Bob classifies.

    ``ctx`` is ``born_context(config)``. Returns (input row 0-based,
    column), column None when the cloner reported failure and the pair is
    discarded. Each stage samples the Born rule on explicit states,
    independently of ``column_law``.
    """
    outcome, bob_state = signalling.alice_measure(ctx.shared, ctx.bases[setting], rng)
    row = setting * config.n + outcome
    if isinstance(config.machine, IllegalClonerSpec):
        out = signalling.illegal_clone(config.machine, row + 1, ctx.all_states, rng)
    else:
        success, ket = signalling.apply_machine(config.machine, bob_state, rng)
        if not success:
            return row, None
        out = CloneOutput.joint_state(ket, config.mu, config.n)
    column = signalling.group_verify(out, ctx.candidates, config.mu, rng)
    return row, column


def trajectory_tally(config, setting: int, trials: int, seed: int) -> np.ndarray:
    """Counts of ``trials`` pair trajectories, laid out like one setting of
    ``column_law``: rows are Alice outcomes, cells are columns B_1..B_{N+1},
    then PHI, then discarded cloner failures.
    """
    ctx = born_context(config)
    n = config.n
    counts = np.zeros((n, n + 3), dtype=np.int64)
    for t in range(trials):
        rng = SeededRng(seed, 2 * t + setting)
        row, column = run_one_pair(config, ctx, setting, rng)
        if column is None:
            cell = n + 2
        elif column == signalling.PHI:
            cell = n + 1
        else:
            cell = column - 1
        counts[row - setting * n, cell] += 1
    return counts


def channel_accuracy_by_pairs(pair_results, pairs_per_bit: int, rng: SeededRng):
    """Majority-vote decoding, one (sent bit, guess) pair at a time.

    ``pair_results`` yields (sent bit, guess) with guess in {0, 1, None};
    None carries no vote. A block with no votes or a tie is decided by one
    ``rng.random() < 0.5`` draw, in block order. Returns (accuracy, sent,
    decoded, coin-flip blocks).
    """
    if pairs_per_bit < 1:
        raise ConfigError("pairs_per_bit must be at least 1")
    sent, decoded = [], []
    coin_flips = 0
    block = []
    for item in pair_results:
        block.append(item)
        if len(block) < pairs_per_bit:
            continue
        bits = {b for b, _ in block}
        if len(bits) != 1:
            raise ConfigError("a voting block must carry a single sent bit")
        votes = [g for _, g in block if g is not None]
        ones = sum(votes)
        zeros = len(votes) - ones
        if ones > zeros:
            verdict = 1
        elif zeros > ones:
            verdict = 0
        else:
            verdict = int(rng.random() < 0.5)
            coin_flips += 1
        sent.append(block[0][0])
        decoded.append(verdict)
        block = []
    if block:
        raise ConfigError("pair stream length must be a multiple of pairs_per_bit")
    if not sent:
        raise ConfigError("no complete blocks to decode")
    hits = sum(int(s == d) for s, d in zip(sent, decoded))
    return hits / len(sent), tuple(sent), tuple(decoded), coin_flips


def random_message_by_draws(seed: int, n_bits: int) -> tuple:
    """The channel demo's message, one ``random()`` draw per bit."""
    rng = SeededRng(seed, signalling._stream_id(signalling._PHASE_MESSAGE, 0))
    return tuple(int(rng.random() < 0.5) for _ in range(n_bits))
