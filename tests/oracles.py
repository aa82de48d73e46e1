"""Independent reference computations used to cross-check the library.

Everything here is deliberately implemented from scratch against the
underlying definitions (characteristic polynomials, bisection on a
hand-built matrix, the closed-form gamma_max and the legal column law in
50-digit arithmetic, independent-Bernoulli group statistics, projectors
applied to an explicit Kraus success branch or joint clone ket,
member-by-member steering, averaged density matrices built from kets,
pair-by-pair Born-rule trajectories, per-pair majority voting, a
column-by-column vote rule) so that a test never validates code against
itself.
"""

from types import SimpleNamespace

import numpy as np

from pqclone import qcore, signalling
from pqclone.entangle import AliceBasis, build_shared_state
from pqclone.errors import ConfigError, RankError
from pqclone.pqcm import IllegalClonerSpec
from pqclone.qcore import Ket, SeededRng

from born import JointKet, average_density, basis_ket, joint_verify, trace_distance


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


def gamma_max_high_precision(states: np.ndarray, m: int, dps: int = 50) -> float:
    """Largest uniform gamma with X - gamma X^(M) PSD, at ``dps`` digits.

    ``states`` holds the kets as columns; their binary amplitudes are taken
    exactly. X = B^H B and its entrywise M-th power are formed in mpmath,
    X = L L^H by Cholesky, and gamma = min(1, 1 / lambda_max) of
    L^-1 X^(M) L^-H. At 50 digits the cond(B)^2 that this route loses
    still leaves far more than double precision for cond(B) up to 1e8.
    """
    import mpmath

    with mpmath.workdps(dps):
        b_mat = mpmath.matrix(
            [[mpmath.mpc(float(z.real), float(z.imag)) for z in row] for row in states]
        )
        gram = b_mat.H * b_mat
        n = gram.rows
        gram_m = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                gram_m[i, j] = gram[i, j] ** m
        l_inv = mpmath.cholesky(gram) ** -1
        lam_max = max(mpmath.eigh(l_inv * gram_m * l_inv.H, eigvals_only=True))
        return float(min(mpmath.mpf(1), 1 / lam_max))


def two_state_gamma_closed_form(s: float, m: int) -> float:
    return (1.0 - s) / (1.0 - s**m)


def induced_members_by_kets(shared, basis) -> list:
    """Bob's (state, probability) members for one Alice basis, one at a time.

    Member m has unnormalized state sum_n <a_m|n> |B_n> and probability its
    squared norm over N, renormalized; under the exact identity (A1),
    exactly (|B_n>, 1/N). A member of squared norm at most 1e-24 gets
    probability 0 and the placeholder |0>.
    """
    n = len(shared.bob_states)
    if np.array_equal(basis.matrix, np.eye(n)):
        return [(Ket(s), 1.0 / n) for s in shared.bob_states]
    bob_mat = np.column_stack(list(shared.bob_states))
    members = []
    for vec in basis.matrix.T:
        raw = bob_mat @ vec.conj()
        norm_sq = float(np.real(np.vdot(raw, raw)))
        if norm_sq > 1e-24:
            members.append((Ket(raw / np.sqrt(norm_sq)), norm_sq / n))
        else:
            members.append((basis_ket(n, 0), 0.0))
    total = sum(p for _, p in members)
    return [(s, p / total) for s, p in members]


def ensemble_certificate(ensemble_a, ensemble_b) -> float:
    """Trace distance of two ``Ensemble``s' averaged density matrices."""
    return trace_distance(average_density(ensemble_a), average_density(ensemble_b))


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


def stay_by_gather(hit: np.ndarray) -> np.ndarray:
    """stay[l, i] = prod_{j != l} (1 - hit[j, i]) by an explicit gather.

    Row l of the index table lists every j but l in ascending order, so
    ``(1 - hit)[others]`` is a (k, k-1, m) copy whose product over axis 1
    takes each (l, i)'s factors in that order. Cubic memory: a reference
    for tests, not for large tables.
    """
    k = hit.shape[0]
    others = np.array([[j for j in range(k) if j != l] for l in range(k)], dtype=int)
    return np.multiply.reduce((1.0 - hit)[others.reshape(k, k - 1)], axis=1)


def induced_states_by_scatter(bob: np.ndarray, bases) -> tuple:
    """``entangle.induced_states`` as first written: an ``np.eye`` placeholder,
    a boolean scatter of the live rows and ``np.where`` for the probabilities.
    The same float operations, so the same bits."""
    n = bob.shape[0]
    states = np.empty((len(bases), n, n), dtype=np.complex128)
    probs = np.empty((len(bases), n))
    for s, basis in enumerate(bases):
        if np.array_equal(basis.matrix, np.eye(n)):
            states[s] = bob
            probs[s] = 1.0 / n
            continue
        raw = basis.matrix.T.conj() @ bob
        norm_sq = np.einsum("mk,mk->m", raw.conj(), raw).real
        live = norm_sq > 1e-24
        states[s] = np.eye(1, n)
        states[s, live] = raw[live] / np.sqrt(norm_sq[live])[:, None]
        prob = np.where(live, norm_sq / n, 0.0)
        probs[s] = prob / np.add.reduce(prob)
    return states, probs


def law_by_gather(config) -> SimpleNamespace:
    """A config's context arrays and column law as first written.

    The forms ``signalling`` replaced by basic indexing: the boolean-scatter
    ``induced_states_by_scatter``, ``np.fill_diagonal`` on the hit table, a
    ``~np.eye`` mask for the stay product, the ``np.eye`` identity block
    and ``np.arange`` gather of a Kraus machine's branches, the ``np.eye``
    scatter of the label-aware cloner's branch weights, and ``.min()``.
    Returns ``kets``, ``probs``, ``only`` and ``law``.
    """
    n, mu, machine = config.n, config.mu, config.machine
    bases = (AliceBasis.computational(n), config.a2_basis)
    kets, probs = induced_states_by_scatter(config.bob_states, bases)
    if probs[1, 0] == 0.0:
        raise ConfigError(f"candidate B{n + 1} is not prepared")
    preparations = kets.reshape(2 * n, n)
    hit = signalling.group_hits(preparations[: n + 1], preparations, mu)
    np.fill_diagonal(hit, 1.0)
    k = hit.shape[0]
    miss = 1.0 - hit
    view = np.ndarray((k, *miss.shape), miss.dtype, miss, strides=(0, *miss.strides))
    others = ~np.eye(k, dtype=bool)[:, :, None]
    only = hit * np.multiply.reduce(view, axis=1, initial=1.0, where=others)
    flat_probs = probs.reshape(2 * n)
    if isinstance(machine, IllegalClonerSpec):
        labels = np.array(machine.clonable_labels)
        if np.count_nonzero(flat_probs[labels - 1] == 0.0):
            raise ConfigError("a clonable label names an outcome of probability 0")
        weights = np.zeros((machine.total_labels, labels.size + 1))
        weights[:, -1] = 1.0
        weights[labels - 1] = np.eye(labels.size, labels.size + 1)
        for key, (c_arr, d_val) in machine.coefficients.items():
            weights[key - 1, :-1] = np.abs(c_arr) ** 2
            weights[key - 1, -1] = abs(d_val) ** 2
        branches, success = labels - 1, flat_probs
        mass = flat_probs[:, None] * weights[:, :-1]
    else:
        legal = machine.factored
        beta = np.zeros((n, 2 * n), dtype=complex)
        beta[:, :n] = np.eye(n)
        beta[:, n:] = legal.pinv @ preparations[n:].T
        beta *= np.sqrt(machine.gammas)[:, None] * np.sqrt(flat_probs)[None, :]
        success = np.einsum("im,ij,jm->m", beta.conj(), legal.gram_power, beta).real
        branches, mass = np.arange(n), (np.abs(beta) ** 2).T
    rows = np.empty((2 * n, k + 2))
    rows[:, :k] = mass @ only[:, branches].T
    rows[:, k] = success - np.add.reduce(rows[:, :k], axis=1)
    rows[:, k + 1] = flat_probs - success
    raw = rows.reshape(2, n, n + 3)
    if not raw.min() >= -signalling.LAW_TOL:
        raise RankError("column law entry below -LAW_TOL")
    return SimpleNamespace(kets=kets, probs=probs, only=only, law=np.maximum(raw, 0.0))


def _group_bras(candidates, sizes) -> list:
    """<c_j|^(x g_j) per verification group (candidate c_j as row j), as one
    flat vector each."""
    bras = []
    for c, g in zip(candidates, sizes):
        bra = np.ones(1, dtype=np.complex128)
        for _ in range(g):
            bra = np.kron(bra, c.conj())
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
    kraus_success: np.ndarray, states, probs, candidates, mu: int
) -> np.ndarray:
    """Law rows of a Kraus machine by contracting its explicit success branch.

    Member m has state ``states[m]`` and probability ``probs[m]``, and
    candidate j is ``candidates[j]``. Phi_m = sqrt(p_m) A psi_m is reshaped
    into one tensor factor per verification group, and the group projectors
    are applied to it by inclusion-exclusion. Rows are laid out like one
    setting of ``column_law``: columns B_1..B_K, then PHI, then discarded
    cloner failures.
    """
    k = len(candidates)
    clone_dim = kraus_success.shape[1]
    sizes = split_sizes(mu, k)
    inputs = np.sqrt(probs)[:, None] * states
    phi = inputs @ kraus_success.T
    success = np.sum(np.abs(phi) ** 2, axis=1)
    phi = phi.reshape((len(probs),) + tuple(clone_dim**g for g in sizes))
    only = _only_group_masses(phi, _group_bras(candidates, sizes))
    rows = np.empty((len(probs), k + 2))
    rows[:, :k] = only
    rows[:, k] = success - only.sum(axis=1)  # PHI
    rows[:, k + 1] = probs - success  # discarded cloner failures
    return rows


def high_precision_legal_law(
    bob: np.ndarray, a2_matrix: np.ndarray, gammas, mu: int, dps: int = 50
) -> np.ndarray:
    """The legal column law at ``dps`` digits, as an array of mpmath numbers.

    ``bob`` holds Bob's states as rows, ``a2_matrix`` the A2 basis vectors
    as columns; their binary values, and those of ``gammas``, are taken
    exactly. Everything after is in mpmath: Bob's states are normalized (a
    unit ket is rarely a binary vector), A2's members follow the steering
    rule (renormalized by their total; squared norm at most 1e-24 gives
    probability 0), beta_m = sqrt(p_m) D B^-1 psi_m, and every cell is the
    quadratic form beta_m^H (H_l o prod_{j != l} Q_j) beta_m in the N x N
    hit and miss kernels of the verification groups. The entry layout is
    that of ``column_law``.
    """
    import mpmath

    def mp(z):
        return mpmath.mpc(float(z.real), float(z.imag))

    def inner(a, b):
        return sum(mpmath.conj(x) * y for x, y in zip(a, b))

    n = bob.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    with mpmath.workdps(dps):
        kets = []
        for row in bob:
            ket = [mp(z) for z in row]
            kets.append([z / mpmath.sqrt(inner(ket, ket).real) for z in ket])
        members = [[(ket, mpmath.mpf(1) / n) for ket in kets]]
        raw = [
            [
                sum(mpmath.conj(mp(a2_matrix[i, m])) * kets[i][d] for i in range(n))
                for d in range(n)
            ]
            for m in range(n)
        ]
        norms = [inner(vec, vec).real for vec in raw]
        live = [norm > mpmath.mpf("1e-24") for norm in norms]
        total = sum(norm for norm, ok in zip(norms, live) if ok)
        members.append(
            [
                ([z / mpmath.sqrt(norm) for z in vec], norm / total)
                if ok
                else ([mpmath.mpf(1)] + [mpmath.mpf(0)] * (n - 1), mpmath.mpf(0))
                for vec, norm, ok in zip(raw, norms, live)
            ]
        )
        b_mat = mpmath.matrix(kets).T  # the states as columns
        candidates = kets + [members[1][0][0]]
        sizes = split_sizes(mu, n + 1)
        gram = {(i, j): inner(kets[i], kets[j]) for i, j in pairs}
        over = [[inner(c, ket) for ket in kets] for c in candidates]

        def hit(g, i, j):
            return (mpmath.conj(over[g][i]) * over[g][j]) ** sizes[g]

        kernels = []  # columns B_1..B_{N+1}, then the success mass
        for l in range(n + 1):
            kernel = {}
            for i, j in pairs:
                kernel[i, j] = hit(l, i, j)
                for g in range(n + 1):
                    if g != l:
                        kernel[i, j] *= gram[i, j] ** sizes[g] - hit(g, i, j)
            kernels.append(kernel)
        kernels.append({(i, j): gram[i, j] ** mu for i, j in pairs})

        law = np.empty((2, n, n + 3), dtype=object)
        for s, setting in enumerate(members):
            for m, (ket, p) in enumerate(setting):
                solved = mpmath.lu_solve(b_mat, mpmath.matrix(ket))
                beta = [
                    mpmath.sqrt(p * float(g)) * solved[i] for i, g in enumerate(gammas)
                ]
                *cells, success = (
                    sum(mpmath.conj(beta[i]) * k[i, j] * beta[j] for i, j in pairs).real
                    for k in kernels
                )
                law[s, m] = cells + [success - sum(cells), p - success]
    return law


def projected_column_law(joint: JointKet, candidates) -> np.ndarray:
    """[P(col 1..K), P(PHI)] of a joint clone ket, without sampling.

    The group projectors are applied to the explicit joint ket by
    inclusion-exclusion, and the leading (flag) register is summed out.
    """
    sizes = split_sizes(joint.copies, len(candidates))
    phi = joint.state.reshape(
        (joint.lead_dim,) + tuple(joint.clone_dim**g for g in sizes)
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
    """The shared state, bases and state arrays of the Born-rule reference.

    They are read off the run's ``RunContext`` arrays: the shared state
    pairs Alice's labels with A1's member states (Bob's own), ``bases`` is
    (A1, A2), and ``all_states`` and ``candidates`` are the preparation and
    candidate rows.
    """
    ctx = config.context
    n = config.n
    preparations = ctx.kets.reshape(2 * n, n)
    return SimpleNamespace(
        shared=build_shared_state(ctx.kets[0]),
        bases=(AliceBasis.computational(n), config.a2_basis),
        all_states=preparations,
        candidates=preparations[: n + 1],
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
        label = signalling.illegal_clone(config.machine, row + 1, rng)
        single = None if label is None else ctx.all_states[label - 1]
        return row, signalling.group_verify(single, ctx.candidates, config.mu, rng)
    success, ket = signalling.apply_machine(config.machine, bob_state, rng)
    if not success:
        return row, None
    joint = JointKet(ket.amplitudes, config.mu, config.n)
    return row, joint_verify(joint, ctx.candidates, rng)


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


def multinomial_by_support(gen, n: int, probabilities, size=None) -> np.ndarray:
    """``SeededRng.multinomial`` written with numpy's Python-level wrappers
    (``np.flatnonzero``, ``ndarray.sum``): it gathers the cells of positive
    mass, draws over them from the numpy generator ``gen`` and scatters the
    counts into zeros; same checks, same messages."""
    qcore.require_count("multinomial draw count", n)
    if size is not None:
        qcore.require_count("multinomial size", size)
    try:
        probabilities = np.asarray(probabilities, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(
            "multinomial probabilities must be nonnegative numbers"
        ) from None
    if probabilities.ndim != 1:
        raise ConfigError("multinomial probabilities must be one vector")
    support = np.flatnonzero(probabilities > 0)
    if np.count_nonzero(probabilities) != support.size:
        raise ConfigError("multinomial probabilities must be nonnegative numbers")
    mass = probabilities[support]
    mass *= 0.5 ** (mass.size - 1).bit_length()
    total = mass.sum()
    if not 0 < total < np.inf:
        raise ConfigError(
            f"multinomial probabilities must have finite positive mass, got {total}"
        )
    shape = probabilities.shape if size is None else (size,) + probabilities.shape
    counts = np.zeros(shape, dtype=np.int64)
    counts[..., support] = gen.multinomial(n, mass / total, size)
    return counts


def random_message_by_draws(seed: int, n_bits: int) -> tuple:
    """The channel demo's message, one ``random()`` draw per bit."""
    rng = SeededRng(seed, signalling._MESSAGE_STREAM)
    return tuple(int(rng.random() < 0.5) for _ in range(n_bits))


def guess_rule(column: int, n: int) -> int | None:
    """Bob's vote for one column, read from ``signalling.cell_votes``.

    Columns 1..N mean bit 0, column N+1 means bit 1, and the junk column
    gives no verdict (None, an abstention). The cell's one-hot row marks
    its vote among (0, 1, abstain).
    """
    if not 0 <= column <= n + 1:
        raise ConfigError(f"column {column} outside 1..{n + 1}")
    cell = n + 1 if column == signalling.PHI else column - 1
    (vote,) = np.flatnonzero(signalling.cell_votes(n)[cell])
    return None if vote == 2 else int(vote)
