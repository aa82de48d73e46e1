"""End-to-end signalling protocol between Alice's basis choice and Bob's cloner.

Alice encodes a bit in her choice of measurement basis; each choice steers
Bob's half of a shared pair into one of two preparation ensembles. Bob
feeds his state to a cloner, keeps attempts the cloner reports as
successes, splits the claimed copies into one verification group per
candidate state, and projects every clone in group l onto candidate l.
A single all-success group selects that candidate's column; anything else
lands in the junk column. Tallying columns per basis choice estimates the
conditional probabilities that decide whether the channel carries
information.

``column_law`` gives the exact probability of every (Alice outcome, Bob
cell) pair for both of Alice's settings. Protocol and channel runs sample
that table directly: draws come in fixed-size blocks, each from its own
counter-based stream keyed by (seed, phase, setting, block), so a run's
output is a pure function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import qcore

# The signal-test benchmark (bench/run.py) resolves alice_measure,
# apply_machine, illegal_clone, group_verify, SeededRng, run_protocol,
# run_channel, stats_from_tally and analytic_no_signal_certificate as
# attributes of this module, and the per-pair Born-rule reference in the
# tests uses the first five: keep all of them reachable here.
from .entangle import (
    AliceBasis,
    SharedState,
    alice_measure,
    build_shared_state,
    induced_ensemble,
)
from .errors import (
    CapacityError,
    ConditioningError,
    ConfigError,
    DimensionError,
    LabelError,
)
from .pqcm import (
    CloneOutput,
    IllegalClonerSpec,
    PqcmMachine,
    apply_machine,
    illegal_clone,
)
from .qcore import Ket, SeededRng

PHI = 0  # sentinel column: no single verification group succeeded

_PHASE_PROTOCOL = 0
_PHASE_CHANNEL = 1
_PHASE_VOTE = 2
_PHASE_MESSAGE = 3

# Stream ids pack (phase, setting, index) into one 64-bit Philox key word.
_PHASE_BITS = 20
_SETTING_BITS = 4
_INDEX_BITS = 40

# Draws per counter-based stream. Every block of a run has its own key, so
# counts do not depend on the order blocks are drawn in, and tallying holds
# only one block of uniforms in memory at a time.
SAMPLE_BLOCK = 1 << 16

# Roundoff band below zero that column_law clips to zero; any entry lower
# than -LAW_TOL means the law was not computed accurately and is an error.
LAW_TOL = 1e-12


def _stream_id(phase: int, setting: int, index: int) -> int:
    for name, value, bits in (
        ("phase", phase, _PHASE_BITS),
        ("setting", setting, _SETTING_BITS),
        ("index", index, _INDEX_BITS),
    ):
        if not 0 <= value < 1 << bits:
            raise ConfigError(
                f"stream {name} {value} does not fit its {bits}-bit field"
            )
    return (
        (phase << (_SETTING_BITS + _INDEX_BITS)) | (setting << _INDEX_BITS) | index
    )


def group_sizes(mu: int, n_groups: int) -> list[int]:
    """Deterministic partition: earlier groups absorb the remainder."""
    base, extra = divmod(mu, n_groups)
    return [base + 1] * extra + [base] * (n_groups - extra)


def _measure_clone(
    vec: np.ndarray,
    lead_dim: int,
    clone_dim: int,
    copies: int,
    clone_idx: int,
    onto: np.ndarray,
    rng: SeededRng,
) -> tuple[bool, np.ndarray]:
    """Binary Born-rule projection of one clone factor, with collapse."""
    pre = lead_dim * clone_dim**clone_idx
    post = clone_dim ** (copies - clone_idx - 1)
    block = vec.reshape(pre, clone_dim, post)
    amp = np.einsum("d,pdq->pq", onto.conj(), block)
    p_succ = min(float(np.real(np.vdot(amp, amp))), 1.0)
    success = rng.random() < p_succ
    if success:
        collapsed = np.einsum("d,pq->pdq", onto, amp).reshape(-1)
    else:
        collapsed = (block - np.einsum("d,pq->pdq", onto, amp)).reshape(-1)
    norm = np.linalg.norm(collapsed)
    if norm < 1e-15:
        # a zero branch is reachable only through roundoff at p in {0, 1}
        return success, vec
    return success, collapsed / norm


def group_verify(
    clones: CloneOutput, candidates: Sequence[Ket], mu: int, rng: SeededRng
) -> int:
    """Classify a cloner output into a candidate column or the junk column.

    The mu claimed copies are split into one group per candidate (earlier
    groups one larger when mu is not divisible). Every clone in group l is
    tested by a binary projective measurement onto candidate l. The
    verdict is column l (1-based) when group l alone is all-success, and
    PHI when no group or more than one group is.

    Product-form outputs are tested clone by clone with independent
    draws; joint outputs are measured by sequential collapse; the junk
    marker fails every projection by construction.
    """
    candidates = tuple(candidates)
    n_groups = len(candidates)
    if mu < n_groups:
        raise ConfigError(f"need at least {n_groups} copies, got {mu}")
    if clones.copies != mu:
        raise ConfigError(
            f"clone record carries {clones.copies} copies, expected {mu}"
        )
    sizes = group_sizes(mu, n_groups)

    if clones.kind == "junk":
        return PHI

    if clones.kind == "copies":
        single = clones.single
        overlaps = np.array(
            [abs(qcore.inner_product(c, single)) ** 2 for c in candidates]
        )
        thresholds = np.repeat(overlaps, sizes)
        hits = rng.uniforms(mu) < thresholds
        all_success = []
        start = 0
        for size in sizes:
            all_success.append(bool(np.all(hits[start : start + size])))
            start += size
    elif clones.kind == "joint":
        for c in candidates:
            if c.dim != clones.clone_dim:
                raise DimensionError(
                    f"candidate dim {c.dim} does not match clone dim {clones.clone_dim}"
                )
        vec = clones.state.amplitudes
        all_success = []
        clone_idx = 0
        for l, size in enumerate(sizes):
            group_ok = True
            for _ in range(size):
                ok, vec = _measure_clone(
                    vec,
                    clones.lead_dim,
                    clones.clone_dim,
                    mu,
                    clone_idx,
                    candidates[l].amplitudes,
                    rng,
                )
                group_ok = group_ok and ok
                clone_idx += 1
            all_success.append(group_ok)
    else:
        raise ConfigError(f"unknown clone record kind {clones.kind!r}")

    winners = [l for l, ok in enumerate(all_success) if ok]
    if len(winners) == 1:
        return winners[0] + 1
    return PHI


def guess_rule(column: int, n: int) -> int | None:
    """Bob's decoding: columns 1..N mean bit 0, column N+1 means bit 1.

    The junk column gives no verdict (None, an abstention).
    """
    if column == PHI:
        return None
    if 1 <= column <= n:
        return 0
    if column == n + 1:
        return 1
    raise ConfigError(f"column {column} outside 1..{n + 1}")


@dataclass(frozen=True, eq=False)
class TallyTable:
    """Empirical column counts per preparation, plus per-setting totals."""

    n: int
    counts: np.ndarray  # shape (2N, N+2); last column is PHI
    classified: tuple  # events classified per setting
    discards: tuple  # cloner failures discarded per setting
    trials: tuple  # pairs drawn per setting

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (2 * self.n, self.n + 2):
            raise DimensionError(
                f"tally shape {counts.shape} does not match n={self.n}"
            )
        if np.any(counts < 0):
            raise ConfigError("tally counts must be nonnegative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True, eq=False)
class SignalStats:
    """Estimated conditional column probabilities and the derived bit rates."""

    n: int
    p_col: np.ndarray  # shape (2, N+2): P(column | setting), last column PHI
    p0_a1: float
    p1_a1: float
    p0_a2: float
    p1_a2: float
    stderr_p0_a1: float
    stderr_p1_a1: float
    stderr_p0_a2: float
    stderr_p1_a2: float
    accuracy: float  # correct guesses / non-abstain guesses, both settings pooled
    classified: tuple
    discard_rate: tuple
    leakage: float  # analytic misclassification bound for exact copies

    def __post_init__(self):
        p = np.asarray(self.p_col, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "p_col", p)


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything one signalling run needs, including its random seed."""

    bob_states: tuple
    a2_basis: AliceBasis
    mu: int
    trials: int
    pairs_per_bit: int
    machine: PqcmMachine | IllegalClonerSpec
    seed: int

    def __post_init__(self):
        bob_states = tuple(self.bob_states)
        n = len(bob_states)
        if self.mu < n + 1:
            raise ConfigError(f"mu must be at least N+1 = {n + 1}, got {self.mu}")
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        if self.pairs_per_bit < 1:
            raise ConfigError("pairs_per_bit must be at least 1")
        if self.a2_basis.dim != n:
            raise ConfigError("alternate basis dimension does not match state count")
        if isinstance(self.machine, PqcmMachine):
            if self.machine.copies != self.mu:
                raise ConfigError(
                    f"machine produces {self.machine.copies} copies, "
                    f"config wants {self.mu}"
                )
            if self.machine.dim != n:
                raise ConfigError("machine dimension does not match state count")
        elif isinstance(self.machine, IllegalClonerSpec):
            if self.machine.copies != self.mu:
                raise ConfigError(
                    f"cloner promises {self.machine.copies} copies, "
                    f"config wants {self.mu}"
                )
            if self.machine.total_labels != 2 * n:
                raise ConfigError(
                    f"cloner expects {self.machine.total_labels} labels, "
                    f"run has {2 * n}"
                )
        else:
            raise ConfigError("machine must be a PqcmMachine or IllegalClonerSpec")
        object.__setattr__(self, "bob_states", bob_states)

    @property
    def n(self) -> int:
        return len(self.bob_states)


@dataclass(frozen=True)
class RunContext:
    """Derived, reusable pieces of one protocol configuration."""

    shared: SharedState
    bases: tuple  # (A1, A2)
    ensembles: tuple  # Bob's induced preparation ensemble per basis
    candidates: tuple  # B_1 .. B_{N+1}
    all_states: tuple  # B_1 .. B_{2N}


def prepare_context(config: ProtocolConfig) -> RunContext:
    shared = build_shared_state(config.bob_states)
    bases = (AliceBasis.computational(config.n), config.a2_basis)
    ensembles = tuple(induced_ensemble(shared, basis) for basis in bases)
    second_set = tuple(m[0] for m in ensembles[1].members)
    return RunContext(
        shared=shared,
        bases=bases,
        ensembles=ensembles,
        candidates=config.bob_states + (second_set[0],),
        all_states=config.bob_states + second_set,
    )


def _exact_copy_law(single: Ket, candidates: Sequence[Ket], mu: int) -> np.ndarray:
    """Column law of mu exact copies of ``single``: [P(col 1..K), P(PHI)].

    Group j is all-success with probability |<c_j|single>|^(2 g_j),
    independently of the other groups, so column l needs group l to succeed
    and every other group to fail.
    """
    sizes = group_sizes(mu, len(candidates))
    hit = np.array(
        [
            min(abs(qcore.inner_product(c, single)) ** 2, 1.0) ** g
            for c, g in zip(candidates, sizes)
        ]
    )
    miss = 1.0 - hit
    cols = np.array(
        [hit[l] * np.prod(np.delete(miss, l)) for l in range(len(candidates))]
    )
    return np.append(cols, 1.0 - cols.sum())


def _legal_rows(
    machine: PqcmMachine, members: tuple, candidates: tuple, mu: int
) -> np.ndarray:
    """Law rows of a Kraus machine: one row per Alice outcome, N+3 cells.

    The success branch Phi_m = sqrt(p_m) A psi_m is split into one tensor
    factor per verification group. Tests on distinct factors commute, so
    P(only group l all-succeeds) follows by inclusion-exclusion from
    P(every group in T all-succeeds) = ||(x_{j in T} <c_j|^(x g_j)) Phi_m||^2.
    """
    k = len(candidates)
    clone_dim = machine.dim
    sizes = group_sizes(mu, k)
    probs = np.array([p for _, p in members])
    inputs = np.stack([np.sqrt(p) * ket.amplitudes for ket, p in members])
    phi = inputs @ machine.kraus_success.T
    success = np.sum(np.abs(phi) ** 2, axis=1)
    phi = phi.reshape((len(members),) + tuple(clone_dim**g for g in sizes))
    bras = [
        qcore.tensor_power(c, g).amplitudes.conj() for c, g in zip(candidates, sizes)
    ]
    only = np.zeros((len(members), k))
    for subset in range(1, 1 << k):
        groups = [j for j in range(k) if subset >> j & 1]
        amp = phi
        for j in reversed(groups):  # highest axis first keeps lower axes in place
            amp = np.tensordot(amp, bras[j], axes=([j + 1], [0]))
        p_all = np.sum(np.abs(amp.reshape(len(members), -1)) ** 2, axis=1)
        sign = 1.0 if len(groups) % 2 else -1.0
        only[:, groups] += sign * p_all[:, None]
    rows = np.empty((len(members), k + 2))
    rows[:, :k] = only
    rows[:, k] = success - only.sum(axis=1)  # PHI
    rows[:, k + 1] = probs - success  # discarded cloner failures
    return rows


def _illegal_rows(
    spec: IllegalClonerSpec, setting: int, members: tuple, ctx: RunContext, mu: int
) -> np.ndarray:
    """Law rows of the label-aware cloner; it never reports failure.

    Each input label yields exact copies of one clonable state per branch,
    mixed by the branch weights, and the junk branch lands in PHI.
    """
    n = len(members)
    k = len(ctx.candidates)
    copy_law = {
        label: _exact_copy_law(ctx.all_states[label - 1], ctx.candidates, mu)
        for label in spec.clonable_labels
    }
    rows = np.zeros((n, k + 2))
    for m, (_, p) in enumerate(members):
        label = setting * n + m + 1
        if label in spec.clonable_labels:
            rows[m, : k + 1] = p * copy_law[label]
            continue
        weights = spec.branch_probabilities(label)
        for w, clonable in zip(weights, spec.clonable_labels):
            rows[m, : k + 1] += p * w * copy_law[clonable]
        rows[m, k] += p * weights[-1]
    return rows


def _clip_law(raw: np.ndarray) -> np.ndarray:
    """Clip roundoff in [-LAW_TOL, 0) to zero; anything lower is an error."""
    low = float(raw.min())
    if not low >= -LAW_TOL:
        raise ConditioningError(
            f"column law entry {low:.3e} lies below -{LAW_TOL:.0e}; "
            "the machine is too ill-conditioned for an accurate law"
        )
    law = np.clip(raw, 0.0, None)
    law.setflags(write=False)
    return law


def column_law(config: ProtocolConfig) -> np.ndarray:
    """Exact probability of every protocol outcome, per Alice setting.

    Entry [s, m, c] is P(Alice outcome m, Bob's cell c | setting s), with
    setting 0 the label basis A1 and 1 the alternate basis A2. Cells
    0..N are columns B_1..B_{N+1}, cell N+1 is PHI, and cell N+2 is a
    cloner failure that Bob discards. Each setting sums to 1. Alice's row
    law comes from ``induced_ensemble``; the cells of a row from the
    machine's success branch (legal) or from the closed product form of
    exact copies (illegal).
    """
    ctx = prepare_context(config)
    n = config.n
    raw = np.empty((2, n, n + 3))
    for setting, ensemble in enumerate(ctx.ensembles):
        if isinstance(config.machine, IllegalClonerSpec):
            raw[setting] = _illegal_rows(
                config.machine, setting, ensemble.members, ctx, config.mu
            )
        else:
            raw[setting] = _legal_rows(
                config.machine, ensemble.members, ctx.candidates, config.mu
            )
    return _clip_law(raw)


def _cumulative(cells: np.ndarray) -> np.ndarray:
    """Cumulative table for inverse-CDF sampling of one setting's cells.

    Dividing by the total makes the last cell with nonzero mass end at
    exactly 1.0, so no uniform draw in [0, 1) can land in a zero-mass cell.
    """
    cum = np.cumsum(cells.ravel())
    return cum / cum[-1]


def _blocks(draws: int) -> list[tuple[int, int]]:
    """(block index, size) of the blocks that cover ``draws`` draws."""
    return [
        (block, min(SAMPLE_BLOCK, draws - start))
        for block, start in enumerate(range(0, draws, SAMPLE_BLOCK))
    ]


def _block_cells(
    cum: np.ndarray, seed: int, phase: int, setting: int, block: int, size: int
) -> np.ndarray:
    """Cell indices of one block of draws, from that block's own stream."""
    rng = SeededRng(seed, _stream_id(phase, setting, block))
    return np.searchsorted(cum, rng.uniforms(size), side="right")


def analytic_leakage(candidates: Sequence[Ket], mu: int) -> float:
    """Worst-case probability that exact copies miss their own column.

    For exact copies of candidate l, group l always succeeds, so the only
    losses are ties: some other group j all-succeeding, each with
    probability |<B_j|B_l>|^(2 g_j).
    """
    candidates = tuple(candidates)
    sizes = group_sizes(mu, len(candidates))
    worst = 0.0
    for l, cand in enumerate(candidates):
        stay = 1.0
        for j, other in enumerate(candidates):
            if j == l:
                continue
            overlap = abs(qcore.inner_product(other, cand)) ** 2
            stay *= 1.0 - overlap ** sizes[j]
        worst = max(worst, 1.0 - stay)
    return worst


def run_protocol(config: ProtocolConfig) -> tuple[TallyTable, SignalStats]:
    """Sample the tally and signalling statistics for one config.

    ``config.trials`` pairs per setting are drawn from ``column_law`` in
    blocks of SAMPLE_BLOCK, each block from its own stream keyed by (seed,
    setting, block index), so the result is bit-identical for a fixed seed.
    """
    law = column_law(config)
    n = config.n
    counts = np.zeros((2 * n, n + 2), dtype=np.int64)
    discards = []
    for setting in (0, 1):
        cum = _cumulative(law[setting])
        hits = np.zeros(cum.size, dtype=np.int64)
        for block, size in _blocks(config.trials):
            cells = _block_cells(
                cum, config.seed, _PHASE_PROTOCOL, setting, block, size
            )
            hits += np.bincount(cells, minlength=cum.size)
        hits = hits.reshape(n, n + 3)
        counts[setting * n : (setting + 1) * n] = hits[:, : n + 2]
        discards.append(int(hits[:, n + 2].sum()))

    tally = TallyTable(
        n=n,
        counts=counts,
        classified=tuple(config.trials - d for d in discards),
        discards=tuple(discards),
        trials=(config.trials, config.trials),
    )
    candidates = prepare_context(config).candidates
    stats = stats_from_tally(tally, analytic_leakage(candidates, config.mu))
    return tally, stats


def stats_from_tally(tally: TallyTable, leakage: float) -> SignalStats:
    """Conditional column probabilities and bit rates from raw counts."""
    n = tally.n
    p_col = np.zeros((2, n + 2))
    for setting in (0, 1):
        total = tally.classified[setting]
        if total == 0:
            raise ConfigError(
                f"no cloner successes for setting A{setting + 1}; cannot estimate"
            )
        rows = tally.counts[setting * n : (setting + 1) * n]
        p_col[setting] = rows.sum(axis=0) / total

    def rate_and_err(setting: int, cols: slice) -> tuple[float, float]:
        total = tally.classified[setting]
        p = float(p_col[setting, cols].sum())
        return p, float(np.sqrt(max(p * (1.0 - p), 0.0) / total))

    p0_a1, se0_a1 = rate_and_err(0, slice(0, n))
    p1_a1, se1_a1 = rate_and_err(0, slice(n, n + 1))
    p0_a2, se0_a2 = rate_and_err(1, slice(0, n))
    p1_a2, se1_a2 = rate_and_err(1, slice(n, n + 1))

    correct = int(tally.counts[0:n, 0:n].sum() + tally.counts[n : 2 * n, n].sum())
    decided = int(tally.counts[:, 0 : n + 1].sum())
    accuracy = correct / decided if decided else 0.5

    return SignalStats(
        n=n,
        p_col=p_col,
        p0_a1=p0_a1,
        p1_a1=p1_a1,
        p0_a2=p0_a2,
        p1_a2=p1_a2,
        stderr_p0_a1=se0_a1,
        stderr_p1_a1=se1_a1,
        stderr_p0_a2=se0_a2,
        stderr_p1_a2=se1_a2,
        accuracy=accuracy,
        classified=tally.classified,
        discard_rate=(
            tally.discards[0] / tally.trials[0],
            tally.discards[1] / tally.trials[1],
        ),
        leakage=leakage,
    )


# ---------------------------------------------------------------------------
# classical channel built on repeated pairs and majority voting


@dataclass(frozen=True)
class ChannelResult:
    accuracy: float
    sent: tuple
    decoded: tuple
    coin_flip_blocks: int  # blocks decided by coin flip (all-abstain or tie)


def channel_accuracy(
    pair_results: Iterable[tuple[int, int | None]],
    pairs_per_bit: int,
    rng: SeededRng,
) -> ChannelResult:
    """Majority-vote decoding of consecutive blocks of per-pair guesses.

    ``pair_results`` yields (sent bit, guess) with guess in {0, 1, None};
    abstentions carry no vote. Blocks with no votes or a tie are decided
    by a fair coin and counted in ``coin_flip_blocks``.
    """
    if pairs_per_bit < 1:
        raise ConfigError("pairs_per_bit must be at least 1")
    sent: list[int] = []
    decoded: list[int] = []
    coin_flips = 0
    block: list[tuple[int, int | None]] = []
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
    return ChannelResult(
        accuracy=hits / len(sent),
        sent=tuple(sent),
        decoded=tuple(decoded),
        coin_flip_blocks=coin_flips,
    )


def run_channel(config: ProtocolConfig, message_bits: Sequence[int]) -> ChannelResult:
    """Send a bit string through the cloner channel and decode by blocks.

    Every message bit consumes ``pairs_per_bit`` shared pairs measured in
    the basis encoding that bit; cloner failures become abstentions. The
    k-th pair sent in setting s is draw k of that setting's block streams.
    """
    bits = np.asarray(message_bits, dtype=np.int64)
    if np.any((bits != 0) & (bits != 1)):
        raise ConfigError("message bits must be 0 or 1")
    law = column_law(config)
    n = config.n
    sent = np.repeat(bits, config.pairs_per_bit)
    cells = np.empty(sent.size, dtype=np.intp)
    for setting in (0, 1):
        where = np.flatnonzero(sent == setting)
        cum = _cumulative(law[setting])
        for block, size in _blocks(where.size):
            start = block * SAMPLE_BLOCK
            cells[where[start : start + size]] = _block_cells(
                cum, config.seed, _PHASE_CHANNEL, setting, block, size
            )
    # cells of a row are columns B_1..B_{N+1}, then PHI and discard (abstain)
    guess = [guess_rule(col, n) for col in range(1, n + 2)] + [None, None]
    guesses = np.array(guess, dtype=object)[cells % (n + 3)]
    vote_rng = SeededRng(config.seed, _stream_id(_PHASE_VOTE, 0, 0))
    return channel_accuracy(
        zip(sent.tolist(), guesses.tolist()), config.pairs_per_bit, vote_rng
    )


def random_message(seed: int, n_bits: int) -> tuple[int, ...]:
    """Deterministic uniformly random bit string for channel demos."""
    rng = SeededRng(seed, _stream_id(_PHASE_MESSAGE, 0, 0))
    return tuple(int(rng.random() < 0.5) for _ in range(n_bits))


def analytic_no_signal_certificate(
    bob_states, basis_a: AliceBasis, basis_b: AliceBasis
) -> float:
    """Trace distance between Bob's averaged states for two Alice bases.

    The two Alice-averaged density matrices coincide identically, so the
    returned value is numerical noise (at most ~1e-12): the certificate
    that basis choice alone sends no information.
    """
    shared = build_shared_state(tuple(bob_states))
    rho_a = induced_ensemble(shared, basis_a).average_density()
    rho_b = induced_ensemble(shared, basis_b).average_density()
    return qcore.trace_distance(rho_a, rho_b)


# ---------------------------------------------------------------------------
# explicit joint-state realization of the illegal cloner's output


def materialize_illegal_output(
    spec: IllegalClonerSpec, input_label: int, all_states: Sequence[Ket]
) -> tuple[CloneOutput, tuple[Ket, ...]]:
    """Build the output decomposition as one explicit joint ket.

    Branches are kept exactly decoherent: each clonable branch lives
    behind its own orthogonal flag level, every clone factor gains one
    extra level reserved for junk, and the junk branch puts all clones in
    that level so each projective test fails with certainty. Measuring
    the result clone by clone therefore reproduces the branch-sampling
    statistics. Returns the joint record plus the candidate kets embedded
    into the enlarged clone space.
    """
    all_states = tuple(all_states)
    if len(all_states) != spec.total_labels:
        raise LabelError(
            f"expected {spec.total_labels} preparation states, got {len(all_states)}"
        )
    if not 1 <= input_label <= spec.total_labels:
        raise LabelError(f"label {input_label} outside 1..{spec.total_labels}")
    candidates = tuple(all_states[l - 1] for l in spec.clonable_labels)
    n = candidates[0].dim
    k = len(candidates)
    clone_dim = n + 1
    lead_dim = k + 1
    total_dim = lead_dim * clone_dim**spec.copies
    if total_dim > qcore.MAX_DIM:
        raise CapacityError(
            f"materialized dimension {total_dim} exceeds cap {qcore.MAX_DIM}"
        )

    amps = np.zeros(k + 1, dtype=np.complex128)
    if input_label in spec.clonable_labels:
        amps[spec.clonable_labels.index(input_label)] = 1.0
    elif input_label in spec.coefficients:
        c_arr, junk_amp = spec.coefficients[input_label]
        amps[:k] = c_arr
        amps[k] = junk_amp
    else:
        amps[k] = 1.0  # default: pure junk

    embedded = []
    for cand in candidates:
        padded = np.zeros(clone_dim, dtype=np.complex128)
        padded[:n] = cand.amplitudes
        embedded.append(Ket(padded))
    junk_level = np.zeros(clone_dim, dtype=np.complex128)
    junk_level[n] = 1.0

    vec = np.zeros(total_dim, dtype=np.complex128)
    block = clone_dim**spec.copies
    for flag in range(lead_dim):
        if amps[flag] == 0:
            continue
        factor = embedded[flag].amplitudes if flag < k else junk_level
        product = factor
        for _ in range(spec.copies - 1):
            product = np.kron(product, factor)
        vec[flag * block : (flag + 1) * block] = amps[flag] * product

    out = CloneOutput.joint_state(
        Ket.normalized(vec), spec.copies, clone_dim, lead_dim=lead_dim
    )
    return out, tuple(embedded)
