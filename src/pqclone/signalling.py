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

Two rules are defined once here and read everywhere else. ``group_hits``
gives the probability that each verification group all-succeeds on exact
copies of a state; the exact-copy column laws (and through them the
illegal cloner's law) and the analytic leakage bound come from it.
``cell_votes`` gives Bob's vote for each cell (B_1..B_N vote 0, B_{N+1}
votes 1, PHI and discards abstain); the channel's vote law, the bit
statistics of a tally and ``guess_rule`` all read it.

``column_law`` gives the exact probability of every (Alice outcome, Bob
cell) pair for both of Alice's settings. Pairs are i.i.d., so protocol
and channel runs draw only counts from that table: one multinomial per
setting for the tally, and one (0-votes, 1-votes, abstentions) multinomial
per message bit for the channel. Every setting and phase has its own
counter-based stream keyed by (seed, phase, setting), so a run's output is
a pure function of its seed, and its cost does not grow with the number of
pairs. A ``ProtocolConfig`` builds its law and its ``RunContext`` once, on
first use, and every stage of a run reads those same read-only values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import qcore

# The signal-test benchmark (bench/run.py) resolves alice_measure,
# apply_machine, illegal_clone, group_verify, SeededRng, run_protocol,
# run_channel, stats_from_tally and analytic_no_signal_certificate as
# attributes of this module, and the per-pair Born-rule reference in the
# tests uses the first five: keep all of them reachable here.
from .entangle import AliceBasis, alice_measure, induced_states
from .errors import ConditioningError, ConfigError, DimensionError
from .pqcm import (
    CloneOutput,
    IllegalClonerSpec,
    PqcmMachine,
    apply_machine,
    illegal_clone,
)
from .qcore import Ket, SeededRng

PHI = 0  # sentinel column: no single verification group succeeded
ABSTAIN = 2  # Bob's vote for PHI and discarded pairs: no verdict

_PHASE_PROTOCOL = 0
_PHASE_CHANNEL = 1
_PHASE_VOTE = 2
_PHASE_MESSAGE = 3

# Stream ids pack (phase, setting) into one 64-bit Philox key word.
_PHASE_BITS = 60
_SETTING_BITS = 4

# Roundoff band below zero that column_law clips to zero; any entry lower
# than -LAW_TOL means the law was not computed accurately and is an error.
LAW_TOL = 1e-12


def _stream_id(phase: int, setting: int) -> int:
    for name, value, bits in (
        ("phase", phase, _PHASE_BITS),
        ("setting", setting, _SETTING_BITS),
    ):
        if not 0 <= value < 1 << bits:
            raise ConfigError(
                f"stream {name} {value} does not fit its {bits}-bit field"
            )
    return (phase << _SETTING_BITS) | setting


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


@lru_cache
def cell_votes(n: int) -> np.ndarray:
    """Bob's vote for every cell of a law row: the one decoding rule.

    Cells 0..N-1 (columns B_1..B_N) vote 0, cell N (column B_{N+1}) votes 1,
    and cells N+1 (PHI) and N+2 (a discarded cloner failure) abstain. A
    vote indexes the (0-votes, 1-votes, abstentions) triple, so an
    abstention is ``ABSTAIN`` = 2. The array is read-only.
    """
    votes = np.full(n + 3, ABSTAIN)
    votes[:n] = 0
    votes[n] = 1
    votes.setflags(write=False)
    return votes


def _vote_totals(cells: np.ndarray, n: int) -> np.ndarray:
    """[0-votes, 1-votes, abstentions] totals of each setting's law cells.

    Row s of ``cells`` holds setting s's B_1..B_{N+1}, PHI and, optionally,
    the discard cell. One bincount adds each cell, in cell order, to row
    s's total of its ``cell_votes`` vote.
    """
    votes = cell_votes(n)[: cells.shape[1]]
    bins = np.append(votes, votes + 3)  # setting 1 counts in bins 3..5
    return np.bincount(bins, weights=cells.ravel(), minlength=6).reshape(2, 3)


def guess_rule(column: int, n: int) -> int | None:
    """Bob's vote for one column, read from ``cell_votes``.

    Columns 1..N mean bit 0, column N+1 means bit 1, and the junk column
    gives no verdict (None, an abstention).
    """
    if not 0 <= column <= n + 1:
        raise ConfigError(f"column {column} outside 1..{n + 1}")
    vote = int(cell_votes(n)[n + 1 if column == PHI else column - 1])
    return None if vote == ABSTAIN else vote


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
        if n < 2:
            raise DimensionError("need at least two Bob states")
        for state in bob_states:
            if state.dim != n:
                raise DimensionError(
                    f"Bob states must have dimension {n}, got {state.dim}"
                )
        if self.mu < n + 1:
            raise ConfigError(f"mu must be at least N+1 = {n + 1}, got {self.mu}")
        # numpy's multinomial takes n < 2**63, and every int64 count stays at
        # most 2**62, so counts of one setting sum without overflow
        for name in ("trials", "pairs_per_bit"):
            value = getattr(self, name)
            if not 1 <= value <= 2**62:
                raise ConfigError(f"{name} must lie in [1, 2**62], got {value}")
        if self.a2_basis.dim != n:
            raise ConfigError("alternate basis dimension does not match state count")
        if isinstance(self.machine, PqcmMachine):
            if self.machine.copies != self.mu:
                raise ConfigError(
                    f"machine produces {self.machine.copies} copies, "
                    f"config wants {self.mu}"
                )
            if self.machine.dim != n or len(self.machine.clonable) != n:
                raise ConfigError(
                    "machine dimension and clonable set size must match "
                    f"the state count {n}"
                )
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

    # Derived values live on the instance, not in a module-level memo, so a
    # fresh config (or a dataclasses.replace copy) always builds its own.
    @cached_property
    def context(self) -> RunContext:
        """``prepare_context(self)``, built on first use."""
        return prepare_context(self)

    @cached_property
    def law(self) -> np.ndarray:
        """``column_law(self)``, built on first use; the array is read-only."""
        return column_law(self)


@dataclass(frozen=True, eq=False)
class RunContext:
    """Bob's side of one configuration, as the read-only arrays the law reads.

    Every state is one row. Row m of ``kets[s]`` is the state Bob holds
    after Alice's outcome m under setting s (0 for A1, 1 for A2), with
    probability ``probs[s, m]``. ``preparations`` lists the 2N states
    B_1..B_2N (A1's outcomes, then A2's), and ``candidates`` its first N+1,
    B_1..B_{N+1}; both are views of ``kets``.
    """

    kets: np.ndarray  # (2, N, N)
    probs: np.ndarray  # (2, N)
    preparations: np.ndarray  # (2N, N)
    candidates: np.ndarray  # (N+1, N)


def prepare_context(config: ProtocolConfig) -> RunContext:
    """Bob's induced ensembles under A1 and A2, from ``induced_states``.

    Candidate B_{N+1} is the state of A2's first outcome. When that outcome
    has probability 0, no pair ever prepares it, so the run is refused.
    """
    n = config.n
    bob = np.array([s.amplitudes for s in config.bob_states])
    kets, probs = induced_states(bob, (AliceBasis.computational(n), config.a2_basis))
    if probs[1, 0] == 0.0:
        raise ConfigError(
            f"candidate B{n + 1} is not prepared: Alice's first A2 outcome "
            "has probability 0 for these Bob states"
        )
    kets.setflags(write=False)
    probs.setflags(write=False)
    preparations = kets.reshape(2 * n, n)
    return RunContext(kets, probs, preparations, preparations[: n + 1])


@lru_cache
def _others(k: int) -> np.ndarray:
    """Row l lists every group index except l; the array is read-only."""
    others = np.array([[j for j in range(k) if j != l] for l in range(k)], dtype=int)
    others.setflags(write=False)
    return others


@lru_cache
def _sizes(mu: int, n_groups: int) -> np.ndarray:
    """``group_sizes`` as a read-only column, one row per group."""
    sizes = np.array(group_sizes(mu, n_groups))[:, None]
    sizes.setflags(write=False)
    return sizes


def group_hits(candidates: np.ndarray, states: np.ndarray, mu: int) -> np.ndarray:
    """hit[j, i]: probability that group j all-succeeds on mu copies of states[i].

    ``candidates`` and ``states`` hold one ket per row. Group j tests its
    g_j clones against candidate c_j, each independently with probability
    |<c_j|s_i>|^2, clipped at 1.
    """
    overlaps = candidates.conj() @ states.T
    return np.minimum(np.abs(overlaps) ** 2, 1.0) ** _sizes(mu, candidates.shape[0])


def _stay(hit: np.ndarray) -> np.ndarray:
    """stay[l, i] = prod_{j != l} (1 - hit[j, i]): every group but l fails."""
    return (1.0 - hit)[_others(hit.shape[0])].prod(axis=1)


def _legal_rows(
    machine: PqcmMachine,
    kets: np.ndarray,
    probs: np.ndarray,
    candidates: np.ndarray,
    mu: int,
) -> np.ndarray:
    """Law rows of a Kraus machine: one row per Alice outcome, N+3 cells.

    Row m is for the member of state ``kets[m]`` and probability
    ``probs[m]``; ``candidates`` holds c_1..c_K as rows.

    Every cell is a quadratic form in N x N matrices; no N^mu-dimensional
    vector is built. The machine is A = C D B^-1, with B the matrix of the
    clonable states |B_i>, C that of their mu-fold powers and
    D = diag(sqrt(gamma_i)). So the success branch of outcome m is

        Phi_m = sqrt(p_m) A psi_m = sum_i beta_{m,i} |B_i>^(x mu),
        beta_m = sqrt(p_m) D B^-1 psi_m,

    and P(success | m) p_m = ||Phi_m||^2 = beta_m^H X^(o mu) beta_m, with
    X = B^H B the Gram matrix and o the entrywise (Hadamard) power.

    Group j holds g_j clone factors and tests them against candidate c_j.
    With o_{j,i} = <c_j|B_i>, the projector P_j = |c_j><c_j|^(x g_j) and
    its complement I - P_j have, on the vectors |B_i>^(x g_j), the Gram
    kernels

        H_j = outer(conj(o_j)^g_j, o_j^g_j)    (hit)
        Q_j = X^(o g_j) - H_j                  (miss).

    Tests on distinct factors commute, and "only group l all-succeeds" is
    the product projector P_l (x) prod_{j != l} (I - P_j). Its expectation
    on Phi_m factorizes over the groups, entry by entry in (i, i'):

        P(column l, m) = beta_m^H (H_l o prod_{j != l} Q_j) beta_m.

    Each kernel is a Hadamard product of PSD matrices, hence PSD, so every
    cell is computed directly and nonnegative up to roundoff. PHI takes the
    remaining success mass and the discard cell takes p_m - success.
    """
    k = candidates.shape[0]
    sizes = _sizes(mu, k)
    states = np.array([s.amplitudes for s in machine.clonable]).T
    beta = (
        np.linalg.solve(states, kets.T)
        * np.sqrt(machine.gammas)[:, None]
        * np.sqrt(probs)[None, :]
    )
    gram = states.conj().T @ states
    powers = (candidates.conj() @ states) ** sizes
    hits = powers.conj()[:, :, None] * powers[:, None, :]
    misses = gram ** sizes[:, :, None] - hits
    kernels = np.concatenate(
        [hits * misses[_others(k)].prod(axis=1), (gram**mu)[None]]  # last: success
    )
    forms = np.einsum("im,cij,jm->mc", beta.conj(), kernels, beta).real
    success = forms[:, k]
    rows = np.empty((len(probs), k + 2))
    rows[:, :k] = forms[:, :k]
    rows[:, k] = success - forms[:, :k].sum(axis=1)  # PHI
    rows[:, k + 1] = probs - success  # discarded cloner failures
    return rows


def _illegal_rows(
    spec: IllegalClonerSpec, probs: np.ndarray, ctx: RunContext, mu: int
) -> np.ndarray:
    """Law rows of the label-aware cloner over the 2N members, N+3 cells each.

    Member m, of probability ``probs[m]``, carries label m+1. Each branch
    of its output is either mu exact copies of one clonable state or junk,
    and the row mixes the branches' column laws by the label's branch
    weights. The groups test exact copies independently, so column l needs
    group l to all-succeed and every other group to fail, and PHI takes
    the rest; junk always lands in PHI. A clonable state that is itself
    candidate l passes group l's tests with certainty, so its hit there is
    exactly 1. The device never reports failure, so the discard cell is 0.
    Raises ConfigError when a clonable label names a member of probability
    0, whose state no pair prepares.
    """
    k = ctx.candidates.shape[0]
    labels = np.array(spec.clonable_labels)
    unprepared = labels[probs[labels - 1] == 0.0]
    if unprepared.size:
        raise ConfigError(
            f"clonable label {unprepared[0]} names an Alice outcome of probability 0"
        )
    hit = group_hits(ctx.candidates, ctx.preparations[labels - 1], mu)
    own = np.flatnonzero(labels <= k)
    hit[labels[own] - 1, own] = 1.0
    branch_laws = np.zeros((labels.size + 1, k + 2))  # junk branch last
    branch_laws[:-1, :k] = (hit * _stay(hit)).T
    branch_laws[:-1, k] = 1.0 - branch_laws[:-1, :k].sum(axis=1)
    branch_laws[-1, k] = 1.0
    weights = np.array([spec.branch_probabilities(m + 1) for m in range(probs.size)])
    return probs[:, None] * (weights @ branch_laws)


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
    law is the context's member probabilities; the cells of a row come from
    the machine's success branch (legal) or from the branch-weighted
    exact-copy laws (illegal). Both build one row per member of the
    2N-member list A1 then A2, reshaped per setting.
    """
    ctx = config.context
    n = config.n
    probs = ctx.probs.reshape(2 * n)
    if isinstance(config.machine, IllegalClonerSpec):
        raw = _illegal_rows(config.machine, probs, ctx, config.mu)
    else:
        raw = _legal_rows(
            config.machine, ctx.preparations, probs, ctx.candidates, config.mu
        )
    return _clip_law(raw.reshape(2, n, n + 3))


def analytic_leakage(candidates: np.ndarray, mu: int) -> float:
    """Worst-case probability that exact copies miss their own column.

    ``candidates`` holds one ket per row. For exact copies of candidate l,
    group l always succeeds, so the only losses are ties: some other group
    j all-succeeding, with probability hit[j, l]. The bound is
    1 - min_l prod_{j != l} (1 - hit[j, l]).
    """
    stay = _stay(group_hits(candidates, candidates, mu))
    return float(1.0 - stay.diagonal().min())


def run_protocol(config: ProtocolConfig) -> tuple[TallyTable, SignalStats]:
    """Sample the tally and signalling statistics for one config.

    The tally of ``config.trials`` i.i.d. pairs per setting is one
    multinomial draw over that setting's ``column_law`` cells, from a stream
    keyed by (seed, setting), so the result is bit-identical for a fixed
    seed and does not depend on the order the settings are drawn in.
    """
    law = config.law
    n = config.n
    counts = np.zeros((2 * n, n + 2), dtype=np.int64)
    discards = []
    for setting in (0, 1):
        rng = SeededRng(config.seed, _stream_id(_PHASE_PROTOCOL, setting))
        hits = rng.multinomial(config.trials, law[setting].ravel()).reshape(n, n + 3)
        counts[setting * n : (setting + 1) * n] = hits[:, : n + 2]
        discards.append(int(hits[:, n + 2].sum()))

    tally = TallyTable(
        n=n,
        counts=counts,
        classified=tuple(config.trials - d for d in discards),
        discards=tuple(discards),
        trials=(config.trials, config.trials),
    )
    leakage = analytic_leakage(config.context.candidates, config.mu)
    stats = stats_from_tally(tally, leakage)
    return tally, stats


def stats_from_tally(tally: TallyTable, leakage: float) -> SignalStats:
    """Conditional column probabilities and bit rates from raw counts."""
    n = tally.n
    for setting in (0, 1):
        if tally.classified[setting] == 0:
            raise ConfigError(
                f"no cloner successes for setting A{setting + 1}; cannot estimate"
            )
    # exact int64 column counts per setting, each within 2**62
    columns = tally.counts.reshape(2, n, n + 2).sum(axis=1)
    totals = np.array(tally.classified, dtype=float)
    p_col = columns / totals[:, None]

    # P(vote | setting), setting s sending bit s, and its standard error
    rates = _vote_totals(p_col, n)
    errors = np.sqrt(np.maximum(rates * (1.0 - rates), 0.0) / totals[:, None])
    (p0_a1, p1_a1, _), (p0_a2, p1_a2, _) = rates.tolist()
    (se0_a1, se1_a1, _), (se0_a2, se1_a2, _) = errors.tolist()

    # exact int64 vote counts per setting; the settings combine as Python
    # ints, since both together can exceed int64
    is_vote = cell_votes(n)[: n + 2, None] == np.arange(3)
    counts = (columns @ is_vote).tolist()
    correct = counts[0][0] + counts[1][1]
    decided = sum(counts[0][:ABSTAIN]) + sum(counts[1][:ABSTAIN])
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
    coin_flips: int  # bits decided by coin flip (a tie, all-abstain included)


def channel_accuracy(
    sent: np.ndarray, votes: np.ndarray, pairs_per_bit: int, rng: SeededRng
) -> ChannelResult:
    """Majority-vote decoding of per-bit vote counts.

    ``sent`` holds the message bits, and row k of ``votes`` the (0-votes,
    1-votes, abstentions) of bit k's ``pairs_per_bit`` pairs. A bit decodes
    to 1 when its 1-votes outnumber its 0-votes. Ties, all-abstain bits
    included, are decided by a fair coin, one uniform each in bit order,
    and counted in ``coin_flips``.
    """
    if pairs_per_bit < 1:
        raise ConfigError("pairs_per_bit must be at least 1")
    sent = np.asarray(sent, dtype=np.int64)
    votes = np.asarray(votes, dtype=np.int64)
    if sent.ndim != 1 or votes.shape != (sent.size, 3):
        raise ConfigError("need one row of (0-votes, 1-votes, abstentions) per bit")
    if sent.size == 0:
        raise ConfigError("no message bits to decode")
    if np.any((sent != 0) & (sent != 1)):
        raise ConfigError("sent bits must be 0 or 1")
    if np.any(votes < 0) or np.any(votes.sum(axis=1) != pairs_per_bit):
        raise ConfigError("vote counts must be nonnegative and sum to pairs_per_bit")
    zeros, ones = votes[:, 0], votes[:, 1]
    decoded = (ones > zeros).astype(np.int64)
    ties = np.flatnonzero(ones == zeros)
    decoded[ties] = rng.uniforms(ties.size) < 0.5
    return ChannelResult(
        accuracy=int(np.count_nonzero(sent == decoded)) / sent.size,
        sent=tuple(sent.tolist()),
        decoded=tuple(decoded.tolist()),
        coin_flips=int(ties.size),
    )


def run_channel(config: ProtocolConfig, message_bits: Sequence[int]) -> ChannelResult:
    """Send a bit string through the cloner channel and decode it bit by bit.

    Every message bit consumes ``pairs_per_bit`` shared pairs measured in
    the basis encoding that bit. Each cell votes as ``cell_votes`` says
    (B_1..B_N for 0, B_{N+1} for 1, PHI and cloner failures abstain), so a
    bit's votes are one multinomial draw from its setting's vote law. The
    bits of one setting take consecutive draws from that setting's stream,
    in message order.
    """
    bits = np.asarray(message_bits, dtype=np.int64)
    if np.any((bits != 0) & (bits != 1)):
        raise ConfigError("message bits must be 0 or 1")
    law = config.law
    n = config.n
    vote_laws = _vote_totals(law.sum(axis=1), n)
    votes = np.empty((bits.size, 3), dtype=np.int64)
    for setting in (0, 1):
        where = np.flatnonzero(bits == setting)
        rng = SeededRng(config.seed, _stream_id(_PHASE_CHANNEL, setting))
        votes[where] = rng.multinomial(
            config.pairs_per_bit, vote_laws[setting], where.size
        )
    vote_rng = SeededRng(config.seed, _stream_id(_PHASE_VOTE, 0))
    return channel_accuracy(bits, votes, config.pairs_per_bit, vote_rng)


def random_message(seed: int, n_bits: int) -> tuple[int, ...]:
    """Deterministic uniformly random bit string for channel demos."""
    rng = SeededRng(seed, _stream_id(_PHASE_MESSAGE, 0))
    return tuple((rng.uniforms(n_bits) < 0.5).astype(np.int64).tolist())


def analytic_no_signal_certificate(kets: np.ndarray, probs: np.ndarray) -> float:
    """Trace distance between Bob's averaged states for two Alice bases.

    ``kets[s]`` (one state per row) and ``probs[s]`` are Bob's induced
    preparation ensemble for basis s, as in a run's ``RunContext``. The
    averaged state of basis s is rho_s = sum_m p_m |m><m|, one matrix
    product per basis. The two coincide identically, so the returned value
    is numerical noise (at most ~1e-12): the certificate that basis choice
    alone sends no information. It never sees the cloner.
    """
    rho = (kets.transpose(0, 2, 1) * probs[:, None, :]) @ kets.conj()
    return float(0.5 * np.abs(np.linalg.eigvalsh(rho[0] - rho[1])).sum())
