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
copies of a state. Both machines emit mixtures of exact-copy branches, so
one builder (``_law_rows``) forms every law row by mixing the exact-copy
column laws built from it by branch masses, and the analytic leakage
bound reads their own-column stays. The machines differ only in those
masses. A legal machine's, summed over Alice's outcomes, are Gamma/N
under either of her settings, so Bob's cells cannot tell them apart. The
illegal cloner gives branch B_{N+1} mass only under A2, and that mass is
the readable bit.
``cell_votes`` gives Bob's vote for each cell (B_1..B_N vote 0, B_{N+1}
votes 1, PHI and discards abstain) as a one-hot matrix, so one matrix
product turns cells into votes: the channel's vote law, a tally's vote
rates and its exact vote counts are all cells times ``cell_votes``.

``column_law`` gives the exact probability of every (Alice outcome, Bob
cell) pair for both of Alice's settings. Pairs are i.i.d., so protocol
and channel runs draw only counts from that table: one multinomial per
setting for the tally, and one (0-votes, 1-votes, abstentions) multinomial
per message bit for the channel. Every setting and phase has its own
counter-based stream keyed by the seed and a fixed stream id, so a run's
output is a pure function of its seed, and its cost does not grow with the
number of pairs. A ``ProtocolConfig`` holds Bob's states as one read-only
``(N, N)`` array and builds its law and its ``RunContext`` once, on first
use; every stage of a run reads those same read-only values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import qcore

# The signal-test benchmark (bench/run.py) resolves alice_measure,
# apply_machine, illegal_clone, group_verify, SeededRng, run_protocol,
# run_channel, stats_from_tally and analytic_no_signal_certificate as
# attributes of this module, and the per-pair Born-rule reference in the
# tests calls the first four here: keep all of them reachable here.
from .entangle import AliceBasis, alice_measure, induced_states
from .errors import ConfigError, RankError
from .pqcm import IllegalClonerSpec, PqcmMachine, apply_machine, illegal_clone
from .qcore import SeededRng

PHI = 0  # sentinel column: no single verification group succeeded

# The stream id (second Philox key word) of each of a run's streams; the
# protocol and channel streams add the setting, 0 for A1 and 1 for A2.
_PROTOCOL_STREAM = 0
_CHANNEL_STREAM = 16
_VOTE_STREAM = 32
_MESSAGE_STREAM = 48

# Roundoff band below zero that column_law clips to zero; any entry lower
# than -LAW_TOL means the law was not computed accurately and is an error.
LAW_TOL = 1e-12


def group_sizes(mu: int, n_groups: int) -> list[int]:
    """Deterministic partition: earlier groups absorb the remainder."""
    base, extra = divmod(mu, n_groups)
    return [base + 1] * extra + [base] * (n_groups - extra)


def group_verify(
    single: np.ndarray | None, candidates: np.ndarray, mu: int, rng: SeededRng
) -> int:
    """Classify a cloner output into a candidate column or the junk column.

    ``single`` is one state, meaning mu exact copies of it, or None for the
    junk marker. ``candidates`` holds one state per row. The mu copies are
    split into one group per candidate (earlier groups one larger when mu
    is not divisible). Every clone in group l is tested by a binary
    projective measurement onto candidate l, clone by clone with one
    uniform each. The verdict is column l (1-based) when group l alone is
    all-success, and PHI when no group or more than one group is. The junk
    marker fails every projection, so it returns PHI without a draw.
    """
    n_groups = len(candidates)
    if mu < n_groups:
        raise ConfigError(f"need at least {n_groups} copies, got {mu}")
    if single is None:
        return PHI
    sizes = group_sizes(mu, n_groups)
    overlaps = [abs(complex(np.vdot(c, single))) ** 2 for c in candidates]
    hits = rng.uniforms(mu) < np.repeat(overlaps, sizes)
    all_success = []
    start = 0
    for size in sizes:
        all_success.append(bool(np.all(hits[start : start + size])))
        start += size
    winners = [l for l, ok in enumerate(all_success) if ok]
    if len(winners) == 1:
        return winners[0] + 1
    return PHI


@lru_cache
def cell_votes(n: int) -> np.ndarray:
    """Bob's vote for every cell of a law row: the one decoding rule.

    Row c of this read-only one-hot ``(N+3, 3)`` matrix marks cell c's vote
    among (0, 1, abstain): cells 0..N-1 (columns B_1..B_N) vote 0, cell N
    (B_{N+1}) votes 1, and N+1 (PHI) and N+2 (a discarded cloner failure)
    abstain. Cell masses or counts times this matrix give vote totals.
    """
    votes = np.eye(3, dtype=np.int64)[[0] * n + [1, 2, 2]]
    votes.setflags(write=False)
    return votes


@dataclass(frozen=True, eq=False)
class TallyTable:
    """Each setting's multinomial draw over the ``column_law`` cells.

    ``cells[s, m, c]`` counts pairs of setting s, Alice outcome m and Bob
    cell c, the last cell being discarded cloner failures. Everything else
    is derived from it at construction: N, ``cell_totals[s, c]`` (cell c
    summed over Alice's outcomes, read-only int64) and the per-setting
    sizes, tuples of Python ints. ``classified`` counts each setting's
    cells but the last, ``discards`` its last cell, and ``trials`` is
    their sum. Counts of a non-integer dtype raise ConfigError: a cast to
    int64 would truncate 2.5 and count True as 1. The tally keeps a
    read-only int64 copy, so the caller's array stays as it was.
    """

    cells: np.ndarray  # shape (2, N, N+3)
    cell_totals: np.ndarray = field(init=False)  # shape (2, N+3)
    classified: tuple = field(init=False)
    discards: tuple = field(init=False)
    trials: tuple = field(init=False)

    def __post_init__(self):
        cells = np.asarray(self.cells)
        if cells.dtype.kind not in "iu":
            raise ConfigError(f"tally counts must be integers, got dtype {cells.dtype}")
        cells = cells.astype(np.int64)
        if cells.ndim != 3 or cells.shape != (2, cells.shape[1], cells.shape[1] + 3):
            raise ConfigError(f"tally shape {cells.shape} is not (2, N, N+3)")
        if np.minimum.reduce(cells, axis=None, initial=0) < 0:
            raise ConfigError("tally counts must be nonnegative")
        cells.setflags(write=False)
        totals = np.add.reduce(cells, axis=1)
        totals.setflags(write=False)
        classified = tuple(np.add.reduce(totals[:, :-1], axis=1).tolist())
        discards = tuple(totals[:, -1].tolist())
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "cell_totals", totals)
        object.__setattr__(self, "classified", classified)
        object.__setattr__(self, "discards", discards)
        object.__setattr__(
            self, "trials", (classified[0] + discards[0], classified[1] + discards[1])
        )

    @property
    def n(self) -> int:
        return self.cells.shape[1]


@dataclass(frozen=True, eq=False)
class SignalStats:
    """Estimated conditional column probabilities and the derived bit rates.

    Each array is read-only, with one row per setting (0 for A1, 1 for A2);
    the classified counts behind them are the tally's.
    """

    p_col: np.ndarray  # shape (2, N+2): P(column | setting), last column PHI
    p_vote: np.ndarray  # shape (2, 2): P(vote | setting), vote 0 or 1
    stderr: np.ndarray  # shape (2, 2): binomial standard error of p_vote
    accuracy: float  # correct guesses / non-abstain guesses, both settings pooled
    discard_rate: tuple  # discards / trials per setting
    leakage: float  # analytic misclassification bound for exact copies

    def __post_init__(self):
        for name in ("p_col", "p_vote", "stderr"):
            array = np.array(getattr(self, name), dtype=float)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n(self) -> int:
        return self.p_col.shape[1] - 2


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    """Everything one signalling run needs, including its random seed.

    ``bob_states`` holds Bob's N unit states of dimension N as the rows of
    one read-only array of its own. The copy count ``mu`` is the machine's own.
    """

    bob_states: np.ndarray
    a2_basis: AliceBasis
    trials: int
    pairs_per_bit: int
    machine: PqcmMachine | IllegalClonerSpec
    seed: int

    def __post_init__(self):
        bob_states = qcore.bob_state_set(self.bob_states)
        n = len(bob_states)
        if not isinstance(self.machine, (PqcmMachine, IllegalClonerSpec)):
            raise ConfigError("machine must be a PqcmMachine or IllegalClonerSpec")
        if self.mu < n + 1:
            raise ConfigError(f"mu must be at least N+1 = {n + 1}, got {self.mu}")
        # numpy's multinomial takes n < 2**63, and every int64 count stays at
        # most 2**62, so counts of one setting sum without overflow
        for name in ("trials", "pairs_per_bit"):
            value = getattr(self, name)
            qcore.require_int(name, value)
            if not 1 <= value <= 2**62:
                raise ConfigError(f"{name} must lie in [1, 2**62], got {value}")
        if not isinstance(self.a2_basis, AliceBasis):
            raise ConfigError(f"a2_basis must be an AliceBasis, got {self.a2_basis!r}")
        if self.a2_basis.dim != n:
            raise ConfigError("alternate basis dimension does not match state count")
        if isinstance(self.machine, IllegalClonerSpec):
            if self.machine.total_labels != 2 * n:
                raise ConfigError(
                    f"cloner expects {self.machine.total_labels} labels, "
                    f"run has {2 * n}"
                )
        else:
            # the legal law takes the clonable states to be B_1..B_N
            clonable = self.machine.clonable
            gap = np.inf
            if clonable.shape == bob_states.shape:
                gap = np.maximum.reduce(np.abs(clonable - bob_states), axis=None)
            if not gap <= 1e-12:
                raise ConfigError(
                    f"machine clones other states than Bob's (amplitude gap {gap:.1e})"
                )
        object.__setattr__(self, "bob_states", bob_states)

    @property
    def mu(self) -> int:
        """The copy count, the machine's own: the Gram condition is stated
        for the copies the machine makes."""
        return self.machine.copies

    @property
    def n(self) -> int:
        return self.bob_states.shape[0]

    # Derived values live on the instance, not in a module-level memo, so a
    # fresh config (or a dataclasses.replace copy) always builds its own.
    @cached_property
    def context(self) -> RunContext:
        """Bob's side of this run (``prepare_context``), built on first use."""
        return prepare_context(self.bob_states, self.a2_basis, self.mu)

    @cached_property
    def law(self) -> np.ndarray:
        """``column_law(self)``, built on first use; the array is read-only."""
        return column_law(self)


@dataclass(frozen=True, eq=False)
class RunContext:
    """Bob's side of one configuration, as the read-only arrays the law reads.

    Every state is one row. Row m of ``kets[s]`` is the state Bob holds
    after Alice's outcome m under setting s (0 for A1, 1 for A2), with
    probability ``probs[s, m]``. Read as one list, ``kets`` holds the 2N
    preparations B_1..B_2N (A1's outcomes, then A2's), and its first N+1
    are the candidates B_1..B_{N+1}. The exact-copy table is over all 2N
    preparations: ``only[l, i]`` is the probability that group l
    alone all-succeeds on mu exact copies of B_{i+1}, that is column l's
    share of them, ``hit[l, i] * stay[l, i]``. ``hit[j, i]`` is the
    probability that group j all-succeeds on them (``group_hits``), and
    ``stay[l, i]`` that every group but l fails (``_stay``, built in
    O(N^2) memory). The law reads ``only``: column i is the exact-copy law
    that a branch of mu copies of B_{i+1} contributes (``_law_rows``). The
    leakage bound reads ``own_stay``.
    """

    kets: np.ndarray  # (2, N, N)
    probs: np.ndarray  # (2, N)
    only: np.ndarray  # (N+1, 2N)

    @property
    def own_stay(self) -> np.ndarray:
        """only[l, l] = stay[l, l]: mu exact copies of candidate l reach
        column l, since group l passes on them (hit[l, l] is exactly 1) and
        every other group must fail; (N+1,)."""
        return self.only.diagonal()


def prepare_context(
    bob_states: np.ndarray, a2_basis: AliceBasis, mu: int
) -> RunContext:
    """Bob's induced ensembles under A1 and A2, from ``induced_states``, and
    the exact-copy tables of mu copies over them.

    Candidate B_{N+1} is the state of A2's first outcome. When that outcome
    has probability 0, no pair ever prepares it, so the run is refused.
    """
    n = len(bob_states)
    bases = (AliceBasis.computational(n), a2_basis)
    kets, probs = induced_states(bob_states, bases)
    if probs[1, 0] == 0.0:
        raise ConfigError(
            f"candidate B{n + 1} is not prepared: Alice's first A2 outcome "
            "has probability 0 for these Bob states"
        )
    kets.setflags(write=False)
    probs.setflags(write=False)
    preparations = kets.reshape(2 * n, n)  # B_1..B_2N; the first N+1 are candidates
    hit = group_hits(preparations[: n + 1], preparations, mu)
    hit.flat[:: hit.shape[1] + 1] = 1.0  # candidate l passes its own group's tests
    only = hit * _stay(hit)
    only.setflags(write=False)
    return RunContext(kets, probs, only)


@lru_cache
def _others(k: int) -> np.ndarray:
    """The read-only ``(k, k, 1)`` mask of j != l that ``_stay`` reduces under."""
    others = np.empty((k, k, 1), dtype=bool)
    others.fill(True)
    others.flat[:: k + 1] = False
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
    """stay[l, i] = prod_{j != l} (1 - hit[j, i]): every group but l fails.
    One product over ascending j, masked at j = l, of ``1 - hit`` seen k
    times through np.broadcast_to's zero-stride view, so O(N^2) memory."""
    k = hit.shape[0]
    miss = 1.0 - hit
    view = np.ndarray((k, *miss.shape), miss.dtype, miss, strides=(0, *miss.strides))
    return np.multiply.reduce(view, axis=1, initial=1.0, where=_others(k))


def _branches(
    machine: PqcmMachine | IllegalClonerSpec, probs: np.ndarray, ctx: RunContext
) -> tuple[np.ndarray | slice, np.ndarray, np.ndarray]:
    """A machine's output over the members as (branches, mass, success).

    ``branches`` selects the columns of ``ctx.only`` whose mu exact copies
    the output holds, ``mass[m, b]`` is branch b's mass in member m, and
    ``success[m]`` member m's success mass. Member m has probability
    ``probs[m]``; the first N are A1's, with states ``ctx.kets[0]``, and
    the rest A2's, with states ``ctx.kets[1]``.

    The label-aware cloner's branches are its clonable labels: member m
    (label m+1) yields copies of label b with mass p_m |c_b|^2
    (``spec.branch_weights``) and junk otherwise, and never reports
    failure, so its success mass is p_m. Raises ConfigError when a
    clonable label names a member of probability 0, which no pair prepares.

    A Kraus machine's branches are the candidates B_1..B_N, the first N
    columns, so it selects them by a slice and the law reads a view. It is
    A = C D B^-1, with C the matrix of their mu-fold powers and
    D = diag(sqrt(gamma_i)), so member m's success branch is

        Phi_m = sqrt(p_m) A psi_m = sum_i beta_{m,i} |B_i>^(x mu),
        beta_m = sqrt(p_m) D B^-1 psi_m,

    with masses |beta_{m,i}|^2. An A1 member is B_n itself, so its beta is
    sqrt(p_n gamma_n) e_n; only A2's read the factored B^+. Coherence
    enters only the success mass ||Phi_m||^2 = beta_m^H X^(o mu) beta_m,
    with X = B^H B and o the entrywise power (``factored.gram_power``).
    """
    if isinstance(machine, IllegalClonerSpec):
        for label in machine.clonable_labels:
            if probs[label - 1] == 0.0:
                raise ConfigError(
                    f"clonable label {label} names an Alice outcome of probability 0"
                )
        # junk copies nothing: its mass reaches PHI as success minus the cells
        mass = probs[:, None] * machine.branch_weights[:, :-1]
        return np.array(machine.clonable_labels) - 1, mass, probs
    n = ctx.only.shape[0] - 1
    legal = machine.factored
    beta = np.zeros((n, probs.size), dtype=complex)
    beta.flat[:: probs.size + 1] = 1.0  # identity block over the A1 members
    beta[:, n:] = legal.pinv @ ctx.kets[1].T
    beta *= np.sqrt(machine.gammas)[:, None] * np.sqrt(probs)[None, :]
    success = np.einsum("im,ij,jm->m", beta.conj(), legal.gram_power, beta).real
    return slice(0, n), (np.abs(beta) ** 2).T, success


def _law_rows(
    machine: PqcmMachine | IllegalClonerSpec, probs: np.ndarray, ctx: RunContext
) -> np.ndarray:
    """Law rows of either machine over the members, N+3 cells each.

    Each row mixes exact-copy laws by the branch masses of ``_branches``:
    column l of member m is sum_b mass[m, b] only[l, b], PHI takes what the
    columns leave of the success mass, and the discard cell p_m - success.
    The illegal cloner's output is a true mixture; its junk lands in PHI.

    A Kraus machine's branches are coherent, yet the rule holds. "Only
    group l all-succeeds" is P_l (x) prod_{j != l} (I - P_j), with
    P_j = |B_j><B_j|^(x g_j) for j <= N. I - P_i annihilates
    |B_i>^(x g_i), so every term of Phi_m but i = l vanishes, and so does
    every cross term: P(column l, m) = |beta_{m,l}|^2 only[l, l], the
    exact-copy law of candidate l mixed by |beta_m|^2. Column N+1 is 0, as
    each term of Phi_m fails some group j <= N. Both zeros are exact in
    the table: ``only[l, j]`` is exactly 0 for candidates j != l, since
    hit[j, j] is exactly 1.
    """
    branches, mass, success = _branches(machine, probs, ctx)
    k = ctx.only.shape[0]
    rows = np.empty((probs.size, k + 2))
    rows[:, :k] = mass @ ctx.only[:, branches].T
    rows[:, k] = success - np.add.reduce(rows[:, :k], axis=1)  # PHI
    rows[:, k + 1] = probs - success  # discarded cloner failures
    return rows


def _clip_law(raw: np.ndarray) -> np.ndarray:
    """Clip roundoff in [-LAW_TOL, 0) to zero; anything lower is an error."""
    low = float(np.minimum.reduce(raw, axis=None))
    if not low >= -LAW_TOL:
        raise RankError(
            f"column law entry {low:.3e} lies below -{LAW_TOL:.0e}; "
            "the machine is too ill-conditioned for an accurate law"
        )
    law = np.maximum(raw, 0.0)
    law.setflags(write=False)
    return law


def column_law(config: ProtocolConfig) -> np.ndarray:
    """Exact probability of every protocol outcome, per Alice setting.

    Entry [s, m, c] is P(Alice outcome m, Bob's cell c | setting s), with
    setting 0 the label basis A1 and 1 the alternate basis A2. Cells
    0..N are columns B_1..B_{N+1}, cell N+1 is PHI, and cell N+2 is a
    cloner failure that Bob discards. Each setting sums to 1. Alice's row
    law is the context's member probabilities, and each row mixes the
    exact-copy laws of the machine's branches (``_law_rows``), one row per
    member of the 2N-member list A1 then A2, reshaped per setting.
    """
    ctx = config.context
    n = config.n
    probs = ctx.probs.reshape(2 * n)
    raw = _law_rows(config.machine, probs, ctx)
    return _clip_law(raw.reshape(2, n, n + 3))


def analytic_leakage(own_stay: np.ndarray) -> float:
    """Worst-case probability that exact copies miss their own column.

    ``own_stay`` is a run context's: for exact copies of candidate l, group
    l always succeeds, so the only losses are ties, some other group j
    all-succeeding with probability hit[j, l]. The bound is
    1 - min_l prod_{j != l} (1 - hit[j, l]).
    """
    return float(1.0 - np.minimum.reduce(own_stay))


def run_protocol(config: ProtocolConfig) -> tuple[TallyTable, SignalStats]:
    """Sample the tally and signalling statistics for one config.

    The tally of ``config.trials`` i.i.d. pairs per setting is one
    multinomial draw over that setting's ``column_law`` cells, from a stream
    keyed by (seed, setting), so the result is bit-identical for a fixed
    seed and does not depend on the order the settings are drawn in.
    """
    law = config.law
    cells = np.empty(law.shape, dtype=np.int64)
    for setting in (0, 1):
        rng = SeededRng(config.seed, _PROTOCOL_STREAM + setting)
        draw = rng.multinomial(config.trials, law[setting].ravel())
        cells[setting] = draw.reshape(law.shape[1:])
    tally = TallyTable(cells)
    leakage = analytic_leakage(config.context.own_stay)
    stats = stats_from_tally(tally, leakage)
    return tally, stats


def stats_from_tally(tally: TallyTable, leakage: float) -> SignalStats:
    """Conditional column probabilities and bit rates from raw counts."""
    n = tally.n
    classified = tally.classified
    for setting in (0, 1):
        if classified[setting] == 0:
            raise ConfigError(
                f"no cloner successes for setting A{setting + 1}; cannot estimate"
            )
    cells = tally.cell_totals  # exact int64 counts, each within 2**62
    totals = np.array(classified, dtype=float)
    p_col = cells[:, : n + 2] / totals[:, None]
    votes = cell_votes(n)

    # P(vote | setting), setting s sending bit s, and its standard error
    rates = (p_col @ votes[: n + 2])[:, :2]
    errors = np.sqrt(np.maximum(rates * (1.0 - rates), 0.0) / totals[:, None])

    # exact int64 vote counts per setting; the settings combine as Python
    # ints, since both together can exceed int64
    (zeros_a1, ones_a1, _), (zeros_a2, ones_a2, _) = (cells @ votes).tolist()
    decided = zeros_a1 + ones_a1 + zeros_a2 + ones_a2
    accuracy = (zeros_a1 + ones_a2) / decided if decided else 0.5
    discards, trials = tally.discards, tally.trials

    return SignalStats(
        p_col=p_col,
        p_vote=rates,
        stderr=errors,
        accuracy=accuracy,
        discard_rate=(discards[0] / trials[0], discards[1] / trials[1]),
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


def _majority(sent: np.ndarray, votes: np.ndarray, rng: SeededRng) -> ChannelResult:
    """Majority-vote decoding of per-bit vote counts.

    ``sent`` is a non-empty int64 vector of 0s and 1s, and row k of
    ``votes`` the (0-votes, 1-votes, abstentions) of bit k's pairs, as
    ``run_channel`` draws them. A bit decodes to 1 when its 1-votes
    outnumber its 0-votes. Ties, all-abstain bits included, are decided by
    a fair coin, one uniform each in bit order, and counted in
    ``coin_flips``.
    """
    zeros, ones = votes[:, 0], votes[:, 1]
    decoded = (ones > zeros).astype(np.int64)
    ties = (ones == zeros).nonzero()[0]
    if ties.size:  # a tie-free message never draws from its vote stream
        decoded[ties] = rng.uniforms(ties.size) < 0.5
    return ChannelResult(
        accuracy=(sent == decoded).nonzero()[0].size / sent.size,
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

    The message must be one flat, non-empty sequence of numbers, each 0 or
    1. The votes need no check: each row is a multinomial draw of
    ``pairs_per_bit`` pairs, so the majority rule decodes them directly.
    """
    bits = np.asarray(message_bits)
    if bits.dtype.kind not in "biuf":
        raise ConfigError("message bits must be 0 or 1")
    if bits.ndim != 1 or bits.size == 0:
        raise ConfigError("the message must be one flat, non-empty sequence of bits")
    where = ((bits == 0).nonzero()[0], (bits == 1).nonzero()[0])  # per setting
    # every bit is 0 or 1, checked before the cast, which would truncate 0.5 to 0
    if where[0].size + where[1].size != bits.size:
        raise ConfigError("message bits must be 0 or 1")
    vote_laws = np.add.reduce(config.law, axis=1) @ cell_votes(config.n)
    votes = np.empty((bits.size, 3), dtype=np.int64)
    for setting in (0, 1):
        rng = SeededRng(config.seed, _CHANNEL_STREAM + setting)
        votes[where[setting]] = rng.multinomial(
            config.pairs_per_bit, vote_laws[setting], where[setting].size
        )
    return _majority(bits.astype(np.int64), votes, SeededRng(config.seed, _VOTE_STREAM))


def random_message(seed: int, n_bits: int) -> tuple[int, ...]:
    """Deterministic uniformly random bit string for channel demos."""
    rng = SeededRng(seed, _MESSAGE_STREAM)
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
    return float(0.5 * np.add.reduce(np.abs(np.linalg.eigvalsh(rho[0] - rho[1]))))
