"""Probabilistic quantum cloning machines.

A PQCM for a linearly independent set {|B_i>} and copy count M is a
two-outcome generalized measurement: a success operator A sending each
|B_i> to sqrt(gamma_i) |B_i>^(x M), and a failure operator F with
A*A + F*F = I. Such an A exists exactly when the Gram-matrix condition
X - D X^(M) D >= 0 holds, with X the Gram matrix, X^(M) its entrywise
M-th power, and D = diag(sqrt(gamma_i)). The machine is built explicitly
as A = C D B^+ (B = input columns, C = M-fold product columns) and F as
the principal square root of I - A*A.

The module also models the deliberately nonphysical "illegal" cloner of
the signalling argument: a label-aware device that claims to clone N+1
linearly dependent states and, on inputs it cannot actually clone, emits
a random branch of the general output decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import qcore
from .errors import (
    ConditioningError,
    ConfigError,
    DimensionError,
    FeasibilityError,
    LabelError,
    NormalizationError,
    RankError,
    UnsupportedInputError,
)
from .qcore import HermitianOperator, Ket, SeededRng

COND_LIMIT = 1e12
_MACHINE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PqcmMachine:
    """An explicit success/failure Kraus pair cloning a fixed state set."""

    clonable: tuple  # of Ket, dimension N, linearly independent
    copies: int
    gammas: tuple  # of float, per-state success probabilities
    kraus_success: np.ndarray  # shape (N**copies, N)
    kraus_fail: np.ndarray  # shape (N, N)
    clone_residual: float  # max_i ||A|B_i> - sqrt(g_i)|B_i>^(xM)||
    trace_residual: float  # max-entry |A*A + F*F - I|

    @property
    def dim(self) -> int:
        return self.clonable[0].dim


@dataclass(frozen=True, eq=False)
class CloneOutput:
    """What a cloner hands to the verification stage.

    Three shapes arise:
      * ``copies``: mu exact copies of a labeled single-system state,
        kept as (label, single-copy ket) so the joint product is never
        materialized;
      * ``junk``: a state with zero overlap with every candidate on every
        clone slot, so each projective test fails with certainty;
      * ``joint``: an explicit joint ket over ``copies`` clone factors of
        dimension ``clone_dim`` (optionally behind an untouched leading
        register of dimension ``lead_dim``), measured by sequential
        collapse.
    """

    kind: str  # 'copies' | 'junk' | 'joint'
    copies: int
    success: bool = True
    label: int | None = None
    single: Ket | None = None
    state: Ket | None = None
    clone_dim: int | None = None
    lead_dim: int = 1

    @classmethod
    def exact_copies(cls, label: int, single: Ket, copies: int) -> "CloneOutput":
        return cls(kind="copies", copies=copies, label=label, single=single)

    @classmethod
    def junk(cls, copies: int) -> "CloneOutput":
        return cls(kind="junk", copies=copies)

    @classmethod
    def joint_state(
        cls, state: Ket, copies: int, clone_dim: int, lead_dim: int = 1
    ) -> "CloneOutput":
        if state.dim != lead_dim * clone_dim**copies:
            raise DimensionError(
                f"joint dim {state.dim} != {lead_dim} * {clone_dim}**{copies}"
            )
        return cls(
            kind="joint",
            copies=copies,
            state=state,
            clone_dim=clone_dim,
            lead_dim=lead_dim,
        )


def _state_matrix(states: Sequence[Ket]) -> np.ndarray:
    return np.column_stack([s.amplitudes for s in states])


def _check_independent(states: Sequence[Ket]) -> None:
    if qcore.rank_with_tolerance(states) != len(states):
        raise RankError(
            f"{len(states)} states of dimension {states[0].dim} are linearly dependent"
        )


def _check_copies(m: int) -> None:
    if m < 2:
        raise ConfigError(f"copy count must be at least 2, got {m}")


def feasibility_matrix(
    states: Sequence[Ket], m: int, gammas: Sequence[float]
) -> HermitianOperator:
    """X - D X^(M) D, whose positive semidefiniteness decides clonability."""
    states = tuple(states)
    _check_copies(m)
    if len(gammas) != len(states):
        raise ConfigError("need one efficiency per state")
    bad = [g for g in gammas if not 0.0 <= g <= 1.0]  # also catches nan
    if bad:
        raise ConfigError(f"efficiencies must lie in [0, 1], got {bad[0]!r}")
    _check_independent(states)
    gram = qcore.gram_matrix(states).entries
    gram_m = gram**m
    d = np.sqrt(np.asarray(gammas, dtype=float))
    return HermitianOperator.from_matrix(gram - (d[:, None] * gram_m) * d[None, :])


def max_uniform_gamma(states: Sequence[Ket], m: int, tol: float = 1e-9) -> float:
    """Largest uniform efficiency keeping the feasibility matrix PSD.

    Bisection on [0, 1] is exact up to ``tol`` because feasibility at a
    given gamma implies feasibility at every smaller gamma.
    """
    states = tuple(states)
    _check_copies(m)
    if not tol > 0:  # also catches nan; a zero or negative tol never ends
        raise ConfigError(f"bisection tolerance must be positive, got {tol!r}")
    _check_independent(states)
    gram = qcore.gram_matrix(states).entries
    gram_m = gram**m

    def feasible(gamma: float) -> bool:
        mat = HermitianOperator.from_matrix(gram - gamma * gram_m)
        return qcore.is_psd(mat)

    lo, hi = 0.0, 1.0
    if feasible(hi):
        return hi
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:  # tol below float resolution: no further progress
            break
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def construct_machine(
    states: Sequence[Ket], m: int, gammas: Sequence[float]
) -> PqcmMachine:
    """Build the explicit success/failure Kraus pair for the given set.

    Success operator A = C D B^+ with B the matrix of input columns,
    C the matrix of M-fold tensor-power columns, and D = diag(sqrt(g_i));
    failure operator F = principal square root of I - A*A. Raises
    FeasibilityError when the Gram condition fails, ConditioningError when
    the input set is numerically too close to dependence.
    """
    states = tuple(states)
    gammas = tuple(float(g) for g in gammas)
    feas = feasibility_matrix(states, m, gammas)
    min_eig = float(qcore.hermitian_eigenvalues(feas)[0])
    if min_eig < -qcore.PSD_TOL:
        raise FeasibilityError(
            f"requested efficiencies are infeasible (min eigenvalue {min_eig:.3e})"
        )

    b_mat = _state_matrix(states)
    singulars = np.linalg.svd(b_mat, compute_uv=False)
    if singulars[0] / singulars[-1] > COND_LIMIT:
        raise ConditioningError(
            f"state matrix condition number {singulars[0] / singulars[-1]:.3e} "
            f"exceeds {COND_LIMIT:.0e}"
        )
    c_mat = _state_matrix([qcore.tensor_power(s, m) for s in states])
    d_vec = np.sqrt(np.asarray(gammas))
    a_op = (c_mat * d_vec[None, :]) @ np.linalg.pinv(b_mat)

    n = states[0].dim
    gap = np.eye(n) - a_op.conj().T @ a_op
    eigvals, eigvecs = np.linalg.eigh((gap + gap.conj().T) / 2.0)
    if eigvals[0] < -qcore.PSD_TOL:
        raise FeasibilityError(
            f"success operator exceeds trace preservation "
            f"(min eigenvalue {eigvals[0]:.3e})"
        )
    f_op = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.conj().T

    clone_residual = max(
        float(
            np.linalg.norm(
                a_op @ s.amplitudes
                - np.sqrt(g) * qcore.tensor_power(s, m).amplitudes
            )
        )
        for s, g in zip(states, gammas)
    )
    trace_residual = float(
        np.max(np.abs(a_op.conj().T @ a_op + f_op.conj().T @ f_op - np.eye(n)))
    )
    if clone_residual > _MACHINE_TOL or trace_residual > _MACHINE_TOL:
        raise FeasibilityError(
            f"machine verification failed (clone residual {clone_residual:.3e}, "
            f"trace residual {trace_residual:.3e})"
        )
    return PqcmMachine(
        clonable=states,
        copies=m,
        gammas=gammas,
        kraus_success=qcore._frozen(a_op),
        kraus_fail=qcore._frozen(f_op),
        clone_residual=clone_residual,
        trace_residual=trace_residual,
    )


def apply_machine(
    machine: PqcmMachine, state: Ket, rng: SeededRng
) -> tuple[bool, Ket]:
    """One probabilistic cloning attempt on an arbitrary input state.

    Success fires with probability ||A|in>||^2 and yields the normalized
    success branch (dimension N^M); failure yields the normalized failure
    branch back in the input space, flagged by the returned bool.
    """
    if state.dim != machine.dim:
        raise DimensionError(
            f"input dimension {state.dim} does not match machine {machine.dim}"
        )
    success_branch = machine.kraus_success @ state.amplitudes
    p_success = min(float(np.real(np.vdot(success_branch, success_branch))), 1.0)
    if rng.random() < p_success:
        return True, Ket.normalized(success_branch)
    fail_branch = machine.kraus_fail @ state.amplitudes
    return False, Ket.normalized(fail_branch)


def amplify(
    machine_1to2: PqcmMachine, state: Ket, target_copies: int, rng: SeededRng
) -> tuple[bool, CloneOutput | None]:
    """Grow one exact clone into ``target_copies`` by repeated 1-to-2 cloning.

    Each application consumes one fresh attempt on a held copy and adds a
    copy on success, so reaching mu copies takes mu - 1 successes and
    happens with probability gamma^(mu-1). Any failure aborts. Defined
    only for inputs the machine clones exactly.
    """
    if machine_1to2.copies != 2:
        raise ValueError("amplification needs a 1-to-2 machine")
    if target_copies < 1:
        raise ValueError("target copy count must be positive")
    match = None
    for idx, s in enumerate(machine_1to2.clonable):
        if abs(abs(qcore.inner_product(s, state)) - 1.0) < 1e-9:
            match = idx
            break
    if match is None:
        raise UnsupportedInputError(
            "amplification is defined only for the machine's clonable states"
        )
    gamma = machine_1to2.gammas[match]
    for _ in range(target_copies - 1):
        if rng.random() >= gamma:
            return False, None
    single = machine_1to2.clonable[match]
    return True, CloneOutput.exact_copies(match + 1, single, target_copies)


@dataclass(frozen=True)
class IllegalClonerSpec:
    """A label-aware cloner claiming one state too many.

    ``clonable_labels`` lists the N+1 preparation labels (1-based, out of
    2N) the device claims to clone; ``copies`` is the promised copy count.
    For each unclonable label k the output decomposition is given by
    branch amplitudes c (one per clonable label, in ascending label
    order) and a junk amplitude d, with sum |c|^2 + |d|^2 = 1. Unlisted
    unclonable labels default to pure junk (d = 1). The device consumes
    the preparation label, not the quantum state, which is exactly why it
    is unphysical.
    """

    clonable_labels: tuple
    copies: int
    total_labels: int
    coefficients: Mapping[int, tuple] | None = None  # label -> (c array, d)

    def __post_init__(self):
        labels = tuple(sorted(int(x) for x in self.clonable_labels))
        if len(set(labels)) != len(labels):
            raise LabelError("clonable labels must be distinct")
        if labels and (labels[0] < 1 or labels[-1] > self.total_labels):
            raise LabelError(
                f"labels must lie in 1..{self.total_labels}, got {labels}"
            )
        coeffs = {}
        for key, (c_vec, d_val) in (self.coefficients or {}).items():
            key = int(key)
            if key in labels or not 1 <= key <= self.total_labels:
                raise LabelError(f"coefficients given for non-unclonable label {key}")
            c_arr = np.asarray(c_vec, dtype=np.complex128)
            if c_arr.shape != (len(labels),):
                raise DimensionError(
                    f"need {len(labels)} branch amplitudes, got {c_arr.shape}"
                )
            d_c = complex(d_val)
            total = float(np.sum(np.abs(c_arr) ** 2) + abs(d_c) ** 2)
            if abs(total - 1.0) > 1e-10:
                raise NormalizationError(
                    f"branch amplitudes for label {key} sum to {total!r}, not 1"
                )
            c_arr.setflags(write=False)
            coeffs[key] = (c_arr, d_c)
        object.__setattr__(self, "clonable_labels", labels)
        object.__setattr__(self, "coefficients", coeffs)

    def branch_probabilities(self, label: int) -> np.ndarray:
        """|c|^2 per clonable branch plus the junk weight, for one input label."""
        if label in self.coefficients:
            c_arr, d_val = self.coefficients[label]
            return np.concatenate([np.abs(c_arr) ** 2, [abs(d_val) ** 2]])
        probs = np.zeros(len(self.clonable_labels) + 1)
        probs[-1] = 1.0  # default: pure junk
        return probs


def illegal_clone(
    spec: IllegalClonerSpec,
    input_label: int,
    all_states: Sequence[Ket],
    rng: SeededRng,
) -> CloneOutput:
    """Run the label-aware cloner on one preparation.

    Clonable labels yield mu exact copies with certainty. Unclonable
    labels yield a sampled branch of the output decomposition: either mu
    exact copies of some clonable state, or the junk marker orthogonal to
    every candidate product.
    """
    all_states = tuple(all_states)
    if len(all_states) != spec.total_labels:
        raise LabelError(
            f"expected {spec.total_labels} preparation states, got {len(all_states)}"
        )
    if not 1 <= input_label <= spec.total_labels:
        raise LabelError(
            f"label {input_label} outside 1..{spec.total_labels}"
        )
    if input_label in spec.clonable_labels:
        return CloneOutput.exact_copies(
            input_label, all_states[input_label - 1], spec.copies
        )
    probs = spec.branch_probabilities(input_label)
    branch = rng.choice(probs)
    if branch == len(spec.clonable_labels):
        return CloneOutput.junk(spec.copies)
    out_label = spec.clonable_labels[branch]
    return CloneOutput.exact_copies(out_label, all_states[out_label - 1], spec.copies)
