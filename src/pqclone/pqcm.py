"""Probabilistic quantum cloning machines.

A PQCM for a linearly independent set {|B_i>} and copy count M is a
two-outcome generalized measurement: a success operator A sending each
|B_i> to sqrt(gamma_i) |B_i>^(x M), and a failure operator F with
A*A + F*F = I. Such an A exists exactly when the Gram-matrix condition
X - D X^(M) D >= 0 holds, with X the Gram matrix, X^(M) its entrywise
M-th power, and D = diag(sqrt(gamma_i)). The success operator is
A = C D B^+ (B = input columns, C = M-fold product columns) and F is the
principal square root of I - A*A. As B*(I - A*A)B = X - D X^(M) D, the
verdict reads it as: the least discard probability min 1 - |A u|^2 is >= 0.

A state set is one read-only ``(N, d)`` array, one state per row. A
``FactoredSet`` is a state set and a copy count; constructing one checks
and factors the set once, from one thin SVD of B and an N x N factor R
with R*R = X^(M): the Cholesky factor of X^(M) when cond(B) lies below
``CHOLESKY_COND``, and a QR factor of the product columns nearer
dependence, where Cholesky would lose cond(B)^2 * eps. The largest
uniform efficiency, the Gram verdict, the Kraus pair and the legal law
are all read from it, and ``max_uniform_gamma``, ``feasibility_matrix``
and ``construct_machine`` are one-shot entry points over it. A
``PqcmMachine`` is a factored set plus its efficiencies, checked on N x N
matrices when constructed, so construction never builds an
N^M-dimensional array. The explicit N^M x N operator A is built only when
``kraus_success`` is first read, and its own residuals are checked then.

The module also models the deliberately nonphysical "illegal" cloner of
the signalling argument: a label-aware device that claims to clone N+1
linearly dependent states and, on inputs it cannot actually clone, emits
a random branch of the general output decomposition.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import qcore
from .errors import ConfigError, FeasibilityError, RankError
from .qcore import Ket, SeededRng

_MACHINE_TOL = 1e-9  # 2 * PSD_TOL: an admitted trace defect leaves room for rounding


# Below this cond(B), FactoredSet factors the Gram power X^(o M) by
# Cholesky; from it on, it takes the QR product factor. The Cholesky route
# loses ~cond(B)^2 * eps: against a 50-digit reference its worst relative
# gamma_max error was 3.1e-12 for cond(B) in [200, 300) and 2.4e-10 in
# [1000, 3000), past the 1e-10 gate that the QR route meets up to the rank
# rule's limit (the README has the table).
CHOLESKY_COND = 300.0

# A unit state's norm is 1 to within a few eps. FactoredSet sets the Gram
# diagonal to exactly 1, but the QR product factor still raises that roundoff
# to (1 + eps)^M: about 5e-7 at this cap.
MAX_COPIES = 2**30


def _cholesky_factor(gram_power: np.ndarray) -> np.ndarray:
    """R = L* with L L* = X^(o M), the Cholesky factor of the Gram power.

    X^(o M) is the Gram matrix of the M-fold product columns C, so
    R*R = C*C and R equals the QR factor of C up to a unitary on the left:
    every check reads R only through R*R or norms of R v. By the Schur
    product theorem, lambda_min(X^(o M)) >= lambda_min(X) = sigma_min(B)^2,
    so below ``CHOLESKY_COND`` the power is safely positive definite.
    """
    return np.linalg.cholesky(gram_power).conj().T


def _product_factor(b_mat: np.ndarray, m: int) -> np.ndarray:
    """An N x N factor R of the M-fold product columns: C = Q R, Q*Q = I.

    Column i of C is b_i^(x M). If C_a = Q_a R_a and C_b = Q_b R_b, the
    column-wise Kronecker product C_a (.) C_b equals
    (Q_a x Q_b)(R_a (.) R_b), so its R factor is that of R_a (.) R_b.
    Squaring from R_1 = B (Q_1 = I) reaches M in about log2(M) QR steps,
    each of a matrix with N columns and at most dim^2 rows. Unlike
    ``_cholesky_factor``, which starts from X^(o M) with its small
    eigenvalues already rounded, R carries C's own rounding, so R W is as
    accurate as the explicit C W. It costs N^2 x N QRs, so ``FactoredSet``
    takes it only at or above ``CHOLESKY_COND``.
    """
    n = b_mat.shape[1]

    def qr_of_product(r_a, r_b):
        product = np.einsum("ai,bi->abi", r_a, r_b).reshape(-1, n)  # R_a (.) R_b
        return np.linalg.qr(product, mode="r")

    factor, power = None, b_mat
    while True:
        if m & 1:
            factor = power if factor is None else qr_of_product(factor, power)
        m >>= 1
        if not m:
            return factor
        power = qr_of_product(power, power)


@dataclass(frozen=True, eq=False)
class FactoredSet:
    """One factorization of an independent state set, for M copies.

    Its two fields are the states, one unit state per row, and the copy
    count M, an integer in [2, ``MAX_COPIES``]. Construction checks both,
    a ``dataclasses.replace`` copy included, and derives the rest: B (the
    states as columns), the Gram matrix X = B*B and its entrywise power
    X^(o M), the pseudo-inverse B^+ from one thin SVD of B, and an N x N
    factor R of the M-fold product columns C, with R*R = C*C = X^(o M). The
    SVD also gives cond(B): below ``CHOLESKY_COND`` R is the Cholesky factor
    of X^(o M) (``_cholesky_factor``), otherwise the QR factor of C
    (``_product_factor``). ``gamma_max``, ``gram_verdict`` and a
    ``PqcmMachine`` decide feasibility from one number, the peak success
    probability of G = R D B^+ (``_verdict``), and they, the column law
    and ``feasibility_matrix`` read these, so a run that needs the largest
    uniform efficiency and the machine built at it factors the set once.

    A state of any other norm, or a copy count that is not such an
    integer, raises ConfigError (``qcore.state_set``,
    ``qcore.require_int``). Raises RankError when the set is dependent
    under the rank rule (``qcore.independent_svd``), which also caps
    cond(B) near 3.2e4.
    """

    states: np.ndarray  # (N, dim), one state per row, read-only
    copies: int
    b_mat: np.ndarray = field(init=False)  # B, shape (dim, N)
    gram: np.ndarray = field(init=False)  # X = B*B, shape (N, N)
    gram_power: np.ndarray = field(init=False)  # X^(o M), shape (N, N)
    pinv: np.ndarray = field(init=False)  # B^+, shape (N, dim)
    product_factor: np.ndarray = field(init=False)  # R with R*R = X^(o M), (N, N)

    def __post_init__(self):
        m = self.copies
        qcore.require_int("copy count", m)
        if m < 2:
            raise ConfigError(f"copy count must be at least 2, got {m}")
        if m > MAX_COPIES:
            raise ConfigError(f"copy count must be at most 2**30, got {m}")
        states = qcore.state_set(self.states, "clonable states")
        b_mat = np.ascontiguousarray(states.T)
        u_mat, singulars, vh_mat = qcore.independent_svd(b_mat)
        pinv = (vh_mat.conj().T / singulars) @ u_mat.conj().T
        gram = b_mat.conj().T @ b_mat
        gram = (gram + gram.conj().T) / 2.0
        # unit states; X^(o M) would raise the diagonal's roundoff
        gram.flat[:: len(states) + 1] = 1.0
        gram_power = gram**m
        if singulars[0] < CHOLESKY_COND * singulars[-1]:
            factor = _cholesky_factor(gram_power)
        else:
            factor = _product_factor(b_mat, m)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "b_mat", b_mat)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "gram_power", gram_power)
        object.__setattr__(self, "pinv", pinv)
        object.__setattr__(self, "product_factor", factor)

    @property
    def gamma_max(self) -> float:
        """Largest uniform efficiency meeting the Gram condition.

        At uniform gamma, G = sqrt(gamma) K with K = R B^+ (``_verdict``), so
        gamma is feasible up to min(1, 1 / lambda_max(K K*)). K K* = R X^-1 R*
        has the spectrum of X^(-1/2) X^(o M) X^(-1/2), but K is formed from
        R and one SVD of B, so no step past R squares cond(B).
        """
        # 1 - peak is exact for peak in [0.5, 2**53), so this reads peak itself
        peak = 1.0 - self._verdict((1.0,) * len(self.states))[1]
        return min(1.0, 1.0 / peak)

    def _efficiencies(self, gammas: Sequence[float]) -> tuple:
        """``gammas`` as one float per state, each in [0, 1]; raises
        ConfigError for anything else, a bool or a string included."""
        try:
            values = tuple(gammas)
        except TypeError:
            raise ConfigError(
                f"efficiencies must be a sequence, got {gammas!r}"
            ) from None
        if len(values) != len(self.states):
            raise ConfigError("need one efficiency per state")
        for g in values:
            if isinstance(g, (bool, np.bool_)) or not isinstance(g, numbers.Real):
                raise ConfigError(f"efficiencies must be real numbers, got {g!r}")
        bad = [g for g in values if not 0.0 <= g <= 1.0]  # also catches nan
        if bad:
            raise ConfigError(f"efficiencies must lie in [0, 1], got {bad[0]!r}")
        return tuple(float(g) for g in values)

    def feasibility_matrix(self, gammas: Sequence[float]) -> np.ndarray:
        """X - D X^(o M) D, PSD when clonable; a diagnostic, not the verdict."""
        d = np.sqrt(np.array(self._efficiencies(gammas)))
        feas = self.gram - (d[:, None] * self.gram_power) * d[None, :]
        return (feas + feas.conj().T) / 2.0

    def gram_verdict(self, gammas: Sequence[float]) -> tuple[bool, float]:
        """Whether ``gammas`` meet the Gram condition, and the least discard
        probability over unit inputs that decides it (``_verdict``)."""
        return self._verdict(self._efficiencies(gammas))[:2]

    def _verdict(self, gammas: tuple) -> tuple:
        """(feasible, least, W, G) for checked efficiencies: W = D B^+, G = R W.

        A = C W = Q G (``PqcmMachine``): a unit input u succeeds with
        probability |G u|^2, so least = 1 - lambda_max(G G*) is the least
        discard probability, negative exactly when X - D X^(o M) D =
        B*(I - G*G)B is not PSD. ``qcore.PSD_TOL`` bounds that probability,
        whose scale, unlike the matrix's, does not shrink with sigma_min(B)^2.
        """
        w_mat = np.sqrt(np.asarray(gammas))[:, None] * self.pinv
        g_mat = self.product_factor @ w_mat
        least = 1.0 - float(np.linalg.eigvalsh(g_mat @ g_mat.conj().T)[-1])
        return least >= -qcore.PSD_TOL, least, w_mat, g_mat


@dataclass(frozen=True, eq=False)
class PqcmMachine:
    """A success/failure Kraus pair: a factored set and one efficiency per state.

    Construction verifies it, a ``dataclasses.replace`` copy included.
    Success operator A = C D B^+ with B the matrix of input columns, C the
    matrix of M-fold tensor-power columns, and D = diag(sqrt(g_i)); failure
    operator F = principal square root of I - A*A. The efficiencies must
    lie in [0, 1] and pass the set's Gram verdict, and every check runs on
    N x N matrices, from W = D B^+ and the factor R. Since R*R = C*C,
    C = Q R with Q = C R^-1 of orthonormal columns (never formed). Then
    A = C W = Q G with G = R W, the verdict's G, so:

      * A*A = G*G, and F is the root of I - G*G, its eigenvalues clamped at 0;
      * A B - C D = Q R V with V = W B - D, so the clone residual of
        state i is the norm of column i of R V;
      * the trace residual is max |A*A + F*F - I|.

    Both residuals must lie within ``_MACHINE_TOL``. Raises ConfigError
    for a ``factored`` that is not a ``FactoredSet`` or for malformed
    efficiencies, FeasibilityError when the Gram verdict refuses them, and
    RankError when a residual check fails: the verdict admitted the
    efficiencies, so the machine was not computed accurately.
    """

    factored: FactoredSet
    gammas: tuple  # of float, per-state success probabilities
    kraus_fail: np.ndarray = field(init=False)  # shape (N, N)
    clone_residual: float = field(init=False)  # max_i ||A|B_i> - sqrt(g_i)|B_i>^(xM)||
    trace_residual: float = field(init=False)  # max-entry |A*A + F*F - I|

    def __post_init__(self):
        legal = self.factored
        if not isinstance(legal, FactoredSet):
            raise ConfigError(
                f"a machine needs a FactoredSet, got {type(legal).__name__}"
            )
        gammas = legal._efficiencies(self.gammas)
        feasible, least, w_mat, g_mat = legal._verdict(gammas)  # A = C W = Q G
        if not feasible:
            raise FeasibilityError(
                f"requested efficiencies are infeasible "
                f"(least_discard_mass: {least!r})"
            )
        success_gram = g_mat.conj().T @ g_mat  # A*A

        eye = np.eye(self.dim)
        gap = eye - success_gram
        eigvals, eigvecs = np.linalg.eigh((gap + gap.conj().T) / 2.0)
        f_op = (eigvecs * np.sqrt(np.maximum(eigvals, 0.0))) @ eigvecs.conj().T

        v_mat = w_mat @ legal.b_mat  # A B - C D = Q R V, V = W B - D
        v_mat.flat[:: len(gammas) + 1] -= np.sqrt(gammas)
        rv_mat = legal.product_factor @ v_mat  # C = Q R
        # the column norms as np.linalg.norm(rv_mat, axis=0) computes them
        column_norms = np.sqrt(np.add.reduce((rv_mat.conj() * rv_mat).real, axis=0))
        clone_residual = float(column_norms.max())
        trace_residual = float(
            np.abs(success_gram + f_op.conj().T @ f_op - eye).max()
        )
        if clone_residual > _MACHINE_TOL or trace_residual > _MACHINE_TOL:
            raise RankError(
                f"machine verification failed (clone residual {clone_residual:.3e}, "
                f"trace residual {trace_residual:.3e})"
            )
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "kraus_fail", qcore._frozen(f_op))
        object.__setattr__(self, "clone_residual", clone_residual)
        object.__setattr__(self, "trace_residual", trace_residual)

    @property
    def clonable(self) -> np.ndarray:
        return self.factored.states

    @property
    def copies(self) -> int:
        return self.factored.copies

    @property
    def dim(self) -> int:
        return self.factored.states.shape[1]

    @cached_property
    def kraus_success(self) -> np.ndarray:
        """The explicit success operator A = C D B^+, shape (N**copies, N).

        Built on first read from the factored B and B^+, which checks its
        clone residual and, with ``kraus_fail``, its trace residual against
        the same tolerance as construction, raising RankError as
        construction does; the array is read-only.
        """
        legal = self.factored
        c_mat = np.column_stack(
            [qcore.tensor_power(s, self.copies) for s in legal.states]
        )
        target = c_mat * np.sqrt(np.asarray(self.gammas))[None, :]  # C D
        a_op = target @ legal.pinv
        clone = float(np.max(np.linalg.norm(a_op @ legal.b_mat - target, axis=0)))
        f_op = self.kraus_fail
        total = a_op.conj().T @ a_op + f_op.conj().T @ f_op  # A*A + F*F
        trace = float(np.max(np.abs(total - np.eye(self.dim))))
        if clone > _MACHINE_TOL or trace > _MACHINE_TOL:
            raise RankError(
                f"explicit success operator fails its checks "
                f"(clone residual {clone:.3e}, trace residual {trace:.3e})"
            )
        return qcore._frozen(a_op)


def feasibility_matrix(
    states: np.ndarray, m: int, gammas: Sequence[float]
) -> np.ndarray:
    """X - D X^(M) D, a diagnostic: ``FactoredSet.gram_verdict`` decides."""
    return FactoredSet(states, m).feasibility_matrix(gammas)


def max_uniform_gamma(states: np.ndarray, m: int) -> float:
    """Largest uniform efficiency meeting the Gram condition
    (closed form in ``FactoredSet.gamma_max``)."""
    return FactoredSet(states, m).gamma_max


def construct_machine(
    states: np.ndarray, m: int, gammas: Sequence[float]
) -> PqcmMachine:
    """Build and verify the success/failure Kraus pair for the given set
    (checks in ``PqcmMachine``). Raises RankError for a set too close to
    dependence or a machine that fails a check, FeasibilityError when the
    Gram condition fails.
    """
    return PqcmMachine(FactoredSet(states, m), gammas)


def apply_machine(
    machine: PqcmMachine, state: Ket, rng: SeededRng
) -> tuple[bool, Ket]:
    """One probabilistic cloning attempt on an arbitrary input state.

    Success fires with probability ||A|in>||^2 and yields the normalized
    success branch (dimension N^M); failure yields the normalized failure
    branch back in the input space, flagged by the returned bool.
    """
    if state.dim != machine.dim:
        raise ConfigError(
            f"input dimension {state.dim} does not match machine {machine.dim}"
        )
    success_branch = machine.kraus_success @ state.amplitudes
    p_success = min(float(np.real(np.vdot(success_branch, success_branch))), 1.0)
    if rng.random() < p_success:
        return True, Ket.normalized(success_branch)
    fail_branch = machine.kraus_fail @ state.amplitudes
    return False, Ket.normalized(fail_branch)


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
        qcore.require_int("copies", self.copies)
        qcore.require_int("total_labels", self.total_labels)
        try:
            labels = tuple(self.clonable_labels)
        except TypeError:
            raise ConfigError(
                f"clonable labels must be a sequence, got {self.clonable_labels!r}"
            ) from None
        for label in labels:
            qcore.require_int("clonable label", label)
        labels = tuple(sorted(labels))
        if not labels:
            raise ConfigError("need at least one clonable label")
        if len(set(labels)) != len(labels):
            raise ConfigError("clonable labels must be distinct")
        if labels[0] < 1 or labels[-1] > self.total_labels:
            raise ConfigError(
                f"labels must lie in 1..{self.total_labels}, got {labels}"
            )
        entries = self.coefficients or {}
        if not isinstance(entries, Mapping):
            raise ConfigError(
                f"coefficients must map labels to (c, d), got {entries!r}"
            )
        coeffs = {}
        for key, entry in entries.items():
            qcore.require_int("coefficient label", key)
            if key in labels or not 1 <= key <= self.total_labels:
                raise ConfigError(f"coefficients given for non-unclonable label {key}")
            try:
                c_vec, d_val = entry
                c_arr = np.asarray(c_vec)
                numeric = c_arr.dtype.kind in "iufc" and (
                    isinstance(d_val, numbers.Number) and not isinstance(d_val, bool)
                )
            except (TypeError, ValueError):  # not a pair, or a ragged c
                numeric = False
            if not numeric:
                raise ConfigError(
                    f"coefficients for label {key} must be a (c array, d) pair "
                    f"of numbers, got {entry!r}"
                )
            if c_arr.shape != (len(labels),):
                raise ConfigError(
                    f"need {len(labels)} branch amplitudes, got {c_arr.shape}"
                )
            c_arr = c_arr.astype(np.complex128)
            d_c = complex(d_val)
            total = float(np.sum(np.abs(c_arr) ** 2) + abs(d_c) ** 2)
            if not abs(total - 1.0) <= 1e-10:  # NaN fails too
                raise ConfigError(
                    f"branch amplitudes for label {key} sum to {total!r}, not 1"
                )
            c_arr.setflags(write=False)
            coeffs[key] = (c_arr, d_c)
        object.__setattr__(self, "clonable_labels", labels)
        object.__setattr__(self, "coefficients", coeffs)

    @cached_property
    def branch_weights(self) -> np.ndarray:
        """Row k-1 holds |c|^2 per clonable branch plus the junk weight for
        input label k; built on first read, read-only.

        A clonable label is its own branch with certainty, and an unlisted
        unclonable label is pure junk.
        """
        n_branches = len(self.clonable_labels)
        weights = np.zeros((self.total_labels, n_branches + 1))
        weights[:, -1] = 1.0  # default: pure junk
        for branch, label in enumerate(self.clonable_labels):
            weights[label - 1, branch] = 1.0
            weights[label - 1, -1] = 0.0
        for key, (c_arr, d_val) in self.coefficients.items():
            weights[key - 1, :-1] = np.abs(c_arr) ** 2
            weights[key - 1, -1] = abs(d_val) ** 2
        weights.setflags(write=False)
        return weights


def illegal_clone(
    spec: IllegalClonerSpec, input_label: int, rng: SeededRng
) -> int | None:
    """Run the label-aware cloner on one preparation.

    Returns the clonable label whose mu exact copies come out, or None for
    the junk marker, a state orthogonal to every candidate product.
    Clonable labels yield themselves with certainty and draw nothing.
    Unclonable labels sample a branch of the output decomposition with one
    ``rng.choice`` draw.
    """
    if not 1 <= input_label <= spec.total_labels:
        raise ConfigError(
            f"label {input_label} outside 1..{spec.total_labels}"
        )
    if input_label in spec.clonable_labels:
        return input_label
    branch = rng.choice(spec.branch_weights[input_label - 1])
    if branch == len(spec.clonable_labels):
        return None
    return spec.clonable_labels[branch]
