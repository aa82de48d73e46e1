"""Shared entangled state, Alice's measurements, and remote preparation.

Alice holds an N-dimensional register entangled with Bob's N-dimensional
system so that the joint state is (1/sqrt(N)) sum_n |n>_A |B_n>. Measuring
her register in the computational basis (A1) steers Bob into one of the
|B_n>; measuring in any other orthonormal basis (A2) steers him into a
second set of states, each a linear combination of the first. Bob's states
are one (N, N) array with |B_n> as row n, and a basis is one read-only
unitary with its vectors as columns; only the Born-rule reference
(``alice_measure``, ``induced_ensemble``) wraps single states in ``Ket``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import qcore
from .errors import ConfigError
from .qcore import Ensemble, Ket, SeededRng


@dataclass(frozen=True, eq=False)
class AliceBasis:
    """An orthonormal measurement basis on Alice's register.

    ``matrix`` is one read-only unitary holding the basis vectors as
    columns; it is the whole basis. ``is_identity`` records, once, whether
    it is exactly the computational basis, whose outcomes steer Bob into
    his own states (``induced_states``). The computational and Fourier
    bases depend on N only, so each is built and checked once per N.
    """

    matrix: np.ndarray
    is_identity: bool = field(init=False)

    def __post_init__(self):
        try:
            matrix = qcore._frozen(self.matrix)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"a basis is a matrix of complex numbers: {exc}"
            ) from None
        if matrix.ndim != 2 or matrix.size == 0:
            raise ConfigError(f"a basis is a matrix of columns, got {matrix.shape}")
        qcore._check_orthonormal(matrix, matrix.shape[1])
        object.__setattr__(self, "matrix", matrix)
        identity = np.array_equal(matrix, np.eye(len(matrix)))
        object.__setattr__(self, "is_identity", identity)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    @lru_cache
    def computational(cls, n: int) -> "AliceBasis":
        return cls(np.eye(n))

    @classmethod
    @lru_cache
    def fourier(cls, n: int) -> "AliceBasis":
        """Default alternate basis: a_m[k] = exp(2*pi*i*m*k/n)/sqrt(n)."""
        grid = np.arange(n)
        phases = 2j * np.pi * grid * grid[:, None] / n  # [k, m] = (2 pi m) k / n
        return cls(np.exp(phases) / np.sqrt(n))

    @classmethod
    def from_unitary(cls, matrix: np.ndarray) -> "AliceBasis":
        """Basis from unitary columns."""
        return cls(matrix)


@dataclass(frozen=True, eq=False)
class SharedState:
    """The entangled resource pairing Alice's labels, one per Bob state, with
    Bob's states; Alice's register has dimension ``len(bob_states)``."""

    joint: Ket
    bob_states: np.ndarray  # (N, N), one state per row


def build_shared_state(bob_states: np.ndarray) -> SharedState:
    """Construct (1/sqrt(N)) sum_n |n>_A |B_n> for Bob's states, one per row.

    Bob's states must be N unit states of dimension N (``qcore.bob_state_set``)
    but need not be orthogonal or independent; the joint state has norm 1
    regardless because Alice's labels are orthonormal.
    """
    bob_states = qcore.bob_state_set(bob_states)
    joint = Ket(bob_states.reshape(-1) / np.sqrt(len(bob_states)))
    return SharedState(joint, bob_states)


def induced_states(bob: np.ndarray, bases) -> tuple[np.ndarray, np.ndarray]:
    """Bob's induced preparation ensembles, as arrays: the steering rule.

    ``bob`` holds |B_n> as row n. For each basis s, row m of ``states[s]``
    is the state Bob holds after Alice's outcome m, and ``probs[s, m]`` its
    probability. Member m has unnormalized state sum_n <a_m|n> |B_n>, so
    the rows are conj(a_m)^T B, one matrix product per basis, and its
    probability is its squared norm divided by N. For the exact identity
    (A1) this is Bob's own states, taken as they are, each with probability
    1/N. A member of (near-)zero norm gets probability 0 and the placeholder
    state |0>.
    """
    n = bob.shape[0]
    states = np.zeros((len(bases), n, n), dtype=np.complex128)
    probs = np.empty((len(bases), n))
    for s, basis in enumerate(bases):
        if basis.dim != n:
            raise ConfigError(f"basis dimension {basis.dim} does not match {n}")
        if basis.is_identity:
            states[s] = bob
            probs[s] = 1.0 / n
            continue
        raw = basis.matrix.T.conj() @ bob
        # einsum, not add.reduce of |raw|^2: the two differ in the last bit
        norm_sq = np.einsum("mk,mk->m", raw.conj(), raw).real
        live = norm_sq > 1e-24
        states[s, :, 0] = 1.0  # |0>, kept by zero-probability members
        np.divide(raw, np.sqrt(norm_sq)[:, None], out=states[s], where=live[:, None])
        prob = np.divide(norm_sq, n, out=np.zeros(n), where=live)
        probs[s] = prob / np.add.reduce(prob)
    return states, probs


def induced_ensemble(shared: SharedState, basis: AliceBasis) -> Ensemble:
    """Bob's preparation ensemble for a given choice of Alice basis.

    The members are the rows of ``induced_states``, as kets; under A1 they
    are Bob's own states, with probability 1/N each.
    """
    states, probs = induced_states(shared.bob_states, (basis,))
    return Ensemble(tuple(zip(map(Ket, states[0]), probs[0].tolist())))


def alice_measure(
    shared: SharedState, basis: AliceBasis, rng: SeededRng
) -> tuple[int, Ket]:
    """Measure Alice's register; return her outcome and Bob's conditional state."""
    n = len(shared.bob_states)
    return qcore.measure_subsystem(shared.joint, (n, n), "A", basis.matrix, rng)


def target_to_basis(target: np.ndarray, bob_states: np.ndarray) -> AliceBasis:
    """Alternate basis whose first outcome steers Bob into ``target``.

    ``bob_states`` holds |B_n> as row n: N unit states of dimension N
    (``qcore.bob_state_set``) that pass the rank rule, so B is square and
    invertible and every target lies in its span. Solves target = B c from
    the rank rule's SVD of B and sets a_1[n] = conj(c_n)/||c||, so the
    induced member-1 state equals the target up to global phase. The
    remaining vectors are completed by modified Gram-Schmidt over the
    computational basis in index order.
    """
    bob_states = qcore.bob_state_set(bob_states)
    n = len(bob_states)
    if np.shape(target) != (n,):
        raise ConfigError(f"target dimension {np.size(target)} does not match {n}")
    u_mat, singulars, vh_mat = qcore.independent_svd(bob_states.T)
    coeffs = (vh_mat.conj().T / singulars) @ (u_mat.conj().T @ target)  # B^-1 t
    vectors = [qcore.normalize(coeffs.conj())]
    for k in range(n):
        candidate = np.zeros(n, dtype=np.complex128)
        candidate[k] = 1.0
        for v in vectors:
            candidate = candidate - np.vdot(v, candidate) * v
        norm = np.linalg.norm(candidate)
        if norm > 1e-8:
            vectors.append(candidate / norm)
        if len(vectors) == n:
            break
    return AliceBasis(np.column_stack(vectors))
