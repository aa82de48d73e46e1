"""Shared entangled state, Alice's measurements, and remote preparation.

Alice holds an N-dimensional register entangled with Bob's N-dimensional
system so that the joint state is (1/sqrt(N)) sum_n |n>_A |B_n>. Measuring
her register in the computational basis (A1) steers Bob into one of the
|B_n>; measuring in any other orthonormal basis (A2) steers him into a
second set of states, each a linear combination of the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import qcore
from .errors import BasisError, DimensionError, RankError, SpanError
from .qcore import Ensemble, Ket, SeededRng

_SPAN_TOL = 1e-9


@dataclass(frozen=True)
class AliceBasis:
    """An orthonormal measurement basis on Alice's register.

    Label 'A1' is reserved for the exact computational basis; any other
    orthonormal basis carries label 'A2'. ``matrix`` holds the vectors as
    columns, read-only. The computational and Fourier bases depend on N
    only, so each is built and checked once per N.
    """

    vectors: tuple
    label: str
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vectors = tuple(self.vectors)
        n = len(vectors)
        matrix = qcore._check_orthonormal(vectors, n)
        matrix.setflags(write=False)
        if self.label not in ("A1", "A2"):
            raise BasisError(f"unknown basis label {self.label!r}")
        if self.label == "A1":
            eye = np.eye(n)
            for m, v in enumerate(vectors):
                if not np.array_equal(v.amplitudes, eye[m].astype(np.complex128)):
                    raise BasisError("label A1 requires the computational basis")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @classmethod
    @lru_cache
    def computational(cls, n: int) -> "AliceBasis":
        return cls(tuple(Ket.basis_state(n, m) for m in range(n)), "A1")

    @classmethod
    @lru_cache
    def fourier(cls, n: int) -> "AliceBasis":
        """Default alternate basis: a_m[k] = exp(2*pi*i*m*k/n)/sqrt(n)."""
        grid = np.arange(n)
        vectors = tuple(
            Ket(np.exp(2j * np.pi * m * grid / n) / np.sqrt(n)) for m in range(n)
        )
        return cls(vectors, "A2")

    @classmethod
    def from_unitary(cls, matrix: np.ndarray) -> "AliceBasis":
        """Basis from unitary columns; labeled A2."""
        cols = tuple(Ket(matrix[:, m]) for m in range(matrix.shape[1]))
        return cls(cols, "A2")


@dataclass(frozen=True)
class SharedState:
    """The entangled resource pairing Alice's labels with Bob's states."""

    joint: Ket
    bob_states: tuple
    alice_dim: int


def build_shared_state(bob_states) -> SharedState:
    """Construct (1/sqrt(N)) sum_n |n>_A |B_n> for the given Bob states.

    The Bob states must be normalized and of dimension N but need not be
    orthogonal or independent; the joint state has norm 1 regardless
    because Alice's labels are orthonormal.
    """
    bob_states = tuple(bob_states)
    n = len(bob_states)
    if n < 2:
        raise DimensionError("need at least two states to share")
    for s in bob_states:
        if s.dim != n:
            raise DimensionError(
                f"Bob states must have dimension {n}, got {s.dim}"
            )
    joint = np.zeros(n * n, dtype=np.complex128)
    for idx, s in enumerate(bob_states):
        joint[idx * n : (idx + 1) * n] = s.amplitudes
    return SharedState(Ket(joint / np.sqrt(n)), bob_states, n)


def induced_states(bob: np.ndarray, bases) -> tuple[np.ndarray, np.ndarray]:
    """Bob's induced preparation ensembles, as arrays: the steering rule.

    ``bob`` holds |B_n> as row n. For each basis s, row m of ``states[s]``
    is the state Bob holds after Alice's outcome m, and ``probs[s, m]`` its
    probability. Member m has unnormalized state sum_n <a_m|n> |B_n>, so
    the rows are conj(a_m)^T B, one matrix product per basis, and its
    probability is its squared norm divided by N. For A1 this is exactly
    Bob's own states, each with probability 1/N. A member of (near-)zero
    norm gets probability 0 and the placeholder state |0>.
    """
    n = bob.shape[0]
    states = np.empty((len(bases), n, n), dtype=np.complex128)
    probs = np.empty((len(bases), n))
    for s, basis in enumerate(bases):
        if basis.dim != n:
            raise BasisError(f"basis dimension {basis.dim} does not match {n}")
        if basis.label == "A1":
            states[s] = bob
            probs[s] = 1.0 / n
            continue
        raw = basis.matrix.T.conj() @ bob
        norm_sq = np.einsum("mk,mk->m", raw.conj(), raw).real
        live = norm_sq > 1e-24
        states[s] = np.eye(1, n)  # |0>, kept by zero-probability members
        states[s, live] = raw[live] / np.sqrt(norm_sq[live])[:, None]
        prob = np.where(live, norm_sq / n, 0.0)
        probs[s] = prob / prob.sum()
    return states, probs


def induced_ensemble(shared: SharedState, basis: AliceBasis) -> Ensemble:
    """Bob's preparation ensemble for a given choice of Alice basis.

    The members are those of ``induced_states``, as kets; under A1 they are
    Bob's own kets, with probability 1/N each.
    """
    bob = np.array([s.amplitudes for s in shared.bob_states])
    states, probs = induced_states(bob, (basis,))
    if basis.label == "A1":
        kets = shared.bob_states
    else:
        kets = tuple(Ket(row) for row in states[0])
    return Ensemble(tuple(zip(kets, probs[0].tolist())))


def alice_measure(
    shared: SharedState, basis: AliceBasis, rng: SeededRng
) -> tuple[int, Ket]:
    """Measure Alice's register; return her outcome and Bob's conditional state."""
    n = shared.alice_dim
    return qcore.measure_subsystem(shared.joint, (n, n), "A", basis.vectors, rng)


def target_to_basis(target: Ket, bob_states) -> AliceBasis:
    """Alternate basis whose first outcome steers Bob into ``target``.

    Writes target = sum_n c_n |B_n> and sets a_1[n] = conj(c_n)/||c||, so
    the induced member-1 state equals the target up to global phase. The
    remaining vectors are completed by modified Gram-Schmidt over the
    computational basis in index order.
    """
    bob_states = tuple(bob_states)
    n = len(bob_states)
    if target.dim != n:
        raise DimensionError(f"target dimension {target.dim} does not match {n}")
    if qcore.rank_with_tolerance(bob_states) != n:
        raise RankError("Bob states must be linearly independent")
    bob_mat = np.column_stack([s.amplitudes for s in bob_states])
    coeffs = np.linalg.lstsq(bob_mat, target.amplitudes, rcond=None)[0]
    residual = np.linalg.norm(bob_mat @ coeffs - target.amplitudes)
    if residual > _SPAN_TOL:
        raise SpanError(f"target lies outside the span (residual {residual:.2e})")
    first = Ket.normalized(coeffs.conj())
    vectors = [first.amplitudes]
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
    return AliceBasis(tuple(Ket(v) for v in vectors), "A2")
