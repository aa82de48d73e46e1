"""Complex linear algebra and quantum primitives.

States are dense complex vectors, operators are dense complex matrices.
Everything is immutable after construction and safe to share across
threads; randomness is isolated in single-owner ``SeededRng`` instances.
Each is a Philox stream keyed directly by (seed, stream_id), with no
OS-entropy draw, whose generator is built on its first draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox
from numpy.random.bit_generator import ISeedSequence

from .errors import (
    BasisError,
    CapacityError,
    ConfigError,
    DimensionError,
    EmptyInputError,
    HermiticityError,
    NormalizationError,
)

NORM_TOL = 1e-10
HERM_TOL = 1e-10
PSD_TOL = 1e-9
RANK_TOL = 1e-9
MAX_DIM = 2**24


def _frozen(values, dtype=np.complex128) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Ket:
    """A pure state: a dense complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.amplitudes)
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionError("a ket must be a nonempty 1-D amplitude vector")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @classmethod
    def normalized(cls, values) -> "Ket":
        """Construct a unit-norm ket; raises on (near-)zero or non-finite input."""
        arr = np.asarray(values, dtype=np.complex128)
        with np.errstate(over="ignore"):
            n = np.linalg.norm(arr)
        if not np.isfinite(n):
            raise NormalizationError("cannot normalize a vector of non-finite norm")
        if n < 1e-12:
            raise NormalizationError("cannot normalize a zero vector")
        return cls(arr / n)

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "Ket":
        if not 0 <= index < dim:
            raise DimensionError(f"basis index {index} outside dimension {dim}")
        arr = np.zeros(dim, dtype=np.complex128)
        arr[index] = 1.0
        return cls(arr)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A dense complex Hermitian matrix."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError("operator entries must form a square matrix")
        if np.max(np.abs(arr - arr.conj().T)) > HERM_TOL:
            raise HermiticityError("matrix is not Hermitian within tolerance")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_matrix(cls, values) -> "HermitianOperator":
        """Symmetrize away roundoff before the Hermiticity check."""
        arr = np.asarray(values, dtype=np.complex128)
        return cls((arr + arr.conj().T) / 2.0)

    @classmethod
    def projector(cls, state: Ket) -> "HermitianOperator":
        v = state.amplitudes
        return cls(np.outer(v, v.conj()))

    @classmethod
    def identity(cls, dim: int) -> "HermitianOperator":
        return cls(np.eye(dim, dtype=np.complex128))

    def trace(self) -> complex:
        return complex(np.trace(self.entries))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A weighted list of kets sharing one dimension."""

    members: tuple  # of (Ket, float)

    def __post_init__(self):
        members = tuple((k, float(p)) for k, p in self.members)
        if not members:
            raise EmptyInputError("an ensemble needs at least one member")
        dims = {k.dim for k, _ in members}
        if len(dims) != 1:
            raise DimensionError("ensemble members must share one dimension")
        total = sum(p for _, p in members)
        if abs(total - 1.0) > 1e-10:
            raise NormalizationError(f"ensemble probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.members[0][0].dim

    def average_density(self) -> HermitianOperator:
        """The ensemble-averaged density matrix sum_m p_m |m><m|."""
        rho = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for state, prob in self.members:
            v = state.amplitudes
            rho += prob * np.outer(v, v.conj())
        return HermitianOperator.from_matrix(rho)


class _FixedKey(ISeedSequence):
    """A seed sequence that hands Philox one fixed key and nothing else.

    ``Philox(key=...)`` first seeds a throwaway ``SeedSequence`` from OS
    entropy and then overwrites its key; given this adapter, Philox asks it
    for its two key words instead. Both routes leave key ``words`` and
    counter 0, so they give the same stream.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"a fixed Philox key gives 2 uint64 words, not {n_words} {np.dtype(dtype)}"
            )
        return self.words


@dataclass(frozen=True, eq=False)
class SeededRng:
    """Counter-based random stream keyed by (seed, stream_id).

    Identical keys give identical draw sequences regardless of platform,
    thread count, or construction order, within one numpy version: numpy
    does not promise stable distribution streams across versions (NEP 19).
    The stream is ``Generator(Philox(key=[seed, stream_id]))``, keyed
    directly with no OS-entropy draw, and the generator is built on the
    first draw, so a stream that is never read costs only its key check.
    With numpy 2.4.6 on a 2-core VM, construction takes ~1.2 µs and the
    first draw adds ~6.5 µs, where ``Philox(key=...)`` took ~12.4 µs.
    One instance per stream; never shared.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        # a key outside uint64, or not an int, would wrap, truncate or
        # round into another seed's stream
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if isinstance(value, bool) or not isinstance(value, int) or not (
                0 <= value < 2**64
            ):
                raise ConfigError(
                    f"stream {name} must be an integer in [0, 2**64), got {value!r}"
                )

    @cached_property
    def _gen(self) -> Generator:
        # an explicit uint64 key: numpy turns a plain list holding a value
        # >= 2**63 into float64, which rounds the key and aliases seeds
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return Generator(Philox(_FixedKey(key)))

    def random(self) -> float:
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        return self._gen.random(n)

    def normals(self, n: int) -> np.ndarray:
        return self._gen.standard_normal(n)

    def choice(self, probabilities: np.ndarray) -> int:
        """Sample an index from a probability vector with one uniform draw."""
        edges = np.cumsum(probabilities)
        # guard roundoff so a draw of ~1.0 cannot fall off the end
        edges[-1] = max(edges[-1], 1.0)
        return int(np.searchsorted(edges, self._gen.random(), side="right"))

    def multinomial(
        self, n: int, probabilities: np.ndarray, size: int | None = None
    ) -> np.ndarray:
        """int64 counts of ``n`` i.i.d. draws over the cells of a probability
        vector; with ``size``, that many consecutive draws, one per row.

        Only cells of positive mass are drawn over, renormalized: numpy gives
        its last cell whatever count the others leave, so roundoff would
        otherwise put counts in a trailing zero-mass cell. NaN, infinite or
        negative cells, or no mass at all, raise ``ConfigError``.
        """
        probabilities = np.asarray(probabilities, dtype=float)
        support = np.flatnonzero(probabilities > 0)
        # NaN and negative cells are nonzero but not positive
        if np.count_nonzero(probabilities) != support.size:
            raise ConfigError("multinomial probabilities must be nonnegative numbers")
        mass = probabilities[support]
        # scaling by a power of two is exact, so the renormalized cells are
        # unchanged; one at least the cell count keeps a finite vector's sum
        # (and every partial sum) within float range
        mass *= 0.5 ** (mass.size - 1).bit_length()
        total = mass.sum()
        if not 0 < total < np.inf:
            raise ConfigError(
                f"multinomial probabilities must have finite positive mass, got {total}"
            )
        shape = probabilities.shape if size is None else (size,) + probabilities.shape
        counts = np.zeros(shape, dtype=np.int64)
        counts[..., support] = self._gen.multinomial(n, mass / total, size)
        return counts


# ---------------------------------------------------------------------------
# elementary operations


def inner_product(a: Ket, b: Ket) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise DimensionError(f"inner product of dims {a.dim} and {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def tensor_power(state: Ket, m: int) -> Ket:
    """|state>^(x m); the leftmost factor is the slow (row-major) index."""
    if m < 1:
        raise DimensionError("tensor power needs m >= 1")
    if state.dim**m > MAX_DIM:
        raise CapacityError(f"tensor dimension {state.dim}**{m} exceeds cap {MAX_DIM}")
    out = state.amplitudes
    for _ in range(m - 1):
        out = np.multiply.outer(out, state.amplitudes)
    return Ket(out.reshape(-1))


def state_matrix(states: Sequence[Ket]) -> np.ndarray:
    """The states as the columns of one matrix B."""
    if len(states) == 0:
        raise EmptyInputError("gram matrix of an empty state list")
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise DimensionError("gram matrix needs states of one dimension")
    return np.column_stack([s.amplitudes for s in states])


def gram_matrix(states: Sequence[Ket]) -> HermitianOperator:
    """Matrix of pairwise inner products X[i,j] = <i|j>; Hermitian PSD."""
    mat = state_matrix(states)
    return HermitianOperator.from_matrix(mat.conj().T @ mat)


def hermitian_eigenvalues(m: HermitianOperator) -> np.ndarray:
    """Real spectrum in ascending order."""
    return np.linalg.eigvalsh(m.entries)


def rank_with_tolerance(states: Sequence[Ket], tol: float = RANK_TOL) -> int:
    """Linear-independence count: Gram eigenvalues above tol * largest."""
    if tol <= 0:
        raise ValueError("rank tolerance must be positive")
    eigs = hermitian_eigenvalues(gram_matrix(states))
    return int(np.sum(eigs > tol * eigs[-1]))


def is_psd(m: HermitianOperator, tol: float = PSD_TOL) -> bool:
    """True when the smallest eigenvalue is >= -tol."""
    return bool(hermitian_eigenvalues(m)[0] >= -tol)


def _check_orthonormal(basis: Sequence[Ket], dim: int, tol: float = 1e-9) -> np.ndarray:
    if len(basis) != dim:
        raise BasisError(f"{len(basis)} basis vectors cannot span dimension {dim}")
    mat = np.column_stack([b.amplitudes for b in basis])
    if mat.shape[0] != dim:
        raise BasisError("basis vectors live in the wrong dimension")
    overlap = mat.conj().T @ mat
    if np.max(np.abs(overlap - np.eye(dim))) > tol:
        raise BasisError("basis is not orthonormal within tolerance")
    return mat


def measure_subsystem(
    state: Ket,
    dims: tuple[int, int],
    subsystem: str,
    basis: Sequence[Ket],
    rng: SeededRng,
) -> tuple[int, Ket]:
    """Measure one factor of a bipartite pure state in an orthonormal basis.

    Returns the sampled outcome and the normalized conditional state of
    the untouched co-subsystem.
    """
    d_a, d_b = dims
    if state.dim != d_a * d_b:
        raise DimensionError(f"cannot factor dim {state.dim} as {d_a} x {d_b}")
    joint = state.amplitudes.reshape(d_a, d_b)
    if subsystem == "A":
        mat = _check_orthonormal(basis, d_a)
        conditionals = mat.conj().T @ joint  # row m: unnormalized co-state
    elif subsystem == "B":
        mat = _check_orthonormal(basis, d_b)
        conditionals = (joint @ mat.conj()).T
    else:
        raise ValueError("subsystem must be 'A' or 'B'")
    probs = np.sum(np.abs(conditionals) ** 2, axis=1)
    probs /= probs.sum()
    outcome = rng.choice(probs)
    return outcome, Ket.normalized(conditionals[outcome])


def trace_distance(rho: HermitianOperator, sigma: HermitianOperator) -> float:
    """(1/2) sum |eig(rho - sigma)|: operational distinguishability."""
    if rho.dim != sigma.dim:
        raise DimensionError("trace distance needs equal dimensions")
    diff = HermitianOperator.from_matrix(rho.entries - sigma.entries)
    return float(0.5 * np.sum(np.abs(hermitian_eigenvalues(diff))))
