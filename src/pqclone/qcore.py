"""Complex linear algebra and quantum primitives.

A state set is one read-only complex ``(N, d)`` array with one state per
row, and a basis is a unitary matrix with the vectors as columns; ``Ket``
and ``Ensemble`` serve only the per-pair Born-rule reference. Everything is
immutable after construction and safe to share across threads; randomness
is isolated in single-owner ``SeededRng`` instances. Each is a Philox
stream keyed directly by (seed, stream_id), with no OS-entropy draw. The
streams share the process's one Philox generator, lent to one stream at a
time under one lock: Philox is counter-based, so re-keying it to (seed,
stream_id) at counter 0 gives the draws a newly built one would.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigError, RankError

NORM_TOL = 1e-10
PSD_TOL = 5e-10  # a discard probability down to -PSD_TOL reads as 0 (pqcm)
RANK_TOL = 1e-9
MAX_DIM = 2**24


def _frozen(values, dtype=np.complex128) -> np.ndarray:
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def require_int(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is an ``int`` (a ``bool`` is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def require_count(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is an ``int`` in [0, 2**62], a
    count that numpy's int64 draws take."""
    require_int(name, value)
    if not 0 <= value <= 2**62:
        raise ConfigError(f"{name} must lie in [0, 2**62], got {value}")


def _self_dots(x: np.ndarray):
    """The dot product of ``x``, or of each row of a stack, with itself:
    one BLAS dot per row, as ``np.linalg.norm`` computes for one vector, so
    a row of a stack normalizes to the same bits as that row alone."""
    if x.ndim < 2:
        return x.dot(x)
    return (x[..., None, :] @ x[..., None])[..., 0, 0]


def normalize(values) -> np.ndarray:
    """``values`` as a unit complex vector, or a stack of them, one per row.

    Raises on a (near-)zero or infinite norm, naming the first such row's fault.
    """
    arr = np.asarray(values, dtype=np.complex128)
    with np.errstate(over="ignore"):
        norms = np.sqrt(_self_dots(arr.real) + _self_dots(arr.imag))
    for norm in norms.ravel().tolist():
        if not math.isfinite(norm):
            raise ConfigError("state norm is not finite")
        if norm < 1e-12:
            raise ConfigError("state has zero norm")
    return arr / (norms[..., None] if arr.ndim > 1 else norms)


def state_set(states, what: str) -> np.ndarray:
    """A state set as a new read-only, C-ordered complex ``(N, d)`` array,
    one state per row, so its owner holds a copy no later write reaches.
    Raises ConfigError, naming the set ``what``, unless every row has norm
    1 within ``NORM_TOL`` (NaN fails): the laws are stated for unit states.

    One ``_self_dots`` pass, the squared norms ``normalize`` reads, accepts
    the set when every row has |norm^2 - 1| <= ``NORM_TOL``, a margin that
    implies the norm rule; any other set is decided, and its message
    spelt, by each row's ``np.vdot`` norm.
    """
    try:
        arr = _frozen(states)
    except (TypeError, ValueError) as exc:  # say, ragged rows or None
        raise ConfigError(f"a state set must be an (N, d) array: {exc}") from None
    if arr.size == 0:
        raise ConfigError("a state set needs at least one nonempty state")
    if arr.ndim != 2:
        raise ConfigError(f"a state set is an (N, d) array, got shape {arr.shape}")
    with np.errstate(over="ignore"):
        squares = _self_dots(arr.view(np.float64))  # C order: re, im in turn
    if np.maximum.reduce(abs(squares - 1.0)) <= NORM_TOL:  # NaN fails
        return arr
    norms = [math.sqrt(np.vdot(state, state).real) for state in arr]
    if not all(abs(norm - 1.0) <= NORM_TOL for norm in norms):
        raise ConfigError(f"{what} must be unit vectors, got norms {norms}")
    return arr


def require_bob_dimensions(states) -> None:
    """Raise ConfigError unless ``states`` holds N >= 2 states, each of
    dimension N. An array's width is read from its shape; each state's
    length is read for any other input, so a ragged list gets the
    dimension message too."""
    try:
        n = len(states)
    except TypeError:
        raise ConfigError(
            f"Bob states must be a list of states, got {states!r}"
        ) from None
    if n < 2:
        raise ConfigError(f"need at least two Bob states, got {n}")
    if isinstance(states, np.ndarray) and states.ndim == 2:
        sizes = states.shape[1:]
    else:
        sizes = map(np.size, states)
    for size in sizes:
        if size != n:
            raise ConfigError(f"Bob states must have dimension {n}, got {size}")


def bob_state_set(states) -> np.ndarray:
    """Bob's N >= 2 unit states of dimension N as one ``state_set``; raises
    ConfigError otherwise, a dimension fault (``require_bob_dimensions``)
    before the stack."""
    require_bob_dimensions(states)
    return state_set(states, "Bob states")


@dataclass(frozen=True, eq=False)
class Ket:
    """A pure state: a dense complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.amplitudes)
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigError("a ket must be a nonempty 1-D amplitude vector")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, values) -> "Ket":
        """Construct a unit-norm ket; raises on (near-)zero or non-finite input."""
        return cls(normalize(values))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A weighted list of kets sharing one dimension."""

    members: tuple  # of (Ket, float)

    def __post_init__(self):
        members = tuple((k, float(p)) for k, p in self.members)
        if not members:
            raise ConfigError("an ensemble needs at least one member")
        dims = {k.dim for k, _ in members}
        if len(dims) != 1:
            raise ConfigError("ensemble members must share one dimension")
        total = sum(p for _, p in members)
        if abs(total - 1.0) > 1e-10:
            raise ConfigError(f"ensemble probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members[0][0].dim


# The process's one generator, lent to one stream at a time and built once,
# here. Its seed is never drawn from: SeedSequence(0) reads no OS entropy,
# and every stream re-keys the generator before its first draw, by writing
# its key into _COUNTER_0, the state a newly built Philox(key=...) starts
# from, and assigning that state; Python ints carry the whole uint64 key
# range into the state setter.
_PHILOX = Philox(0)
_GENERATOR = Generator(_PHILOX)
_COUNTER_0 = {
    "bit_generator": "Philox",
    "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
    "buffer": [0, 0, 0, 0],
    "buffer_pos": 4,  # an empty buffer
    "has_uint32": 0,
    "uinteger": 0,
}
_KEY = _COUNTER_0["state"]["key"]
# Held across each handover and the draw after it, so a stream never draws
# from another stream's position, whatever thread either runs in.
_LOCK = threading.Lock()


def _nobody() -> None:
    return None


# The stream that holds the generator, by weak reference: one that is gone
# needs no position saved. A stream that does not hold it draws from the
# position it saved, if any, and one that holds it from the generator.
_holder = _nobody


def _rekey(seed: int, stream_id: int) -> None:
    """Put the shared generator at key (seed, stream_id), counter 0."""
    _KEY[0] = seed
    _KEY[1] = stream_id
    _PHILOX.state = _COUNTER_0


@dataclass(frozen=True, eq=False)
class SeededRng:
    """Counter-based random stream keyed by (seed, stream_id).

    Identical keys give identical draw sequences regardless of platform,
    thread count, or construction order, within one numpy version: numpy
    does not promise stable distribution streams across versions (NEP 19).
    The stream draws what ``Generator(Philox(key=[seed, stream_id]))``
    draws, keyed directly with no OS-entropy draw, but builds no generator:
    every stream borrows the process's one Philox generator. A stream that
    draws re-keys it to its own key at counter 0 on its first draw, or
    restores the position it saved, and keeps it until another stream
    draws. A live stream that loses it saves ``bit_generator.state``; a
    stream that is gone saves nothing. With numpy 2.4.6 on a 2-core VM a
    re-key takes ~0.7 µs, where building a generator took ~4.4 µs. One lock
    covers each handover and the draw after it, so streams may draw from
    several threads, and ``copy.deepcopy`` (or ``pickle``) keeps a stream's
    position. One instance per stream; never shared.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        # a key outside uint64, or not an int, would wrap, truncate or
        # round into another seed's stream
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            require_int(f"stream {name}", value)
            if not 0 <= value < 2**64:
                raise ConfigError(f"stream {name} must lie in [0, 2**64), got {value}")

    def _lend(self) -> Generator:
        """The shared generator at this stream's position. Call it with
        ``_LOCK`` held, and hold that until the draw is done."""
        global _holder
        if _holder() is not self:
            # in this order, an interrupt between any two steps leaves every
            # stream's position where it will look for it
            previous = _holder()
            if previous is not None:
                object.__setattr__(previous, "_position", _PHILOX.state)
            _holder = _nobody
            position = self.__dict__.get("_position")
            if position is None:
                _rekey(self.seed, self.stream_id)
            else:
                _PHILOX.state = position
            _holder = weakref.ref(self)
        return _GENERATOR

    def __getstate__(self) -> dict:
        # while this stream holds the generator, its position lives there
        with _LOCK:
            state = dict(self.__dict__)
            if _holder() is self:
                state["_position"] = _PHILOX.state
        return state

    def random(self) -> float:
        with _LOCK:
            return float(self._lend().random())

    def uniforms(self, n: int) -> np.ndarray:
        require_count("uniform count", n)
        with _LOCK:
            return self._lend().random(n)

    def choice(self, probabilities: np.ndarray) -> int:
        """Sample an index from a probability vector with one uniform draw."""
        edges = np.cumsum(probabilities)
        # guard roundoff so a draw of ~1.0 cannot fall off the end
        edges[-1] = max(edges[-1], 1.0)
        with _LOCK:
            uniform = self._lend().random()
        return int(np.searchsorted(edges, uniform, side="right"))

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
        require_count("multinomial draw count", n)
        if size is not None:
            require_count("multinomial size", size)
        try:
            probabilities = np.asarray(probabilities, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(
                "multinomial probabilities must be nonnegative numbers"
            ) from None
        if probabilities.ndim != 1:
            raise ConfigError("multinomial probabilities must be one vector")
        # every nonzero cell must be positive: NaN and negative cells fail
        support = probabilities.nonzero()[0]
        mass = probabilities[support]
        if not np.minimum.reduce(mass, initial=np.inf) > 0:
            raise ConfigError("multinomial probabilities must be nonnegative numbers")
        # scaling by a power of two is exact, so the renormalized cells are
        # unchanged; one at least the cell count keeps a finite vector's sum
        # (and every partial sum) within float range
        mass *= 0.5 ** (mass.size - 1).bit_length()
        total = np.add.reduce(mass)
        if not 0 < total < np.inf:
            raise ConfigError(
                f"multinomial probabilities must have finite positive mass, got {total}"
            )
        shape = probabilities.shape if size is None else (size,) + probabilities.shape
        counts = np.zeros(shape, dtype=np.int64)
        with _LOCK:
            counts[..., support] = self._lend().multinomial(n, mass / total, size)
        return counts


# ---------------------------------------------------------------------------
# elementary operations


def tensor_power(state: np.ndarray, m: int) -> np.ndarray:
    """|state>^(x m) of a 1-D array; the leftmost factor is the slow index."""
    if m < 1:
        raise ConfigError("tensor power needs m >= 1")
    dim = state.size
    # any dim >= 2 passes the cap by exponent 25, so no huge power is formed
    if dim ** min(m, MAX_DIM.bit_length()) > MAX_DIM:
        raise ConfigError(f"tensor dimension {dim}**{m} exceeds cap {MAX_DIM}")
    out = state
    for _ in range(m - 1):
        out = np.multiply.outer(out, state)
    return out.reshape(-1)


def independent_svd(b_mat: np.ndarray) -> tuple:
    """The thin SVD ``(U, s, V*)`` of B, once its columns pass the rank rule.

    The rank rule: B has no more columns than rows, and its smallest squared
    singular value lies above ``RANK_TOL`` times its largest. The squared
    singular values are the eigenvalues of the Gram matrix X = B*B, so the
    rule accepts only sets with cond(B) < RANK_TOL^(-1/2), about 3.2e4. A thin
    SVD has only min(d, N) singular values, so a set of more states than
    dimensions is refused before it. Raises RankError, naming the measured
    Gram eigenvalue ratio, otherwise.
    """
    dim, n_states = b_mat.shape
    ratio = 0.0  # N > d: dependent whatever the d singular values say
    if not np.logical_and.reduce(np.isfinite(b_mat), axis=None):
        ratio = float("nan")
    elif n_states <= dim:
        svd = np.linalg.svd(b_mat, full_matrices=False)
        singulars = svd[1]
        ratio = float(singulars[-1] / singulars[0]) ** 2 if singulars[0] > 0 else 0.0
        if ratio > RANK_TOL:
            return svd
    raise RankError(
        f"{n_states} states of dimension {dim} are dependent under the rank "
        f"rule: Gram eigenvalue ratio {ratio:.2e} is not above RANK_TOL {RANK_TOL:.0e}"
    )


def is_psd(matrix: np.ndarray, tol: float = PSD_TOL) -> bool:
    """True when the smallest eigenvalue of a Hermitian matrix is >= -tol."""
    return bool(np.linalg.eigvalsh(matrix)[0] >= -tol)


def _check_orthonormal(basis: np.ndarray, dim: int, tol: float = 1e-9) -> None:
    """Raise ConfigError unless ``basis`` is dim x dim with orthonormal columns."""
    if basis.shape[1] != dim:
        raise ConfigError(f"{basis.shape[1]} basis vectors cannot span dimension {dim}")
    if basis.shape[0] != dim:
        raise ConfigError("basis vectors live in the wrong dimension")
    with np.errstate(invalid="ignore", over="ignore"):  # inf entries
        overlap = basis.conj().T @ basis
    if not np.max(np.abs(overlap - np.eye(dim))) <= tol:  # NaN fails too
        raise ConfigError("basis is not orthonormal within tolerance")


def measure_subsystem(
    state: Ket,
    dims: tuple[int, int],
    subsystem: str,
    basis: np.ndarray,
    rng: SeededRng,
) -> tuple[int, Ket]:
    """Measure one factor of a bipartite pure state in an orthonormal basis.

    ``basis`` holds the basis vectors as columns. Returns the sampled
    outcome and the normalized conditional state of the untouched
    co-subsystem.
    """
    d_a, d_b = dims
    if state.dim != d_a * d_b:
        raise ConfigError(f"cannot factor dim {state.dim} as {d_a} x {d_b}")
    joint = state.amplitudes.reshape(d_a, d_b)
    if subsystem == "A":
        _check_orthonormal(basis, d_a)
        conditionals = basis.conj().T @ joint  # row m: unnormalized co-state
    elif subsystem == "B":
        _check_orthonormal(basis, d_b)
        conditionals = (joint @ basis.conj()).T
    else:
        raise ConfigError("subsystem must be 'A' or 'B'")
    probs = np.sum(np.abs(conditionals) ** 2, axis=1)
    probs /= probs.sum()
    outcome = rng.choice(probs)
    return outcome, Ket.normalized(conditionals[outcome])
