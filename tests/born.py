"""Born-rule building blocks that only the tests use.

Standard normals drawn on a library stream (``normals``), random states
and unitaries built from them for instance generation, computational basis
kets, kets stacked into the library's ``(N, d)`` state arrays, config
amplitude pairs, Hermitian operators with their spectra, Gram matrices,
the rank count and trace distances, explicit tensor products and partial
traces, a full-system Born measurement, a joint clone ket (``JointKet``)
and its verification by sequential collapse (``joint_verify``, and
``CollapseTree``, a memoized replay of it), and the illegal cloner's
output materialized as one joint ket.
The library computes laws in closed form on state arrays; these are the
explicit constructions it is checked against.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from pqclone import qcore
from pqclone.errors import ConfigError
from pqclone.pqcm import IllegalClonerSpec
from pqclone.qcore import (
    MAX_DIM,
    RANK_TOL,
    Ensemble,
    Ket,
    SeededRng,
    _check_orthonormal,
    _frozen,
    normalize,
    state_set,
)
from pqclone.signalling import PHI, group_sizes

HERM_TOL = 1e-10


def basis_ket(dim: int, index: int) -> Ket:
    """The computational basis state |index> of dimension ``dim``."""
    if not 0 <= index < dim:
        raise ConfigError(f"basis index {index} outside dimension {dim}")
    arr = np.zeros(dim, dtype=np.complex128)
    arr[index] = 1.0
    return Ket(arr)


def state_rows(kets: Sequence[Ket]) -> np.ndarray:
    """Kets as one state set: an (N, d) array, one state per row."""
    return np.array([k.amplitudes for k in kets])


def ket_to_pairs(state: Ket) -> list[list[float]]:
    """A ket's amplitudes as the [re, im] pairs of a run config."""
    return [[float(np.real(z)), float(np.imag(z))] for z in state.amplitudes]


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A dense complex Hermitian matrix."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError("operator entries must form a square matrix")
        if np.max(np.abs(arr - arr.conj().T)) > HERM_TOL:
            raise ConfigError("matrix is not Hermitian within tolerance")
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


def inner_product(a: Ket, b: Ket) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise ConfigError(f"inner product of dims {a.dim} and {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def gram_matrix(states: Sequence[Ket]) -> HermitianOperator:
    """Matrix of pairwise inner products X[i,j] = <i|j>; Hermitian PSD."""
    mat = state_set([s.amplitudes for s in states], "Gram states").T  # as columns
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


def trace_distance(rho: HermitianOperator, sigma: HermitianOperator) -> float:
    """(1/2) sum |eig(rho - sigma)|: operational distinguishability."""
    if rho.dim != sigma.dim:
        raise ConfigError("trace distance needs equal dimensions")
    diff = HermitianOperator.from_matrix(rho.entries - sigma.entries)
    return float(0.5 * np.sum(np.abs(hermitian_eigenvalues(diff))))


def average_density(ensemble: Ensemble) -> HermitianOperator:
    """The ensemble-averaged density matrix sum_m p_m |m><m|."""
    rho = np.zeros((ensemble.dim, ensemble.dim), dtype=np.complex128)
    for state, prob in ensemble.members:
        v = state.amplitudes
        rho += prob * np.outer(v, v.conj())
    return HermitianOperator.from_matrix(rho)


def normals(rng: SeededRng, n: int) -> np.ndarray:
    """``n`` standard normals, the next draws of ``rng``'s stream.

    The stream lends the shared generator under the library's lock, as its
    own draws do, so the numbers depend only on the stream's seed, id and
    draws so far.
    """
    with qcore._LOCK:
        return rng._lend().standard_normal(n)


def random_ket(dim: int, rng: SeededRng) -> Ket:
    """A ket with independent complex-normal amplitudes, normalized."""
    re = normals(rng, dim)
    im = normals(rng, dim)
    return Ket.normalized(re + 1j * im)


def haar_unitary(dim: int, rng: SeededRng) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (normals(rng, dim * dim) + 1j * normals(rng, dim * dim)).reshape(dim, dim)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases.conj()


def tensor(a: Ket, b: Ket) -> Ket:
    """Kronecker product; the left factor is the slow (row-major) index."""
    out_dim = a.dim * b.dim
    if out_dim > MAX_DIM:
        raise ConfigError(f"tensor dimension {out_dim} exceeds cap {MAX_DIM}")
    return Ket(np.kron(a.amplitudes, b.amplitudes))


def partial_trace(
    rho: HermitianOperator, dims: tuple[int, int], keep: str
) -> HermitianOperator:
    """Reduced density matrix of a bipartite operator.

    ``dims`` = (dA, dB) with rho.dim == dA * dB; ``keep`` selects the
    surviving subsystem, 'A' or 'B'. Trace is preserved.
    """
    d_a, d_b = dims
    if rho.dim != d_a * d_b:
        raise ConfigError(f"cannot factor dim {rho.dim} as {d_a} x {d_b}")
    tensor4 = rho.entries.reshape(d_a, d_b, d_a, d_b)
    if keep == "B":
        reduced = np.einsum("ijil->jl", tensor4)
    elif keep == "A":
        reduced = np.einsum("ijkj->ik", tensor4)
    else:
        raise ValueError("keep must be 'A' or 'B'")
    return HermitianOperator.from_matrix(reduced)


def born_measure(state: Ket, basis: Sequence[Ket], rng: SeededRng) -> tuple[int, Ket]:
    """Projective measurement of a full system in an orthonormal basis.

    Returns the sampled outcome index and the post-measurement state
    (the basis vector itself). Outcome k occurs with probability
    |<basis_k|state>|^2.
    """
    mat = np.column_stack([b.amplitudes for b in basis])
    _check_orthonormal(mat, state.dim)
    amps = mat.conj().T @ state.amplitudes
    probs = np.abs(amps) ** 2
    probs /= probs.sum()
    outcome = rng.choice(probs)
    return outcome, basis[outcome]


@dataclass(frozen=True, eq=False)
class JointKet:
    """One joint ket over ``copies`` clone factors of dimension ``clone_dim``,
    behind an untouched leading register of dimension ``lead_dim``; the
    amplitudes are read-only and the leading register is the slowest index.
    """

    state: np.ndarray
    copies: int
    clone_dim: int
    lead_dim: int = 1

    def __post_init__(self):
        state = _frozen(self.state)
        if state.shape != (self.lead_dim * self.clone_dim**self.copies,):
            raise ConfigError(
                f"joint shape {state.shape} != {self.lead_dim} * "
                f"{self.clone_dim}**{self.copies}"
            )
        object.__setattr__(self, "state", state)


def _project(joint: JointKet, vec: np.ndarray, clone_idx: int, onto: np.ndarray):
    """(success probability, block, amp) of projecting clone ``clone_idx`` of
    ``vec`` onto ``onto``: ``block`` is ``vec`` with that factor as its middle
    axis and ``amp`` the factor's overlap with ``onto``."""
    pre = joint.lead_dim * joint.clone_dim**clone_idx
    post = joint.clone_dim ** (joint.copies - clone_idx - 1)
    block = vec.reshape(pre, joint.clone_dim, post)
    amp = np.einsum("d,pdq->pq", onto.conj(), block)
    return min(float(np.real(np.vdot(amp, amp))), 1.0), block, amp


def _collapse(vec, block, amp, onto, success: bool) -> np.ndarray:
    """``vec`` after a clone test with this outcome, renormalized."""
    if success:
        collapsed = np.einsum("d,pq->pdq", onto, amp).reshape(-1)
    else:
        collapsed = (block - np.einsum("d,pq->pdq", onto, amp)).reshape(-1)
    norm = np.linalg.norm(collapsed)
    if norm < 1e-15:
        # a zero branch is reachable only through roundoff at p in {0, 1}
        return vec
    return collapsed / norm


def _verdict(outcomes, sizes) -> int:
    """Column l (1-based) when group l alone is all-success, else PHI."""
    winners = []
    start = 0
    for l, size in enumerate(sizes):
        if all(outcomes[start : start + size]):
            winners.append(l)
        start += size
    return winners[0] + 1 if len(winners) == 1 else PHI


def _targets(candidates: np.ndarray, sizes) -> list:
    """The candidate each clone is projected onto, in clone order."""
    return [c for c, size in zip(candidates, sizes) for _ in range(size)]


def joint_verify(joint: JointKet, candidates: np.ndarray, rng: SeededRng) -> int:
    """``signalling.group_verify``'s rule on one joint ket, by sequential collapse.

    Clone i of the mu = ``joint.copies`` clones is tested against the
    candidate of its group (``group_sizes``) with one ``rng.random()`` draw,
    in clone order, and the ket collapses onto the outcome before the next
    test.
    """
    sizes = group_sizes(joint.copies, len(candidates))
    vec = joint.state
    outcomes = []
    for clone_idx, onto in enumerate(_targets(candidates, sizes)):
        p_succ, block, amp = _project(joint, vec, clone_idx, onto)
        success = rng.random() < p_succ
        vec = _collapse(vec, block, amp, onto, success)
        outcomes.append(success)
    return _verdict(outcomes, sizes)


def materialize_illegal_output(
    spec: IllegalClonerSpec, input_label: int, all_states: np.ndarray
) -> tuple[JointKet, np.ndarray]:
    """Build the output decomposition as one explicit joint ket.

    Branches are kept exactly decoherent: each clonable branch lives
    behind its own orthogonal flag level, every clone factor gains one
    extra level reserved for junk, and the junk branch puts all clones in
    that level so each projective test fails with certainty. Measuring
    the result clone by clone therefore reproduces the branch-sampling
    statistics. ``all_states`` holds the preparation of label k as row
    k-1. Returns the joint ket plus the candidate states embedded into
    the enlarged clone space, one per row.
    """
    if len(all_states) != spec.total_labels:
        raise ConfigError(
            f"expected {spec.total_labels} preparation states, got {len(all_states)}"
        )
    if not 1 <= input_label <= spec.total_labels:
        raise ConfigError(f"label {input_label} outside 1..{spec.total_labels}")
    candidates = all_states[np.array(spec.clonable_labels) - 1]
    n = candidates.shape[1]
    k = len(candidates)
    clone_dim = n + 1
    lead_dim = k + 1
    total_dim = lead_dim * clone_dim**spec.copies
    if total_dim > MAX_DIM:
        raise ConfigError(
            f"materialized dimension {total_dim} exceeds cap {MAX_DIM}"
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

    embedded = np.zeros((k, clone_dim), dtype=np.complex128)
    embedded[:, :n] = candidates
    junk_level = np.zeros(clone_dim, dtype=np.complex128)
    junk_level[n] = 1.0

    vec = np.zeros(total_dim, dtype=np.complex128)
    block = clone_dim**spec.copies
    for flag in range(lead_dim):
        if amps[flag] == 0:
            continue
        factor = embedded[flag] if flag < k else junk_level
        product = factor
        for _ in range(spec.copies - 1):
            product = np.kron(product, factor)
        vec[flag * block : (flag + 1) * block] = amps[flag] * product

    return JointKet(normalize(vec), spec.copies, clone_dim, lead_dim), embedded


class CollapseTree:
    """``joint_verify`` on one joint ket, memoized per outcome prefix.

    ``joint_verify`` tests clone after clone, one ``rng.random()`` draw
    each, and collapses the ket after every test. The next test's success
    probability depends only on the outcomes so far, so a run of mu clones
    has at most 2^mu prefixes. Each prefix's projection and collapsed ket
    are computed once, by the same ``_project`` and ``_collapse``, so
    ``verdict`` reaches the same column as ``joint_verify`` from the same
    stream.
    """

    def __init__(self, joint: JointKet, candidates: np.ndarray):
        self.joint = joint
        self.sizes = group_sizes(joint.copies, len(candidates))
        self.onto = _targets(candidates, self.sizes)
        self.kets = {(): joint.state}  # prefix -> collapsed ket
        self.tests = {}  # prefix -> _project of the next clone test

    def _test(self, prefix: tuple) -> tuple:
        if prefix not in self.tests:
            idx = len(prefix)
            self.tests[prefix] = _project(
                self.joint, self.kets[prefix], idx, self.onto[idx]
            )
        return self.tests[prefix]

    def verdict(self, rng: SeededRng) -> int:
        """The column ``joint_verify`` returns for this ket and stream."""
        prefix = ()
        for u in rng.uniforms(self.joint.copies):
            p_succ, block, amp = self._test(prefix)
            child = prefix + (bool(u < p_succ),)
            if child not in self.kets:
                self.kets[child] = _collapse(
                    self.kets[prefix], block, amp, self.onto[len(prefix)], child[-1]
                )
            prefix = child
        return _verdict(prefix, self.sizes)
