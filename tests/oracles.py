"""Independent reference computations used to cross-check the library.

Everything here is deliberately implemented from scratch against the
underlying definitions (characteristic polynomials, bisection on a
hand-built matrix, independent-Bernoulli group statistics, pair-by-pair
Born-rule trajectories) so that a test never validates code against itself.
"""

import numpy as np

from pqclone import signalling
from pqclone.pqcm import CloneOutput, IllegalClonerSpec
from pqclone.qcore import SeededRng


def char_poly_coefficients(matrix: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via Faddeev-LeVerrier.

    Returns [1, c1, ..., cn] with p(x) = x^n + c1 x^(n-1) + ... + cn,
    computed from traces of powers only (no eigensolver involved).
    """
    a = np.asarray(matrix, dtype=np.complex128)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def char_poly_roots(matrix: np.ndarray) -> np.ndarray:
    """Sorted real parts of the characteristic-polynomial roots."""
    roots = np.roots(char_poly_coefficients(matrix))
    return np.sort(roots.real)


def two_state_feasibility_min_eig(s: float, m: int, gamma: float) -> float:
    """Smallest eigenvalue of the 2x2 cloning feasibility matrix, built by hand."""
    off = s - gamma * s**m
    matrix = np.array([[1.0 - gamma, off], [off, 1.0 - gamma]])
    return float(np.linalg.eigvalsh(matrix)[0])


def two_state_gamma_by_bisection(s: float, m: int, tol: float = 1e-9) -> float:
    """Largest uniform gamma keeping the 2x2 matrix PSD, by direct bisection."""
    lo, hi = 0.0, 1.0
    if two_state_feasibility_min_eig(s, m, hi) >= -1e-12:
        return hi
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if two_state_feasibility_min_eig(s, m, mid) >= -1e-12:
            lo = mid
        else:
            hi = mid
    return lo


def two_state_gamma_closed_form(s: float, m: int) -> float:
    return (1.0 - s) / (1.0 - s**m)


def split_sizes(mu: int, n_groups: int) -> list:
    base, extra = divmod(mu, n_groups)
    return [base + 1] * extra + [base] * (n_groups - extra)


def exact_copy_column_distribution(
    single: np.ndarray, candidates: list, mu: int
) -> np.ndarray:
    """Exact column law for mu independent copies of one state.

    Group j succeeds as a whole with probability |<cand_j|state>|^(2 g_j),
    independently across groups, so column l needs group l to succeed and
    every other group to fail; the remainder is the junk column. Returns
    [P(col 1), ..., P(col K), P(junk)].
    """
    sizes = split_sizes(mu, len(candidates))
    group_p = np.array(
        [
            abs(np.vdot(c, single)) ** (2 * g)
            for c, g in zip(candidates, sizes)
        ]
    )
    cols = np.zeros(len(candidates) + 1)
    for l in range(len(candidates)):
        others = np.prod([1.0 - p for j, p in enumerate(group_p) if j != l])
        cols[l] = group_p[l] * others
    cols[-1] = 1.0 - cols[:-1].sum()
    return cols


def three_sigma_binomial(p: float, n: int) -> float:
    return 3.0 * np.sqrt(max(p * (1.0 - p), 1e-12) / n)


def two_sample_sigma(p1: float, n1: int, p2: float, n2: int) -> float:
    """Pooled standard error for the difference of two proportions."""
    pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
    return np.sqrt(max(pooled * (1.0 - pooled), 0.0) * (1.0 / n1 + 1.0 / n2))


def run_one_pair(config, ctx, setting: int, rng: SeededRng):
    """One shared pair: Alice measures, the cloner runs, Bob classifies.

    Returns (input row 0-based, column), column None when the cloner
    reported failure and the pair is discarded. Each stage samples the
    Born rule on explicit states, independently of ``column_law``.
    """
    outcome, bob_state = signalling.alice_measure(ctx.shared, ctx.bases[setting], rng)
    row = setting * config.n + outcome
    if isinstance(config.machine, IllegalClonerSpec):
        out = signalling.illegal_clone(config.machine, row + 1, ctx.all_states, rng)
    else:
        success, ket = signalling.apply_machine(config.machine, bob_state, rng)
        if not success:
            return row, None
        out = CloneOutput.joint_state(ket, config.mu, config.n)
    column = signalling.group_verify(out, ctx.candidates, config.mu, rng)
    return row, column


def trajectory_tally(config, setting: int, trials: int, seed: int) -> np.ndarray:
    """Counts of ``trials`` pair trajectories, laid out like one setting of
    ``column_law``: rows are Alice outcomes, cells are columns B_1..B_{N+1},
    then PHI, then discarded cloner failures.
    """
    ctx = signalling.prepare_context(config)
    n = config.n
    counts = np.zeros((n, n + 3), dtype=np.int64)
    for t in range(trials):
        rng = SeededRng(seed, 2 * t + setting)
        row, column = run_one_pair(config, ctx, setting, rng)
        if column is None:
            cell = n + 2
        elif column == signalling.PHI:
            cell = n + 1
        else:
            cell = column - 1
        counts[row - setting * n, cell] += 1
    return counts
