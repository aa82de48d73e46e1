"""Output checks for one ``signal-test`` invocation.

Every check holds for every seed: the structural ones are exact, and the
statistical ones use a 5-sigma band, so a false alarm has probability of
order 1e-6 per comparison. ``check_output`` returns the list of problems
found; an empty list means the invocation's output is correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CERTIFICATE_LIMIT = 1e-12
CHANNEL_ACCURACY_MIN = 0.9
Z_LIMIT = 5.0


@dataclass(frozen=True)
class Expectation:
    """What a workload's output must satisfy."""

    n: int  # number of Bob states N
    trials: int  # pairs per setting
    legal: bool  # legal Kraus machine (else the illegal cloner)
    # exact discard rate per setting, 1 - sum_m p_m ||A psi_m||^2 (legal only)
    discard_ref: tuple[float, float] | None = None


def _z(diff: float, sigma: float) -> float:
    if sigma > 0:
        return abs(diff) / sigma
    return 0.0 if diff == 0 else math.inf


def check_output(tally: dict, stats: dict, expect: Expectation) -> list[str]:
    """Problems found in one invocation's parsed ``tally`` and ``stats``."""
    try:
        return _check(tally, stats, expect)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _check(tally: dict, stats: dict, expect: Expectation) -> list[str]:
    n, trials = expect.n, expect.trials
    header = ["input"] + [f"B{j}" for j in range(1, n + 2)] + ["phi"]
    if tally["columns"] != header:
        return [f"tally columns {tally['columns']} != {header}"]
    counts = [[int(c) for c in row[1:]] for row in tally["rows"]]
    if len(counts) != 2 * n or any(len(row) != n + 2 for row in counts):
        return [f"tally shape does not match N={n}"]
    if stats["trials_per_setting"] != trials:
        return [f"trials_per_setting {stats['trials_per_setting']} != {trials}"]

    problems = []
    classified, discards = [], []
    for setting in (0, 1):
        key = f"a{setting + 1}"
        done = int(stats[f"classified_{key}"])
        dropped = round(float(stats[f"discard_rate_{key}"]) * trials)
        rows = counts[setting * n : (setting + 1) * n]
        if done + dropped != trials:
            problems.append(
                f"A{setting + 1}: classified {done} + discards {dropped} != {trials}"
            )
        if sum(map(sum, rows)) != done:
            problems.append(f"A{setting + 1}: tally rows do not sum to classified")
        classified.append(done)
        discards.append(dropped)

    certificate = float(stats["no_signal_certificate"])
    if not certificate <= CERTIFICATE_LIMIT:
        problems.append(f"no_signal_certificate {certificate!r} > {CERTIFICATE_LIMIT}")

    extra = n  # 0-based index of column B_{N+1}
    a1_rows, a2_rows = counts[:n], counts[n:]
    if any(row[extra] for row in (counts if expect.legal else a1_rows)):
        rows = "a row" if expect.legal else "an A1 row"
        problems.append(f"column B{n + 1} is populated in {rows}")

    if not expect.legal:
        if sum(row[extra] for row in a2_rows) == 0:
            problems.append(f"column B{n + 1} is empty in the A2 rows")
        accuracy = float(stats["channel_accuracy"])
        if not accuracy >= CHANNEL_ACCURACY_MIN:
            problems.append(f"channel_accuracy {accuracy!r} < {CHANNEL_ACCURACY_MIN}")
        return problems

    # legal machines: Bob's column law must not depend on Alice's basis
    n1, n2 = classified
    for j, label in enumerate(header[1:]):
        c1 = sum(row[j] for row in a1_rows)
        c2 = sum(row[j] for row in a2_rows)
        pooled = (c1 + c2) / (n1 + n2)
        sigma = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
        z = _z(c1 / n1 - c2 / n2, sigma)
        if z > Z_LIMIT:
            problems.append(f"column {label}: A1 vs A2 differ by {z:.1f} sigma")

    for setting, (dropped, exact) in enumerate(zip(discards, expect.discard_ref)):
        sigma = math.sqrt(exact * (1.0 - exact) / trials)
        z = _z(dropped / trials - exact, sigma)
        if z > Z_LIMIT:
            problems.append(
                f"A{setting + 1}: discard rate {dropped / trials!r} is {z:.1f} sigma "
                f"from the exact {exact!r}"
            )
    return problems
