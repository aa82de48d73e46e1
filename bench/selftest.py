"""Self-tests for the benchmark's output checks.

    python3 bench/selftest.py

Exits 0 when a clean output passes and every injected defect is flagged.
``run.py`` runs the same tests before it measures anything.
"""

from __future__ import annotations

import copy
import sys

from checks import Expectation, check_output

ILLEGAL = Expectation(n=2, trials=100, legal=False)
LEGAL = Expectation(n=2, trials=1000, legal=True, discard_ref=(0.5, 0.5))


def _stats(trials: int, classified: tuple[int, int], **extra) -> dict:
    return {
        "trials_per_setting": trials,
        "classified_a1": classified[0],
        "classified_a2": classified[1],
        "discard_rate_a1": (trials - classified[0]) / trials,
        "discard_rate_a2": (trials - classified[1]) / trials,
        "no_signal_certificate": 1.1e-16,
        "channel_accuracy": 1.0,
        **extra,
    }


def _tally(rows: list[list[int]]) -> dict:
    return {
        "columns": ["input", "B1", "B2", "B3", "phi"],
        "rows": [[f"B{i + 1}"] + row for i, row in enumerate(rows)],
    }


def illegal_output() -> tuple[dict, dict]:
    """The illegal cloner's shape: A1 never reaches B3, A2's B3 input always does."""
    tally = _tally([[48, 0, 0, 0], [0, 52, 0, 0], [0, 0, 51, 0], [0, 0, 0, 49]])
    return tally, _stats(100, (100, 100))


def legal_output() -> tuple[dict, dict]:
    """A legal machine's shape: B3 empty, equal column law under A1 and A2."""
    tally = _tally(
        [[150, 0, 0, 100], [0, 150, 0, 100], [75, 75, 0, 100], [75, 75, 0, 100]]
    )
    return tally, _stats(1000, (500, 500))


def _cases():
    tally, stats = illegal_output()
    yield "clean illegal output passes", tally, stats, ILLEGAL, None

    bad = copy.deepcopy(tally)
    bad["rows"][0][1] -= 1  # move one B1 count of an A1 row into column B3
    bad["rows"][0][3] += 1
    yield "count in column N+1 of an A1 row", bad, stats, ILLEGAL, "column B3"

    bad = copy.deepcopy(tally)
    bad["rows"][2][3], bad["rows"][2][4] = 0, 51
    yield "empty column N+1 under A2", bad, stats, ILLEGAL, "column B3"

    yield "weak channel", tally, {**stats, "channel_accuracy": 0.85}, ILLEGAL, (
        "channel_accuracy"
    )

    tally, stats = legal_output()
    yield "clean legal output passes", tally, stats, LEGAL, None

    bad = copy.deepcopy(tally)
    for row in bad["rows"][2:]:  # shift A2 mass from column B1 to B2
        row[1], row[2] = 0, 150
    yield "shifted A2 column", bad, stats, LEGAL, "column B1: A1 vs A2"

    bad = copy.deepcopy(tally)
    bad["rows"][3][4] -= 1
    bad["rows"][3][3] += 1
    yield "legal count in column N+1", bad, stats, LEGAL, "column B3"

    yield "discard rate off the exact law", tally, stats, Expectation(
        n=2, trials=1000, legal=True, discard_ref=(0.4, 0.4)
    ), "exact"

    yield "accounting broken", tally, {**stats, "classified_a1": 499}, LEGAL, (
        "classified 499"
    )

    yield "certificate too large", tally, {
        **stats,
        "no_signal_certificate": 1e-9,
    }, LEGAL, "no_signal_certificate"

    yield "missing stats key", tally, {
        k: v for k, v in stats.items() if k != "classified_a2"
    }, LEGAL, "malformed"


def run_selftests() -> list[str]:
    """Descriptions of the self-tests that did not behave as expected."""
    failures = []
    for name, tally, stats, expect, flagged in _cases():
        problems = check_output(tally, stats, expect)
        if flagged is None and problems:
            failures.append(f"{name}: flagged {problems}")
        elif flagged is not None and not any(flagged in p for p in problems):
            failures.append(f"{name}: expected a problem mentioning {flagged!r}, got {problems}")
    return failures


if __name__ == "__main__":
    failures = run_selftests()
    for line in failures:
        print(f"FAIL {line}")
    print(f"{len(list(_cases())) - len(failures)} passed, {len(failures)} failed")
    sys.exit(1 if failures else 0)
