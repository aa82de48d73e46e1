"""Smoke test of the signal-test benchmark against the current sources.

The benchmark wraps module attributes of pqclone (``signalling.SeededRng``,
``signalling.alice_measure``, ``config.build_protocol``, ...) and checks
every invocation's output. A short traced run per workload keeps those
attributes and checks working as the library changes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["illegal_n2", "legal_n2", "legal_n3_wide"])
def test_short_traced_run_is_correct(workload):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.3", "--trace", "1"],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] > 0
