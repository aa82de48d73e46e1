"""Malformed arguments to the exported constructors and entry points.

Each test draws arguments from a fixed list of bad and good values, with a
derandomized search, and asserts that a call either returns or raises a
``PqcloneError``: no raw ``TypeError``, ``ValueError`` or ``AttributeError``
escapes, and (under the tier-1 filter) no ``RuntimeWarning`` either. Counts
that are valid but too large for memory are not drawn.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqclone import (
    AliceBasis,
    FactoredSet,
    IllegalClonerSpec,
    PqcloneError,
    PqcmMachine,
    SeededRng,
    column_law,
    feasibility_matrix,
)
from pqclone import config as config_mod

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FUZZ = settings(deadline=None, max_examples=150, derandomize=True)

NAN2 = np.full((2, 2), np.nan)
# scalars and containers that no argument takes, mixed with a few that some do
JUNK = [
    None, True, "x", "", "3", 2.5, -1, 0, 1, 2, 3, 2**70, float("nan"),
    float("inf"), [], {}, [1], (1, 2, 3), [[1.0]], np.int64(3), object(),
]
STATES = [
    np.eye(2), [[1, 0], [0, 1]], [[1.0, 0.0], [0.6, 0.8]], np.eye(3), NAN2,
    np.diag([np.inf, 1.0]), 2 * np.eye(2), [[1, 0], [1]], [["a", "b"], ["c", "d"]],
    np.ones((2, 2)), np.zeros((0, 2)), np.ones((2, 2, 2)), [[1, 0], [1, 0], [0, 1]],
]
COPIES = [2, 3, 6, 10**8, 2**30, 2**30 + 1, 2**62]
GAMMAS = [
    [0.5, 0.5], (0.1, 0.2), [0.5], [0.5, 0.5, 0.5], ["a", "b"], [True, 0.5],
    [float("nan"), 0.5], [1.5, 0.5], [-0.1, 0.5], np.array([0.3, 0.3]), "ab",
]


def returns_or_raises_pqclone_error(call) -> None:
    try:
        call()
    except PqcloneError:
        pass


@pytest.fixture(scope="module")
def demo_protocols():
    protocols = []
    for name in ("illegal_n2.json", "legal_n2.json"):
        run = config_mod.RunConfig.load(CONFIGS / name)
        protocols.append(config_mod.build_protocol(run, CONFIGS))
    return protocols


class TestApiFuzz:
    @FUZZ
    @example(labels=None, copies=4, total=4, coefficients=None)
    @example(labels=(1, 2, 3), copies=4, total=4, coefficients=[1])
    @example(labels=(1, 2, 3), copies=4, total=4, coefficients={4: 5})
    @example(labels=(1, 2, 3), copies=4, total=4, coefficients={4: ("abc", 0)})
    @given(
        labels=st.sampled_from(JUNK + [(1, 2, 3), [3, 1, 2], (1, 1, 2), (0, 1, 2)]),
        copies=st.sampled_from(JUNK),
        total=st.sampled_from(JUNK + [4, 6]),
        coefficients=st.sampled_from(
            JUNK + [
                {4: (np.zeros(3), 1.0)}, {4: ([np.nan, 0, 0], 0)}, {4: ([1, 0], 0)},
                {4: ([[1], [1, 2]], 0)}, {4: (np.zeros(3), True)}, {4: (np.zeros(3),)},
                {2.5: (np.zeros(3), 1.0)}, {"4": (np.zeros(3), 1.0)}, {4: [np.zeros(3), 1j]},
            ]
        ),
    )
    def test_illegal_cloner_spec(self, labels, copies, total, coefficients):
        returns_or_raises_pqclone_error(
            lambda: IllegalClonerSpec(labels, copies, total, coefficients)
        )

    @FUZZ
    @example(which=0, field="a2_basis", value=None)
    @given(
        which=st.integers(0, 1),
        field=st.sampled_from(
            ["bob_states", "a2_basis", "trials", "pairs_per_bit", "machine", "seed"]
        ),
        value=st.sampled_from(
            JUNK + STATES + [AliceBasis.fourier(3), AliceBasis.fourier(2), 2**62, 2**64]
        ),
    )
    def test_protocol_config(self, demo_protocols, which, field, value):
        def build():
            config = dataclasses.replace(demo_protocols[which], **{field: value})
            column_law(config)

        returns_or_raises_pqclone_error(build)

    @FUZZ
    @example(states=[[1.0, 0.0], [0.6, 0.8]], m=2.5, gammas=[0.5, 0.5])
    @example(states=[[1.0, 0.0], [0.6, 0.8]], m="3", gammas=[0.5, 0.5])
    @example(states=[[1.0, 0.0], [0.6, 0.8]], m=2**30, gammas=[0.5, 0.5])
    @example(states=[[1.0, 0.0], [0.6, 0.8]], m=10**8, gammas=np.array([0.3, 0.3]))
    @given(
        states=st.sampled_from(JUNK + STATES),
        m=st.sampled_from(JUNK + COPIES),
        gammas=st.sampled_from(JUNK + GAMMAS),
    )
    def test_factored_set(self, states, m, gammas):
        def factor_and_read():
            legal = FactoredSet(states, m)
            legal.gamma_max
            legal.gram_verdict(gammas)
            PqcmMachine(legal, gammas)

        returns_or_raises_pqclone_error(factor_and_read)

    @FUZZ
    @example(states=[[1.0, 0.0], [0.6, 0.8]], m=3, gammas=None)
    @example(states=[[1.0, 0.0], [0.6, 0.8]], m=3, gammas=["a", "b"])
    @given(
        states=st.sampled_from(JUNK + STATES),
        m=st.sampled_from(JUNK + COPIES),
        gammas=st.sampled_from(JUNK + GAMMAS),
    )
    def test_feasibility_matrix(self, states, m, gammas):
        returns_or_raises_pqclone_error(lambda: feasibility_matrix(states, m, gammas))

    @FUZZ
    @example(matrix="x")
    @example(matrix=NAN2)
    @given(
        matrix=st.sampled_from(JUNK + STATES + [np.ones((2, 3)), [[1, 0], [0, 1j]]]),
    )
    def test_alice_basis(self, matrix):
        returns_or_raises_pqclone_error(lambda: AliceBasis(matrix))

    @FUZZ
    @example(seed=1, n=-1, probabilities=[0.5, 0.5], size=None)
    @example(seed=1, n=1.5, probabilities=[0.5, 0.5], size=None)
    @given(
        seed=st.sampled_from(JUNK + [2**64 - 1, 2**64]),
        n=st.sampled_from(JUNK),
        probabilities=st.sampled_from(
            JUNK + [[0.5, 0.5], [np.nan, 1.0], [-1.0, 2.0], [1e308, 1e308], "ab",
                    [[0.5, 0.5]], [0.0, 0.0], [np.inf, 1.0]]
        ),
        size=st.sampled_from([None, -1, 0, 2, 2.5, True, "2", 2**70]),
    )
    def test_seeded_rng(self, seed, n, probabilities, size):
        def draw():
            rng = SeededRng(seed)
            rng.uniforms(n)
            rng.multinomial(n, probabilities, size)

        returns_or_raises_pqclone_error(draw)
