"""State files, config round-trips, CLI subcommands and exit codes."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path, PurePosixPath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqclone import cli, entangle, pqcm, qcore, signalling
from pqclone import config as config_mod
from pqclone.config import RunConfig, build_protocol, load_states, parse_states_text
from pqclone.errors import ConfigError
from pqclone.pqcm import IllegalClonerSpec, PqcmMachine
from pqclone.qcore import Ket, SeededRng

from born import ket_to_pairs, random_ket

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
# branch amplitudes of label 4, the one unclonable label of an N = 2 illegal cloner
COEFFICIENT = {"c": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0]], "d": [0.8, 0.0]}


class TestStatesFile:
    def test_parse_with_comments(self):
        text = "# demo\n2\n1 0 0 0  # ket zero\n0 0 1 0\n"
        states = parse_states_text(text)
        assert len(states) == 2
        np.testing.assert_allclose(states[0], [1, 0])

    def test_normalizes_entries(self):
        states = parse_states_text("2\n3 0 4 0\n")
        assert np.linalg.norm(states[0]) == pytest.approx(1.0, abs=1e-12)

    def test_states_are_one_array(self):
        # the parser's caller owns the array; the stages that keep it copy it
        states = parse_states_text("3\n1 0 0 0 0 0\n0 0 3 0 0 4\n")
        assert states.shape == (2, 3) and states.dtype == np.complex128
        np.testing.assert_allclose(states[1], [0, 0.6, 0.8j], rtol=0, atol=1e-15)

    def test_wrong_token_count_reports_line(self):
        with pytest.raises(ConfigError, match=":3:"):
            parse_states_text("2\n1 0 0 0\n1 0\n", source="demo.txt")

    def test_non_numeric_reports_line(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_states_text("2\n1 0 x 0\n")

    def test_zero_norm_rejected(self):
        with pytest.raises(ConfigError, match="zero norm"):
            parse_states_text("2\n0 0 0 0\n")

    def test_a_zero_state_exits_1_with_one_line_naming_its_line(self, tmp_path, capsys):
        path = tmp_path / "states.txt"
        path.write_text("2\n1 0 0 0\n0 0 0 0\n")
        assert cli.main(["feasibility", str(path), "-M", "2"]) == 1
        assert capsys.readouterr().err == f"error: {path}:3: state has zero norm\n"

    @pytest.mark.parametrize("later", ["1 0 x 0", "1 0 0", "0 0 0 0"])
    def test_first_faulty_line_is_reported(self, later):
        with pytest.raises(ConfigError, match=r"^s\.txt:3: state has zero norm$"):
            parse_states_text(f"2\n1 0 0 0\n0 0 0 0\n{later}\n", source="s.txt")

    def test_missing_dimension(self):
        with pytest.raises(ConfigError):
            parse_states_text("# only comments\n")

    def test_shipped_files_load(self):
        for name in (
            "states_orthogonal_n2.txt",
            "states_overlap_n2.txt",
            "states_legal_n2.txt",
        ):
            states = load_states(CONFIGS / name)
            assert len(states) == 2


def random_run_config(rng: SeededRng) -> RunConfig:
    n = 2
    machine: dict
    if rng.random() < 0.5:
        machine = {"kind": "illegal", "clonable_labels": [1, 2, 3]}
    else:
        machine = {"kind": "legal", "uniform_gamma": float(rng.random())}
    a2 = {"kind": "fourier"}
    if rng.random() < 0.3:
        a2 = {"kind": "target", "state": ket_to_pairs(random_ket(n, rng))}
    return RunConfig(
        mu=int(3 + rng.random() * 20),
        trials=int(1 + rng.random() * 1000),
        pairs_per_bit=int(1 + rng.random() * 50),
        seed=int(rng.random() * 2**31),
        machine=machine,
        a2=a2,
        bob_states=[ket_to_pairs(random_ket(n, rng)) for _ in range(n)],
        message_bits=int(1 + rng.random() * 100),
        format="csv" if rng.random() < 0.5 else "json",
        out="results/run",
    )


class TestRunConfig:
    def test_round_trip_identity(self):
        rng = SeededRng(500)
        for _ in range(25):
            cfg = random_run_config(rng)
            assert RunConfig.loads(cfg.dumps()) == cfg

    def test_requires_exactly_one_state_source(self):
        with pytest.raises(ConfigError):
            RunConfig(
                mu=4, trials=1, pairs_per_bit=1, seed=0,
                machine={"kind": "illegal"},
            )

    def test_largest_seed_accepted(self):
        data = json.loads((CONFIGS / "illegal_n2.json").read_text())
        assert RunConfig.from_dict({**data, "seed": 2**64 - 1}).seed == 2**64 - 1

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            RunConfig.loads('{"mu": 4, "bogus": 1}')

    def test_demo_configs_build(self):
        for name, machine_type in (
            ("illegal_n2.json", IllegalClonerSpec),
            ("legal_n2.json", PqcmMachine),
        ):
            run = RunConfig.load(CONFIGS / name)
            protocol = build_protocol(run, CONFIGS)
            assert isinstance(protocol.machine, machine_type)
            assert protocol.n == 2

    @pytest.mark.parametrize(
        "path", [CONFIGS / "illegal_n2.json", CONFIGS / "legal_n2.json",
                 REPO / "bench" / "legal_n3_wide.json"],
        ids=["illegal_n2", "legal_n2", "legal_n3_wide"],
    )
    def test_each_owner_keeps_its_own_copy(self, path):
        # the protocol and a legal machine's factored set each copy and gate
        # Bob's states, so no write to one reaches the other
        protocol = build_protocol(RunConfig.load(path), path.parent)
        owned = [protocol.bob_states]
        if isinstance(protocol.machine, PqcmMachine):
            owned.append(protocol.machine.clonable)
        for states in owned:
            assert not states.flags.writeable and states.flags.owndata
        assert not any(np.shares_memory(owned[0], other) for other in owned[1:])

    @pytest.mark.parametrize("kind", [str, Path])
    def test_paths_may_be_str_or_path(self, kind):
        run = RunConfig.load(kind(CONFIGS / "legal_n2.json"))
        assert run == RunConfig.loads((CONFIGS / "legal_n2.json").read_text())
        states = load_states(kind(CONFIGS / "states_legal_n2.txt"))
        protocol = build_protocol(run, kind(CONFIGS))
        np.testing.assert_array_equal(protocol.bob_states, states)

    def test_an_error_names_a_path_as_given(self, tmp_path):
        path = f"{tmp_path}/.//missing.txt"
        with pytest.raises(ConfigError) as err:
            load_states(path)
        assert str(err.value).startswith(f"cannot read states file {path}: ")

    def test_a2_vectors_give_the_law_of_the_basis_they_list(self):
        run = RunConfig.load(CONFIGS / "legal_n2.json")
        fourier = entangle.AliceBasis.fourier(2).matrix
        vectors = {"kind": "vectors", "vectors": [ket_to_pairs(Ket(a)) for a in fourier.T]}
        listed = build_protocol(dataclasses.replace(run, a2=vectors), CONFIGS)
        # the listed vectors are normalized again, which may move the last bit
        np.testing.assert_allclose(listed.a2_basis.matrix, fourier, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            listed.law, build_protocol(run, CONFIGS).law, rtol=0, atol=1e-15
        )

    def test_illegal_coefficients_read_from_a_config(self):
        run = RunConfig.load(CONFIGS / "illegal_n2.json")
        machine = {**run.machine, "coefficients": {"4": COEFFICIENT}}
        protocol = build_protocol(dataclasses.replace(run, machine=machine))
        spec = IllegalClonerSpec((1, 2, 3), 48, 4, {4: (np.array([0.6, 0, 0]), 0.8)})
        np.testing.assert_array_equal(
            protocol.machine.branch_weights, spec.branch_weights
        )

    def test_target_a2_round_trips_through_protocol(self):
        run = RunConfig(
            mu=4,
            trials=10,
            pairs_per_bit=1,
            seed=3,
            machine={"kind": "illegal"},
            a2={"kind": "target", "state": [[1.0, 0.0], [1.0, 0.0]]},
            bob_states=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        )
        protocol = build_protocol(run)
        member = None
        from pqclone.entangle import build_shared_state, induced_ensemble

        shared = build_shared_state(protocol.bob_states)
        member = induced_ensemble(shared, protocol.a2_basis).members[0][0]
        target = Ket.normalized([1, 1])
        assert abs(np.vdot(member.amplitudes, target.amplitudes)) == pytest.approx(
            1.0, abs=1e-9
        )


class TestCliFeasibility:
    def test_orthogonal_pair_feasible(self, capsys):
        code = cli.main(
            ["feasibility", str(CONFIGS / "states_orthogonal_n2.txt"), "-M", "2",
             "--gamma", "1.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible: True" in out
        assert "least_discard_mass: 0.0" in out

    def test_max_uniform_value(self, capsys):
        code = cli.main(
            ["feasibility", str(CONFIGS / "states_overlap_n2.txt"), "-M", "2",
             "--max-uniform"]
        )
        out = capsys.readouterr().out
        assert code == 0
        gamma = float(out.split("gamma_max: ")[1].split()[0])
        assert gamma == pytest.approx(0.58578644, abs=1e-6)

    def test_infeasible_gamma_exits_2(self, capsys):
        code = cli.main(
            ["feasibility", str(CONFIGS / "states_overlap_n2.txt"), "-M", "2",
             "--gamma", "0.9"]
        )
        assert code == 2
        assert "feasible: False" in capsys.readouterr().out

    def test_dependent_states_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "three.txt"
        bad.write_text("2\n1 0 0 0\n0 0 1 0\n1 0 1 0\n")
        code = cli.main(["feasibility", str(bad), "-M", "2", "--max-uniform"])
        assert code == 1
        assert "dependent" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["feasibility", "construct"])
    def test_ill_conditioned_pair_reports_gram_ratio(self, tmp_path, capsys, command):
        # (1, 0) and (1, 1e-5) are independent, with cond(B) about 2e5: past
        # the rank rule's cond(B) < RANK_TOL^(-1/2), so rejected by it
        states = tmp_path / "close.txt"
        states.write_text("2\n1 0 0 0\n1 0 1e-5 0\n")
        argv = [command, str(states), "-M", "2", "--gamma", "0.5"]
        if command == "construct":
            argv += ["--out", str(tmp_path / "machine.json")]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert "linearly dependent" not in err
        assert "Gram eigenvalue ratio 2.50e-11 is not above RANK_TOL 1e-09" in err

    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1 0 0\n")
        code = cli.main(["feasibility", str(bad), "-M", "2"])
        assert code == 1
        assert ":2:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "extra",
        [
            ["--gamma", "nan"],
            ["--gamma", "inf"],
            ["--gamma", "1.5"],
            ["--gamma", "-0.25"],
            ["-M", "1"],
            ["-M", "1", "--max-uniform"],
        ],
    )
    def test_bad_input_exits_1_with_one_line(self, extra, capsys):
        code = cli.main(
            ["feasibility", str(CONFIGS / "states_overlap_n2.txt")] + extra
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "value, shown", [("-1e-3", "-0.001"), ("-inf", "-inf"), ("-1E+2", "-100.0")]
    )
    def test_a_negative_number_is_the_value_refused(self, value, shown, capsys):
        # any token float() reads is a value, so the efficiency check names it
        code = cli.main(
            ["feasibility", str(CONFIGS / "states_overlap_n2.txt"), "-M", "3",
             "--gamma", value]
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: efficiencies must lie in [0, 1], got {shown}\n"

    @pytest.mark.parametrize(
        "flags", [["--gamma", "0.99", "--max-uniform"], ["--max-uniform", "--gamma", "0.99"]]
    )
    def test_gamma_and_max_uniform_exclude_each_other(self, flags, capsys):
        # --max-uniform decides at gamma_max, so it would drop the --gamma
        code = cli.main(
            ["feasibility", str(CONFIGS / "states_overlap_n2.txt"), "-M", "3"] + flags
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: argument ")
        assert "not allowed with argument" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_tol_is_an_unknown_argument(self, capsys):
        # gamma_max is a closed form, so there is no tolerance to set
        code = cli.main(
            ["feasibility", str(CONFIGS / "states_overlap_n2.txt"), "-M", "2",
             "--max-uniform", "--tol", "1e-9"]
        )
        assert code == 1
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


class TestCliConstruct:
    def test_orthogonal_machine_dump(self, tmp_path, capsys):
        out = tmp_path / "machine.json"
        code = cli.main(
            ["construct", str(CONFIGS / "states_orthogonal_n2.txt"), "-M", "2",
             "--gamma", "1.0", "--out", str(out)]
        )
        assert code == 0
        dump = json.loads(out.read_text())
        fail_flat = np.array(dump["kraus_fail"], dtype=float).ravel()
        assert np.max(np.abs(fail_flat)) < 1e-10
        assert dump["clone_residual"] < 1e-10
        assert dump["trace_residual"] < 1e-10

    def test_feasible_overlap_machine(self, tmp_path):
        out = tmp_path / "machine.json"
        code = cli.main(
            ["construct", str(CONFIGS / "states_overlap_n2.txt"), "-M", "2",
             "--gamma", "0.5", "--out", str(out)]
        )
        assert code == 0
        dump = json.loads(out.read_text())
        assert dump["clone_residual"] < 1e-9
        assert dump["trace_residual"] < 1e-9

    def test_infeasible_exit_2_with_eigenvalue(self, tmp_path, capsys):
        out = tmp_path / "machine.json"
        code = cli.main(
            ["construct", str(CONFIGS / "states_overlap_n2.txt"), "-M", "2",
             "--gamma", "0.9", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "least_discard_mass" in err
        assert not out.exists()

    def test_failed_verification_exits_1_not_infeasible(
        self, tmp_path, monkeypatch, capsys
    ):
        # gamma 0.4 lies below gamma_max 0.453, so the Gram verdict admits
        # it; a residual check that fails is a numerical fault, not an
        # infeasible request: exit 1 with one line, and no machine written
        monkeypatch.setattr(pqcm, "_MACHINE_TOL", 0.0)
        out = tmp_path / "machine.json"
        code = cli.main(
            ["construct", str(CONFIGS / "states_overlap_n2.txt"), "-M", "3",
             "--gamma", "0.4", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: machine verification failed")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_failed_trace_check_on_first_read_exits_1(
        self, tmp_path, monkeypatch, capsys
    ):
        # construction passes and the dump's first read of F fails its trace
        # check, before anything is written: exit 1 with one line, no file
        eigh = np.linalg.eigh

        def skewed_eigh(a):
            vals, vecs = eigh(a)
            return vals, 1.01 * vecs

        monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
        out = tmp_path / "new" / "machine.json"
        code = cli.main(
            ["construct", str(CONFIGS / "states_overlap_n2.txt"), "-M", "3",
             "--gamma", "0.4", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(
            "error: machine verification failed (trace residual "
        )
        assert len(captured.err.splitlines()) == 1
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "extra", [["--gamma", "nan"], ["--gamma", "2"], ["-M", "1", "--gamma", "0.5"]]
    )
    def test_bad_input_exits_1_with_one_line(self, tmp_path, extra, capsys):
        out = tmp_path / "machine.json"
        code = cli.main(
            ["construct", str(CONFIGS / "states_overlap_n2.txt"), "--out", str(out)]
            + extra
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)


class TestCliVerdictAgreement:
    # feasibility and construct decide from one least discard probability,
    # so they exit alike on every side of gamma_max, the verdict's edge
    # 1 + PSD_TOL included, where construct's explicit operator must still
    # pass its residual checks
    FACTORS = tuple(
        1.0 + sign * step for step in (1e-9, 1e-6, 1e-3, 0.1) for sign in (-1, 1)
    ) + (1.0 + qcore.PSD_TOL,)

    @pytest.mark.parametrize("copies", [2, 3, 6])
    @pytest.mark.parametrize("gap_exponent", [None, 2, 4, 6, 7, 8])
    def test_feasibility_and_construct_exit_alike(
        self, tmp_path, capsys, copies, gap_exponent
    ):
        # the demo overlap pair, then pairs of overlap 1 - 10^-k, whose
        # cond(B) ~ sqrt(2 * 10^k) runs up to the rank rule's limit at k = 8
        if gap_exponent is None:
            path = CONFIGS / "states_overlap_n2.txt"
        else:
            s = 1.0 - 10.0**-gap_exponent
            path = tmp_path / "pair.txt"
            path.write_text(f"2\n1 0 0 0\n{s!r} 0 {(1 - s * s) ** 0.5!r} 0\n")
        gmax = pqcm.FactoredSet(load_states(path), copies).gamma_max
        out = tmp_path / "machine.json"
        codes = []
        for factor in self.FACTORS:
            argv = [str(path), "-M", str(copies), "--gamma", repr(factor * gmax)]
            feasibility = cli.main(["feasibility"] + argv)
            construct = cli.main(["construct"] + argv + ["--out", str(out)])
            assert construct == 0 or not out.exists()
            out.unlink(missing_ok=True)
            codes.append((factor, feasibility, construct))
        capsys.readouterr()
        assert all(f == c for _, f, c in codes), codes
        # below gamma_max feasible; past the tolerance's edge infeasible
        assert [f for factor, f, _ in codes if factor < 1.0] == [0] * 4
        assert [f for factor, f, _ in codes if factor > 1.0 + 1e-9] == [2] * 3


class TestJsonLayout:
    """Every JSON output is ``json.dumps(indent=2, sort_keys=True)`` plus a
    newline: the stats record and each tally row are one flat layout, and
    the feasibility report and machine dump come from json.dumps itself."""

    FLAT_SCALARS = JSON_SCALARS | st.floats(allow_nan=True, allow_infinity=True).map(
        np.float64
    )

    @settings(deadline=None, max_examples=300, derandomize=True)
    @example(
        data={
            "nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"),
            "neg_zero": -0.0, "huge": 1e308, "tiny": 5e-324, "int63": 2**63,
            "int70": -(2**70), "t": True, "f": False, "none": None,
            "text": 'say "hi"\\ \n\t\u00e9\u2603\U0001f600',
        },
        depth=0,
    )
    @example(data=[1, 2.5], depth=2)
    # a numpy float is a float subclass, which the C encoder writes by float's repr
    @example(data={"np": np.float64(0.1), "t": True, "none": None}, depth=0)
    @given(
        data=st.dictionaries(st.text(), FLAT_SCALARS, min_size=1)
        | st.lists(FLAT_SCALARS, min_size=1),
        depth=st.integers(0, 3),
    )
    def test_flat_text_is_the_documented_layout(self, data, depth):
        # json.dumps nests a flat container by indenting each of its lines,
        # and its text holds no raw newline
        expected = json.dumps(data, indent=2, sort_keys=True)
        assert cli._flat_json(data, depth) == expected.replace("\n", "\n" + "  " * depth)

    @settings(deadline=None, max_examples=200, derandomize=True)
    @example(header=["input", "B1", "B2", "B3", "phi"], rows=[["B1", 3, 0, 0, 2**63]])
    @given(
        header=st.lists(st.text(), min_size=1, max_size=6),
        rows=st.lists(st.lists(JSON_SCALARS, min_size=1, max_size=6), min_size=1),
    )
    def test_tally_text_is_the_documented_layout(self, header, rows):
        tally = {"columns": header, "rows": rows}
        expected = json.dumps(tally, indent=2, sort_keys=True) + "\n"
        assert cli._tally_json(header, rows) == expected

    def test_tally_file_is_the_writers_view_of_the_cells(self, tmp_path):
        # one row per preparation, A1's then A2's; the discard cell is left out
        cells = [
            [[1, 2, 0, 3, 40], [0, 5, 6, 0, 41]],
            [[8, 0, 9, 1, 42], [0, 0, 0, 2**62, 43]],
        ]
        tally = signalling.TallyTable(np.array(cells))
        cli._write_tally(tally, tmp_path / "tally.csv", "csv")
        assert (tmp_path / "tally.csv").read_bytes() == (
            b"input,B1,B2,B3,phi\n"
            b"B1,1,2,0,3\n"
            b"B2,0,5,6,0\n"
            b"B3,8,0,9,1\n"
            b"B4,0,0,0,4611686018427387904\n"
        )
        cli._write_tally(tally, tmp_path / "tally.json", "json")
        rows = ["  [\n      " + ",\n      ".join(row) + "\n    ]" for row in (
            ['"B1"', "1", "2", "0", "3"],
            ['"B2"', "0", "5", "6", "0"],
            ['"B3"', "8", "0", "9", "1"],
            ['"B4"', "0", "0", "0", "4611686018427387904"],
        )]
        assert (tmp_path / "tally.json").read_text() == (
            '{\n  "columns": [\n    "input",\n    "B1",\n    "B2",\n    "B3",\n'
            '    "phi"\n  ],\n  "rows": [\n  ' + ",\n  ".join(rows) + "\n  ]\n}\n"
        )


class TestStateRows:
    # pairs_to_ket, one row at a time, is the reference for the array path
    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        n=st.integers(1, 5),
        d=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        ints=st.booleans(),
    )
    def test_array_path_matches_row_by_row(self, n, d, seed, ints):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n, d, 2)) * 10.0 ** rng.uniform(-3, 3)
        rows = values.tolist()
        if ints:  # JSON integers, among them one beyond int64
            rows[0][0] = [2**70, -3]
        expected = np.array([config_mod.pairs_to_ket(row, "x") for row in rows])
        got = config_mod._state_rows(rows, "x")
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    # the second of illegal_n2's rows replaced by a bad one: every message
    # names the first bad value, or the first row whose norm is bad
    ENTRY = "bob_states entry amplitude must be"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("[[0.0, 0.0], [NaN, 0.0]]", f"{ENTRY} a finite number, got nan"),
            ("[[0.0, 0.0], [Infinity, 0.0]]", f"{ENTRY} a finite number, got inf"),
            ("[[0.0, 0.0], [1e200, 0.0]]", "state norm is not finite"),
            ("[[1e200, 0.0], [NaN, 0.0]]", f"{ENTRY} a finite number, got nan"),
            (f"[[0.0, 0.0], [{10**400}, 0.0]]",
             f"{ENTRY} a finite number, got {10**400}"),
            ("[[0.0, 0.0], [0.0, 0.0]]", "state has zero norm"),
            ("[[0.0, 0.0], [true, 0.0]]", f"{ENTRY} a finite number, got True"),
            ("[[1.0, 0.0]]", "Bob states must have dimension 2, got 1"),
            ("[[0.0, 0.0], [1.0, 0.0, 0.0]]",
             f"{ENTRY} an [re, im] pair, got [1.0, 0.0, 0.0]"),
        ],
        ids=["nan", "inf", "1e200", "1e200-then-nan", "10**400", "zero", "bool",
             "ragged", "three-numbers"],
    )
    def test_a_bad_bob_states_row_gets_its_message(self, row, message):
        text = (CONFIGS / "illegal_n2.json").read_text()
        good = "[[0.0, 0.0], [1.0, 0.0]]"
        assert text.count(good) == 1
        run = RunConfig.loads(text.replace(good, row))
        with pytest.raises(ConfigError) as err:
            build_protocol(run)
        assert str(err.value) == message


class TestCliInputPath:
    # (argv before the input file, argv after it, what the message names)
    COMMANDS = {
        "signal-test": (["signal-test"], ["--out", "out"], "config"),
        "feasibility": (["feasibility"], ["-M", "2"], "states file"),
    }

    @pytest.mark.parametrize("command", ["signal-test", "feasibility"])
    @pytest.mark.parametrize(
        "content, reason",
        [
            (b'{"mu": 4\xff}', "'utf-8' codec can't decode byte 0xff in position 8"),
            (None, "[Errno 2] No such file or directory"),
        ],
        ids=["not-utf8", "missing"],
    )
    def test_unreadable_input_exits_1_with_one_line(
        self, tmp_path, capsys, command, content, reason
    ):
        before, after, what = self.COMMANDS[command]
        path = tmp_path / "input"
        if content is not None:
            path.write_bytes(content)
        assert cli.main(before + [str(path)] + after) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {what} {path}: {reason}")
        assert len(err.splitlines()) == 1

    @pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero")
    @pytest.mark.parametrize("command", ["signal-test", "feasibility"])
    def test_endless_input_exits_1_with_one_line(self, tmp_path, capsys, command):
        # the read stops once it passes the cap instead of exhausting memory
        before, _, what = self.COMMANDS[command]
        out = tmp_path / "out"
        start = time.perf_counter()
        code = cli.main(before + ["/dev/zero", "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert code == 1
        err = capsys.readouterr().err
        cap = config_mod._READ_CAP
        assert err == f"error: cannot read {what} /dev/zero: more than {cap} bytes\n"
        assert elapsed < 30 and not out.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    @pytest.mark.parametrize("command", ["signal-test", "feasibility"])
    def test_fifo_with_no_writer_exits_1_with_one_line(self, tmp_path, command):
        # a blocking open would wait for a writer for ever: run it in a child
        # whose timeout fails a hang instead of the whole suite
        before, after, _ = self.COMMANDS[command]
        fifo = tmp_path / "input"
        os.mkfifo(fifo)
        paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
        path = os.pathsep.join(filter(None, paths))
        result = subprocess.run(
            [sys.executable, "-m", "pqclone", *before, str(fifo), *after],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
    def test_pipe_with_a_late_writer_is_read_in_full(self, tmp_path, monkeypatch):
        # the writer starts after 0.5 s and sends the config in two parts
        monkeypatch.chdir(tmp_path)
        text = (CONFIGS / "illegal_n2.json").read_bytes()
        read_end, write_end = os.pipe()

        def write_late():
            for part in (text[:100], text[100:]):
                time.sleep(0.5)
                os.write(write_end, part)
            os.close(write_end)

        writer = threading.Thread(target=write_late)
        writer.start()
        try:
            code = cli.main(["signal-test", f"/dev/fd/{read_end}", "--out", "pipe"])
        finally:
            writer.join()
            os.close(read_end)
        assert code == 0
        assert cli.main(["signal-test", str(CONFIGS / "illegal_n2.json"), "--out", "file"]) == 0
        for name in ("tally.json", "stats.json"):
            assert Path("pipe", name).read_bytes() == Path("file", name).read_bytes()

    def test_read_cap_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(config_mod, "_READ_CAP", 8)
        path = tmp_path / "input"
        path.write_bytes(b"12345678")
        assert config_mod._read_text(path, "config") == "12345678"
        path.write_bytes(b"123456789")
        with pytest.raises(ConfigError, match="^cannot read config .*: more than 8 bytes$"):
            config_mod._read_text(path, "config")


class TestCliOutPath:
    ARGV = {
        "feasibility": ["feasibility", str(CONFIGS / "states_legal_n2.txt"), "-M", "6",
                        "--max-uniform"],
        "construct": ["construct", str(CONFIGS / "states_overlap_n2.txt"), "-M", "3",
                      "--gamma", "0.4"],
        "signal-test": ["signal-test", str(CONFIGS / "legal_n2.json"), "--trials",
                        "400"],
    }

    @pytest.mark.parametrize("command", ["feasibility", "construct", "signal-test"])
    def test_out_creates_missing_directories(self, tmp_path, command):
        out = tmp_path / "fresh" / "a" / "r.json"
        assert cli.main(self.ARGV[command] + ["--out", str(out)]) == 0
        # signal-test takes --out as its output directory
        written = [out / "tally.json", out / "stats.json"]
        for path in written if command == "signal-test" else [out]:
            assert json.loads(path.read_text())

    @pytest.mark.parametrize("command", ["feasibility", "construct", "signal-test"])
    def test_unusable_out_exits_1_with_one_line(self, tmp_path, capsys, command):
        # the output directory would have to be a regular file
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker if command == "signal-test" else blocker / "r.json"
        code = cli.main(self.ARGV[command] + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: cannot write {blocker}/")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""  # no verdict for a report never written


    @pytest.mark.parametrize("out", [".", "./x/", "x//y", "../x"])
    def test_printed_paths_keep_pathlib_spelling(self, tmp_path, monkeypatch, capsys, out):
        # the wrote: line spells each file as Path.cwd() / out / name does
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli.main(self.ARGV["signal-test"] + ["--out", out]) == 0
        written = [Path.cwd() / out / name for name in ("tally.json", "stats.json")]
        assert capsys.readouterr().out.splitlines()[-1] == "wrote: {} {}".format(*written)
        for path in written:
            assert os.path.samefile(path, os.path.join(out, path.name))

    @settings(max_examples=300, derandomize=True)
    @given(st.text(alphabet="/.a", max_size=12))
    def test_path_text_is_pathlib_spelling(self, path):
        assert cli._path_text(path) == str(PurePosixPath(path))

    @pytest.mark.parametrize("command", ["feasibility", "construct", "signal-test"])
    def test_empty_out_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys, command):
        # an empty path would name the working directory
        monkeypatch.chdir(tmp_path)
        code = cli.main(self.ARGV[command] + ["--out", ""])
        captured = capsys.readouterr()
        assert code == 1
        what = "directory" if command == "signal-test" else "file"
        assert captured.err.startswith(f"error: no output {what} (")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_empty_out_in_config_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        data = json.loads((CONFIGS / "legal_n2.json").read_text())
        data["out"] = ""
        cfg = tmp_path / "empty_out.json"
        cfg.write_text(json.dumps(data))
        code = cli.main(["signal-test", str(cfg), "--trials", "400"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "error: no output directory (set 'out' in config or pass --out)\n"
        )
        assert captured.out == "" and list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "name, key, value, message",
        [
            ("legal_n2", "states_file", "st\0.txt", "cannot read states file {!r}"),
            ("illegal_n2", "out", "a\0b", "cannot write {!r}"),
        ],
        ids=["states_file", "out"],
    )
    def test_nul_in_a_config_path_exits_1_with_one_line(
        self, tmp_path, monkeypatch, capsys, name, key, value, message
    ):
        # os.open refuses a NUL with ValueError, not OSError; the path is
        # spelt by its repr, so no raw control byte reaches stderr
        monkeypatch.chdir(tmp_path)
        data = json.loads((CONFIGS / f"{name}.json").read_text())
        data[key] = value
        cfg = tmp_path / "nul.json"
        cfg.write_text(json.dumps(data))
        code = cli.main(["signal-test", str(cfg), "--trials", "400"])
        captured = capsys.readouterr()
        assert code == 1
        path = os.path.join(tmp_path, value) + ("/tally.json" if key == "out" else "")
        assert captured.err == (
            "error: " + message.format(path) + ": embedded null byte\n"
        )
        assert captured.err[:-1].isprintable()  # one line, no raw NUL
        assert captured.out == "" and list(tmp_path.iterdir()) == [cfg]

    def test_nul_in_out_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = cli.main(self.ARGV["feasibility"] + ["--out", "x\0y"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: cannot write 'x\\x00y': embedded null byte\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def _blocker(self, tmp_path):
        # a regular file with a newline in its name, so a path under it
        # cannot be written
        blocker = tmp_path / "blo\ncker"
        blocker.write_text("")
        return str(blocker)

    def test_newline_in_a_states_file_path_exits_1_with_one_line(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        data = json.loads((CONFIGS / "legal_n2.json").read_text())
        data["states_file"] = "st\n.txt"
        cfg = tmp_path / "nl.json"
        cfg.write_text(json.dumps(data))
        assert cli.main(["signal-test", str(cfg), "--trials", "400"]) == 1
        path = repr(os.path.join(tmp_path, "st\n.txt"))
        assert capsys.readouterr().err == (
            f"error: cannot read states file {path}: "
            f"[Errno 2] No such file or directory: {path}\n"
        )

    def test_newline_in_an_input_path_exits_1_with_one_line(self, tmp_path, capsys):
        path = str(tmp_path / "no\nsuch.txt")
        assert cli.main(["feasibility", path, "-M", "2"]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read states file {path!r}: "
            f"[Errno 2] No such file or directory: {path!r}\n"
        )

    @pytest.mark.parametrize("command", ["feasibility", "signal-test"])
    def test_newline_in_an_out_path_exits_1_with_one_line(self, tmp_path, capsys, command):
        blocker = self._blocker(tmp_path)
        out = blocker if command == "signal-test" else os.path.join(blocker, "r.json")
        assert cli.main(self.ARGV[command] + ["--out", out]) == 1
        captured = capsys.readouterr()
        written = os.path.join(blocker, "tally.json" if command == "signal-test" else "r.json")
        assert captured.err == (
            f"error: cannot write {written!r}: [Errno 20] Not a directory: {written!r}\n"
        )
        assert captured.out == ""

    def test_newline_in_signal_test_out_prints_one_wrote_line(
        self, tmp_path, monkeypatch, capsys
    ):
        # the wrote: line spells each written file as error lines spell a path
        monkeypatch.chdir(tmp_path)
        assert cli.main(self.ARGV["signal-test"] + ["--out", "a\nb"]) == 0
        lines = capsys.readouterr().out.splitlines()
        out = os.path.join(tmp_path, "a\nb")
        written = [os.path.join(out, name) for name in ("tally.json", "stats.json")]
        assert len(lines) == 5
        assert lines[-1] == "wrote: {!r} {!r}".format(*written)
        for path in written:
            assert json.loads(Path(path).read_text())

    def test_newline_in_construct_out_prints_one_wrote_line(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert cli.main(self.ARGV["construct"] + ["--out", "m\n.json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0] == "wrote machine to 'm\\n.json'"
        assert json.loads((tmp_path / "m\n.json").read_text())

    def test_a_nonprintable_states_file_path_is_spelt_by_repr_at_every_line(self):
        # the PATH:LINE: prefix of a parse error, like a read error
        with pytest.raises(ConfigError) as err:
            parse_states_text("2\n1 0 x 0\n", source="s\t.txt")
        assert str(err.value) == "'s\\t.txt':2: could not convert string to float: 'x'"
        with pytest.raises(ConfigError) as err:
            parse_states_text("# none\n", source="s\u00e9.txt")
        assert str(err.value) == "s\u00e9.txt: no dimension line found"  # printable


class TestCliSignalTest:
    def run_demo(self, tmp_path, fmt, out_name, trials="400"):
        out_dir = tmp_path / out_name
        code = cli.main(
            ["signal-test", str(CONFIGS / "illegal_n2.json"),
             "--trials", trials, "--format", fmt, "--out", str(out_dir)]
        )
        assert code == 0
        return out_dir

    def test_csv_and_json_agree_value_for_value(self, tmp_path):
        d_json = self.run_demo(tmp_path, "json", "as_json")
        d_csv = self.run_demo(tmp_path, "csv", "as_csv")

        tally_json = json.loads((d_json / "tally.json").read_text())
        csv_lines = (d_csv / "tally.csv").read_text().strip().splitlines()
        assert csv_lines[0].split(",") == tally_json["columns"]
        for line, row in zip(csv_lines[1:], tally_json["rows"]):
            cells = line.split(",")
            assert cells[0] == row[0]
            assert [int(c) for c in cells[1:]] == row[1:]

        stats_json = json.loads((d_json / "stats.json").read_text())
        stats_csv = {}
        for line in (d_csv / "stats.csv").read_text().strip().splitlines()[1:]:
            key, value = line.split(",", 1)
            stats_csv[key] = value
        assert set(stats_csv) == set(stats_json)
        for key, value in stats_json.items():
            parsed = json.loads(stats_csv[key])
            assert parsed == value

    def test_stats_file_reads_the_tally_file(self, tmp_path):
        # every per-setting count, discard rate and column rate in stats.json
        # is its setting's rows of tally.json, at a seed where the settings'
        # counts and discards differ, so one setting's value cannot stand in
        # for the other's
        out = tmp_path / "out"
        code = cli.main(
            ["signal-test", str(CONFIGS / "legal_n2.json"), "--seed", "3",
             "--out", str(out)]
        )
        assert code == 0
        tally = json.loads((out / "tally.json").read_text())
        stats = json.loads((out / "stats.json").read_text())
        n, trials = stats["n"], stats["trials_per_setting"]
        labels = [label.lower() for label in tally["columns"][1:]]
        checked = set()
        for setting, a in enumerate(("a1", "a2")):
            rows = tally["rows"][setting * n : (setting + 1) * n]
            columns = [sum(row[j] for row in rows) for j in range(1, len(labels) + 1)]
            classified = sum(columns)
            assert stats[f"classified_{a}"] == classified
            assert stats[f"discard_rate_{a}"] == (trials - classified) / trials
            for label, count in zip(labels, columns):
                assert stats[f"p_{a}_{label}"] == count / classified
            checked |= {f"classified_{a}", f"discard_rate_{a}"}
            checked |= {f"p_{a}_{label}" for label in labels}
        assert stats["classified_a1"] != stats["classified_a2"]
        assert stats["p_a1_b1"] != stats["p_a2_b1"]
        per_setting = ("classified_a", "discard_rate_a", "p_a")
        assert checked == {key for key in stats if key.startswith(per_setting)}

    def test_reruns_are_byte_identical(self, tmp_path):
        d1 = self.run_demo(tmp_path, "json", "run1")
        # the rerun writes over longer files, so it must truncate them
        (tmp_path / "run2").mkdir()
        for name in ("tally.json", "stats.json"):
            (tmp_path / "run2" / name).write_text("x" * 10_000)
        d2 = self.run_demo(tmp_path, "json", "run2")
        for name in ("tally.json", "stats.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_infeasible_machine_exits_2_with_one_line(self, tmp_path, capsys):
        # gamma_scale 1.1 asks for efficiencies past gamma_max
        data = json.loads((CONFIGS / "legal_n2.json").read_text())
        data["machine"]["gamma_scale"] = 1.1
        data["states_file"] = str(CONFIGS / data["states_file"])
        data["out"] = str(tmp_path / "out")
        cfg = tmp_path / "infeasible.json"
        cfg.write_text(json.dumps(data))
        code = cli.main(["signal-test", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(
            "error: requested efficiencies are infeasible (least_discard_mass: -0.1"
        )
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_missing_out_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "no_out.json"
        data = json.loads((CONFIGS / "illegal_n2.json").read_text())
        del data["out"]
        data["trials"] = 10
        cfg.write_text(json.dumps(data))
        code = cli.main(["signal-test", str(cfg)])
        assert code == 1

    def test_bad_usage_exits_1(self, capsys):
        assert cli.main(["feasibility"]) == 1
        assert cli.main(["no-such-command"]) == 1

    # One case per typed field. A mistyped value must stop at the config:
    # further in it raises a traceback, or (seed 1.5) runs as seed 1.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("mu", "x"),
            ("trials", 2.0),
            ("pairs_per_bit", "3"),
            ("message_bits", "x"),
            ("seed", 1.5),
            ("seed", True),
            ("seed", -1),
            ("seed", 2**64),
            ("machine", "legal"),
            ("a2", "fourier"),
            ("bob_states", "x"),
            ("states_file", 3),
            ("format", ["json"]),
            ("format", "xml"),
            ("out", 5),
        ],
    )
    def test_mistyped_field_exits_1_with_one_line(self, tmp_path, capsys, field, value):
        data = json.loads((CONFIGS / "illegal_n2.json").read_text())
        data["out"] = str(tmp_path / "out")
        data[field] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        code = cli.main(["signal-test", str(cfg), "--trials", "10"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {field} must ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    # One case per malformed value inside "machine" or "a2"; each used to
    # end in a raw ValueError, TypeError, KeyError or IndexError. The
    # message names the field, or for clonable labels the rule of
    # IllegalClonerSpec, which takes them as they are.
    @pytest.mark.parametrize(
        "name, field, value, prefix",
        [
            ("legal_n2.json", "machine", {"kind": "legal", "uniform_gamma": "x"}, None),
            ("legal_n2.json", "machine", {"kind": "legal", "gamma_scale": "x"}, None),
            ("legal_n2.json", "machine", {"kind": "legal", "gammas": ["x", 0.1]}, None),
            ("legal_n2.json", "a2", {"kind": "vectors", "vectors": 3}, None),
            ("legal_n2.json", "a2", {"kind": "target"}, None),
            (
                "illegal_n2.json",
                "machine",
                {
                    "kind": "illegal",
                    "coefficients": {
                        "4": {"c": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0]], "d": "x"}
                    },
                },
                None,
            ),
            (
                "illegal_n2.json",
                "machine",
                {"kind": "illegal", "clonable_labels": 5},
                "error: clonable labels must be a sequence, got 5",
            ),
            (
                "illegal_n2.json",
                "machine",
                {"kind": "illegal", "clonable_labels": [1.5, 2, 3]},
                "error: clonable label must be an integer, got 1.5",
            ),
            (
                "illegal_n2.json",
                "machine",
                {"kind": "illegal", "coefficients": {"4": 5}},
                "error: machine coefficients['4'] must be an object, got 5\n",
            ),
        ],
        ids=[
            "uniform_gamma", "gamma_scale", "gammas", "vectors", "target", "d",
            "labels-not-a-list", "labels-float", "coefficient-not-an-object",
        ],
    )
    def test_malformed_nested_value_exits_1_with_one_line(
        self, tmp_path, capsys, name, field, value, prefix
    ):
        data = json.loads((CONFIGS / name).read_text())
        data["out"] = str(tmp_path / "out")
        data.pop("states_file", None)
        data["bob_states"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.8, 0.0]]]
        data[field] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        code = cli.main(["signal-test", str(cfg), "--trials", "10"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(prefix or f"error: {field} ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    # A Python caller can pass a coefficient key that JSON cannot spell; a
    # None key used to end in int()'s raw TypeError.
    @pytest.mark.parametrize("key", [None, 4, 4.0, (4,), b"4"])
    def test_coefficient_key_that_is_not_a_string_is_refused(self, key):
        run = RunConfig.load(CONFIGS / "illegal_n2.json")
        machine = {"kind": "illegal", "coefficients": {key: COEFFICIENT}}
        with pytest.raises(ConfigError) as err:
            build_protocol(dataclasses.replace(run, machine=machine), CONFIGS)
        assert str(err.value) == f"machine coefficients[{key!r}]: label is not a string"

    # One case per key a "machine", "a2" or coefficient object does not
    # take; each used to be ignored without a word, and the run exited 0.
    @pytest.mark.parametrize(
        "name, field, value, message",
        [
            (
                "legal_n2.json",
                "machine",
                {"kind": "legal", "uniform_gamma": "max", "gama_scale": 0.5},
                "unknown machine keys: ['gama_scale']",
            ),
            (
                "legal_n2.json",
                "machine",
                {"kind": "legal", "uniform_gamma": 0.1, "gamma_scale": 0.5},
                'machine gamma_scale scales only uniform_gamma "max"',
            ),
            (
                "legal_n2.json",
                "machine",
                {"kind": "legal", "gammas": [0.1, 0.1], "uniform_gamma": 0.1},
                "machine gammas cannot be given with ['uniform_gamma']",
            ),
            (
                "legal_n2.json",
                "machine",
                {"kind": "legal", "gammas": [0.1, 0.1], "gamma_scale": 0.5},
                "machine gammas cannot be given with ['gamma_scale']",
            ),
            (
                "legal_n2.json",
                "machine",
                {"kind": "legal", "clonable_labels": [1, 2, 3]},
                "unknown machine keys: ['clonable_labels']",
            ),
            (
                "illegal_n2.json",
                "machine",
                {"kind": "illegal", "uniform_gamma": "max"},
                "unknown machine keys: ['uniform_gamma']",
            ),
            (
                "illegal_n2.json",
                "machine",
                {
                    "kind": "illegal",
                    "coefficients": {
                        "4": {"c": [[0.5, 0.0]] * 3, "d": [0.5, 0.0], "e": 1}
                    },
                },
                "unknown machine coefficients['4'] keys: ['e']",
            ),
            (
                "illegal_n2.json",
                "machine",
                {"kind": "illegal", "coefficients": {"four": COEFFICIENT}},
                "machine coefficients['four']: label is not an integer",
            ),
            (
                "illegal_n2.json",
                "a2",
                {"kind": "fourier", "state": [[1.0, 0.0], [0.0, 0.0]]},
                "unknown a2 keys: ['state']",
            ),
            (
                "illegal_n2.json",
                "a2",
                {"kind": "target", "state": [[1.0, 0.0], [1.0, 0.0]], "vectors": []},
                "unknown a2 keys: ['vectors']",
            ),
        ],
        ids=[
            "typo", "scale-beside-number", "gammas-beside-uniform",
            "gammas-beside-scale", "labels-on-legal", "gamma-on-illegal",
            "coefficient-entry", "coefficient-label", "fourier", "target",
        ],
    )
    def test_stray_nested_key_exits_1_with_one_line(
        self, tmp_path, capsys, name, field, value, message
    ):
        data = json.loads((CONFIGS / name).read_text())
        data["out"] = str(tmp_path / "out")
        data.pop("states_file", None)
        data["bob_states"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.8, 0.0]]]
        data[field] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        code = cli.main(["signal-test", str(cfg), "--trials", "10"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    # A coefficient label is read from its plain decimal spelling only. int()
    # also read " 4", "+4", "04" and "\u0664" as 4 and "4_0" as 40, so two
    # keys could name one label, and the later entry replaced the earlier.
    @pytest.mark.parametrize(
        "keys, label",
        [
            ([" 4"], "4"), (["+4"], "4"), (["04"], "4"), (["\u0664"], "4"),
            (["4_0"], "40"), (["4", " 4"], "4"),
        ],
        ids=["space", "plus", "zero", "arabic-indic", "underscore", "collision"],
    )
    def test_coefficient_label_spelt_otherwise_exits_1(self, tmp_path, capsys, keys, label):
        data = json.loads((CONFIGS / "illegal_n2.json").read_text())
        data["out"] = str(tmp_path / "out")
        data["machine"]["coefficients"] = dict.fromkeys(keys, COEFFICIENT)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        code = cli.main(["signal-test", str(cfg), "--trials", "10"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: machine coefficients[{keys[-1]!r}]: label must be written {label!r}\n"
        )
        assert not (tmp_path / "out").exists()

    # A falsy non-object "coefficients" or a null "clonable_labels" used to
    # mean "none given", and the run exited 0.
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("coefficients", [], "machine coefficients must be an object, got []"),
            ("coefficients", False, "machine coefficients must be an object, got False"),
            ("coefficients", 0, "machine coefficients must be an object, got 0"),
            ("coefficients", "", "machine coefficients must be an object, got ''"),
            ("coefficients", None, "machine coefficients must be an object, got None"),
            ("clonable_labels", None, "clonable labels must be a sequence, got None"),
        ],
    )
    def test_empty_machine_entry_exits_1_with_one_line(
        self, tmp_path, capsys, key, value, message
    ):
        data = json.loads((CONFIGS / "illegal_n2.json").read_text())
        data["out"] = str(tmp_path / "out")
        data["machine"] = {"kind": "illegal", key: value}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        code = cli.main(["signal-test", str(cfg), "--trials", "10"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    # Every [re, im] amplitude takes the rule of the machine coefficients:
    # JSON true/false used to be read as 1/0 here, and a string amplitude
    # gave a message that named no field.
    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"bob_states": [[[True, False], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
                "bob_states entry amplitude must be a finite number, got True",
            ),
            (
                {"bob_states": [[["1", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
                "bob_states entry amplitude must be a finite number, got '1'",
            ),
            (
                {"bob_states": [[1.0, 0.0], [[0.0, 0.0], [1.0, 0.0]]]},
                "bob_states entry amplitude must be an [re, im] pair, got 1.0",
            ),
            (
                {"bob_states": [[[10**400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
                f"bob_states entry amplitude must be a finite number, got {10**400}",
            ),
            (
                {"a2": {"kind": "vectors", "vectors": [
                    [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [True, 0.0]]]}},
                "a2 vectors entry amplitude must be a finite number, got True",
            ),
            (
                {"a2": {"kind": "target", "state": [[1.0, False], [0.0, 0.0]]}},
                "a2 state amplitude must be a finite number, got False",
            ),
        ],
        ids=[
            "bob-bool", "bob-string", "bob-bare-number", "bob-huge-int", "vectors-bool",
            "state-bool",
        ],
    )
    def test_amplitudes_take_one_rule(self, tmp_path, capsys, changes, message):
        data = json.loads((CONFIGS / "illegal_n2.json").read_text())
        data.update(changes, out=str(tmp_path / "out"))
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        code = cli.main(["signal-test", str(cfg), "--trials", "10"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_machine_on_other_states_exits_1_with_one_line(
        self, tmp_path, capsys, monkeypatch
    ):
        # config files always build the machine on Bob's own states; a
        # resolver that does not reaches the identity guard of the run
        resolve = config_mod._resolve_machine

        def on_other_states(config, bob_states):
            other = np.array([bob_states[0], Ket.normalized([0.6, 0.8]).amplitudes])
            return resolve(config, other)

        monkeypatch.setattr(config_mod, "_resolve_machine", on_other_states)
        out = tmp_path / "out"
        code = cli.main(
            ["signal-test", str(CONFIGS / "legal_n2.json"), "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: machine clones other states")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    # Counts are drawn, not pairs, so any count up to 2**62 runs at once;
    # above it, numpy or the int64 tally could overflow.
    @pytest.mark.parametrize(
        "args, code",
        [
            (["--trials", str(2**62)], 0),
            (["--trials", str(2**62 + 1)], 1),
            (["--pairs-per-bit", str(2**62)], 0),
            (["--pairs-per-bit", str(2**62 + 1)], 1),
            (["--trials", str(10**15), "--pairs-per-bit", str(10**12)], 0),
        ],
        ids=["trials-cap", "trials-above-cap", "pairs-cap", "pairs-above-cap", "1e15"],
    )
    def test_counts_capped_at_2_62(self, tmp_path, capsys, args, code):
        out_dir = tmp_path / "out"
        assert cli.main(
            ["signal-test", str(CONFIGS / "illegal_n2.json"), "--out", str(out_dir)]
            + args
        ) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and "2**62" in err
            assert len(err.splitlines()) == 1
            assert not out_dir.exists()
        else:
            # the illegal cloner never reports failure: every pair is classified
            stats = json.loads((out_dir / "stats.json").read_text())
            trials = stats["trials_per_setting"]
            assert stats["classified_a1"] == stats["classified_a2"] == trials

    # The channel demo holds arrays of message_bits entries, and far larger
    # counts than the cap cannot be allocated at all.
    @pytest.mark.parametrize(
        "bits, code", [(2**20, 0), (2**20 + 1, 1)], ids=["cap", "above-cap"]
    )
    def test_message_bits_capped_at_2_20(self, tmp_path, capsys, bits, code):
        data = json.loads((CONFIGS / "illegal_n2.json").read_text())
        data["message_bits"] = bits
        cfg = tmp_path / "bits.json"
        cfg.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert cli.main(
            ["signal-test", str(cfg), "--trials", "10", "--out", str(out_dir)]
        ) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: message_bits ") and "2**20" in err
            assert len(err.splitlines()) == 1
            assert not out_dir.exists()
        else:
            stats = json.loads((out_dir / "stats.json").read_text())
            assert stats["channel_bits"] == bits

    # Bob states |1> and -|1>: Fourier outcome 1 steers Bob to
    # (|1> - |1>)/sqrt(2) = 0, so candidate B3 would be a placeholder state
    # that no pair prepares. Bob states |1>, |1>: outcome 2 has probability 0,
    # and label 4 names it.
    @pytest.mark.parametrize(
        "second, labels, message",
        [
            ([[0.0, 0.0], [-1.0, 0.0]], [1, 2, 3], "candidate B3 is not prepared"),
            ([[0.0, 0.0], [1.0, 0.0]], [1, 2, 4], "clonable label 4 names"),
        ],
        ids=["candidate", "clonable-label"],
    )
    def test_zero_probability_preparation_exits_1_with_one_line(
        self, tmp_path, capsys, second, labels, message
    ):
        data = json.loads((CONFIGS / "illegal_n2.json").read_text())
        data["out"] = str(tmp_path / "out")
        data["bob_states"] = [[[0.0, 0.0], [1.0, 0.0]], second]
        data["machine"] = {"kind": "illegal", "clonable_labels": labels}
        cfg = tmp_path / "unprepared.json"
        cfg.write_text(json.dumps(data))
        code = cli.main(["signal-test", str(cfg), "--trials", "10"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    # The run context stacks Bob's states into an N x N array, so each of
    # the N states must have dimension N.
    @pytest.mark.parametrize(
        "bob_states",
        [
            [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]],
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]],
        ],
        ids=["both-dim-3", "ragged"],
    )
    def test_bob_state_dimension_must_match_count(self, tmp_path, capsys, bob_states):
        data = json.loads((CONFIGS / "illegal_n2.json").read_text())
        data["out"] = str(tmp_path / "out")
        data["bob_states"] = bob_states
        cfg = tmp_path / "dims.json"
        cfg.write_text(json.dumps(data))
        code = cli.main(["signal-test", str(cfg), "--trials", "10"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: Bob states must have dimension 2, got 3")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "vectors", [[], [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]], ids=["empty", "ragged"]
    )
    def test_a2_vectors_of_no_matrix_shape_exit_1_with_one_line(
        self, tmp_path, capsys, vectors
    ):
        # the basis vectors are stacked into one matrix before any check
        data = json.loads((CONFIGS / "illegal_n2.json").read_text())
        data["out"] = str(tmp_path / "out")
        data["a2"] = {"kind": "vectors", "vectors": vectors}
        cfg = tmp_path / "vectors.json"
        cfg.write_text(json.dumps(data))
        code = cli.main(["signal-test", str(cfg), "--trials", "10"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: a state set ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_one_factorization_per_legal_run(self, tmp_path, monkeypatch):
        # gamma_max and the machine built at gamma_scale * gamma_max are read
        # from one factored set: one rank check and one product factor, on
        # the branch that cond(B) picks. legal_n2's cond(B) is 1.7; a pair of
        # overlap 1 - 1e-6 has cond(B) 1.4e3, past pqcm.CHOLESKY_COND
        close = json.loads((CONFIGS / "legal_n2.json").read_text())
        del close["states_file"]
        overlap = 1.0 - 1e-6
        close["bob_states"] = [
            [[1.0, 0.0], [0.0, 0.0]],
            [[overlap, 0.0], [np.sqrt(1.0 - overlap**2), 0.0]],
        ]
        (tmp_path / "close_pair.json").write_text(json.dumps(close))
        calls = []
        for module, name in (
            (qcore, "independent_svd"),
            (pqcm, "_cholesky_factor"),
            (pqcm, "_product_factor"),
        ):

            def counting(*args, _name=name, _original=getattr(module, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counting)
        for config, factor in (
            (CONFIGS / "legal_n2.json", "_cholesky_factor"),
            (tmp_path / "close_pair.json", "_product_factor"),
        ):
            calls.clear()
            code = cli.main(
                ["signal-test", str(config), "--trials", "400", "--out", str(tmp_path)]
            )
            assert code == 0
            assert sorted(calls) == [factor, "independent_svd"]

    def test_generators_per_run(self, tmp_path, monkeypatch):
        # the argvs of the bench/run.py workloads: a run builds no generator;
        # 2 protocol, 2 channel and 1 message stream re-key the shared one,
        # and the vote stream only when a bit ties
        workloads = [
            (CONFIGS / "illegal_n2.json", 2000, 200),
            (CONFIGS / "legal_n2.json", 2000, 50),
            (REPO / "bench" / "legal_n3_wide.json", 600, 20),
        ]
        built = []
        for name in ("Generator", "Philox"):
            made = getattr(qcore, name)
            monkeypatch.setattr(
                qcore, name, lambda *a, made=made: built.append(a) or made(*a)
            )
        rekeys = []
        rekey = qcore._rekey
        monkeypatch.setattr(
            qcore, "_rekey", lambda *key: rekeys.append(key) or rekey(*key)
        )
        seen = set()
        for path, trials, pairs_per_bit in workloads:
            for seed in (0, 57, 122):
                rekeys.clear()
                code = cli.main(
                    ["signal-test", str(path), "--seed", str(seed), "--trials",
                     str(trials), "--pairs-per-bit", str(pairs_per_bit),
                     "--format", "json", "--out", str(tmp_path)]
                )
                assert code == 0
                stats = json.loads((tmp_path / "stats.json").read_text())
                tie = stats["channel_coin_flips"] > 0
                # protocol, message, channel and, on a tie, vote streams
                stream_ids = [0, 1, 48, 16, 17] + [32] * tie
                assert rekeys == [(seed, stream_id) for stream_id in stream_ids]
                seen.add(len(rekeys))
        assert built == []
        assert seen == {5, 6}  # these seeds cover both a tie and none

    def test_one_law_per_run(self, tmp_path, monkeypatch):
        built = []
        column_law = signalling.column_law

        def counting_law(config):
            built.append(config)
            return column_law(config)

        protocols = []
        build_protocol = config_mod.build_protocol

        def keeping_build(*args):
            protocols.append(build_protocol(*args))
            return protocols[-1]

        monkeypatch.setattr(signalling, "column_law", counting_law)
        monkeypatch.setattr(config_mod, "build_protocol", keeping_build)
        code = cli.main(
            ["signal-test", str(CONFIGS / "legal_n2.json"), "--trials", "400",
             "--out", str(tmp_path)]
        )
        assert code == 0
        (protocol,) = protocols
        # run_protocol and run_channel share one law
        assert len(built) == 1 and built[0] is protocol

        law = protocol.law
        assert protocol.law is law and len(built) == 1
        assert not law.flags.writeable
        with pytest.raises(ValueError):
            law[0, 0, 0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            protocol.law = law.copy()

        # no memo crosses instances: a copy or a rebuild builds its own law
        copy = dataclasses.replace(protocol)
        np.testing.assert_array_equal(copy.law, law)
        assert copy.law is not law and len(built) == 2
        rebuilt = build_protocol(RunConfig.load(CONFIGS / "legal_n2.json"), CONFIGS)
        np.testing.assert_array_equal(rebuilt.law, law)
        assert len(built) == 3

    @pytest.mark.parametrize(
        "path", [CONFIGS / "illegal_n2.json", CONFIGS / "legal_n2.json",
                 REPO / "bench" / "legal_n3_wide.json"],
        ids=["illegal_n2", "legal_n2", "legal_n3_wide"],
    )
    def test_warm_run_builds_no_ket(self, tmp_path, monkeypatch, path):
        # state sets stay arrays from the parser to the law: once the
        # per-N bases are cached, a run wraps no state in a Ket
        argv = ["signal-test", str(path), "--trials", "400", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        built = []
        post_init = Ket.__post_init__

        def counting_post_init(ket):
            built.append(ket)
            post_init(ket)

        monkeypatch.setattr(Ket, "__post_init__", counting_post_init)
        assert cli.main(argv) == 0
        assert built == []

    def test_own_column_stays_once_per_legal_run(self, tmp_path, monkeypatch):
        # both laws and the leakage bound read one run context's exact-copy
        # table, so a legal or an illegal run computes it once
        calls = []
        group_hits = signalling.group_hits

        def counting_hits(*args):
            calls.append(args)
            return group_hits(*args)

        monkeypatch.setattr(signalling, "group_hits", counting_hits)
        for config in ("legal_n2.json", "illegal_n2.json"):
            calls.clear()
            code = cli.main(
                ["signal-test", str(CONFIGS / config), "--trials", "400",
                 "--out", str(tmp_path)]
            )
            assert code == 0
            assert len(calls) == 1


class TestSharedParser:
    """Every ``cli.main`` call reads the one command table, so no call may
    leak into the next."""

    def test_gamma_values_do_not_carry_over(self, tmp_path, capsys):
        states = str(CONFIGS / "states_overlap_n2.txt")
        report = tmp_path / "report.json"

        def gammas(*extra):
            code = cli.main(["feasibility", states, "--out", str(report), *extra])
            capsys.readouterr()
            assert code in (0, 2)
            return json.loads(report.read_text())["gammas"]

        assert gammas("--gamma", "0.3") == [0.3, 0.3]
        assert gammas("--gamma", "0.2", "--gamma", "0.4") == [0.2, 0.4]
        assert gammas() == [1.0, 1.0]  # the default, not the last --gamma
        assert gammas("--gamma", "0.5") == [0.5, 0.5]  # appends do not pile up
        assert cli.parse_args(["feasibility", states]).gamma is None

    def test_run_after_usage_error_and_help_is_unchanged(self, tmp_path, capsys):
        argv = ["signal-test", str(CONFIGS / "legal_n2.json"), "--trials", "500",
                "--out", str(tmp_path / "out")]
        names = ("tally.json", "stats.json")

        def run():
            assert cli.main(argv) == 0
            out = capsys.readouterr().out
            return out, [(tmp_path / "out" / name).read_bytes() for name in names]

        before = run()
        assert cli.main(["signal-test", "--trials", "x"]) == 1
        assert cli.main(["--help"]) == 0
        capsys.readouterr()
        assert run() == before

    @pytest.mark.parametrize("name", ["illegal_n2.json", "legal_n2.json"])
    def test_overrides_match_a_config_holding_them(self, tmp_path, capsys, name):
        values = {"seed": 7, "trials": 500, "pairs_per_bit": 3, "format": "csv"}
        data = json.loads((CONFIGS / name).read_text())
        if "states_file" in data:
            data["states_file"] = str(CONFIGS / data["states_file"])
        cfg = tmp_path / name
        cfg.write_text(json.dumps({**data, **values, "out": str(tmp_path / "file")}))
        assert cli.main(["signal-test", str(cfg)]) == 0
        assert cli.main(
            ["signal-test", str(CONFIGS / name), "--seed", "7", "--trials", "500",
             "--pairs-per-bit", "3", "--format", "csv",
             "--out", str(tmp_path / "flags")]
        ) == 0
        capsys.readouterr()
        for out in ("tally.csv", "stats.csv"):
            assert (tmp_path / "file" / out).read_bytes() == (
                tmp_path / "flags" / out
            ).read_bytes()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--seed", "-1", "seed"), ("--trials", "0", "trials"),
         ("--mu", "1", "copy count")],
    )
    def test_overrides_are_checked(self, tmp_path, capsys, flag, value, message):
        out_dir = tmp_path / "out"
        code = cli.main(
            ["signal-test", str(CONFIGS / "legal_n2.json"), flag, value,
             "--out", str(out_dir)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {message} ") and len(err.splitlines()) == 1
        assert not out_dir.exists()


# The values of each command when no option is given.
ARGV_DEFAULTS = {
    "feasibility": {"copies": 2, "gamma": None, "max_uniform": False, "out": None},
    "construct": {"copies": 2, "gamma": None, "out": None},
    "signal-test": {
        "seed": None, "trials": None, "mu": None, "pairs_per_bit": None,
        "format": None, "out": None,
    },
}
CHOICES = "(choose from 'feasibility', 'construct', 'signal-test')"

# Each argv with the result argparse gave it, before the command table took
# its place, but for the two rows marked below: the values that differ from
# ARGV_DEFAULTS, the one stderr line of a refusal (after "error: "), or None
# for help.
ARGV_TABLE = [
    (["signal-test", "cfg.json"], {"config": "cfg.json"}),
    # a unique prefix stands for its flag
    (["signal-test", "cfg.json", "--se", "5"], {"config": "cfg.json", "seed": 5}),
    (["signal-test", "cfg.json", "--p", "3"], {"config": "cfg.json", "pairs_per_bit": 3}),
    (["signal-test", "cfg.json", "--f", "csv"], {"config": "cfg.json", "format": "csv"}),
    (["feasibility", "s.txt", "--co", "4"], {"states_file": "s.txt", "copies": 4}),
    (["feasibility", "s.txt", "--c=4"], {"states_file": "s.txt", "copies": 4}),
    # a value after "=", or attached to a short flag
    (["signal-test", "cfg.json", "--seed=5"], {"config": "cfg.json", "seed": 5}),
    (["signal-test", "cfg.json", "--pairs-per-bit=2"], {"config": "cfg.json", "pairs_per_bit": 2}),
    (["feasibility", "s.txt", "-M3"], {"states_file": "s.txt", "copies": 3}),
    (["feasibility", "s.txt", "-M=3"], {"states_file": "s.txt", "copies": 3}),
    (["feasibility", "s.txt", "-M", "3"], {"states_file": "s.txt", "copies": 3}),
    (["signal-test", "cfg.json", "--out="], {"config": "cfg.json", "out": ""}),
    # options before the positional
    (
        ["signal-test", "--seed", "5", "--format", "csv", "cfg.json"],
        {"config": "cfg.json", "seed": 5, "format": "csv"},
    ),
    (["feasibility", "--gamma", "0.5", "s.txt"], {"states_file": "s.txt", "gamma": [0.5]}),
    # a negative number is a value, other tokens with a leading "-" are not
    (["signal-test", "cfg.json", "--seed", "-1"], {"config": "cfg.json", "seed": -1}),
    (["signal-test", "--seed=-5", "cfg.json"], {"config": "cfg.json", "seed": -5}),
    (["feasibility", "s.txt", "--gamma", "-0.5"], {"states_file": "s.txt", "gamma": [-0.5]}),
    (["feasibility", "s.txt", "-M", "-3"], {"states_file": "s.txt", "copies": -3}),
    # argparse refused these two with "argument --gamma: expected one argument",
    # which named the wrong fault: any token float() reads is a number
    (["feasibility", "s.txt", "--gamma", "-inf"], {"states_file": "s.txt", "gamma": [-np.inf]}),
    (["feasibility", "s.txt", "--gamma", "-1e-3"], {"states_file": "s.txt", "gamma": [-1e-3]}),
    (["signal-test", "cfg.json", "-1"], "unrecognized arguments: -1"),
    # the last value wins; --gamma repeats
    (["signal-test", "cfg.json", "--seed", "1", "--seed", "2"], {"config": "cfg.json", "seed": 2}),
    (["signal-test", "cfg.json", "--out", "a", "--out", "b"], {"config": "cfg.json", "out": "b"}),
    (
        ["feasibility", "s.txt", "--gamma", "0.5", "--gam", "0.6", "--g=0.7"],
        {"states_file": "s.txt", "gamma": [0.5, 0.6, 0.7]},
    ),
    (
        ["feasibility", "s.txt", "--max-uniform", "--max-uniform"],
        {"states_file": "s.txt", "max_uniform": True},
    ),
    (
        ["construct", "s.txt", "-M", "3", "--gamma", "0.4", "--out", "m.json"],
        {"states_file": "s.txt", "copies": 3, "gamma": [0.4], "out": "m.json"},
    ),
    (
        ["signal-test", "cfg.json", "--trials", "10", "--mu", "4", "--pairs-per-bit", "2",
         "--format", "json", "--out", "o"],
        {"config": "cfg.json", "trials": 10, "mu": 4, "pairs_per_bit": 2,
         "format": "json", "out": "o"},
    ),
    # int() and float() read the values
    (["signal-test", "cfg.json", "--seed", "1_000"], {"config": "cfg.json", "seed": 1000}),
    (["signal-test", "cfg.json", "--seed", " 7 "], {"config": "cfg.json", "seed": 7}),
    (["signal-test", "cfg.json", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["signal-test", "cfg.json", "--trials", "1e3"], "argument --trials: invalid int value: '1e3'"),
    (["signal-test", "cfg.json", "--seed="], "argument --seed: invalid int value: ''"),
    (["feasibility", "s.txt", "-M", "2.5"], "argument --copies/-M: invalid int value: '2.5'"),
    (["feasibility", "s.txt", "-Mx"], "argument --copies/-M: invalid int value: 'x'"),
    (["feasibility", "s.txt", "--gamma", "x"], "argument --gamma: invalid float value: 'x'"),
    (
        ["signal-test", "cfg.json", "--format", "xml"],
        "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')",
    ),
    # an option with no value
    (["signal-test", "cfg.json", "--seed"], "argument --seed: expected one argument"),
    (["feasibility", "s.txt", "--out", "--seed"], "argument --out: expected one argument"),
    (["signal-test", "cfg.json", "--out", "--seed"], "argument --out: expected one argument"),
    (["signal-test", "--seed", "--", "cfg.json"], "argument --seed: expected one argument"),
    (
        ["feasibility", "s.txt", "--max-uniform=1"],
        "argument --max-uniform: ignored explicit argument '1'",
    ),
    # after "--" every token is a positional
    (["signal-test", "--", "--x"], {"config": "--x"}),
    (["signal-test", "cfg.json", "--"], {"config": "cfg.json"}),
    (["signal-test", "cfg.json", "--", "--x"], "unrecognized arguments: --x"),
    (["signal-test", "cfg.json", "--seed", "5", "--"], "unrecognized arguments: --"),
    (["signal-test", "cfg.json", "--", "--", "x"], "unrecognized arguments: -- x"),
    (["signal-test", "-", "--seed", "1"], {"config": "-", "seed": 1}),
    (["signal-test", "-x y"], {"config": "-x y"}),
    # what is missing, in table order
    ([], "the following arguments are required: command"),
    (["--"], "the following arguments are required: command"),
    (["signal-test"], "the following arguments are required: config"),
    (["signal-test", "--seed", "5"], "the following arguments are required: config"),
    (["construct", "s.txt", "--gamma", "0.5"], "the following arguments are required: --out"),
    (["construct", "s.txt"], "the following arguments are required: --gamma, --out"),
    (["construct"], "the following arguments are required: states_file, --gamma, --out"),
    # --gamma and --max-uniform exclude each other
    (
        ["feasibility", "s.txt", "--max", "--gamma", "0.5"],
        "argument --gamma: not allowed with argument --max-uniform",
    ),
    (
        ["feasibility", "s.txt", "--gamma", "1", "--max-uniform", "-M", "x"],
        "argument --max-uniform: not allowed with argument --gamma",
    ),
    (
        ["feasibility", "s.txt", "-M", "x", "--max-uniform", "--gamma", "1"],
        "argument --copies/-M: invalid int value: 'x'",
    ),
    # unknown commands and options
    (["bogus"], f"argument command: invalid choice: 'bogus' {CHOICES}"),
    (["bogus", "-h"], f"argument command: invalid choice: 'bogus' {CHOICES}"),
    (["signal", "cfg.json"], f"argument command: invalid choice: 'signal' {CHOICES}"),
    ([""], f"argument command: invalid choice: '' {CHOICES}"),
    (["--x"], "the following arguments are required: command"),
    (["--x", "signal-test", "cfg.json", "--y"], "unrecognized arguments: --x --y"),
    (["signal-test", "cfg.json", "--x", "5"], "unrecognized arguments: --x 5"),
    (["signal-test", "--x", "5", "cfg.json"], "unrecognized arguments: --x cfg.json"),
    (["signal-test", "cfg.json", "extra"], "unrecognized arguments: extra"),
    (["signal-test", "cfg.json", "-M", "3"], "unrecognized arguments: -M 3"),
    (["feasibility", "s.txt", "--tol", "1e-9"], "unrecognized arguments: --tol 1e-9"),
    (
        ["construct", "s.txt", "--gamma", "0.5", "--max", "--out", "x"],
        "unrecognized arguments: --max",
    ),
    (
        ["signal-test", "--=5", "cfg.json"],
        "ambiguous option: --=5 could match --help, --seed, --trials, --mu, "
        "--pairs-per-bit, --format, --out",
    ),
    # help, unless an error comes first
    (["--help"], None),
    (["--he"], None),
    (["signal-test", "cfg.json", "-h"], None),
    (["signal-test", "-h", "--seed", "x"], None),
    (["signal-test", "--x", "-h"], None),
    (["feasibility", "--he"], None),
    (["construct", "-h"], None),
    (["signal-test", "--seed", "x", "-h"], "argument --seed: invalid int value: 'x'"),
    (["signal-test", "--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
]


class TestArgvTable:
    """The command table reads argv as argparse did."""

    @pytest.mark.parametrize("argv, expected", ARGV_TABLE, ids=[str(a) for a, _ in ARGV_TABLE])
    def test_argv_reads_as_before(self, argv, expected, capsys):
        if isinstance(expected, dict):
            args = vars(cli.parse_args(argv))
            command = argv[0]
            assert args.pop("func").__name__ == "cmd_" + command.replace("-", "_")
            assert args == {"command": command, **ARGV_DEFAULTS[command], **expected}
            return
        code = cli.main(argv)
        captured = capsys.readouterr()
        if expected is None:
            assert code == 0 and captured.err == ""
            assert captured.out.startswith("usage: pqclone")
        else:
            assert code == 1 and captured.out == ""
            assert captured.err == f"error: {expected}\n"

    @pytest.mark.parametrize("command", [[], ["feasibility"], ["construct"], ["signal-test"]])
    def test_help_lists_every_flag_of_the_command(self, command, capsys):
        assert cli.main([*command, "--help"]) == 0
        out = capsys.readouterr().out
        usage = "usage: " + " ".join(["pqclone", *command])
        assert out.startswith(usage + " [-h] ")
        row = cli._PQCLONE.by_name[command[0]] if command else cli._PQCLONE
        for option in row.options:
            assert all(flag in out for flag in option.flags)
        for name in row.by_name:
            assert f"\n  {name} " in out

    def test_import_loads_no_argparse(self):
        # the command table replaced argparse, and with it argparse's import
        # of gettext, in every CLI process
        code = "import sys, pqclone.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"


# Values that are wrong for some field: mistyped, non-finite, out of range.
BAD_VALUES = [
    None, True, "x", "", "max", [], {}, [[1.0]], [[1.0, 0.0, 0.0]], -1, 0, 1, 2.5,
    float("nan"), float("inf"), -float("inf"), 1e308, 2**70, {"kind": "legal"},
]
BAD_TOKENS = ["nan", "inf", "-inf", "1e400", "1e308", "x", "0", "-1", "2.5", "1,"]


def _mutate_tokens(draw, text: str) -> str:
    lines = text.splitlines()
    row = draw(st.integers(0, len(lines) - 1))
    tokens = lines[row].split() or [""]
    col = draw(st.integers(0, len(tokens) - 1))
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "replace":
        tokens[col] = draw(st.sampled_from(BAD_TOKENS))
    elif action == "drop":
        del tokens[col]
    else:
        tokens.insert(col, draw(st.sampled_from(BAD_TOKENS)))
    lines[row] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def malformed_states_texts(draw):
    name = draw(st.sampled_from(
        ["states_orthogonal_n2.txt", "states_overlap_n2.txt", "states_legal_n2.txt"]
    ))
    text = (CONFIGS / name).read_text()
    kind = draw(st.sampled_from(["truncate", "tokens", "lines"]))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text)))]
    if kind == "tokens":
        return _mutate_tokens(draw, text)
    data = [line for line in text.splitlines() if line.split("#")[0].strip()]
    extra = draw(st.sampled_from(["", "1 0 0 0", "0 0 1 0", "1 0 1 0", "3", "1 0"]))
    keep = draw(st.integers(0, len(data)))
    return "\n".join(data[:keep] + [extra] * draw(st.integers(0, 2))) + "\n"


@st.composite
def malformed_config_texts(draw):
    name = draw(st.sampled_from(["illegal_n2.json", "legal_n2.json"]))
    data = json.loads((CONFIGS / name).read_text())
    if "states_file" in data:
        data["states_file"] = str(CONFIGS / data["states_file"])
    kind = draw(st.sampled_from(
        ["truncate", "top", "value", "missing", "extra", "nested", "amps"]
    ))
    if kind == "top":
        return json.dumps(draw(st.sampled_from(BAD_VALUES)))
    if kind == "value":
        data[draw(st.sampled_from(sorted(data)))] = draw(st.sampled_from(BAD_VALUES))
    elif kind == "missing":
        del data[draw(st.sampled_from(sorted(data)))]
    elif kind == "extra":
        data[draw(st.sampled_from(["bogus", "tol", "threads"]))] = 1
    elif kind == "nested":
        spec = draw(st.sampled_from(["machine", "a2"]))
        key = draw(st.sampled_from(
            ["kind", "uniform_gamma", "gamma_scale", "gammas", "clonable_labels",
             "coefficients", "vectors", "state"]
        ))
        data[spec] = {**data[spec], key: draw(st.sampled_from(BAD_VALUES))}
    elif kind == "amps":
        data.pop("states_file", None)
        states = [[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.8, 0.0]]]
        entry = states[draw(st.integers(0, 1))]
        pair = draw(st.integers(0, 1))
        entry[pair] = draw(st.sampled_from(
            [[float("nan"), 0.0], [float("inf"), 0.0], [1e308, 1e308], [1.0],
             [1.0, 0.0, 0.0], ["1", 0.0], 1.0]
        ))
        if draw(st.booleans()):
            states.append(draw(st.sampled_from([[[1.0, 0.0]], [], states[0]])))
        data["bob_states"] = states
    text = json.dumps(data)
    if kind == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


def assert_clean_exit(argv) -> None:
    """Exit 0, 1 or 2; on exit 1, one line on stderr and no warning.

    A warning would print further lines to stderr in a real process.
    """
    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        err = err.getvalue()
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert not caught, [str(w.message) for w in caught]


def _write_input(path: Path, text: str | bytes) -> None:
    """Write an input file; bytes stand for one that is not UTF-8."""
    path.write_bytes(text.encode() if isinstance(text, str) else text)


def _illegal_config(**changes) -> str:
    data = json.loads((CONFIGS / "illegal_n2.json").read_text())
    return json.dumps({**data, **changes})


class TestCliFuzz:
    """Malformed input files through ``cli.main``, all in this one process.

    Every case reads the one command table. None may escape as an exception,
    and exit 1 must come with exactly one line on stderr.
    """

    FUZZ = settings(deadline=None, max_examples=200, derandomize=True)

    @FUZZ
    @example(text="2\n1 0 nan 0\n0 0 1 0\n", command=["feasibility", "--max-uniform"])
    @example(
        text=b"2\n1 0 0 0\n0 0 1 0 # \xff\n", command=["feasibility", "--max-uniform"]
    )
    @example(text="2\n1e308 0 1e308 0\n0 0 1 0\n", command=["construct", "--gamma", "0.5"])
    @given(
        text=malformed_states_texts(),
        command=st.sampled_from(
            [["feasibility", "--max-uniform"], ["feasibility", "--gamma", "0.5"],
             ["construct", "--gamma", "0.5"]]
        ),
    )
    def test_malformed_states_files(self, tmp_path_factory, text, command):
        work = tmp_path_factory.mktemp("states")
        states = work / "states.txt"
        _write_input(states, text)
        argv = [command[0], str(states), *command[1:]]
        if command[0] == "construct":
            argv += ["--out", str(work / "machine.json")]
        assert_clean_exit(argv)

    @FUZZ
    @example(command="construct", states="states_legal_n2.txt", copies="100000000",
             gammas=["0.5"], max_uniform=False, out="missing")
    @example(command="feasibility", states="states_overlap_n2.txt", copies="1",
             gammas=[], max_uniform=True, out="under-file")
    # the command table refuses these itself, with one line too
    @example(command="feasibility", states="states_overlap_n2.txt", copies="2.5",
             gammas=[], max_uniform=False, out=None)
    @example(command="construct", states="states_overlap_n2.txt", copies="2",
             gammas=["x"], max_uniform=False, out=None)
    @example(command="feasibility", states=None, copies="2",
             gammas=[], max_uniform=False, out=None)
    @example(command="no-such-command", states="states_overlap_n2.txt", copies="2",
             gammas=[], max_uniform=False, out=None)
    @given(
        command=st.sampled_from(["feasibility", "construct", "no-such-command"]),
        # None leaves out the states file
        states=st.sampled_from(
            ["states_orthogonal_n2.txt", "states_overlap_n2.txt", "states_legal_n2.txt",
             None]
        ),
        copies=st.sampled_from(["0", "1", "-3", "100000000", "2", "3", "2.5"]),
        # one or N = 2 values, and the wrong counts 0 and 3
        gammas=st.lists(
            st.sampled_from(["nan", "inf", "-0.1", "1.5", "0.5", "0.2", "x"]), max_size=3
        ),
        max_uniform=st.booleans(),
        out=st.sampled_from([None, "missing", "under-file"]),
    )
    def test_feasibility_and_construct_argv(
        self, tmp_path_factory, command, states, copies, gammas, max_uniform, out
    ):
        work = tmp_path_factory.mktemp("argv")
        argv = [command, *([str(CONFIGS / states)] if states else []), "-M", copies]
        for gamma in gammas or (["0.5"] if command == "construct" else []):
            argv += ["--gamma", gamma]
        if max_uniform and command == "feasibility":
            argv.append("--max-uniform")
        if out == "under-file":
            (work / "blocker").write_text("")
            argv += ["--out", str(work / "blocker" / "r.json")]
        elif out == "missing" or command == "construct":
            argv += ["--out", str(work / "no" / "such" / "r.json")]
        assert_clean_exit(argv)

    @FUZZ
    @example(config="illegal_n2.json", options={"--seed": "-1"}, joined=False, first=True,
             out_kind="dir")
    @example(config="legal_n2.json", options={"--format": "xml"}, joined=True, first=False,
             out_kind="dir")
    @example(config="illegal_n2.json", options={"--trials": ""}, joined=False, first=False,
             out_kind="under-file")
    @given(
        config=st.sampled_from(["illegal_n2.json", "legal_n2.json"]),
        # good values and bad: out of range, not a number, empty
        options=st.fixed_dictionaries({}, optional={
            "--seed": st.sampled_from(
                ["0", "7", "18446744073709551615", "18446744073709551616", "-1", "1.5",
                 "x", ""]
            ),
            "--trials": st.sampled_from(
                ["10", "500", "0", "-3", "4611686018427387905", "1e3", "x", ""]
            ),
            "--mu": st.sampled_from(["1", "2", "6", "0", "-2", "2.0", "x"]),
            "--pairs-per-bit": st.sampled_from(["1", "3", "0", "-1", "x"]),
            "--format": st.sampled_from(["json", "csv", "xml", "JSON", ""]),
        }),
        # "--opt=value" or "--opt value"
        joined=st.booleans(),
        # the config before the options or after them
        first=st.booleans(),
        out_kind=st.sampled_from(["dir", "", "under-file"]),
    )
    def test_signal_test_argv(
        self, tmp_path_factory, config, options, joined, first, out_kind
    ):
        work = tmp_path_factory.mktemp("signal")
        if out_kind == "under-file":
            (work / "blocker").write_text("")
        out = {"dir": str(work / "out"), "": "", "under-file": str(work / "blocker" / "out")}
        options = {**options, "--out": out[out_kind]}
        tokens = []
        for flag, value in options.items():
            tokens += [f"{flag}={value}"] if joined else [flag, value]
        path = [str(CONFIGS / config)]
        assert_clean_exit(["signal-test", *(path + tokens if first else tokens + path)])

    @FUZZ
    @example(text="null")
    @example(text=b'{"mu": 4\xff}')
    @example(text='{"mu": ' + "1" * 5000 + "}")
    @example(text="[" * 100_000)
    @example(text=_illegal_config(machine={"kind": "illegal", "clonable_labels": []}))
    @example(text=_illegal_config(bob_states=[]))
    @example(
        text=_illegal_config(
            bob_states=[[[float("inf"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        )
    )
    @example(
        text=_illegal_config(
            bob_states=[[[True, False], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        )
    )
    @example(
        text=_illegal_config(
            bob_states=[[["1", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        )
    )
    @example(
        text=_illegal_config(
            a2={"kind": "target", "state": [[True, False], [0.0, 0.0]]}
        )
    )
    @given(text=malformed_config_texts())
    def test_malformed_configs(self, tmp_path_factory, text):
        work = tmp_path_factory.mktemp("config")
        cfg = work / "config.json"
        _write_input(cfg, text)
        assert_clean_exit(["signal-test", str(cfg), "--out", str(work / "out")])
