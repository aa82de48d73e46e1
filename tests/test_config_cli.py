"""State files, config round-trips, CLI subcommands and exit codes."""

import contextlib
import dataclasses
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqclone import cli, signalling
from pqclone import config as config_mod
from pqclone.config import (
    RunConfig,
    build_protocol,
    ket_to_pairs,
    load_states,
    parse_states_text,
)
from pqclone.errors import ConfigError
from pqclone.pqcm import IllegalClonerSpec, PqcmMachine
from pqclone.qcore import Ket, SeededRng

from born import random_ket

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


class TestStatesFile:
    def test_parse_with_comments(self):
        text = "# demo\n2\n1 0 0 0  # ket zero\n0 0 1 0\n"
        states = parse_states_text(text)
        assert len(states) == 2
        np.testing.assert_allclose(states[0].amplitudes, [1, 0])

    def test_normalizes_entries(self):
        states = parse_states_text("2\n3 0 4 0\n")
        assert states[0].norm() == pytest.approx(1.0, abs=1e-12)

    def test_wrong_token_count_reports_line(self):
        with pytest.raises(ConfigError, match=":3:"):
            parse_states_text("2\n1 0 0 0\n1 0\n", source="demo.txt")

    def test_non_numeric_reports_line(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_states_text("2\n1 0 x 0\n")

    def test_zero_norm_rejected(self):
        with pytest.raises(ConfigError, match="zero norm"):
            parse_states_text("2\n0 0 0 0\n")

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
        assert "min_eigenvalue: 0.0" in out

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
        assert "min_eigenvalue" in err
        assert not out.exists()


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

    def test_reruns_are_byte_identical(self, tmp_path):
        d1 = self.run_demo(tmp_path, "json", "run1")
        d2 = self.run_demo(tmp_path, "json", "run2")
        for name in ("tally.json", "stats.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

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
    # end in a raw ValueError, TypeError, KeyError or IndexError.
    @pytest.mark.parametrize(
        "name, field, value",
        [
            ("legal_n2.json", "machine", {"kind": "legal", "uniform_gamma": "x"}),
            ("legal_n2.json", "machine", {"kind": "legal", "gamma_scale": "x"}),
            ("legal_n2.json", "machine", {"kind": "legal", "gammas": ["x", 0.1]}),
            ("legal_n2.json", "a2", {"kind": "vectors", "vectors": 3}),
            ("legal_n2.json", "a2", {"kind": "target"}),
            (
                "illegal_n2.json",
                "machine",
                {
                    "kind": "illegal",
                    "coefficients": {
                        "4": {"c": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0]], "d": "x"}
                    },
                },
            ),
        ],
        ids=["uniform_gamma", "gamma_scale", "gammas", "vectors", "target", "d"],
    )
    def test_malformed_nested_value_exits_1_with_one_line(
        self, tmp_path, capsys, name, field, value
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
        assert err.startswith(f"error: {field} ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

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


class TestSharedParser:
    """``cli.main`` reuses one parser, so no call may leak into the next."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

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
        assert cli.build_parser().parse_args(["feasibility", states]).gamma is None

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


def _illegal_config(**changes) -> str:
    data = json.loads((CONFIGS / "illegal_n2.json").read_text())
    return json.dumps({**data, **changes})


class TestCliFuzz:
    """Malformed input files through ``cli.main``, all in this one process.

    Every case shares the one parser. None may escape as an exception, and
    exit 1 must come with exactly one line on stderr.
    """

    FUZZ = settings(deadline=None, max_examples=200, derandomize=True)

    @FUZZ
    @example(text="2\n1 0 nan 0\n0 0 1 0\n", command=["feasibility", "--max-uniform"])
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
        states.write_text(text)
        argv = [command[0], str(states), *command[1:]]
        if command[0] == "construct":
            argv += ["--out", str(work / "machine.json")]
        assert_clean_exit(argv)

    @FUZZ
    @example(text="null")
    @example(text=_illegal_config(machine={"kind": "illegal", "clonable_labels": []}))
    @example(text=_illegal_config(bob_states=[]))
    @example(
        text=_illegal_config(
            bob_states=[[[float("inf"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        )
    )
    @given(text=malformed_config_texts())
    def test_malformed_configs(self, tmp_path_factory, text):
        work = tmp_path_factory.mktemp("config")
        cfg = work / "config.json"
        cfg.write_text(text)
        assert_clean_exit(["signal-test", str(cfg), "--out", str(work / "out")])
