"""State files, config round-trips, CLI subcommands and exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from pqclone import cli
from pqclone.config import (
    RunConfig,
    build_protocol,
    ket_to_pairs,
    load_states,
    parse_states_text,
)
from pqclone.errors import ConfigError
from pqclone.pqcm import IllegalClonerSpec, PqcmMachine
from pqclone.qcore import Ket, SeededRng, random_ket

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
            ["--max-uniform", "--tol", "0"],
            ["--max-uniform", "--tol=-1e-3"],
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

    def test_tol_below_float_resolution_terminates(self, capsys):
        code = cli.main(
            ["feasibility", str(CONFIGS / "states_overlap_n2.txt"), "-M", "2",
             "--max-uniform", "--tol", "1e-300"]
        )
        assert code == 0
        gamma = float(capsys.readouterr().out.split("gamma_max: ")[1].split()[0])
        assert gamma == pytest.approx(0.58578644, abs=1e-8)


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
    def run_demo(self, tmp_path, monkeypatch, fmt, out_name, trials="400", threads=None):
        if threads is not None:
            monkeypatch.setenv("PQCM_THREADS", threads)
        else:
            monkeypatch.delenv("PQCM_THREADS", raising=False)
        out_dir = tmp_path / out_name
        code = cli.main(
            ["signal-test", str(CONFIGS / "illegal_n2.json"),
             "--trials", trials, "--format", fmt, "--out", str(out_dir)]
        )
        assert code == 0
        return out_dir

    def test_csv_and_json_agree_value_for_value(self, tmp_path, monkeypatch):
        d_json = self.run_demo(tmp_path, monkeypatch, "json", "as_json")
        d_csv = self.run_demo(tmp_path, monkeypatch, "csv", "as_csv")

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

    def test_reruns_are_byte_identical(self, tmp_path, monkeypatch):
        d1 = self.run_demo(tmp_path, monkeypatch, "json", "run1")
        d2 = self.run_demo(tmp_path, monkeypatch, "json", "run2")
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
