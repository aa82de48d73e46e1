"""Command-line front end: feasibility checks, machine dumps, signalling runs.

Exit codes: 0 on success (and feasible verdicts), 2 when the requested
cloning is infeasible, 1 on any other error. ``signal-test`` outputs are
byte-identical for a fixed seed.

The argument parser is built once per process, on the first ``main`` call,
and reused by every later call; parsing never changes it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import pqcm, qcore, signalling
from .errors import FeasibilityError, PqcloneError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; 2 is reserved for "infeasible" here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _matrix_to_pairs(matrix: np.ndarray) -> list:
    return [
        [[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)
    ]


def _dump_json(data: dict, path: Path) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _dump_kv_csv(data: dict, path: Path) -> None:
    lines = ["key,value"]
    for key in sorted(data):
        lines.append(f"{key},{data[key]!r}" if isinstance(data[key], str) else f"{key},{data[key]}")
    path.write_text("\n".join(lines) + "\n")


def _tally_rows(tally: signalling.TallyTable) -> tuple[list[str], list[list]]:
    n = tally.n
    header = ["input"] + [f"B{j}" for j in range(1, n + 2)] + ["phi"]
    rows = []
    for i in range(2 * n):
        rows.append([f"B{i + 1}"] + [int(c) for c in tally.counts[i]])
    return header, rows


def _write_tally(tally: signalling.TallyTable, path: Path, fmt: str) -> None:
    header, rows = _tally_rows(tally)
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(str(x) for x in row))
        path.write_text("\n".join(lines) + "\n")
    else:
        _dump_json({"columns": header, "rows": rows}, path)


def _stats_record(
    stats: signalling.SignalStats,
    certificate: float,
    channel: signalling.ChannelResult,
    run: config_mod.RunConfig,
) -> dict:
    record = {
        "n": stats.n,
        "mu": run.mu,
        "seed": run.seed,
        "trials_per_setting": run.trials,
        "classified_a1": stats.classified[0],
        "classified_a2": stats.classified[1],
        "discard_rate_a1": stats.discard_rate[0],
        "discard_rate_a2": stats.discard_rate[1],
        "p0_a1": stats.p0_a1,
        "stderr_p0_a1": stats.stderr_p0_a1,
        "p1_a1": stats.p1_a1,
        "stderr_p1_a1": stats.stderr_p1_a1,
        "p0_a2": stats.p0_a2,
        "stderr_p0_a2": stats.stderr_p0_a2,
        "p1_a2": stats.p1_a2,
        "stderr_p1_a2": stats.stderr_p1_a2,
        "accuracy": stats.accuracy,
        "leakage": stats.leakage,
        "no_signal_certificate": certificate,
        "channel_accuracy": channel.accuracy,
        "channel_bits": len(channel.sent),
        "channel_coin_flips": channel.coin_flips,
        "channel_pairs_per_bit": run.pairs_per_bit,
    }
    labels = [f"b{j}" for j in range(1, stats.n + 2)] + ["phi"]
    for setting in (0, 1):
        for label, value in zip(labels, stats.p_col[setting]):
            record[f"p_a{setting + 1}_{label}"] = float(value)
    return record


def cmd_feasibility(args) -> int:
    states = config_mod.load_states(args.states_file)
    m = args.copies
    report: dict = {"n_states": len(states), "dim": states[0].dim, "copies": m}
    if args.max_uniform:
        gamma = pqcm.max_uniform_gamma(states, m)
        gammas = [gamma] * len(states)
        report["gamma_max"] = gamma
    else:
        gammas = args.gamma if args.gamma else [1.0] * len(states)
        if len(gammas) == 1:
            gammas = gammas * len(states)
        if len(gammas) != len(states):
            raise PqcloneError(
                f"need 1 or {len(states)} gamma values, got {len(gammas)}"
            )
    matrix = pqcm.feasibility_matrix(states, m, gammas)
    min_eig = float(qcore.hermitian_eigenvalues(matrix)[0])
    feasible = bool(min_eig >= -qcore.PSD_TOL)
    report["gammas"] = [float(g) for g in gammas]
    report["min_eigenvalue"] = min_eig
    report["feasible"] = feasible
    print(f"feasible: {feasible}")
    print(f"min_eigenvalue: {min_eig!r}")
    if args.max_uniform:
        print(f"gamma_max: {report['gamma_max']!r}")
    if args.out:
        _dump_json(report, Path(args.out))
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def cmd_construct(args) -> int:
    states = config_mod.load_states(args.states_file)
    gammas = args.gamma
    if len(gammas) == 1:
        gammas = gammas * len(states)
    if len(gammas) != len(states):
        raise PqcloneError(f"need 1 or {len(states)} gamma values, got {len(gammas)}")
    try:
        machine = pqcm.construct_machine(states, args.copies, gammas)
    except FeasibilityError as exc:
        matrix = pqcm.feasibility_matrix(states, args.copies, gammas)
        min_eig = float(qcore.hermitian_eigenvalues(matrix)[0])
        print(f"infeasible: {exc}", file=sys.stderr)
        print(f"min_eigenvalue: {min_eig!r}", file=sys.stderr)
        return EXIT_INFEASIBLE
    dump = {
        "dim": machine.dim,
        "copies": machine.copies,
        "gammas": [float(g) for g in machine.gammas],
        "kraus_success": _matrix_to_pairs(machine.kraus_success),
        "kraus_fail": _matrix_to_pairs(machine.kraus_fail),
        "clone_residual": machine.clone_residual,
        "trace_residual": machine.trace_residual,
    }
    _dump_json(dump, Path(args.out))
    print(f"wrote machine to {args.out}")
    print(f"clone_residual: {machine.clone_residual!r}")
    print(f"trace_residual: {machine.trace_residual!r}")
    return EXIT_OK


def cmd_signal_test(args) -> int:
    run = config_mod.RunConfig.load(args.config)
    base_dir = Path(args.config).parent
    overrides = {}
    for name in ("seed", "trials", "mu", "pairs_per_bit", "format", "out"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    # replace() re-runs RunConfig's checks on every overridden field
    run = dataclasses.replace(run, **overrides)
    if run.out is None:
        raise PqcloneError("no output directory (set 'out' in config or pass --out)")

    protocol = config_mod.build_protocol(run, base_dir)
    tally, stats = signalling.run_protocol(protocol)
    context = protocol.context
    certificate = signalling.analytic_no_signal_certificate(
        context.kets, context.probs
    )
    message = signalling.random_message(run.seed, run.message_bits)
    channel = signalling.run_channel(protocol, message)

    out_dir = Path(run.out)
    if not out_dir.is_absolute():
        out_dir = Path.cwd() / out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = run.format
    tally_path = out_dir / f"tally.{fmt}"
    stats_path = out_dir / f"stats.{fmt}"
    _write_tally(tally, tally_path, fmt)
    record = _stats_record(stats, certificate, channel, run)
    if fmt == "csv":
        _dump_kv_csv(record, stats_path)
    else:
        _dump_json(record, stats_path)

    print(f"classified: A1={stats.classified[0]} A2={stats.classified[1]}")
    print(
        f"p0_a1={stats.p0_a1!r} p1_a1={stats.p1_a1!r} "
        f"p0_a2={stats.p0_a2!r} p1_a2={stats.p1_a2!r}"
    )
    print(f"channel_accuracy: {channel.accuracy!r} over {len(channel.sent)} bits")
    print(f"no_signal_certificate: {certificate!r}")
    print(f"wrote: {tally_path} {stats_path}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use."""
    parser = _Parser(
        prog="pqclone",
        description=(
            "Probabilistic quantum cloning: feasibility analysis, explicit "
            "machine construction, and no-signalling experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_feas = sub.add_parser("feasibility", help="PSD verdict for a cloning request")
    p_feas.add_argument("states_file")
    p_feas.add_argument("--copies", "-M", type=int, default=2)
    p_feas.add_argument(
        "--gamma", type=float, action="append", help="efficiency (repeat per state)"
    )
    p_feas.add_argument(
        "--max-uniform",
        action="store_true",
        help="largest feasible uniform gamma, in closed form",
    )
    p_feas.add_argument("--out", help="also write a JSON report here")
    p_feas.set_defaults(func=cmd_feasibility)

    p_con = sub.add_parser("construct", help="build and dump an explicit machine")
    p_con.add_argument("states_file")
    p_con.add_argument("--copies", "-M", type=int, default=2)
    p_con.add_argument("--gamma", type=float, action="append", required=True)
    p_con.add_argument("--out", required=True)
    p_con.set_defaults(func=cmd_construct)

    p_sig = sub.add_parser("signal-test", help="run the two-basis signalling protocol")
    p_sig.add_argument("config")
    p_sig.add_argument("--seed", type=int)
    p_sig.add_argument("--trials", type=int)
    p_sig.add_argument("--mu", type=int)
    p_sig.add_argument("--pairs-per-bit", type=int, dest="pairs_per_bit")
    p_sig.add_argument("--format", choices=config_mod.FORMATS)
    p_sig.add_argument("--out")
    p_sig.set_defaults(func=cmd_signal_test)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PqcloneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
