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
import os
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import pqcm, signalling
from .errors import FeasibilityError, PqcloneError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

# (record key, setting, vote) of each P(vote | setting), in stdout order
_VOTE_RATES = tuple((f"p{v}_a{s + 1}", s, v) for s in (0, 1) for v in (0, 1))


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage, after a usage text; here, as for every
    # other bad input, it exits 1 with one line (2 means "infeasible")
    def error(self, message):
        self.exit(EXIT_ERROR, f"error: {message}\n")


def _matrix_to_pairs(matrix: np.ndarray) -> list:
    return [
        [[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)
    ]


# the open of an output file: created if missing, truncated if present
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
# the value types the C encoder writes as json.dumps does; a subclass, such
# as a numpy float, takes json.dumps itself
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _items_json(depth: int) -> json.JSONEncoder:
    """The C JSON encoder with the item separator of
    ``json.dumps(indent=2, sort_keys=True)`` at nesting ``depth``.

    ``json.dumps`` runs its pure-Python encoder when given an indent, and
    the C one takes none, so the indent is folded into the separator. The
    items of a list or dict of scalars come out exactly as ``json.dumps``
    lays them out at that depth."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": "))


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, creating its missing parent directories.

    The file is opened first; the parents are made only when that open
    finds one missing. A path that cannot be written, say one under a
    regular file, raises PqcloneError, so the command exits 1 with one line.
    """
    data = memoryview(text.encode())
    try:
        try:
            fd = os.open(path, _CREATE, 0o666)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, _CREATE, 0o666)
        try:
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
    except OSError as exc:
        raise PqcloneError(f"cannot write {path}: {exc}") from None


def _json_text(data: dict) -> str:
    """``data`` as JSON text, indented by 2 with sorted keys, plus a newline."""
    if data and _JSON_SCALARS.issuperset(map(type, data.values())):
        return "{\n  " + _items_json(1).encode(data)[1:-1] + "\n}\n"
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _tally_json(header: list, rows: list) -> str:
    """``_json_text({"columns": header, "rows": rows})`` for a nonempty
    header and nonempty rows of scalars, each list from the C encoder."""
    body = ",\n    ".join(
        "[\n      " + _items_json(3).encode(row)[1:-1] + "\n    ]" for row in rows
    )
    return (
        '{\n  "columns": [\n    ' + _items_json(2).encode(header)[1:-1]
        + '\n  ],\n  "rows": [\n    ' + body + "\n  ]\n}\n"
    )


def _dump_json(data: dict, path: Path) -> None:
    _write_text(path, _json_text(data))


def _dump_kv_csv(data: dict, path: Path) -> None:
    lines = ["key,value"] + [f"{key},{data[key]}" for key in sorted(data)]
    _write_text(path, "\n".join(lines) + "\n")


def _write_tally(tally: signalling.TallyTable, path: Path, fmt: str) -> None:
    n = tally.n
    header = ["input"] + [f"B{j}" for j in range(1, n + 2)] + ["phi"]
    rows = [[f"B{i + 1}"] + row for i, row in enumerate(tally.counts.tolist())]
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(str(x) for x in row))
        _write_text(path, "\n".join(lines) + "\n")
    else:
        _write_text(path, _tally_json(header, rows))


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
        "accuracy": stats.accuracy,
        "leakage": stats.leakage,
        "no_signal_certificate": certificate,
        "channel_accuracy": channel.accuracy,
        "channel_bits": len(channel.sent),
        "channel_coin_flips": channel.coin_flips,
        "channel_pairs_per_bit": run.pairs_per_bit,
    }
    labels = [f"b{j}" for j in range(1, stats.n + 2)] + ["phi"]
    for setting, a in enumerate(("a1", "a2")):
        record[f"classified_{a}"] = stats.classified[setting]
        record[f"discard_rate_{a}"] = stats.discard_rate[setting]
        for label, value in zip(labels, stats.p_col[setting]):
            record[f"p_{a}_{label}"] = float(value)
    for key, setting, vote in _VOTE_RATES:
        record[key] = float(stats.p_vote[setting, vote])
        record[f"stderr_{key}"] = float(stats.stderr[setting, vote])
    return record


def _per_state(gammas: list, n: int) -> list:
    """One efficiency per state; a single value is used for all N."""
    if len(gammas) == 1:
        gammas = gammas * n
    if len(gammas) != n:
        raise PqcloneError(f"need 1 or {n} gamma values, got {len(gammas)}")
    return gammas


def _out_file(out: str | None) -> Path | None:
    """The ``--out`` file of ``feasibility`` or ``construct``, if any; an
    empty path names no file and is refused."""
    if out == "":
        raise PqcloneError("no output file (--out is empty)")
    return None if out is None else Path(out)


def cmd_feasibility(args) -> int:
    out = _out_file(args.out)
    states = config_mod.load_states(args.states_file)
    m = args.copies
    report: dict = {"n_states": len(states), "dim": states.shape[1], "copies": m}
    legal = pqcm.FactoredSet(states, m)
    one_or_n = args.gamma or [1.0]
    if args.max_uniform:
        report["gamma_max"] = legal.gamma_max
        one_or_n = [report["gamma_max"]]
    gammas = _per_state(one_or_n, len(states))
    feasible, least = legal.gram_verdict(gammas)
    report["gammas"] = [float(g) for g in gammas]
    report["least_discard_mass"] = least
    report["feasible"] = feasible
    if out is not None:  # first, so a failed write prints no verdict
        _dump_json(report, out)
    print(f"feasible: {feasible}")
    print(f"least_discard_mass: {least!r}")
    if args.max_uniform:
        print(f"gamma_max: {report['gamma_max']!r}")
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def cmd_construct(args) -> int:
    out = _out_file(args.out)
    states = config_mod.load_states(args.states_file)
    gammas = _per_state(args.gamma, len(states))
    try:
        machine = pqcm.construct_machine(states, args.copies, gammas)
    except FeasibilityError as exc:  # its text carries the least discard mass
        print(f"infeasible: {exc}", file=sys.stderr)
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
    _dump_json(dump, out)
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
    if not run.out:  # unset or empty
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
    fmt = run.format
    tally_path = out_dir / f"tally.{fmt}"
    stats_path = out_dir / f"stats.{fmt}"
    _write_tally(tally, tally_path, fmt)
    record = _stats_record(stats, certificate, channel, run)
    if fmt == "csv":
        _dump_kv_csv(record, stats_path)
    else:
        _dump_json(record, stats_path)

    summary = (
        f"classified: A1={stats.classified[0]} A2={stats.classified[1]}",
        " ".join(f"{key}={record[key]!r}" for key, _, _ in _VOTE_RATES),
        f"channel_accuracy: {channel.accuracy!r} over {len(channel.sent)} bits",
        f"no_signal_certificate: {certificate!r}",
        f"wrote: {tally_path} {stats_path}",
    )
    sys.stdout.write("\n".join(summary) + "\n")  # one write
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
    # --max-uniform decides at gamma_max, so it takes no --gamma
    p_gammas = p_feas.add_mutually_exclusive_group()
    p_gammas.add_argument(
        "--gamma", type=float, action="append", help="efficiency (repeat per state)"
    )
    p_gammas.add_argument(
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
