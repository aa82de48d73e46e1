"""Command-line front end: feasibility checks, machine dumps, signalling runs.

Exit codes: 0 on success (and feasible verdicts), 2 when the requested
cloning is infeasible, 1 on any other error. ``signal-test`` outputs are
byte-identical for a fixed seed.

Arguments are read against one table, ``_PQCLONE``: a row per command
with its positional and its options, each option with its converter.
``parse_args`` reads argv in one left-to-right pass (``--opt value``,
``--opt=value``, ``-M3``, a unique prefix of a long flag, the last value
winning), and the -h text is laid out from the same rows. Every usage
error is one ``error:`` line on stderr and exit 1.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import textwrap
import types

import numpy as np

from . import config as config_mod
from . import pqcm, signalling
from .errors import ConfigError, FeasibilityError, PqcloneError, shown_path

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

# (record key, setting, vote) of each P(vote | setting), in stdout order
_VOTE_RATES = tuple((f"p{v}_a{s + 1}", s, v) for s in (0, 1) for v in (0, 1))


def _matrix_to_pairs(matrix: np.ndarray) -> list:
    return [
        [[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)
    ]


# the open of an output file: created if missing, truncated if present
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


@functools.cache
def _items_json(depth: int) -> json.JSONEncoder:
    """The C JSON encoder with the item separator of
    ``json.dumps(indent=2, sort_keys=True)`` at nesting ``depth``.

    ``json.dumps`` runs its pure-Python encoder when given an indent, and
    the C one takes none, so the indent is folded into the separator. The
    items of a list or dict of scalars come out exactly as ``json.dumps``
    lays them out at that depth."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": "))


def _flat_json(data, depth: int) -> str:
    """A nonempty flat list or dict of scalars as ``json.dumps(indent=2,
    sort_keys=True)`` lays it out at nesting ``depth``, in one C-encoder call."""
    text = _items_json(depth + 1).encode(data)
    indent = "\n" + "  " * depth
    return f"{text[0]}{indent}  {text[1:-1]}{indent}{text[-1]}"


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, creating its missing parent directories.

    The file is opened first; the parents are made only when that open
    finds one missing. A path that cannot be written, say one under a
    regular file or one with a NUL in it, raises PqcloneError, so the
    command exits 1 with one line (``shown_path``).
    """
    data = memoryview(text.encode())
    try:
        try:
            fd = os.open(path, _CREATE, 0o666)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd = os.open(path, _CREATE, 0o666)
        try:
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise PqcloneError(f"cannot write {shown_path(path)}: {exc}") from None


def _write_tally(tally: signalling.TallyTable, path: str, fmt: str) -> None:
    # the file view: a row per preparation B1..B2N, A1's outcomes then A2's,
    # and a column per Bob cell but the discards, which stats reports
    n = tally.n
    header = ["input"] + [f"B{j}" for j in range(1, n + 2)] + ["phi"]
    counts = tally.cells[:, :, : n + 2].reshape(2 * n, n + 2).tolist()
    rows = [[f"B{i + 1}"] + row for i, row in enumerate(counts)]
    if fmt == "csv":
        text = "\n".join(",".join(map(str, row)) for row in [header, *rows]) + "\n"
    else:
        text = _tally_json(header, rows)
    _write_text(path, text)


def _tally_json(header: list, rows: list) -> str:
    """``json.dumps({"columns": header, "rows": rows}, indent=2, sort_keys=True)``
    plus a newline, for flat rows."""
    columns = _flat_json(header, 1)
    rows_text = ",\n    ".join(_flat_json(row, 2) for row in rows)
    return f'{{\n  "columns": {columns},\n  "rows": [\n    {rows_text}\n  ]\n}}\n'


def _stats_record(
    tally: signalling.TallyTable,
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
        record[f"classified_{a}"] = tally.classified[setting]
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


def _out_file(out: str | None) -> str | None:
    """The ``--out`` file of ``feasibility`` or ``construct``, if any; an
    empty path names no file and is refused."""
    if out == "":
        raise PqcloneError("no output file (--out is empty)")
    return out


def _path_text(path: str) -> str:
    """``path`` spelt as ``str(pathlib.PurePosixPath(path))``: empty and "."
    parts dropped, ".." kept, and a leading "//" kept apart from "/" or
    "///", as POSIX leaves its meaning to the system."""
    parts = [part for part in path.split("/") if part and part != "."]
    root = ""
    if path.startswith("/"):
        root = "//" if path.startswith("//") and path[2:3] != "/" else "/"
    return root + "/".join(parts) or "."


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
        _write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
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
    _write_text(out, json.dumps(dump, indent=2, sort_keys=True) + "\n")
    print(f"wrote machine to {shown_path(args.out)}")
    print(f"clone_residual: {machine.clone_residual!r}")
    print(f"trace_residual: {machine.trace_residual!r}")
    return EXIT_OK


def cmd_signal_test(args) -> int:
    run = config_mod.RunConfig.load(args.config)
    base_dir = os.path.dirname(args.config)
    overrides = {}
    for name in ("seed", "trials", "mu", "pairs_per_bit", "format", "out"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    # a new RunConfig re-runs its checks on every field, the overridden ones too
    run = config_mod.RunConfig(**{**vars(run), **overrides})
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

    # an absolute out replaces the working directory; the printed paths
    # keep pathlib's spelling, so "--out ./x/" prints CWD/x/tally.json
    out_dir = _path_text(os.path.join(os.getcwd(), run.out))
    fmt = run.format
    tally_path = os.path.join(out_dir, f"tally.{fmt}")
    stats_path = os.path.join(out_dir, f"stats.{fmt}")
    _write_tally(tally, tally_path, fmt)
    record = _stats_record(tally, stats, certificate, channel, run)
    if fmt == "csv":
        lines = ["key,value"] + [f"{key},{record[key]}" for key in sorted(record)]
        _write_text(stats_path, "\n".join(lines) + "\n")
    else:
        _write_text(stats_path, _flat_json(record, 0) + "\n")

    summary = (
        f"classified: A1={tally.classified[0]} A2={tally.classified[1]}",
        " ".join(f"{key}={record[key]!r}" for key, _, _ in _VOTE_RATES),
        f"channel_accuracy: {channel.accuracy!r} over {len(channel.sent)} bits",
        f"no_signal_certificate: {certificate!r}",
        f"wrote: {shown_path(tally_path)} {shown_path(stats_path)}",
    )
    sys.stdout.write("\n".join(summary) + "\n")  # one write
    return EXIT_OK


@dataclasses.dataclass
class _Option:
    """One option of a command: its spellings and how its value is read."""

    flags: tuple  # the first, a long flag, names the attribute and the usage
    convert: type | None  # int, float or str of the value; None makes a switch
    help: str
    default: object = None
    repeat: bool = False  # each use appends its value to a list
    required: bool = False
    choices: tuple = ()

    def __post_init__(self):
        self.dest = self.flags[0][2:].replace("-", "_")  # the attribute it sets
        self.name = "/".join(self.flags)  # as usage errors name it


_HELP = _Option(("-h", "--help"), None, "show this help message and exit")


@dataclasses.dataclass
class _Command:
    """One row of the command table: a command, its positional and its options.

    The top level is a row too; its positional is the command, and the rest
    of argv after it is that command's.
    """

    name: str
    help: str
    positional: str
    options: tuple = ()
    exclusive: tuple = ()  # dests of which at most one may be given
    run: object = None  # cmd_* of the command
    commands: tuple = ()  # the rows of the top level

    def __post_init__(self):
        self.flags = {f: opt for opt in (_HELP, *self.options) for f in opt.flags}
        self.defaults = {opt.dest: opt.default for opt in self.options}
        self.by_name = {command.name: command for command in self.commands}


class _Help(Exception):
    """-h or --help: print the help of the command in ``args[0]`` and exit 0."""


_COPIES = _Option(("--copies", "-M"), int, "copies M per input state (default 2)", 2)
_PQCLONE = _Command(
    "pqclone",
    "Probabilistic quantum cloning: feasibility analysis, explicit machine "
    "construction, and no-signalling experiments.",
    "command",
    commands=(
        _Command(
            "feasibility",
            "PSD verdict for a cloning request",
            "states_file",
            (
                _COPIES,
                _Option(("--gamma",), float, "efficiency (repeat per state)", repeat=True),
                _Option(
                    ("--max-uniform",), None,
                    "largest feasible uniform gamma, in closed form", False,
                ),
                _Option(("--out",), str, "also write a JSON report here"),
            ),
            # --max-uniform decides at gamma_max, so it takes no --gamma
            exclusive=("gamma", "max_uniform"),
            run=cmd_feasibility,
        ),
        _Command(
            "construct",
            "build and dump an explicit machine",
            "states_file",
            (
                _COPIES,
                _Option(
                    ("--gamma",), float, "efficiency (repeat per state)",
                    repeat=True, required=True,
                ),
                _Option(("--out",), str, "write the machine here as JSON", required=True),
            ),
            run=cmd_construct,
        ),
        _Command(
            "signal-test",
            "run the two-basis signalling protocol",
            "config",
            (
                _Option(("--seed",), int, "overrides the config's seed"),
                _Option(("--trials",), int, "overrides the config's trials"),
                _Option(("--mu",), int, "overrides the config's mu"),
                _Option(("--pairs-per-bit",), int, "overrides the config's pairs_per_bit"),
                _Option(
                    ("--format",), str, "overrides the config's format",
                    choices=config_mod.FORMATS,
                ),
                _Option(("--out",), str, "overrides the config's out"),
            ),
            run=cmd_signal_test,
        ),
    ),
)


def _match(arg: str, flags: dict):
    """What ``arg`` is among ``flags``: None for a positional, else
    ``(option, attached value or None)``, option None for an unknown one.

    A long flag may be cut to a unique prefix and take its value after "="
    (``--se=5``); a short flag may take it attached (``-M3``, ``-M=3``).
    Any other token that ``float()`` reads (``-1e-3``, ``-inf``) is a value.
    """
    if arg[:1] != "-":
        return None
    if arg in flags:
        return flags[arg], None
    if len(arg) == 1:
        return None
    flag, eq, value = arg.partition("=")
    if eq and flag in flags:
        return flags[flag], value
    if arg[1] != "-":  # a short flag, its value attached
        hits = [arg[:2]] if arg[:2] in flags else []
        value = arg[2:]
    else:  # a prefix of long flags
        hits = [f for f in flags if f.startswith(flag)]
        value = value if eq else None
    if len(hits) > 1:
        raise ConfigError(f"ambiguous option: {arg} could match {', '.join(hits)}")
    if hits:
        return flags[hits[0]], value
    try:
        float(arg)
        return None
    except ValueError:
        return None if " " in arg else (None, None)


def _parse(command: _Command, argv: list, extras: list) -> types.SimpleNamespace:
    """``command``'s values from ``argv``, read left to right; an unknown
    option and a surplus positional go to ``extras``.

    The last value of an option wins, or with ``repeat`` each is appended.
    After the first "--" every token is a positional; that "--" is dropped
    when it stands beside the positional's token and is surplus otherwise.
    """
    values = dict(command.defaults)
    given: dict = {}  # dest: option, of each option used
    positional = None
    taken_at = -1  # the index just past the positional's token
    rest = False  # past the first "--"
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if not rest and arg == "--":
            rest = True
            if positional is None or taken_at == i - 1:
                continue
        hit = None if rest else _match(arg, command.flags)
        if hit is None:
            if positional is not None:
                extras.append(arg)
            elif command.commands:
                if arg not in command.by_name:
                    choices = ", ".join(map(repr, command.by_name))
                    raise ConfigError(
                        f"argument {command.positional}: invalid choice: {arg!r} "
                        f"(choose from {choices})"
                    )
                return _parse(command.by_name[arg], argv[i:], extras)
            else:
                positional, taken_at = arg, i
            continue
        option, value = hit
        if option is None:
            extras.append(arg)
            continue
        if option.convert is None:
            if value is not None:
                raise ConfigError(
                    f"argument {option.name}: ignored explicit argument {value!r}"
                )
            if option is _HELP:
                raise _Help(command)
            value = True
        else:
            if value is None:
                if i == len(argv) or argv[i] == "--" or _match(argv[i], command.flags):
                    raise ConfigError(f"argument {option.name}: expected one argument")
                value = argv[i]
                i += 1
            try:
                value = option.convert(value)
            except ValueError:
                raise ConfigError(
                    f"argument {option.name}: invalid {option.convert.__name__} "
                    f"value: {value!r}"
                ) from None
            if option.choices and value not in option.choices:
                raise ConfigError(
                    f"argument {option.name}: invalid choice: {value!r} "
                    f"(choose from {', '.join(map(repr, option.choices))})"
                )
        if option.dest in command.exclusive:
            for other in map(given.get, command.exclusive):
                if other is not None and other is not option:
                    raise ConfigError(
                        f"argument {option.name}: not allowed with argument {other.name}"
                    )
        given[option.dest] = option
        if option.repeat:
            value = [*(values[option.dest] or ()), value]
        values[option.dest] = value
    missing = [command.positional] if positional is None else []
    missing += [o.name for o in command.options if o.required and o.dest not in given]
    if missing:
        raise ConfigError(f"the following arguments are required: {', '.join(missing)}")
    values[command.positional] = positional
    return types.SimpleNamespace(command=command.name, func=command.run, **values)


def parse_args(argv: list) -> types.SimpleNamespace:
    """The command of ``argv`` and its values, read by the command table.

    Its ``func`` runs the command. Bad usage raises ConfigError with the one
    line to print; -h or --help raises ``_Help``.
    """
    extras: list = []
    args = _parse(_PQCLONE, argv, extras)
    if extras:
        raise ConfigError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _help_text(command: _Command) -> str:
    """The -h text of ``command``, laid out from its row of the table."""
    if command.commands:
        prog = command.name
        usage = ["[-h]", "{" + ",".join(command.by_name) + "} ..."]
        entries = [("commands", [(c.name, c.help) for c in command.commands])]
    else:
        prog = f"pqclone {command.name}"
        usage = ["[-h]"]
        group = [o for o in command.options if o.dest in command.exclusive]
        for option in command.options:
            if option in group[1:]:
                continue
            text = " | ".join(map(_spelled, group)) if option in group else _spelled(option)
            usage.append(text if option.required else f"[{text}]")
        usage.append(command.positional)
        entries = [("positional arguments", [(command.positional, "")])]
    options = [
        (", ".join(_spelled(o, flag) for flag in o.flags), o.help)
        for o in (_HELP, *command.options)
    ]
    lines, line = [], f"usage: {prog}"
    for word in usage:
        if len(line) + 1 + len(word) > 79:
            lines.append(line)
            line = " " * len(f"usage: {prog}")
        line += " " + word
    lines += [line, "", *textwrap.wrap(command.help, 79)]
    for title, rows in entries + [("options", options)]:
        lines += ["", f"{title}:"]
        for left, right in rows:
            if len(left) >= 22 and right:
                lines += [f"  {left}", " " * 24 + right]
            else:
                lines.append(f"  {left:<22}{right}".rstrip())
    return "\n".join(lines) + "\n"


def _spelled(option: _Option, flag: str | None = None) -> str:
    """``flag`` (the first by default) as help writes it, with its value's name."""
    flag = flag or option.flags[0]
    if option.convert is None:
        return flag
    metavar = "{" + ",".join(option.choices) + "}" if option.choices else option.dest.upper()
    return f"{flag} {metavar}"


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except _Help as shown:
        sys.stdout.write(_help_text(shown.args[0]))
        return EXIT_OK
    except FeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PqcloneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
