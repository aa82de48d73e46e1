"""Run configuration: state files, JSON configs, and lossless round-trips.

A states file is hand-writable plain text: comments start with '#', the
first data line is the dimension, and every following data line is one
state as interleaved real/imaginary amplitude pairs; it parses into one
``(N, d)`` array of unit rows. A run config is a JSON document of
plain values; ``RunConfig`` mirrors it field for field so that
parse(serialize(c)) == c exactly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from itertools import chain

import numpy as np

from . import entangle, pqcm, qcore, signalling
from .errors import ConfigError, shown_path

FORMATS = ("csv", "json")
_READ_CHUNK = 1 << 16  # bytes per os.read of an input file; a config fits in one
# the most bytes an input file may hold: far above any real states file (N =
# 192 states of dimension 192 take ~1.5 MiB as text), and low enough that an
# endless input such as /dev/zero is refused before it exhausts memory
_READ_CAP = 1 << 26


def _read_text(path: str, what: str) -> str:
    """The text of the file at ``path``: its bytes, read through the file
    descriptor with no text layer, decoded as UTF-8 whatever the locale.
    A file that cannot be read (a path with a NUL in it included), holds
    more than ``_READ_CAP`` bytes or is not UTF-8 raises ConfigError,
    ``cannot read {what} {shown_path(path)}: ...``."""
    shown = shown_path(os.fspath(path))
    try:
        # a FIFO with no writer opens at once and reads as empty, where a
        # blocking open would wait for a writer for ever; the reads block,
        # so a pipe whose writer is slow is still read in full
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            os.set_blocking(fd, True)
            chunks = []
            size = 0
            while chunk := os.read(fd, _READ_CHUNK):
                chunks.append(chunk)
                size += len(chunk)
                if size > _READ_CAP:
                    raise ConfigError(
                        f"cannot read {what} {shown}: more than {_READ_CAP} bytes"
                    )
        finally:
            os.close(fd)
        return b"".join(chunks).decode("utf-8")
    except (OSError, ValueError) as exc:  # a NUL in the path, or not UTF-8
        raise ConfigError(f"cannot read {what} {shown}: {exc}") from None


def parse_states_text(text: str, source: str = "<string>") -> np.ndarray:
    """Parse a states file into unit rows; errors carry the line number.

    The rows are read as one array and normalized in one call. When lines
    hold several faults, the first line's is reported, as a line-by-line
    parse would.
    """
    source = shown_path(source)
    dim: int | None = None
    values: list[float] = []  # every state's numbers, in file order
    linenos: list[int] = []  # the line of each state

    def unit_rows() -> np.ndarray:
        pairs = np.array(values).reshape(len(linenos), dim, 2)
        with np.errstate(invalid="ignore"):  # 1j * inf
            amps = pairs[..., 0] + 1j * pairs[..., 1]
        try:
            return qcore.normalize(amps)
        except ConfigError:  # name the first line whose norm is bad
            for lineno, row in zip(linenos, amps):
                try:
                    qcore.normalize(row)
                except ConfigError as exc:
                    raise ConfigError(f"{source}:{lineno}: {exc}") from None
            raise

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.replace(",", " ").split()
        if dim is None:
            if len(tokens) != 1:
                raise ConfigError(
                    f"{source}:{lineno}: expected a single dimension, got {raw!r}"
                )
            try:
                dim = int(tokens[0])
            except ValueError:
                raise ConfigError(
                    f"{source}:{lineno}: dimension is not an integer: {tokens[0]!r}"
                ) from None
            if dim < 1:
                raise ConfigError(f"{source}:{lineno}: dimension must be positive")
            continue
        # before a line's fault, an earlier state's bad norm is reported
        if len(tokens) != 2 * dim:
            unit_rows()
            raise ConfigError(
                f"{source}:{lineno}: expected {2 * dim} numbers "
                f"(re/im pairs for dimension {dim}), got {len(tokens)}"
            )
        try:
            numbers = list(map(float, tokens))
        except ValueError as exc:
            unit_rows()
            raise ConfigError(f"{source}:{lineno}: {exc}") from None
        values += numbers
        linenos.append(lineno)
    if dim is None:
        raise ConfigError(f"{source}: no dimension line found")
    if not linenos:
        raise ConfigError(f"{source}: no states found")
    return unit_rows()


def load_states(path: str | os.PathLike) -> np.ndarray:
    """The states file at ``path``; its errors name it by ``shown_path``."""
    path = os.fspath(path)
    return parse_states_text(_read_text(path, "states file"), source=path)


_INT_FIELDS = ("mu", "trials", "pairs_per_bit", "seed", "message_bits")
# (field, accepted types, description) of every non-integer field
_TYPED_FIELDS = (
    ("machine", dict, "a JSON object"),
    ("a2", dict, "a JSON object"),
    ("bob_states", (list, type(None)), "a list of states"),
    ("states_file", (str, type(None)), "a path string"),
    ("format", str, "a string"),
    ("out", (str, type(None)), "a path string"),
)


@dataclass(frozen=True)
class RunConfig:
    """Plain-data mirror of one signal-test configuration."""

    mu: int
    trials: int
    pairs_per_bit: int
    seed: int
    machine: dict
    a2: dict = field(default_factory=lambda: {"kind": "fourier"})
    bob_states: list | None = None  # list of [re, im] pair lists
    states_file: str | None = None
    message_bits: int = 64
    format: str = "json"
    out: str | None = None

    def __post_init__(self):
        for name in _INT_FIELDS:
            qcore.require_int(name, getattr(self, name))
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        for name, kinds, what in _TYPED_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, kinds):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        if (self.bob_states is None) == (self.states_file is None):
            raise ConfigError("provide exactly one of bob_states or states_file")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.format!r}")
        # the channel demo holds a few arrays of message_bits entries
        if not 1 <= self.message_bits <= 2**20:
            raise ConfigError(
                f"message_bits must lie in [1, 2**20], got {self.message_bits}"
            )

    def to_dict(self) -> dict:
        data = asdict(self)
        return {k: v for k, v in data.items() if v is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        _check_keys(data, set(cls.__dataclass_fields__), "config")
        missing = {"mu", "trials", "pairs_per_bit", "seed", "machine"} - set(data)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**data)

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def loads(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        # besides JSONDecodeError: an int of too many digits, deep nesting
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RunConfig":
        return cls.loads(_read_text(os.fspath(path), "config"))


def _resolve_states(config: RunConfig, base_dir: str):
    """Bob's states as new unit rows, once they pass the dimension checks
    (``qcore.require_bob_dimensions``), which precede the a2 and machine
    errors. Nothing else holds them, and each owner that keeps them, the
    ``FactoredSet`` and the ``ProtocolConfig``, copies and checks them."""
    if config.states_file is not None:
        # an absolute states_file replaces base_dir
        states = load_states(os.path.join(base_dir, config.states_file))
    else:
        states = _state_rows(config.bob_states, "bob_states entry")
    qcore.require_bob_dimensions(states)
    return states


def _real(value, what: str) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return value


def _complex(pair, what: str) -> complex:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError(f"{what} must be an [re, im] pair, got {pair!r}")
    return complex(_real(pair[0], what), _real(pair[1], what))


def pairs_to_ket(pairs, what: str) -> np.ndarray:
    """A list of [re, im] amplitude pairs as a unit 1-D complex array."""
    amps = [_complex(pair, f"{what} amplitude") for pair in _list(pairs, what)]
    return qcore.normalize(amps)


def _amplitude_array(rows: list) -> np.ndarray | None:
    """``rows`` as one exact ``(N, d)`` complex array when every row is a
    list of d [re, im] lists of ints and floats within the float range;
    None otherwise. Each check is one pass over all rows, pairs or values.
    A NaN or infinite value is left to ``normalize``, whose norm is then
    not finite."""
    if not rows or set(map(type, rows)) != {list} or len(set(map(len, rows))) != 1:
        return None
    pairs = list(chain.from_iterable(rows))
    if not pairs or set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    values = list(chain.from_iterable(pairs))
    if not set(map(type, values)) <= {int, float}:  # a bool is neither
        return None
    try:
        numbers = np.array(values, dtype=np.float64)
    except OverflowError:  # an int beyond the float range
        return None
    return numbers.view(np.complex128).reshape(len(rows), -1)


def _state_rows(rows: list, what: str):
    """States given as lists of [re, im] amplitude pairs, as unit rows
    normalized in one call. Rows that fail ``_amplitude_array``'s checks,
    or whose stacked ``normalize`` raises, go through ``pairs_to_ket`` one
    by one, which names the first bad value and reports what a row-by-row
    parse would."""
    amps = _amplitude_array(rows)
    if amps is not None:
        try:
            return qcore.normalize(amps)
        except ConfigError:  # name the first bad value, as parse_states_text does
            pass
    return [pairs_to_ket(row, what) for row in rows]


def _required(spec: dict, key: str, what: str):
    if key not in spec:
        raise ConfigError(f"{what} needs a {key!r} entry")
    return spec[key]


# the keys each kind of "machine" and "a2" object takes
_MACHINE_KEYS = {
    "illegal": {"kind", "clonable_labels", "coefficients"},
    "legal": {"kind", "gammas", "uniform_gamma", "gamma_scale"},
}
_A2_KEYS = {
    "fourier": {"kind"},
    "vectors": {"kind", "vectors"},
    "target": {"kind", "state"},
}


def _check_keys(spec: dict, allowed: set, what: str) -> None:
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown, key=str)}")


def _kind(spec: dict, kinds: dict, what: str) -> str:
    """The ``kind`` of a ``machine`` or ``a2`` object, once it is one of
    ``kinds`` and the object holds only keys that kind takes."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    _check_keys(spec, kinds[kind], what)
    return kind


def _resolve_a2(config: RunConfig, bob_states: np.ndarray) -> entangle.AliceBasis:
    spec = config.a2
    kind = _kind(spec, _A2_KEYS, "a2")
    n = len(bob_states)
    if kind == "fourier":
        return entangle.AliceBasis.fourier(n)
    if kind == "vectors":
        vectors = _list(_required(spec, "vectors", "a2"), "a2 vectors")
        rows = _state_rows(vectors, "a2 vectors entry")
        columns = qcore.state_set(rows, "a2 vectors").T
        return entangle.AliceBasis(columns)
    target = pairs_to_ket(_required(spec, "state", "a2"), "a2 state")
    return entangle.target_to_basis(target, bob_states)


def _resolve_coefficients(spec: dict) -> dict:
    """Illegal-cloner branch amplitudes: label -> (c array, d)."""
    entries = spec.get("coefficients", {})
    if not isinstance(entries, dict):
        raise ConfigError(f"machine coefficients must be an object, got {entries!r}")
    coefficients = {}
    for key, entry in entries.items():
        what = f"machine coefficients[{key!r}]"
        # a config's keys are JSON strings; a Python caller may pass others
        if not isinstance(key, str):
            raise ConfigError(f"{what}: label is not a string")
        try:
            label = int(key)
        except ValueError:
            raise ConfigError(f"{what}: label is not an integer") from None
        # int() also reads " 4", "+4", "04" and "4_0", so two keys could name
        # one label and the later entry would replace the earlier
        if str(label) != key:
            raise ConfigError(f"{what}: label must be written {str(label)!r}")
        if not isinstance(entry, dict):
            raise ConfigError(f"{what} must be an object, got {entry!r}")
        _check_keys(entry, {"c", "d"}, what)
        c_pairs = _list(_required(entry, "c", what), f"{what}.c")
        c = np.array([_complex(pair, f"{what}.c entry") for pair in c_pairs])
        d = _complex(_required(entry, "d", what), f"{what}.d")
        coefficients[label] = (c, d)
    return coefficients


def _resolve_machine(config: RunConfig, bob_states: np.ndarray):
    spec = config.machine
    kind = _kind(spec, _MACHINE_KEYS, "machine")
    n = len(bob_states)
    if kind == "illegal":
        return pqcm.IllegalClonerSpec(
            clonable_labels=spec.get("clonable_labels", range(1, n + 2)),
            copies=config.mu,
            total_labels=2 * n,
            coefficients=_resolve_coefficients(spec) or None,
        )
    beside = sorted({"uniform_gamma", "gamma_scale"} & set(spec))
    if "gammas" in spec and beside:
        raise ConfigError(f"machine gammas cannot be given with {beside}")
    gamma = spec.get("uniform_gamma", "max")
    if "gamma_scale" in spec and gamma != "max":
        raise ConfigError('machine gamma_scale scales only uniform_gamma "max"')
    legal = pqcm.FactoredSet(bob_states, config.mu)
    if "gammas" in spec:
        gammas = [
            _real(g, "machine gammas entry")
            for g in _list(spec["gammas"], "machine gammas")
        ]
    else:
        if gamma == "max":
            gamma = legal.gamma_max
            gamma *= _real(spec.get("gamma_scale", 1.0), "machine gamma_scale")
        gammas = [_real(gamma, "machine uniform_gamma")] * n
    return pqcm.PqcmMachine(legal, gammas)


def build_protocol(
    config: RunConfig, base_dir: str | os.PathLike = "."
) -> signalling.ProtocolConfig:
    """Turn a plain-data run config into a ready-to-run protocol config.

    A relative ``states_file`` is read from ``base_dir``."""
    bob_states = _resolve_states(config, os.fspath(base_dir))
    a2_basis = _resolve_a2(config, bob_states)
    machine = _resolve_machine(config, bob_states)
    return signalling.ProtocolConfig(
        bob_states=bob_states,
        a2_basis=a2_basis,
        trials=config.trials,
        pairs_per_bit=config.pairs_per_bit,
        machine=machine,
        seed=config.seed,
    )
