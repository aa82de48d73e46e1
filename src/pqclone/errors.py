"""The four exceptions of pqclone, one per thing a caller can do about it.

A cloning request fails in one of two ways: the set is (too close to)
linearly dependent, so no accurate work on it is possible (``RankError``,
also raised when a law or a machine fails its numerical check), or the
efficiencies break the Gram condition, so no machine exists
(``FeasibilityError``, and nothing else). Every malformed or out-of-range
input is a ``ConfigError``; the base class also carries I/O failures.
"""


class PqcloneError(Exception):
    """Base class for all pqclone errors; also raised when a file cannot be written."""


class ConfigError(PqcloneError):
    """An input is malformed or out of range: a shape, dimension, label,
    normalization, basis, count or configuration value."""


class RankError(PqcloneError):
    """A state set is too close to linear dependence for accurate work: the
    rank rule refuses it, its column law falls below roundoff, or a machine
    the Gram verdict admits fails its clone or trace residual check."""


class FeasibilityError(PqcloneError):
    """Requested cloning efficiencies admit no trace-non-increasing machine:
    the Gram verdict refuses them."""


def shown_path(path: str) -> str:
    """``path`` as error lines spell it: its ``repr`` unless every character is
    printable, so a newline or a NUL neither breaks the line nor goes out raw."""
    return path if path.isprintable() else repr(path)
