"""The four exceptions of pqclone, one per thing a caller can do about it.

A cloning request fails in one of two ways the physics allows: the set is
(too close to) linearly dependent, so no exact work on it is possible
(``RankError``), or the efficiencies break the Gram condition, so no machine
exists (``FeasibilityError``). Every malformed or out-of-range input is a
``ConfigError``; the base class also carries I/O failures.
"""


class PqcloneError(Exception):
    """Base class for all pqclone errors; also raised when a file cannot be written."""


class ConfigError(PqcloneError):
    """An input is malformed or out of range: a shape, dimension, label,
    normalization, basis, count or configuration value."""


class RankError(PqcloneError):
    """A state set is too close to linear dependence for exact work: the
    rank rule refuses it, or its column law falls below roundoff."""


class FeasibilityError(PqcloneError):
    """Requested cloning efficiencies admit no trace-non-increasing machine,
    or a built machine fails its verification."""
