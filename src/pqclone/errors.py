"""Exception hierarchy shared by all pqclone modules."""


class PqcloneError(Exception):
    """Base class for all pqclone errors."""


class DimensionError(PqcloneError):
    """Operands have incompatible or unfactorable dimensions."""


class CapacityError(PqcloneError):
    """A joint space would exceed the configured amplitude cap."""


class EmptyInputError(PqcloneError):
    """An operation received an empty state list."""


class HermiticityError(PqcloneError):
    """A matrix expected to be Hermitian is not, within tolerance."""


class BasisError(PqcloneError):
    """A measurement basis is not orthonormal or does not span the space."""


class NormalizationError(PqcloneError):
    """A vector or coefficient set violates its normalization contract."""


class SpanError(PqcloneError):
    """A target state lies outside the span of the given states."""


class RankError(PqcloneError):
    """A state set expected to be linearly independent is not."""


class FeasibilityError(PqcloneError):
    """Requested cloning efficiencies admit no trace-non-increasing machine."""


class ConditioningError(PqcloneError):
    """A machine is too ill-conditioned for an accurate column law."""


class LabelError(PqcloneError):
    """A preparation label is outside the valid range."""


class ConfigError(PqcloneError):
    """A protocol or run configuration violates its invariants."""
