"""Tagged exception types shared across the package."""


class MmconcError(Exception):
    """Base class; every error carries a short machine-readable tag."""

    tag = "error"


class FieldMismatchError(MmconcError):
    tag = "field-mismatch"


class ShapeMismatchError(MmconcError):
    tag = "shape-mismatch"


class DomainError(MmconcError):
    """Scalar argument outside its documented domain."""

    tag = "domain"


class PreconditionError(MmconcError):
    """A documented hypothesis of an operation fails for the given input."""

    tag = "precondition"


class InfeasibleError(MmconcError):
    """Experiment cannot proceed (e.g. rejection rate below the floor)."""

    tag = "infeasible"


class ConfigError(MmconcError):
    tag = "config"
