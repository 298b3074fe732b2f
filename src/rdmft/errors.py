"""Exception types shared across the toolkit."""


class RdmftError(Exception):
    """Base class for all toolkit errors."""


class InvalidArguments(RdmftError):
    """Arguments violate a documented precondition."""


class DimensionMismatch(RdmftError):
    """Operator or state dimensions are incompatible."""


class SymmetryViolation(RdmftError):
    """A tensor lacks a required symmetry beyond tolerance."""


class NonHermitianInput(RdmftError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class InvalidDensityOperator(RdmftError):
    """Trace or positivity of a density operator violated beyond tolerance."""


class BasisMismatch(RdmftError):
    """Operands live on different configuration bases."""


class InfeasibleOccupations(RdmftError):
    """An occupation vector violates the polytope constraints."""


class DecompositionFailure(RdmftError):
    """Internal consistency check of a decomposition failed; indicates a bug."""


class NotRepresentableError(RdmftError):
    """The target cannot be produced by the requested class of states."""


class ConvergenceFailure(RdmftError):
    """An iterative solver exhausted its budget without meeting tolerance."""


class ConfigError(RdmftError):
    """A run configuration is malformed or inconsistent."""
