"""Exception types shared across the package."""


class InvalidChainError(ValueError):
    """A loop chain failed validation (dangling refs, bad descriptor, empty loops)."""


class DepthExceededError(InvalidChainError):
    """More loops requested for fusion than the halo depth supports."""


class InspectionError(RuntimeError):
    """The inspector could not build a legal schedule for the given chain."""


class ColoringLimitError(InspectionError):
    """Recoloring rounds exceeded the termination guard."""


class ExecutionError(RuntimeError):
    """A kernel binding or executor precondition was violated."""


class StaleScheduleError(ExecutionError):
    """A schedule does not fit the chain being executed, or its local maps
    do not fit its iteration lists."""


class CompileError(RuntimeError):
    """No C compiler, a C body that does not compile, or an unusable C cache."""


class PartitionBugError(RuntimeError):
    """Internal inconsistency in rank-local meshes (asymmetric tables, overlapping owners)."""


class VerificationError(RuntimeError):
    """Tiled and untiled runs disagree."""
