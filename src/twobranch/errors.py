"""Exception types shared across the package."""


class TwoBranchError(Exception):
    """Base class for all package errors."""


class DimensionError(TwoBranchError):
    """Operand shapes do not agree."""


class ConfigError(TwoBranchError):
    """Invalid configuration value or unknown key."""


class BatchTooSmallError(TwoBranchError):
    """Training-mode batch statistics need at least two rows."""


class ContractViolationError(TwoBranchError):
    """An API contract was broken (e.g. a backward tape reused)."""


class FormatError(TwoBranchError):
    """A file does not match its declared on-disk format."""


class ChecksumError(FormatError):
    """A file's trailing checksum does not match its contents."""


class ConsistencyError(TwoBranchError):
    """Cross-references between inputs do not resolve."""


class EvaluationError(TwoBranchError):
    """An evaluation query cannot be scored."""


class DivergenceError(TwoBranchError):
    """Training produced NaN or infinite values."""
