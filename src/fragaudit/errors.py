"""Exception vocabulary shared across the toolkit."""


class FragAuditError(Exception):
    """Base class; carries a machine-readable payload for the CLI."""

    def payload(self) -> dict:
        return {"error": type(self).__name__, "message": str(self)}


class ConfigError(FragAuditError):
    pass


class NormalizationSingularity(FragAuditError):
    """A hidden pre-activation vector had zero norm under exact normalization."""


class InvalidDataset(FragAuditError):
    pass


class FormatError(FragAuditError):
    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class InvalidSplit(FragAuditError):
    pass


class InvalidPermutation(FragAuditError):
    pass


class InvalidSize(FragAuditError):
    pass


class IncompatibleCheckpoint(FragAuditError):
    pass


class SlopeUndefined(FragAuditError):
    pass


class LogDomainError(FragAuditError):
    pass


class MarginNotPositive(FragAuditError):
    pass


class DegenerateLayer(FragAuditError):
    pass


class SigmaSearchFailed(FragAuditError):
    pass


class PathNormUndefined(FragAuditError):
    """The squared-weight pass gave a negative or NaN logit sum."""


class PredictionMismatch(FragAuditError):
    """Verified-equivalent checkpoints disagree on a test prediction."""


class ComplexEndpoints(FragAuditError):
    pass


class InadmissibleAlpha(FragAuditError):
    pass


class BoundUndefined(FragAuditError):
    pass


class RejectionExhausted(FragAuditError):
    pass


class AllRunsFailed(FragAuditError):
    """Every run of a sweep ended with a toolkit error."""

    def __init__(self, count):
        super().__init__(f"all {count} runs failed with a toolkit error")
        self.count = count

    def __reduce__(self):
        # the default rebuilds from args, which hold the message, not the count
        return type(self), (self.count,), self.__dict__

    def payload(self) -> dict:
        return dict(super().payload(), count=self.count)


class WorkerLost(FragAuditError, ChildProcessError):
    """A pool worker ended, by a signal or an exit, without sending its result."""
