"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so new error conditions should
subclass one of the top-level classes rather than raising bare exceptions.
"""


class JobcastError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(JobcastError):
    """Invalid manifest, flag combination, or configuration value."""


class DataError(JobcastError):
    """Unusable input data: missing columns, bad cells, bad model files."""


class CapacityError(DataError):
    """A natural-number property exceeds the binary encoder's capacity."""


class ModelFileError(DataError):
    """A model file is corrupt, truncated, or has an unsupported version."""


class TrainingError(JobcastError):
    """Training diverged or produced non-finite values."""


class NumericsError(TrainingError):
    """A forward pass produced NaN or Inf."""


class SchemaError(JobcastError):
    """Inputs do not match the property schema a model was built with."""


class WorkerError(JobcastError):
    """A pool worker process died (killed by a signal, such as the
    out-of-memory killer's SIGKILL) before it returned its share of the
    work; the message names the rows or tasks that were lost."""
