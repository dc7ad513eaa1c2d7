"""Exception taxonomy shared across the toolkit.

The CLI maps these onto process exit codes; library callers can catch them
individually.
"""


class ConfigError(ValueError):
    """A configuration value is out of range or malformed; the message names the field."""


class ContractError(ValueError):
    """A call violated an operation precondition (shape/dim mismatch, bad step order)."""


class CapabilityError(NotImplementedError):
    """The requested operation is not supported by this model kind."""


class NumericalAbort(RuntimeError):
    """A latent became non-finite; the message carries the step context."""


class DegenerateGuidanceError(ValueError):
    """Guidance scale makes an optimization target independent of its variable."""


class CorruptFileError(ValueError):
    """A checkpoint or grid file is truncated, has the wrong magic or kind,
    holds a different number of values than its header declares, or
    describes no model this package builds; or a dataset manifest line lacks
    a value or holds params that are not a JSON object."""
