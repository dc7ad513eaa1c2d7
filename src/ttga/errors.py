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


class CheckpointError(ValueError):
    """A checkpoint file is truncated, has the wrong magic or kind, or holds
    the wrong number of parameters."""
