"""Exception hierarchy shared by all claimflow modules."""


class ClaimflowError(Exception):
    """Base class for every error raised by this package."""


class GridRangeError(ClaimflowError):
    """A time query fell outside the grid a path is defined on."""


class ConfigurationError(ClaimflowError):
    """Model or scenario parameters violate an invariant."""


class SchemaError(ConfigurationError):
    """A field failed validation: ``field`` names it, ``reason`` says why.

    A law record names its own attribute (``rate``); ``McConfig`` and the
    CLI name the dotted config path (``delay.density.rate``).
    """

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class UnsupportedRegimeError(ClaimflowError):
    """The closed-form reserve is not valid for this model combination.

    The Monte Carlo oracle (``mc_reserve``, CLI flag ``--mc-only``) handles
    the general case by brute force.
    """


class DegenerateStateError(ClaimflowError):
    """A conditional expectation divides by an (almost) zero probability."""


class InsufficientDataError(ClaimflowError):
    """A conditional Monte Carlo bucket holds too few paths to estimate."""
