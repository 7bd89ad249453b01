"""Exception types shared across the package."""


class GroundSetTooLarge(ValueError):
    """Raised when an operation would enumerate more subsets than its guard allows."""


class NonPositiveRevenue(ValueError):
    """Raised when a revenue (or price/cost) that must be positive is not."""


class InvalidEpsilon(ValueError):
    """Raised when the tight-family scale parameter is outside (0, 1/2]."""


class SearchSpaceTooLarge(ValueError):
    """Raised when a brute-force price grid or the capacity DP's cells exceed their guard."""


class DeltaOutOfRange(ValueError):
    """Raised when a revenue shift would make the top revenue negative."""


class InvalidParams(ValueError):
    """Raised by instance generators on out-of-range family parameters."""


class RegularityViolation(RuntimeError):
    """Raised when a guarantee check is run on a model that is not regular.

    The violating (x, S, S') triple is attached as ``witness``.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
