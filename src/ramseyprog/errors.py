"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """An enumeration or search refused to run (or stopped) because it would
    exceed its configured budget.

    For threshold searches, ``partial`` carries the best certificate found
    before the budget ran out (``exhaustive`` is False on it).
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ConvergenceError(RuntimeError):
    """An exact enclosure (a Perron bracket, or the two ends of a threshold
    floor) could not be narrowed enough within its step cap."""


class WitnessFormatError(ValueError):
    """A witness certificate file could not be parsed."""
