"""Exceptions shared across the numerical modules."""

import numbers


class NonConvergenceError(RuntimeError):
    """A series or quadrature hit its iteration cap before meeting tolerance.

    Carries the best available value and an error bound so callers can decide
    whether the partial result is still usable.
    """

    def __init__(self, message, partial=None, error_bound=float("inf")):
        super().__init__(message)
        # numbers as Python floats; a series' partial stays its SeriesValue
        self.partial = (float(partial) if isinstance(partial, numbers.Real)
                        else partial)
        self.error_bound = float(error_bound)
