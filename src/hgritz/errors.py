"""Exception types shared across the solver modules."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to converge within its sweep budget."""

    def __init__(self, message, *, dim=None, index=None):
        super().__init__(message)
        self.dim = dim
        self.index = index


class DegenerateInputError(ValueError):
    """Input carries no usable signal (zero vector, all samples under the floor)."""


class QuadratureError(ArithmeticError):
    """A quadrature evaluation produced a non-finite contribution."""

    def __init__(self, message, *, node_index=None, node=None):
        super().__init__(message)
        self.node_index = node_index
        self.node = node


class ScanResolutionError(RuntimeError):
    """An energy scan cannot resolve its levels: two share a cell, one lies below it,
    or the grid they need is past the step cap."""


class RangeError(OverflowError):
    """A quantity of a solve lies outside the float range; the message names it and its size."""

    def __init__(self, quantity, log10_size):
        super().__init__(f"{quantity} = 10^{log10_size:.1f} lies outside the float range")
        self.quantity = quantity
        self.log10_size = log10_size
