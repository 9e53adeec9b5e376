"""Exception types shared across the toolkit."""


class ConfigurationError(ValueError):
    """Raised when inputs are inconsistent with the configured geometry or setup."""


class ValidationError(ValueError):
    """Raised by config parsing; collects every problem found, not just the first.

    ``errors`` is a list of strings, each naming the offending ``section.key``.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


class NumericalError(RuntimeError):
    """Raised when a solver produces a non-finite value.

    Names the offending quantity and the inner step at which it appeared.
    ``trace`` is the partial convergence trace when an ULTRA outer loop was
    running, and None otherwise.
    """

    trace = None

    def __init__(self, quantity, step):
        self.quantity = quantity
        self.step = step
        super().__init__(f"non-finite value in '{quantity}' at inner step {step}")
