"""Exception types shared across the package, and the memory guard that
raises one of them before a large allocation."""

import os


class QuadratureError(RuntimeError):
    """A numerical integration failed to converge or produced values that
    contradict a provable property (e.g. a provably positive kernel going
    negative beyond tolerance)."""


class ResonanceError(ValueError):
    """A diophantine sum hit an exact (or float-level) rational resonance,
    so the sum is infinite for the requested generator."""


class InvariantViolation(RuntimeError):
    """A run-time check of a mathematical invariant failed beyond its budget.

    Carries the name of the check plus observed/allowed values so batch
    runners can report it and exit with a dedicated status code.
    """

    def __init__(self, check: str, observed: float, allowed: float):
        self.check = check
        self.observed = observed
        self.allowed = allowed
        super().__init__(f"{check}: observed {observed!r}, allowed {allowed!r}")


class ConfigError(ValueError):
    """An experiment configuration is malformed or out of supported range."""


def require_memory(estimate: float, what: str) -> None:
    """Raise ConfigError if `what`, needing about `estimate` bytes, would not
    fit in physical memory; callers check before they allocate."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if estimate > physical:
        raise ConfigError(
            f"{what} needs about {estimate / 2**30:.1f} GiB, "
            f"more than the {physical / 2**30:.1f} GiB of physical memory")
