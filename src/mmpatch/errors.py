"""Exception hierarchy shared by all mmpatch modules.

The CLI maps these onto exit codes: configuration problems exit 1,
domain/synthesis problems exit 2, iteration failures exit 3.
"""


class PatchModelError(Exception):
    """Base class for every error raised by mmpatch."""


class DomainError(PatchModelError, ValueError):
    """An input is outside the physical or mathematical domain of a formula."""


class SynthesisError(DomainError):
    """A geometry-synthesis chain produced a non-physical intermediate."""


class SingularFeedError(DomainError):
    """Feed position sits on a singularity of the feed-taper expression."""


class BracketError(DomainError):
    """Root bracket does not enclose a sign change."""


class ConvergenceError(PatchModelError, RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class ConfigError(PatchModelError):
    """Bad configuration: unknown key, unknown model variant, bad value."""
