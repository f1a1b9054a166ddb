"""Exception types shared across the package."""


class ExitlabError(Exception):
    """Base class for all package-specific errors."""


class SpectrumInvalid(ExitlabError, ValueError):
    """Eigenvalue list is not strictly decreasing and positive."""


class RankDeficient(ExitlabError, ValueError):
    """A noise or covariance matrix does not have full rank d."""


class OutsideValidity(ExitlabError, RuntimeError):
    """A trajectory left the region where the model's linearizing map is trusted."""


class NoExit(ExitlabError, RuntimeError):
    """Deterministic flow failed to leave the domain before the time cap."""


class InclusionViolated(ExitlabError, ValueError):
    """Sampled domain boundary points are not nested the way the caller claimed."""


class DegenerateFit(ExitlabError, ValueError):
    """Not enough usable points for a least-squares slope."""


class ParseError(ExitlabError, ValueError):
    """Config text could not be parsed.  Carries the offending line and key."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        self.line = line
        self.key = key
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if key is not None:
            loc.append(f"key {key!r}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)


class ValidationError(ExitlabError, ValueError):
    """Parsed config violates an invariant.  Message names the invariant."""
