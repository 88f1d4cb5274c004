"""Exception hierarchy shared across the package."""


class StefanThawError(Exception):
    """Base class for all package errors."""


class InvalidParameter(StefanThawError):
    """A physical parameter violates its declared constraint."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class DegenerateDensityJump(StefanThawError):
    """rho_w == rho_i gives a zero density jump; requires classical mode."""


class ConfigError(StefanThawError):
    """Malformed or inconsistent config file."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        self.line = line
        self.key = key
        loc = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{loc}")


class NonFiniteInput(StefanThawError):
    """A numeric argument was NaN or infinite."""


class OverflowUnrepresentable(StefanThawError):
    """The true value of an expression exceeds the double-precision range."""


class DomainError(StefanThawError):
    """Argument outside the mathematical domain of the function."""


class OutOfPhaseRegion(StefanThawError):
    """Temperature field queried outside its phase region."""


class NoRootFound(StefanThawError):
    """No sign change located within the scan window."""


class ToleranceNotReached(StefanThawError):
    """Root polish could not drive the residual below the requested tolerance."""


class UniquenessViolation(StefanThawError):
    """Multiple roots found where theory guarantees uniqueness."""


class MonotonicityViolation(StefanThawError):
    """A sweep that must be strictly increasing produced an inversion."""


class HypothesesNotMet(StefanThawError):
    """Operation requested outside the parameter regime it is proven for."""


class VerificationFailed(StefanThawError):
    """Residual verification rejected a candidate solution."""

    def __init__(self, component: str, value: float, tolerance: float, report=None,
                 lower_bound: bool = False):
        self.component = component
        self.value = value
        self.tolerance = tolerance
        self.report = report
        relation = "is below" if lower_bound else "exceeds"
        super().__init__(
            f"verification failed: {component} = {value:.3e} {relation} {tolerance:.3e}"
        )
