"""Exception types shared across the package."""


# what the message of an error from each solution of a pair starts with
SOLUTION_TAGS = ("[solution a] ", "[solution b] ")


class CrestwaveError(Exception):
    """Base class for package-specific errors."""


def locate(exc, where):
    """Add " (where)" to the message of the CrestwaveError exc, where names
    the place in a run that raised it, such as "step 3 of 16, t = 0.25"."""
    message = str(exc.args[0]) if exc.args else ""
    exc.args = (f"{message} ({where})",) + exc.args[1:]


class ConfigError(CrestwaveError):
    """Invalid run configuration.

    Carries the full list of violations so a user can fix everything in
    one pass instead of replaying the parser error by error.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class CFLViolationError(CrestwaveError):
    """Requested time step exceeds the stability bound."""


class DegenerateJacobianError(CrestwaveError):
    """min |Z_ap| or a map Jacobian fell below the safety threshold."""


class HolomorphicityError(CrestwaveError):
    """Positive-frequency mass above tolerance on a field required to
    extend holomorphically into the lower half plane."""


class MonotonicityError(CrestwaveError):
    """A reparametrization map lost strict monotonicity."""
