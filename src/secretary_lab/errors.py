"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; plain ValueError is reserved for malformed arguments that indicate
a programming error at the call site.
"""


class SecretaryLabError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInstanceError(SecretaryLabError, ValueError):
    """Scenario has no positive value, so a competitive ratio is undefined."""


class PrecisionExhaustedError(SecretaryLabError, RuntimeError):
    """An enclosure comparison stayed indeterminate up to the digit cap."""


class ParameterError(SecretaryLabError, ValueError):
    """Construction parameters violate a documented precondition."""


class InvalidFamilyError(SecretaryLabError, ValueError):
    """A prior family failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid prior family: " + "; ".join(self.violations))


class UnreachableStateError(SecretaryLabError, ValueError):
    """Information state has probability zero under the given family."""


class MissingStateError(SecretaryLabError, KeyError):
    """A policy evaluation hit a reachable state the policy does not map."""

    def __init__(self, state_key: str):
        self.state_key = state_key
        super().__init__(f"policy has no action for reachable state {state_key!r}")

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message readable
        return self.args[0]


class EnumerationGuardError(SecretaryLabError, ValueError):
    """Exact enumeration refused because n! is too large; use Monte Carlo."""


class NonpositiveBudgetError(SecretaryLabError, ValueError):
    """Mixture probability meets or exceeds the robustness budget constant."""


class UnknownPresetError(SecretaryLabError, KeyError):
    """Requested preset name is not in the registry."""

    def __str__(self) -> str:
        return self.args[0] if self.args else ""
