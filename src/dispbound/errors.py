"""Exception types shared across the package.

The split mirrors how callers need to react: bad mathematical input
(DomainError), bad configuration of an algorithm (ConfigurationError), and
runtime numerical trouble (NumericalError).
The CLI maps these onto distinct exit codes.
"""

from __future__ import annotations


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class FixedPointError(DomainError):
    """A displacement map evaluated to its own input (zero chord)."""


class ConfigurationError(ValueError):
    """An algorithm or harness was configured with invalid parameters."""


class NumericalError(RuntimeError):
    """A numerical procedure failed; carries diagnostics for the report."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})

    def __str__(self) -> str:  # keep diagnostics visible in logs
        base = super().__str__()
        if self.diagnostics:
            details = ", ".join(f"{k}={v!r}" for k, v in sorted(self.diagnostics.items()))
            return f"{base} [{details}]"
        return base

