"""Exception hierarchy shared by all modules.

Every error carries a stable ``reason`` slug so that callers (in particular
the CLI) can map failures onto exit codes and machine-readable JSON without
parsing human-oriented messages.
"""

from __future__ import annotations

from typing import Any


class PadicError(Exception):
    """Base class for all package errors.

    Attributes:
        reason: stable machine-readable identifier for the failure kind.
        details: optional structured payload describing the failure.
    """

    reason: str = "padic-error"

    def __init__(self, message: str, **details: Any) -> None:
        super().__init__(message)
        self.details = details


class NotPrime(PadicError):
    reason = "not-prime"


class PrimalityUnproven(PadicError):
    """A p past the bound below which the prime test is a proof."""

    reason = "primality-unproven"


class NotEisenstein(PadicError):
    reason = "not-eisenstein"


class NotIrreducibleModP(PadicError):
    reason = "not-irreducible-mod-p"


class MixedTowerUnsupported(PadicError):
    reason = "mixed-tower-unsupported"


class UnsupportedField(PadicError):
    reason = "unsupported-field"


class KTooLargeForMemory(PadicError):
    reason = "k-too-large-for-memory"


class ZeroArgument(PadicError):
    reason = "zero-argument"


class ZeroPolynomial(PadicError):
    reason = "zero-polynomial"


class ArtinCountViolation(PadicError):
    reason = "artin-count-violation"


class NotSquareFree(PadicError):
    reason = "not-square-free"


class DegreeTooSmall(PadicError):
    reason = "degree-too-small"


class PreconditionError(PadicError):
    """A documented precondition of the requested operation does not hold."""

    reason = "precondition"


class PreconditionRootInField(PreconditionError):
    reason = "root-in-field"


class PreconditionNotMember(PreconditionError):
    reason = "not-member"


class MTooSmall(PreconditionError):
    reason = "m-too-small"


class ScanBudgetExceeded(PadicError):
    reason = "scan-budget-exceeded"


class LiftObstruction(PadicError):
    reason = "lift-obstruction"


class LiftSearchBudgetExceeded(LiftObstruction):
    """The search for a polynomial section passed its node cap: a resource
    limit, not a proof that no section exists."""

    reason = "lift-search-budget-exceeded"
