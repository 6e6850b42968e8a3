"""Exception types and warning categories shared across the package."""

from __future__ import annotations


class FairchaseError(Exception):
    """Base class for all errors raised by this package."""


class RowError(FairchaseError):
    """A CSV row failed validation; carries the 1-based line number when known."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class MalformedRow(RowError):
    """Wrong field count, unparsable field, or out-of-range value."""


class InconsistentOutcome(RowError):
    """The innings scores contradict the stated match outcome."""


class DuplicateMatchId(RowError):
    """The same match_id appeared more than once."""


class EmptyVenue(FairchaseError):
    """A requested venue has no decisive full-length matches."""


class UnknownVenue(FairchaseError):
    """A requested venue does not appear in the dataset."""


class InvalidParams(FairchaseError):
    """Distribution parameters violate their constraints."""


class InsufficientSample(FairchaseError):
    """Too few scores to fit a distribution."""


class UnderdispersedSample(FairchaseError):
    """Sample variance does not exceed the mean, so the negative binomial
    dispersion search runs away to its upper bound."""


class ZeroVariance(FairchaseError):
    """All scores identical; moment fits are undefined."""


class TargetUnattainable(FairchaseError):
    """The revision probability is non-positive: the weighted bat-first
    survival mass exceeds one, which happens only for low targets at venues
    whose winners mostly batted first."""


class InconsistentSpec(FairchaseError):
    """A synthetic venue spec has a negative match count, or no law for a
    case it must draw."""


class DegenerateQuantileWarning(UserWarning):
    """quantile() was asked for a probability the unbounded support cannot
    reach; the configured hard cap was returned instead."""
