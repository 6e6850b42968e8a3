"""Exception types and warning categories shared across the package, and the
decorator that makes its public classes frozen values."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from operator import attrgetter
from reprlib import recursive_repr


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


def _frozen(cls: type) -> type:
    """A frozen value class whose fields are its constructor's parameters, in
    order, with their annotations and defaults: compared, hashed and printed
    as a tuple of them, and never assigned or deleted.

    dataclass(frozen=True) would exec an __init__, __eq__, __hash__,
    __setattr__ and __delattr__ for every class as the package is imported;
    the methods here are written once and read the field names. So each class
    writes its own __init__: it checks its arguments and stores the fields as
    one assigned __dict__, not one frozen setattr each (records whose __dict__
    was updated instead categorized about 15% slower on 3.11). The fields are
    registered with dataclass, after any ClassVar the class body annotates, so
    fields, asdict, astuple and replace work. What is kept outside the fields,
    such as NegBinParams' table cache, is unseen by ==, hash, repr and asdict.
    """
    init = cls.__dict__["__init__"]
    names = init.__code__.co_varnames[1 : init.__code__.co_argcount]
    annotations = init.__annotations__
    cls.__annotations__ = {**cls.__dict__.get("__annotations__", {}), **{name: annotations[name] for name in names}}
    for name, default in zip(reversed(names), reversed(init.__defaults__ or ())):
        setattr(cls, name, default)
    annotations["return"] = None  # as dataclass's own __init__ is annotated
    cls = dataclass(cls, init=False, eq=False, repr=False)
    # attrgetter of one name gives the bare value, not a tuple of one
    values = attrgetter(*names) if len(names) > 1 else lambda self: tuple(getattr(self, n) for n in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    @recursive_repr()
    def __repr__(self):
        text = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({text})"

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for method in (__eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
