"""Exception hierarchy shared across the package."""


class TStabError(Exception):
    """Base class for all domain errors raised by this package."""


class ArityMismatchError(TStabError):
    """A K-theory class does not match the arity of the ambient system."""


class ZeroClassError(TStabError):
    """The zero class was passed where a nonzero class is required."""


class NotPositiveError(TStabError):
    """A class violates the cascading positivity conditions."""


class UnsupportedFamilyError(TStabError):
    """An object lies outside the object model of the stability family."""


class InvalidPartitionError(TStabError):
    """A slope-set partition is not order-congruent or not tau-stable."""


class InvalidCutError(TStabError):
    """A slope-set cut is not an up-closed decomposition for its family."""


class UnboundedError(TStabError):
    """A bounded t-structure was required but the cut is unbounded."""


class BadParamsError(TStabError):
    """Catalog parameters are missing or out of range."""


class NotSlopeDescribableError(TStabError):
    """A torsion pair cannot be described by degree/point level sets."""


class HomViolationError(TStabError):
    """A claimed torsion pair has a nonzero Hom from its first to its second part."""


class FiltrationFormatError(TStabError):
    """A serialised filtration lacks a field or holds one of the wrong type."""


class ObjectParseError(TStabError):
    """Object expression could not be parsed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message, self.position = message, position

    def __reduce__(self):
        # `args` holds the formatted text alone; pickle and copy call the class
        # with what `__init__` takes
        return type(self), (self.message, self.position), self.__dict__


class InvalidLengthError(ObjectParseError):
    """A torsion term was given length zero."""


class NonCoprimeError(ObjectParseError):
    """A stable-class expression has non-coprime rank and degree."""
