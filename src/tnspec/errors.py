"""Exception hierarchy.

Everything raised on bad input or a broken invariant derives from
``TnSpecError`` so callers (and the CLI) can catch one type.  Most errors
are also ``ValueError`` subclasses because they signal rejected values.
"""

from __future__ import annotations


class TnSpecError(Exception):
    """Base class for all library errors."""


class PartitionError(TnSpecError, ValueError):
    """Invalid partition data."""


class NotNonincreasingError(PartitionError):
    """Parts are not sorted in nonincreasing order (no silent sorting)."""


class NonPositivePartError(PartitionError):
    """A part is zero or negative."""


class SumMismatchError(PartitionError):
    """Components of a decomposition do not add up to the stated n."""


class HeadTooSmallError(PartitionError):
    """A leading part is smaller than the first part of the tail."""


class ParityViolationError(TnSpecError, ArithmeticError):
    """An expression that must be exactly divisible left a remainder."""


class FormulaOverflowError(TnSpecError, OverflowError):
    """n exceeds the configured safe bound for eigenvalue formulas."""


class OutOfFamilyRangeError(TnSpecError, ValueError):
    """(n, target) is outside the declared range of the family."""


class WitnessVerificationError(TnSpecError):
    """A constructed witness failed its own eigenvalue re-check."""


class BelowConstructiveRangeError(TnSpecError, ValueError):
    """n is below the range where the constructive argument applies."""


class TargetOutOfSegmentError(TnSpecError, ValueError):
    """Requested eigenvalue lies outside the covered segment."""


class NoHeadFitsError(TnSpecError, ValueError):
    """No admissible leading part brackets the requested eigenvalue."""


class WitnessNotFoundError(TnSpecError):
    """No partition with the requested eigenvalue was found: the oracle's
    spectrum table lacks it (a genuine hole of a small spectrum), or no
    admissible leading part leaves a residual that has it."""


class InvalidArgumentError(TnSpecError, ValueError):
    """An argument is outside what the call accepts (n < 1, an unknown
    check id)."""


class SizeLimitError(TnSpecError, ValueError):
    """n exceeds a hard size limit (oracle table, Cayley spectrum,
    partition count)."""


class IntegerRoundingError(TnSpecError, ArithmeticError):
    """An eigenvalue of the Cayley operator is not an integer in [-C(n,2), C(n,2)]."""
