"""Semantic exception hierarchy.

Every distinct failure condition gets its own class so callers can branch on
type instead of parsing messages.  All errors derive from :class:`EwmError`.
"""


class EwmError(Exception):
    """Base class for every error raised by this package."""


# -- probability vectors and neighborhoods ----------------------------------

class NegativeWeightError(EwmError):
    """A weight or score that must be nonnegative is negative."""


class SumNotOneError(EwmError):
    """Input weights deviate from unit total by more than the accepted slack."""


class TooShortError(EwmError):
    """Vocabulary must contain at least two symbols."""


class LengthMismatchError(EwmError):
    """Two vectors that must share a length do not."""


class InvalidSpecError(EwmError):
    """Anchor/radius combination violates min(anchor) > delta or 0 < delta < 2."""


class OutsideNeighborhoodError(EwmError):
    """Target distribution lies outside the L1 ball around the anchor."""


# -- score tables ------------------------------------------------------------

class DimensionMismatchError(EwmError):
    """Matrix shape incompatible with the vocabulary size."""


class ZeroRowError(EwmError):
    """A row normalizer is zero; the kernel is undefined."""


# -- couplings ----------------------------------------------------------------

class InvalidPairError(EwmError):
    """Gain and loss indices must be distinct in-range vocabulary symbols."""


class BadWeightsError(EwmError):
    """Mixture weights or joint entries violate their simplex constraints."""


class InvalidPathError(EwmError):
    """Path vertices must be at least two distinct vocabulary indices."""


# -- detection ----------------------------------------------------------------

class BadAlphaError(EwmError):
    """Significance level outside (0, 1)."""


class AlreadyStoppedError(EwmError):
    """Observation fed to a detector that has already rejected."""


class IndexOutOfRangeError(EwmError):
    """Outcome or seed that is not a vocabulary index: an integer in range."""


class EmptyStreamError(EwmError):
    """Batch detection requires at least one observation."""


# -- oracles ------------------------------------------------------------------

class TooLargeError(EwmError):
    """Exhaustive enumeration refused: instance exceeds the brute-force budget."""


class BadParamsError(EwmError):
    """Solver or simulation parameters violate a documented precondition."""


# -- command line -------------------------------------------------------------

class FormatError(EwmError):
    """Malformed grid token, stream file, or JSON payload."""
