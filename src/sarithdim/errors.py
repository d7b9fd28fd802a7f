"""Exception hierarchy with stable machine-readable codes.

Every domain error carries a ``code`` attribute that the CLI exposes
verbatim, so scripted consumers can dispatch on error codes instead of
parsing messages.
"""


class CalcError(Exception):
    """Base class of all domain errors raised by this package."""

    code = "ERROR"


class MalformedSpec(CalcError):
    """Field spec is not a str matching the accepted grammar."""

    code = "MALFORMED_SPEC"


class NotSquarefree(CalcError):
    code = "NOT_SQUAREFREE"


class NotTotallyReal(CalcError):
    """Requested quadratic field is imaginary or degenerate (d <= 1)."""

    code = "NOT_TOTALLY_REAL"


class DuplicatePlace(CalcError):
    code = "DUPLICATE_PLACE"


class InvalidSelector(CalcError):
    """A place selector was applied to a prime it does not make sense for."""

    code = "INVALID_SELECTOR"


class UnsupportedField(CalcError):
    """Field outside the supported range: radicand above MAX_RADICAND."""

    code = "UNSUPPORTED_FIELD"


class UnsupportedPrime(CalcError):
    """S-prime outside the supported range: above MAX_PRIME."""

    code = "UNSUPPORTED_PRIME"


class ToleranceTooTight(CalcError):
    """A tolerance outside [1e-12, 1), or not a real number."""

    code = "TOLERANCE_TOO_TIGHT"


class OutOfRange(CalcError):
    """An int argument outside its range, or not an int: ``precision_bits``,
    the ``bits`` of zeta_F_2_numeric, ``pd_order`` or the value of a local
    datum."""

    code = "OUT_OF_RANGE"


class OddCardinality(CalcError):
    """The place set has odd size; quaternion ramification sets are even."""

    code = "ODD_CARDINALITY"


class InternalInconsistency(CalcError):
    """Two independent computation routes disagreed.  Always a bug."""

    code = "INTERNAL_INCONSISTENCY"


class MissingDatum(CalcError):
    code = "MISSING_DATUM"


class DatumPlaceMismatch(CalcError):
    code = "DATUM_PLACE_MISMATCH"
