"""Formal degrees of Steinberg representations under the frozen Haar measures.

Locally, d(St_v) = 2 at a real place and (q_v - 1)/(2 (q_v + 1)) at a
finite place, with an extra factor 2^(-e*f) at places of residue
characteristic 2 (the unique assignment consistent with the aggregate
below).  The global degree d(St_S) is the product of the local degrees over
the places of S.  Like every exact value it is an integer pair inside the
library, one Fraction per public value: :func:`_global_degree_terms`, its
one home, returns the pair.  It never reads the invariants of (F, S).  In the fields of :class:`~sarithdim.covolume.Invariants`
(n, |S|, delta_2, Q- = prod (q_v - 1), Q+ = prod (q_v + 1)) it equals

    d(St_S) = 2^n * Q- / (2^(delta_2 + |S| - n) * Q+),

since each of the |S| - n finite places contributes (q_v - 1)/(2 (q_v + 1)).
The closed form is computed nowhere: it is the degree for which covolume *
d(St_S) equals the Steinberg PGL monomial 2 z Q- / 2^|S|, and that equality
is the ``pgl_two_routes`` check of :mod:`~sarithdim.vndim`.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import DatumPlaceMismatch, OutOfRange
from .numberfield import Place, SSet, _Validated, _repr


class LocalRepDatum(_Validated, namedtuple("LocalRepDatum", "place value")):
    """One local factor pi_v of pi = (x) pi_v, as one int that its place reads.

    At a real place ``value`` is the weight k >= 2 of the discrete series
    (weight 2 is the Steinberg-type one); at a finite place it is the
    complex dimension >= 1 of the matched factor pi'_v of the division
    algebra.  Any other value is OutOfRange; :meth:`archimedean` at a
    finite place or :meth:`finite` at a real one is a DatumPlaceMismatch.
    A place that is not exactly a :class:`Place` is a ValueError, before
    the value is read.
    """

    __slots__ = ()

    def __new__(cls, place: Place, value: int):
        if type(place) is not Place:
            raise ValueError(f"the place of a local datum must be a Place, got {_repr(place)}")
        least = 2 if place.is_real else 1
        if type(value) is not int or value < least:
            raise OutOfRange(f"the datum at {place} must be an int >= {least}, got {_repr(value)}")
        return super().__new__(cls, place, value)

    @classmethod
    def archimedean(cls, place: Place, weight: int) -> "LocalRepDatum":
        if type(place) is Place and not place.is_real:
            raise DatumPlaceMismatch(f"{place} is finite and takes a complex dimension, not a weight")
        return cls(place, weight)

    @classmethod
    def finite(cls, place: Place, complex_dim: int) -> "LocalRepDatum":
        if type(place) is Place and place.is_real:
            raise DatumPlaceMismatch(f"{place} is real and takes a weight, not a complex dimension")
        return cls(place, complex_dim)


def _local_degree_terms(v: Place) -> tuple[int, int]:
    """The local Steinberg degree at v as an unreduced (numerator,
    denominator) pair of ints: the one home of the local formula."""
    if v.is_real:
        return 2, 1
    q = v.q
    two_part = 2 ** (v.e * v.f) if v.p == 2 else 1
    return q - 1, 2 * (q + 1) * two_part


def steinberg_local_degree(v: Place) -> Fraction:
    """Formal degree of the local Steinberg representation at v."""
    return Fraction(*_local_degree_terms(v))


def _global_degree_terms(S: SSet) -> tuple[int, int]:
    """The global Steinberg degree over S as an unreduced (numerator,
    denominator) pair: the local pairs multiplied as integers."""
    num = den = 1
    for v in S.places:
        n, d = _local_degree_terms(v)
        num *= n
        den *= d
    return num, den


def steinberg_global_degree(S: SSet) -> Fraction:
    """Formal degree of the Steinberg factor over all places of S: the
    product of the local degrees, reduced once, into one Fraction."""
    return Fraction(*_global_degree_terms(S))


def jl_degree_ratio(datum: LocalRepDatum) -> int:
    """d(pi_v)/d(St_v), the dimension of the matched factor pi'_v: k - 1 for
    weight k at a real place, the datum itself at a finite place."""
    return datum.value - 1 if datum.place.is_real else datum.value
