"""Formal degrees of Steinberg representations under the frozen Haar measures.

Locally, d(St_v) = 2 at a real place and (q_v - 1)/(2 (q_v + 1)) at a
finite place, with an extra factor 2^(-e*f) at places of residue
characteristic 2 (the unique assignment consistent with the aggregate
below).  The global degree d(St_S) is the product of the local degrees over
the places of S.  The n real places give the constant 2^n, so
:func:`_global_degree_terms` starts from it and loops over the finite
places alone, multiplying in the local formula inline: that loop is the one
home of the local formula, and there is no public local face.  Like every
exact value d(St_S) is an integer pair inside the library, one Fraction per
public value.  It never reads the invariants of (F, S).  In the fields of
:class:`~sarithdim.covolume.Invariants`
(n, |S|, delta_2, Q- = prod (q_v - 1), Q+ = prod (q_v + 1)) it equals

    d(St_S) = 2^n * Q- / (2^(delta_2 + |S| - n) * Q+),

since each of the |S| - n finite places contributes (q_v - 1)/(2 (q_v + 1)).
The closed form is computed nowhere: it is the degree for which covolume *
d(St_S) equals the Steinberg PGL monomial 2 z Q- / 2^|S|, and that equality
is the ``pgl_two_routes`` check of :mod:`~sarithdim.vndim`.

Beside it, :func:`_sl_degree_terms` is the one home of the SL Steinberg
degree d_SL(St_S), the product over S of d_SL(St_v) = 2 at a real place and
(q_v - 1)/(q_v + 1) at a finite one, with no factor at the places above 2:

    d_SL(St_S) = 2^n * Q- / Q+.

It has the same shape: 2^n from the real places, then one loop over the
finite places of S.  It reads neither the invariants nor delta_2.  The SL
covolume z Q+ / 2^n times d_SL(St_S) is z Q-, the Steinberg dimension over
SL(2, O_S), which vndim's ``psl_transfer`` and ``sl_transfer`` checks
compare with the PGL closed form carried by index transfer.
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


def _global_degree_terms(S: SSet) -> tuple[int, int]:
    """The global Steinberg degree over S as an unreduced (numerator,
    denominator) pair: 2^n from the real places, then (q_v - 1)/(2 (q_v + 1))
    at each finite place, with 2^(e f) more in the denominator above 2,
    multiplied as integers."""
    num, den = 2**S.field.degree, 1
    for v in S.finite_places:
        q = v.q
        num *= q - 1
        den *= 2 * (q + 1) * (2 ** (v.e * v.f) if v.p == 2 else 1)
    return num, den


def _sl_degree_terms(S: SSet) -> tuple[int, int]:
    """The SL Steinberg degree d_SL(St_S) as an unreduced (numerator,
    denominator) pair: 2^n from the real places, then (q_v - 1)/(q_v + 1) at
    each finite place, multiplied as integers."""
    num, den = 2**S.field.degree, 1
    for v in S.finite_places:
        q = v.q
        num *= q - 1
        den *= q + 1
    return num, den


def steinberg_global_degree(S: SSet) -> Fraction:
    """Formal degree of the Steinberg factor over all places of S: the
    product of the local degrees, reduced once, into one Fraction.  S must
    be exactly an :class:`SSet`; anything else is a ValueError."""
    if type(S) is not SSet:
        raise ValueError(f"S must be an SSet, got {_repr(S)}")
    return Fraction(*_global_degree_terms(S))


def jl_degree_ratio(datum: LocalRepDatum) -> int:
    """d(pi_v)/d(St_v), the dimension of the matched factor pi'_v: k - 1 for
    weight k at a real place, the datum itself at a finite place."""
    return datum.value - 1 if datum.place.is_real else datum.value
