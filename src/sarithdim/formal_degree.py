"""Formal degrees of Steinberg representations under the frozen Haar measures.

Locally, d(St_v) = 2 at a real place and (q_v - 1)/(2 (q_v + 1)) at a
finite place, with an extra factor 2^(-e*f) at places of residue
characteristic 2 (the unique assignment consistent with the aggregate
below).  The global degree d(St_S) is the product of the local degrees over
the places of S and never reads the invariants of (F, S).  In the fields of
:class:`~sarithdim.covolume.Invariants` (n, |S|, delta_2, Q- = prod (q_v - 1),
Q+ = prod (q_v + 1)) it equals

    d(St_S) = 2^n * Q- / (2^(delta_2 + |S| - n) * Q+),

since each of the |S| - n finite places contributes (q_v - 1)/(2 (q_v + 1)).
The closed form is computed nowhere: it is the degree for which covolume *
d(St_S) equals the Steinberg PGL monomial 2 z Q- / 2^|S|, and that equality
is the ``pgl_two_routes`` check of :mod:`~sarithdim.vndim`.
"""

from dataclasses import dataclass
from fractions import Fraction

from .numberfield import Place, SSet


@dataclass(frozen=True)
class LocalRepDatum:
    """Per-place description of one discrete-series factor.

    A real place carries the weight n >= 2 of the discrete-series pair (the
    weight-2 member is the Steinberg-type one); a finite place carries the
    complex dimension of the matched division-algebra factor.
    """

    place: Place
    weight: int | None = None
    complex_dim: int | None = None

    def __post_init__(self):
        if self.place.is_real:
            if self.weight is None or self.complex_dim is not None:
                raise ValueError("a real place takes a weight and nothing else")
            if self.weight < 2:
                raise ValueError(f"discrete series need weight >= 2, got {self.weight}")
        else:
            if self.complex_dim is None or self.weight is not None:
                raise ValueError("a finite place takes a complex dimension and nothing else")
            if self.complex_dim < 1:
                raise ValueError("complex dimension must be >= 1")

    @classmethod
    def archimedean(cls, place: Place, weight: int) -> "LocalRepDatum":
        return cls(place, weight=weight)

    @classmethod
    def finite(cls, place: Place, complex_dim: int) -> "LocalRepDatum":
        return cls(place, complex_dim=complex_dim)


def steinberg_local_degree(v: Place) -> Fraction:
    """Formal degree of the local Steinberg representation at v."""
    if v.is_real:
        return Fraction(2)
    q = v.q
    two_part = 2 ** (v.e * v.f) if v.p == 2 else 1
    return Fraction(q - 1, 2 * (q + 1) * two_part)


def steinberg_global_degree(S: SSet) -> Fraction:
    """Formal degree of the Steinberg factor over all places of S: the
    product of local degrees, their numerators and denominators multiplied
    as integers and reduced once."""
    num = den = 1
    for v in S.places:
        local = steinberg_local_degree(v)
        num *= local.numerator
        den *= local.denominator
    return Fraction(num, den)


def jl_degree_ratio(datum: LocalRepDatum) -> int:
    """d(pi_v)/d(St_v) for the local factor described by datum.

    At a real place of weight n the matched compact-group factor is the
    (n-1)-dimensional one, so the ratio is n - 1; at a finite place the
    supplied complex dimension passes through.
    """
    if datum.place.is_real:
        return datum.weight - 1
    return datum.complex_dim
