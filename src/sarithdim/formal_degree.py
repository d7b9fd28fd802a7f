"""Formal degrees of Steinberg representations under the frozen Haar measures.

Locally, d(St_v) = 2 at a real place and (q_v - 1)/(2 (q_v + 1)) at a
finite place, with an extra factor 2^(-e*f) at places of residue
characteristic 2 (the unique assignment consistent with the aggregate
below).  Globally, with n, |S|, delta_2, Q- = prod (q_v - 1) and
Q+ = prod (q_v + 1) the fields of :class:`~sarithdim.covolume.Invariants`,

    d(St_S) = 2^n * Q- / (2^(delta_2 + |S| - n) * Q+),

since each of the |S| - n finite places contributes (q_v - 1)/(2 (q_v + 1)).
The global degree is computed both as the product of local degrees, which
never reads the invariants, and by this closed form, and is returned only
when the two agree exactly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .covolume import invariants
from .errors import InternalInconsistency
from .numberfield import NumberField, Place, SSet


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
    degree = Fraction(q - 1, 2 * (q + 1))
    if v.p == 2:
        degree /= 2 ** (v.e * v.f)
    return degree


def steinberg_global_degree(F: NumberField, S: SSet) -> Fraction:
    """Formal degree of the Steinberg factor over all places of S.

    Computed as the product of local degrees, verified against the closed
    form; any disagreement is a bug, not recoverable input error.
    """
    product = math.prod((steinberg_local_degree(v) for v in S.places), start=Fraction(1))
    inv = invariants(F, S)
    closed = Fraction(
        2**inv.n * inv.prod_q_minus_1,
        2 ** (inv.delta_2 + inv.size - inv.n) * inv.prod_q_plus_1,
    )
    if product != closed:
        raise InternalInconsistency(
            f"Steinberg degree routes disagree on {S}: product {product} vs closed form {closed}"
        )
    return product


def jl_degree_ratio(datum: LocalRepDatum) -> int:
    """d(pi_v)/d(St_v) for the local factor described by datum.

    At a real place of weight n the matched compact-group factor is the
    (n-1)-dimensional one, so the ratio is n - 1; at a finite place the
    supplied complex dimension passes through.
    """
    if datum.place.is_real:
        return datum.weight - 1
    return datum.complex_dim
