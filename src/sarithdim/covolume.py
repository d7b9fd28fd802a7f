"""Exact covolumes of SL(2, O_S) and PGL(2, O_S) in their S-adelic groups,
and the invariants of (F, S) that every closed form is built from.

Haar measures are frozen once and for all: at a real place the maximal
compact SO(2) gets volume 1, at a finite place the Iwahori subgroup gets
volume 1 (so SL(2, O_v) has volume q_v + 1).  Every constant downstream
assumes exactly this normalization, which is why no measure parameter is
exposed.  In the fields of :class:`Invariants` (z = |zeta_F(-1)|, n the
field degree, delta_2 = delta_2(S), Q+ = prod (q_v + 1) over the finite
places of S) the covolumes are the monomials

    SL(2, O_S):   z * Q+ / 2^n
    PGL(2, O_S):  2^(delta_2 + 1) * z * Q+ / 2^(2n)

both exact rationals.  S must be an S-set of F: :func:`invariants`, the
entry point of F's data into every closed form, raises ValueError
otherwise.  A :class:`Covolume` carries the value only, not (F, S).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .numberfield import NumberField, SSet, delta_2
from .zeta import zeta_F_minus1


@dataclass(frozen=True)
class Invariants:
    """The invariants of (F, S) that the closed forms are monomials in."""

    zeta: Fraction  # |zeta_F(-1)|
    n: int  # degree of F, the number of real places
    size: int  # |S|
    delta_2: int  # delta_2(S), the e*f sum over the places of S above 2
    prod_q_minus_1: int  # prod (q_v - 1) over the finite places of S
    prod_q_plus_1: int  # prod (q_v + 1) over the finite places of S


def invariants(F: NumberField, S: SSet) -> Invariants:
    """The :class:`Invariants` record of (F, S); ValueError unless S is an
    S-set of F."""
    if S.field != F:
        raise ValueError(f"{S} is an S-set of {S.field}, not of {F}")
    return Invariants(
        abs(zeta_F_minus1(F).value),
        F.degree,
        S.size,
        delta_2(S),
        math.prod(v.q - 1 for v in S.finite_places),
        math.prod(v.q + 1 for v in S.finite_places),
    )


@dataclass(frozen=True)
class Covolume:
    value: Fraction


def sl2_covolume(F: NumberField, S: SSet) -> Covolume:
    """Covolume of SL(2, O_S), exactly."""
    inv = invariants(F, S)
    return Covolume(inv.zeta * Fraction(inv.prod_q_plus_1, 2**inv.n))


def pgl2_covolume(F: NumberField, S: SSet) -> Covolume:
    """Covolume of PGL(2, O_S), exactly."""
    inv = invariants(F, S)
    return Covolume(inv.zeta * Fraction(2 ** (inv.delta_2 + 1) * inv.prod_q_plus_1, 2 ** (2 * inv.n)))


def pgl_psl_index(F: NumberField, S: SSet) -> int:
    """Index of PSL(2, O_S) in PGL(2, O_S): the square-class count 2^|S|."""
    return 2**S.size
