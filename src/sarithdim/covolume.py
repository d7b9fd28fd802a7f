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

both exact rationals.  As everywhere in covolume, formal_degree, vndim and
quaternion, exact values are integer pairs, one Fraction per public value:
a route carries an unreduced (numerator, denominator) pair of integer
products, a public function builds one Fraction from its final pair, and no
exact route does Fraction arithmetic.  :func:`_sl2_covolume_terms` and
:func:`_pgl2_covolume_terms` are the one homes of the SL and PGL formulas;
vndim's covolume routes call them directly: the SL pair times the SL degree
d_SL(St_S) of ``formal_degree`` is the SL lattice route behind ``check``'s
transfer rows, the PGL pair times d(St_S) the PGL one.
PGL(2, O_S) is GL(2, O_S)/O_S^x, of index |O_S^x/O_S^x2| = 2^|S| over PSL
(:func:`pgl_psl_index`).  The scheme-theoretic PGL_2(O_S) is larger by |Pic(O_S)[2]|:
by 2 over Q(sqrt 10) with S its real places, by 1 over every grid field (class number 1).
F must be exactly a NumberField and S exactly an SSet of F
(``numberfield.check_s_set``): :func:`invariants`, the entry point of F's
data into every closed form, raises ValueError otherwise, so a tuple equal
to a record is refused, whatever record S carries.  The record is built
once per S-set and kept on it, because one computation at a point asks for
it many times; no route's output is kept, so every cross-check recomputes
its value on every call.  A :class:`Covolume` carries the value only, not
(F, S).
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .numberfield import NumberField, SSet, check_s_set, delta_2
from .zeta import zeta_F_minus1


class Invariants(NamedTuple):
    """The invariants of (F, S) that the closed forms are monomials in."""

    zeta: Fraction  # |zeta_F(-1)|
    n: int  # degree of F, the number of real places
    size: int  # |S|
    delta_2: int  # delta_2(S), the e*f sum over the places of S above 2
    prod_q_minus_1: int  # prod (q_v - 1) over the finite places of S
    prod_q_plus_1: int  # prod (q_v + 1) over the finite places of S


def invariants(F: NumberField, S: SSet) -> Invariants:
    """The :class:`Invariants` record of (F, S); ValueError unless F is a
    NumberField and S an SSet of F, by ``numberfield.check_s_set``.

    The record is built on first use and kept in S's instance dict, where
    ``SSet.places`` is kept too, so it lives and pickles with S and an equal
    S-set builds its own.  Two threads that use a fresh S-set at once may
    both build it; the records are equal, and either one is kept.
    """
    check_s_set(F, S)
    record = S.__dict__.get("invariants")
    if record is None:
        record = S.__dict__["invariants"] = Invariants(
            abs(zeta_F_minus1(F).value),
            F.degree,
            S.size,
            delta_2(S),
            math.prod(v.q - 1 for v in S.finite_places),
            math.prod(v.q + 1 for v in S.finite_places),
        )
    return record


class Covolume(NamedTuple):
    value: Fraction


def _sl2_covolume_terms(inv: Invariants) -> tuple[int, int]:
    """The SL(2, O_S) covolume z Q+ / 2^n as an unreduced (numerator,
    denominator) pair of ints."""
    z = inv.zeta
    return z.numerator * inv.prod_q_plus_1, z.denominator * 2**inv.n


def sl2_covolume(F: NumberField, S: SSet) -> Covolume:
    """Covolume of SL(2, O_S), exactly."""
    return Covolume(Fraction(*_sl2_covolume_terms(invariants(F, S))))


def _pgl2_covolume_terms(inv: Invariants) -> tuple[int, int]:
    """The PGL(2, O_S) covolume 2^(delta_2 + 1) z Q+ / 2^(2n) as an unreduced
    (numerator, denominator) pair of ints."""
    z = inv.zeta
    return z.numerator * 2 ** (inv.delta_2 + 1) * inv.prod_q_plus_1, z.denominator * 2 ** (2 * inv.n)


def pgl2_covolume(F: NumberField, S: SSet) -> Covolume:
    """Covolume of PGL(2, O_S), exactly."""
    return Covolume(Fraction(*_pgl2_covolume_terms(invariants(F, S))))


def pgl_psl_index(S: SSet) -> int:
    """Index of PSL(2, O_S) in PGL(2, O_S): the square-class count 2^|S|."""
    return 2**S.size
