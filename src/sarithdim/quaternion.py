"""Quaternion-algebra side: the even-|S| ramification rule, the zeta-ratio
value, and candidate orders for the finite S-unit groups of a totally
definite algebra.  The zeta ratio is factored place by place and never reads
:class:`~sarithdim.covolume.Invariants`, so it stays an independent route;
``vndim.check_identities`` compares its integer pair
(:func:`_zeta_D_ratio_terms`) and builds no Fraction of it.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import OddCardinality
from .numberfield import NumberField, SSet, check_field, check_s_set
from .zeta import zeta_F_minus1

# radicand d -> extra m with 2 cos(2 pi / m) in Q(sqrt d); the rational
# cases m in {1, 2, 3, 4, 6} hold in every field
_EXTRA_COSINE_ORDERS = {2: (8,), 3: (12,), 5: (5, 10)}


class CandidateReport(NamedTuple):
    """Necessary-condition superset of the finite groups PD*(O_S) can be.

    Never an exact order computation: exactness would need unit-group
    arithmetic in quaternion orders, out of scope here.
    """

    cyclic_orders: tuple[int, ...]
    dihedral_orders: tuple[int, ...]
    exceptional: tuple[str, ...]
    bound: int


def validate_ramification(S: SSet) -> None:
    """Raise OddCardinality unless a quaternion algebra over S.field ramified
    exactly at S (every real place included, as SSet guarantees) exists:
    iff |S| is even.  The single home of the even-|S| rule."""
    if S.size % 2:
        raise OddCardinality(f"|S| = {S.size} is odd; ramification sets of quaternion algebras have even size")


def zeta_D_leading_ratio_at_zero(F: NumberField, S: SSet) -> Fraction:
    """|zeta_D(0) / zeta_F(0)| = |zeta_F(-1) prod_{v in S_f} (1 - q_v)| for
    the quaternion algebra D ramified exactly at S.

    The ratio is taken in the normalization
    zeta_D(s) = zeta_F(s) zeta_F(s-1) prod_{v in S_f} (1 - q_v^(1-s)),
    in which zeta_D / zeta_F is zeta_F(s-1) prod (1 - q_v^(1-s)) as a
    function; it is the one in which the dimension identity matches the
    lattice side.  Hey's normalization zeta_F(2s) zeta_F(2s-1)
    prod (1 - q_v^(1-2s)) gives 2^(n-1) times this value, n the degree of F:
    zeta_F has a zero of order n - 1 at 0, so zeta_F(2s) / zeta_F(s) tends
    to 2^(n-1) there.  ValueError unless F is a NumberField and S an SSet
    of F (``numberfield.check_s_set``), before the parity of |S|; both
    checks are made here, not in :func:`_zeta_D_ratio_terms`.
    """
    check_s_set(F, S)
    validate_ramification(S)
    return Fraction(*_zeta_D_ratio_terms(S))


def _zeta_D_ratio_terms(S: SSet) -> tuple[int, int]:
    """:func:`zeta_D_leading_ratio_at_zero` over S.field as an unreduced
    (numerator, denominator) pair of ints.  It checks nothing: its callers
    have checked (S.field, S) and the parity of |S| already."""
    z = zeta_F_minus1(S.field).value
    return abs(z.numerator) * math.prod(v.q - 1 for v in S.finite_places), z.denominator


def pdx_candidates(F: NumberField) -> CandidateReport:
    """Orders m with 2 cos(2 pi / m) in F, the exceptional groups passing the
    same trace test, and a crude bound on |PD*(O_S)|.

    In PD* = D*/F* an element of order m has eigenvalue ratio a primitive
    m-th root of unity, so it needs 2 cos(2 pi / m) in F, whatever its norm;
    only the norm-1 group asks for more.  2 cos(2 pi / m) is rational iff m
    is in {1, 2, 3, 4, 6}; the degree-2 values add {5, 10} over sqrt(5), {8}
    over sqrt(2) and {12} over sqrt(3).  Cyclic groups of order m and
    dihedral groups of order 2m need the condition for m.  The tetrahedral
    and octahedral groups A4 and S4 have element orders up to 4 and pass
    over every field (over Q, the Hurwitz units and norm-2 elements give
    S4); the icosahedral group A5 needs sqrt(5).  The bound is 60 over every
    field: the candidates are cyclic (order <= 12), dihedral (<= 24), A4, S4
    and A5, so A5's order bounds them all.  F must be exactly a NumberField
    (``numberfield.check_field``), checked before anything of it is read.
    """
    check_field(F)
    orders = sorted([1, 2, 3, 4, 6, *_EXTRA_COSINE_ORDERS.get(F.d, ())])
    exceptional = ("A4", "S4", "A5") if F.d == 5 else ("A4", "S4")
    return CandidateReport(tuple(orders), tuple(2 * m for m in orders), exceptional, 60)
