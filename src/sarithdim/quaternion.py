"""Quaternion-algebra side: the even-|S| ramification rule, the zeta-ratio
value, and candidate orders for the finite S-unit groups of a totally
definite algebra.  The zeta ratio is factored place by place and never reads
:class:`~sarithdim.covolume.Invariants`, so it stays an independent route.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import OddCardinality
from .numberfield import NumberField, SSet
from .zeta import zeta_F_minus1

# radicand d -> extra m with 2 cos(2 pi / m) in Q(sqrt d); the rational
# cases m in {1, 2, 3, 4, 6} hold in every field
_EXTRA_COSINE_ORDERS = {2: (8,), 3: (12,), 5: (5, 10)}


@dataclass(frozen=True)
class CandidateReport:
    """Necessary-condition superset of the finite groups PD*(O_S) can be.

    Never an exact order computation: exactness would need unit-group
    arithmetic in quaternion orders, out of scope here.
    """

    cyclic_orders: tuple[int, ...]
    dihedral_orders: tuple[int, ...]
    exceptional: tuple[str, ...]
    bound: int


def validate_ramification(F: NumberField, S: SSet) -> bool:
    """Whether a quaternion algebra over F ramified exactly at S exists (with
    every real place ramified, which SSet guarantees structurally): iff |S|
    is even.  The single home of the even-|S| rule."""
    return S.size % 2 == 0


def zeta_D_leading_ratio_at_zero(F: NumberField, S: SSet) -> Fraction:
    """|zeta_D(0) / zeta_F(0)| as a ratio of leading Taylor coefficients.

    The zeta function of the algebra factors as
    zeta_D(s) = zeta_F(2s) zeta_F(2s-1) prod_{v in S_f} (1 - q_v^(1-2s)),
    so at s = 0 the zeta_F factor cancels (as leading coefficients when
    zeta_F vanishes there) and the ratio is zeta_F(-1) prod (1 - q_v), taken
    in absolute value.  ValueError unless S is an S-set of F.
    """
    if S.field != F:
        raise ValueError(f"{S} is an S-set of {S.field}, not of {F}")
    if not validate_ramification(F, S):
        raise OddCardinality(f"|S| = {S.size} is odd; no quaternion algebra ramifies exactly at S")
    ratio = zeta_F_minus1(F).value
    for v in S.finite_places:
        ratio *= 1 - v.q
    return abs(ratio)


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
    S4); the icosahedral group A5 needs sqrt(5).  The bound covers the
    largest dihedral candidate and the order-60 icosahedral group.
    """
    orders = sorted([1, 2, 3, 4, 6, *_EXTRA_COSINE_ORDERS.get(F.d, ())])
    exceptional = ("A4", "S4", "A5") if F.d == 5 else ("A4", "S4")
    return CandidateReport(
        tuple(orders),
        tuple(2 * m for m in orders),
        exceptional,
        max(2 * orders[-1], 60),
    )
