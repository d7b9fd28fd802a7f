"""Von Neumann dimensions of discrete-series modules over S-arithmetic groups.

The engine is the lattice formula: dimension = covolume * formal degree.
For a finite group the dimension is dim_C(H) / |Gamma|.  Group variants are
linked by index transfer: passing from PGL(2, O_S) to the index-2^|S|
subgroup PSL(2, O_S) multiplies the dimension by 2^|S|, and pushing down
along SL -> SL/{+-1} = PSL halves it (every module in scope has trivial
central character).  Headline values are computed by two routes and
returned only on exact agreement.  :func:`check_identities` instead reports
a disagreement of the routes it compares as a failed check and does not
raise.

The group is one of the strings ``"pgl"``, ``"psl"`` and ``"sl"``; any other
value is a ValueError.  S must be an S-set of F.  Result records carry the
value, not the (F, S) or group they were computed for.

In the fields of :class:`~sarithdim.covolume.Invariants` (z = |zeta_F(-1)|,
|S|, Q- = prod (q_v - 1) over the finite places of S) the closed forms are

    Steinberg over PGL(2, O_S):   2 * z * Q- / 2^|S|
    jl_ratio_pgl:                 2 * z * N * Q- / 2^|S|
    jl_ratio_sl:                  z * Q-

where N is the order of the finite quaternion S-unit group; the Steinberg
PGL dimension is the jl_ratio_pgl monomial at N = 1, for every |S|.
"""

from dataclasses import dataclass
from fractions import Fraction

from .covolume import Invariants, invariants, pgl2_covolume, pgl_psl_index
from .errors import DatumPlaceMismatch, InternalInconsistency, MissingDatum, OddCardinality
from .formal_degree import LocalRepDatum, jl_degree_ratio, steinberg_global_degree
from .numberfield import NumberField, SSet
from .quaternion import validate_ramification, zeta_D_leading_ratio_at_zero


@dataclass(frozen=True)
class VnDimension:
    value: Fraction


def atiyah_schmid_dim(covolume, formal_degree) -> Fraction:
    """Dimension of a square-integrable module over the lattice's algebra:
    covolume times formal degree, a Fraction whatever the argument types."""
    if covolume <= 0:
        raise ValueError("covolume must be positive")
    if formal_degree < 0:
        raise ValueError("formal degree must be >= 0")
    product = covolume * formal_degree
    return product if isinstance(product, Fraction) else Fraction(product)


def vn_dim_finite_group(dim_C: int, group_order: int) -> Fraction:
    """Dimension over the algebra of a finite group: dim_C / order."""
    if group_order < 1:
        raise ValueError("group order must be >= 1")
    return Fraction(dim_C, group_order)


def _pgl_monomial(inv: Invariants) -> Fraction:
    """2 z Q- / 2^|S|, the PGL closed form at N = 1, defined for every |S|."""
    z = inv.zeta
    return Fraction(2 * z.numerator * inv.prod_q_minus_1, z.denominator * 2**inv.size)


def _pgl_two_routes(F: NumberField, S: SSet) -> tuple[Fraction, Fraction]:
    """The Steinberg dimension over PGL(2, O_S) by its two routes: the closed
    form 2 z Q- / 2^|S|, and covolume * global formal degree."""
    closed = _pgl_monomial(invariants(F, S))
    return closed, atiyah_schmid_dim(pgl2_covolume(F, S).value, steinberg_global_degree(S))


def _index_transfer(S: SSet, pgl: Fraction, group: str) -> Fraction:
    """The dimension over ``group`` of a module whose PGL dimension is ``pgl``:
    times the index of PSL in PGL, then halved for SL."""
    if group == "pgl":
        return pgl
    if group not in ("psl", "sl"):
        raise ValueError(f"group must be 'pgl', 'psl' or 'sl', got {group!r}")
    psl = pgl_psl_index(S) * pgl
    return psl if group == "psl" else psl / 2


def steinberg_vn_dim(F: NumberField, S: SSet, group: str) -> VnDimension:
    """Dimension of the Steinberg module over the chosen group's algebra.

    The PGL value is the closed form 2 z Q- / 2^|S|, independently
    recomputed as covolume * global formal degree; PSL and SL are reached
    from it by index transfer.
    """
    closed, via_covolume = _pgl_two_routes(F, S)
    if closed != via_covolume:
        raise InternalInconsistency(
            f"Steinberg dimension routes disagree on {S}: closed form {closed}, covolume route {via_covolume}"
        )
    return VnDimension(_index_transfer(S, closed, group))


def module_vn_dim(F: NumberField, S: SSet, group: str, local: list[LocalRepDatum]) -> VnDimension:
    """Dimension of the module with the given local data, one datum per place.

    Equals the Steinberg dimension scaled by the product of the local
    degree ratios.
    """
    base = steinberg_vn_dim(F, S, group)
    unmatched = list(S.places)
    scale = 1
    for datum in local:
        if datum.place not in unmatched:
            raise DatumPlaceMismatch(f"{datum.place} is not an unmatched place of {S}")
        unmatched.remove(datum.place)
        scale *= jl_degree_ratio(datum)
    if unmatched:
        raise MissingDatum(f"no local datum for {', '.join(str(v) for v in unmatched)}")
    return VnDimension(base.value * scale)


def jl_ratio_sl(F: NumberField, S: SSet) -> Fraction:
    """The SL-side dimension ratio |zeta_D(0)/zeta_F(0)| for the quaternion
    algebra ramified exactly at S: z * Q-."""
    if not validate_ramification(S):
        raise OddCardinality(f"|S| = {S.size} is odd; ramification sets of quaternion algebras have even size")
    inv = invariants(F, S)
    return inv.zeta * inv.prod_q_minus_1


def jl_ratio_pgl(F: NumberField, S: SSet, pd_order: int = 1) -> Fraction:
    """The PGL-side dimension ratio 2 z N Q- / 2^|S|, where N = ``pd_order``
    is the order of the finite S-unit group on the quaternion side.

    The default N = 1 gives the coefficient; callers multiply by the group
    order once they know it.
    """
    if not validate_ramification(S):
        raise OddCardinality(f"|S| = {S.size} is odd; ramification sets of quaternion algebras have even size")
    if not isinstance(pd_order, int) or pd_order < 1:
        raise ValueError(f"pd_order must be an int >= 1, got {pd_order!r}")
    return pd_order * _pgl_monomial(invariants(F, S))


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


def _compare(name: str, lhs: Fraction, rhs: Fraction, detail: str) -> IdentityCheck:
    status = "pass" if lhs == rhs else "fail"
    return IdentityCheck(name, status, f"{detail}: {lhs} vs {rhs}")


def check_identities(F: NumberField, S: SSet) -> IdentityReport:
    """Run the cross-route identity suite at one (field, S) point.

    Each route runs once per point; a disagreement is a failed check, not
    an exception.  Odd-|S| points skip the quaternion-side checks instead of
    failing.
    """
    checks = []
    closed, via_cov = _pgl_two_routes(F, S)
    checks.append(_compare("pgl_two_routes", via_cov, closed, "covolume*degree vs closed form"))

    psl = _index_transfer(S, closed, "psl")
    sl = _index_transfer(S, closed, "sl")
    checks.append(_compare("psl_transfer", psl, 2**S.size * closed, "PSL vs 2^|S| * PGL"))
    checks.append(_compare("sl_transfer", sl, psl / 2, "SL vs PSL/2"))

    if validate_ramification(S):
        ratio_sl = jl_ratio_sl(F, S)
        checks.append(
            _compare(
                "sl_quaternion_zeta_match",
                ratio_sl,
                zeta_D_leading_ratio_at_zero(F, S),
                "SL ratio vs zeta_D factorization route",
            )
        )
        sl_via_cov = _index_transfer(S, via_cov, "sl")
        checks.append(_compare("sl_steinberg_match", ratio_sl, sl_via_cov, "SL ratio vs Steinberg SL dimension"))
        checks.append(
            _compare(
                "pgl_sl_transfer",
                jl_ratio_pgl(F, S) * 2**S.size / 2,
                ratio_sl,
                "PGL coefficient * 2^|S| / 2 vs SL ratio",
            )
        )
    else:
        note = f"ODD_CARDINALITY: |S| = {S.size}"
        for name in ("sl_quaternion_zeta_match", "sl_steinberg_match", "pgl_sl_transfer"):
            checks.append(IdentityCheck(name, "skipped", note))

    return IdentityReport(tuple(checks))
