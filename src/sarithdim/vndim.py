"""Von Neumann dimensions of discrete-series modules over S-arithmetic groups.

The engine is the lattice formula: dimension = covolume * formal degree.
Group variants are linked by index transfer: passing from PGL(2, O_S) to
the index-2^|S| subgroup PSL(2, O_S) multiplies the dimension by 2^|S|, and
pushing down along SL -> SL/{+-1} = PSL halves it (every module in scope
has trivial central character).  :func:`steinberg_vn_dim` and :func:`module_vn_dim`
compute their value by two routes and return it only on exact agreement;
:func:`jl_ratio_sl` and :func:`jl_ratio_pgl`, like the covolumes, take one
route, and only :func:`check_identities` compares them with others.  It
reports a disagreement of the routes it compares as a failed check and does
not raise.

The group is one of the strings ``"pgl"``, ``"psl"`` and ``"sl"``; any other
value is a ValueError.  F must be exactly a NumberField and S exactly an
SSet of F, else ValueError (``numberfield.check_s_set``, reached through
``covolume.invariants`` before anything is read).  Result records carry
the value, not the (F, S) or group they were computed for.

In the fields of :class:`~sarithdim.covolume.Invariants` (z = |zeta_F(-1)|,
|S|, Q- = prod (q_v - 1) over the finite places of S) the closed forms are

    Steinberg over PGL(2, O_S):   2 * z * Q- / 2^|S|
    jl_ratio_pgl:                 2 * z * N * Q- / 2^|S|
    jl_ratio_sl:                  z * Q-

where N is the order of the finite quaternion S-unit group; the Steinberg
PGL dimension is the jl_ratio_pgl monomial at N = 1, for every |S|.

Values are integer pairs, one Fraction per public value: every route value
is an unreduced (numerator, denominator) pair of integer products, and a
public function builds one Fraction, from its final pair.  A covolume
route multiplies the pairs of covolume and formal degree (PGL covolume times
d(St_S), or SL covolume times d_SL(St_S)), an index transfer
scales the numerator by 2^|S| and, for SL, the denominator by 2, and
:func:`check_identities` compares two routes by cross-multiplication.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .covolume import Invariants, _pgl2_covolume_terms, _sl2_covolume_terms, invariants, pgl_psl_index
from .errors import DatumPlaceMismatch, InternalInconsistency, MissingDatum, OddCardinality, OutOfRange
from .formal_degree import LocalRepDatum, _global_degree_terms, _sl_degree_terms, jl_degree_ratio
from .numberfield import NumberField, SSet, _repr
from .quaternion import _zeta_D_ratio_terms, validate_ramification

#: an exact value as an unreduced (numerator, denominator) pair, denominator > 0
Pair = tuple[int, int]


class VnDimension(NamedTuple):
    value: Fraction


def _times(x: Pair, num: int, den: int = 1) -> Pair:
    """x * num / den."""
    return x[0] * num, x[1] * den


def _equal(x: Pair, y: Pair) -> bool:
    return x[0] * y[1] == x[1] * y[0]


def _fraction_str(x: Pair) -> str:
    """What str(Fraction(*x)) prints, without building the Fraction, each
    int past str()'s digit limit by its size (``numberfield._repr``)."""
    g = math.gcd(*x)
    num, den = x[0] // g, x[1] // g
    return _repr(num) if den == 1 else f"{_repr(num)}/{_repr(den)}"


def _pgl_monomial(inv: Invariants, pd_order: int = 1) -> Pair:
    """2 z N Q- / 2^|S| with N = ``pd_order``, the PGL closed form, defined
    for every |S|."""
    z = inv.zeta
    return 2 * pd_order * z.numerator * inv.prod_q_minus_1, z.denominator * 2**inv.size


def _jl_sl(inv: Invariants) -> Pair:
    """z * Q-, the SL closed form."""
    z = inv.zeta
    return z.numerator * inv.prod_q_minus_1, z.denominator


def _pgl_two_routes(inv: Invariants, S: SSet) -> tuple[Pair, Pair]:
    """The Steinberg dimension over PGL(2, O_S) by its two routes: the closed
    form 2 z Q- / 2^|S|, and the Atiyah-Schmid formula, covolume * global
    formal degree."""
    return _pgl_monomial(inv), _times(_pgl2_covolume_terms(inv), *_global_degree_terms(S))


def _index_transfer(S: SSet, pgl: Pair, group: str) -> Pair:
    """The dimension over ``group`` of a module whose PGL dimension is ``pgl``:
    times the index of PSL in PGL, then halved for SL."""
    if group == "pgl":
        return pgl
    if group not in ("psl", "sl"):
        raise ValueError(f"group must be 'pgl', 'psl' or 'sl', got {_repr(group)}")
    return _times(pgl, pgl_psl_index(S), 2 if group == "sl" else 1)


def _steinberg_terms(F: NumberField, S: SSet, group: str) -> Pair:
    """:func:`steinberg_vn_dim` as a pair: both PGL routes, compared, then
    the index transfer."""
    closed, via_covolume = _pgl_two_routes(invariants(F, S), S)
    if not _equal(closed, via_covolume):
        raise InternalInconsistency(
            f"Steinberg dimension routes disagree on {S}: closed form {_fraction_str(closed)}, "
            f"covolume route {_fraction_str(via_covolume)}"
        )
    return _index_transfer(S, closed, group)


def steinberg_vn_dim(F: NumberField, S: SSet, group: str) -> VnDimension:
    """Dimension of the Steinberg module over the chosen group's algebra.

    The PGL value is the closed form 2 z Q- / 2^|S|, independently
    recomputed as covolume * global formal degree; PSL and SL are reached
    from it by index transfer.
    """
    return VnDimension(Fraction(*_steinberg_terms(F, S, group)))


def module_vn_dim(F: NumberField, S: SSet, group: str, local: list[LocalRepDatum]) -> VnDimension:
    """Dimension of the module with the given local data, one datum per place.

    Equals the Steinberg dimension scaled by the product of the local
    degree ratios.  The data are matched to the places of S in one pass,
    keyed by place, so the work is linear in |S| whatever their order.  An
    entry of ``local`` that is not exactly a :class:`LocalRepDatum` is a
    ValueError, before anything of it is read.
    """
    base = _steinberg_terms(F, S, group)
    # insertion order keeps the MissingDatum message in place order
    unmatched = dict.fromkeys(S.places)
    scale = 1
    for datum in local:
        if type(datum) is not LocalRepDatum:
            raise ValueError(f"local data must be LocalRepDatum records, got {_repr(datum)}")
        if datum.place not in unmatched:
            raise DatumPlaceMismatch(f"{datum.place} is not an unmatched place of {S}")
        del unmatched[datum.place]
        scale *= jl_degree_ratio(datum)
    if unmatched:
        raise MissingDatum(f"no local datum for {', '.join(str(v) for v in unmatched)}")
    return VnDimension(Fraction(*_times(base, scale)))


def jl_ratio_sl(F: NumberField, S: SSet) -> Fraction:
    """The SL-side dimension ratio |zeta_D(0)/zeta_F(0)| for the quaternion
    algebra ramified exactly at S: z * Q-."""
    inv = invariants(F, S)
    validate_ramification(S)
    return Fraction(*_jl_sl(inv))


def jl_ratio_pgl(F: NumberField, S: SSet, pd_order: int = 1) -> Fraction:
    """The PGL-side dimension ratio 2 z N Q- / 2^|S|, where N = ``pd_order``
    is the order of the finite S-unit group on the quaternion side.

    The default N = 1 gives the coefficient; callers multiply by the group
    order once they know it.  An (F, S) that is not a NumberField and an
    SSet of it is a ValueError, then an S of odd size is OddCardinality,
    then an N that is not an int >= 1 is OutOfRange.
    """
    inv = invariants(F, S)
    validate_ramification(S)
    if type(pd_order) is not int or pd_order < 1:
        raise OutOfRange(f"pd_order must be an int >= 1, got {_repr(pd_order)}")
    return Fraction(*_pgl_monomial(inv, pd_order))


#: (name, description) of the quaternion-side rows of :func:`check_identities`,
#: in report order: the SL ratio against the zeta_D factorization and against
#: the Steinberg SL dimension, and the PGL coefficient carried down to SL.
SL_ROWS = (
    ("sl_quaternion_zeta_match", "SL ratio vs zeta_D factorization route"),
    ("sl_steinberg_match", "SL ratio vs Steinberg SL dimension"),
    ("pgl_sl_transfer", "PGL coefficient * 2^|S| / 2 vs SL ratio"),
)


class IdentityCheck(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str


class IdentityReport(NamedTuple):
    checks: tuple[IdentityCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


def _compare(name: str, lhs: Pair, rhs: Pair, detail: str) -> IdentityCheck:
    status = "pass" if _equal(lhs, rhs) else "fail"
    return IdentityCheck(name, status, f"{detail}: {_fraction_str(lhs)} vs {_fraction_str(rhs)}")


def check_identities(F: NumberField, S: SSet) -> IdentityReport:
    """Run the cross-route identity suite at one (field, S) point.

    Each row compares two routes:

    - ``pgl_two_routes``: PGL covolume * d(St_S) against the PGL closed form;
    - ``psl_transfer``: twice the SL lattice route L = SL covolume *
      d_SL(St_S) against the closed form times the index 2^|S|;
    - ``sl_transfer``: L against the closed form transferred to SL, times
      2^|S| and halved;
    - ``sl_quaternion_zeta_match``: the SL closed form z * Q- against the
      zeta_D factorization;
    - ``sl_steinberg_match``: z * Q- against PGL covolume * d(St_S)
      transferred to SL;
    - ``pgl_sl_transfer``: the closed form transferred to SL against z * Q-.

    So a fault in the PGL closed form or in either transfer factor fails a
    transfer row.  Each route and each argument check runs once per point:
    the SL pair transferred from the closed form serves both
    ``sl_transfer`` and ``pgl_sl_transfer``, and the quaternion route's pair
    function repeats none of the checks made here.  A disagreement is a
    failed check, not an exception.  Odd-|S| points skip the quaternion-side
    checks instead of failing.  No Fraction is built: the routes' pairs are
    compared.
    """
    checks = []
    inv = invariants(F, S)
    closed, via_cov = _pgl_two_routes(inv, S)
    checks.append(_compare("pgl_two_routes", via_cov, closed, "covolume*degree vs closed form"))

    sl_lattice = _times(_sl2_covolume_terms(inv), *_sl_degree_terms(S))
    psl = _index_transfer(S, closed, "psl")
    sl = _index_transfer(S, closed, "sl")
    checks.append(_compare("psl_transfer", _times(sl_lattice, 2), psl, "PSL vs 2^|S| * PGL"))
    checks.append(_compare("sl_transfer", sl_lattice, sl, "SL vs PSL/2"))

    try:
        validate_ramification(S)
    except OddCardinality as err:
        note = f"{err.code}: |S| = {S.size}"
        checks += [IdentityCheck(name, "skipped", note) for name, _ in SL_ROWS]
    else:
        ratio_sl = _jl_sl(inv)
        sides = (
            (ratio_sl, _zeta_D_ratio_terms(S)),
            (ratio_sl, _index_transfer(S, via_cov, "sl")),
            (sl, ratio_sl),
        )
        checks += [_compare(name, lhs, rhs, detail) for (name, detail), (lhs, rhs) in zip(SL_ROWS, sides)]

    return IdentityReport(tuple(checks))
