import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sarithdim import covolume, vndim, zeta
from sarithdim.cli import grid_points
from sarithdim.covolume import pgl2_covolume, sl2_covolume
from sarithdim.errors import DatumPlaceMismatch, InternalInconsistency, MissingDatum, OddCardinality, OutOfRange
from sarithdim.formal_degree import LocalRepDatum
from sarithdim.numberfield import Place, build_S, parse_field
from sarithdim.quaternion import zeta_D_leading_ratio_at_zero
from sarithdim.vndim import (
    check_identities,
    jl_ratio_pgl,
    jl_ratio_sl,
    module_vn_dim,
    steinberg_vn_dim,
)

def two_adic_valuation(x: Fraction) -> int:
    num, den = x.numerator, x.denominator
    v = 0
    while num % 2 == 0:
        num //= 2
        v += 1
    while den % 2 == 0:
        den //= 2
        v -= 1
    return v


#: check_s_set's message, up to the F and S it quotes
NOT_AN_S_SET = "S must be an SSet of the NumberField F, got F ="
POINT_F = parse_field("Q(sqrt 5)")
#: a datum at each place of S = {oo_0, oo_1, v(2), v(3)}, |S| = 4; 2 and 3 are inert in Q(sqrt 5)
POINT_LOCAL = [LocalRepDatum(v, 2) for v in build_S(POINT_F, [2, 3]).places]


def _module_vn_dim_sl(F, S):
    local = [LocalRepDatum.archimedean(v, 2) if v.is_real else LocalRepDatum.finite(v, 1) for v in S.places]
    return module_vn_dim(F, S, "sl", local)


@pytest.mark.parametrize(
    "call",
    [
        sl2_covolume,
        pgl2_covolume,
        pytest.param(lambda F, S: steinberg_vn_dim(F, S, "sl"), id="steinberg_vn_dim"),
        pytest.param(_module_vn_dim_sl, id="module_vn_dim"),
        jl_ratio_sl,
        jl_ratio_pgl,
        zeta_D_leading_ratio_at_zero,
        check_identities,
    ],
    ids=lambda call: call.__name__,
)
def test_s_set_of_another_field_rejected(call):
    F = parse_field("Q(sqrt 5)")
    Q = parse_field("Q")
    # the field is checked before the parity of |S|: |S| = 3 is no OddCardinality here
    for S in (build_S(Q, [2]), build_S(Q, [2, 3])):
        covolume.invariants(Q, S)  # S now carries its own field's record
        for _ in range(2):  # the record S carries must not answer for another field
            with pytest.raises(ValueError, match=rf"^{NOT_AN_S_SET} NumberField\(d=5\), S = SSet\(field=NumberField\(d=None\)"):
                call(F, S)


@pytest.mark.parametrize(
    "call",
    [
        sl2_covolume,
        pgl2_covolume,
        pytest.param(lambda F, S: steinberg_vn_dim(F, S, "sl"), id="steinberg_vn_dim"),
        pytest.param(lambda F, S: module_vn_dim(F, S, "sl", POINT_LOCAL), id="module_vn_dim"),
        jl_ratio_sl,
        jl_ratio_pgl,
        check_identities,
        zeta_D_leading_ratio_at_zero,
        covolume.invariants,
    ],
    ids=lambda call: call.__name__,
)
def test_a_field_or_s_set_is_accepted_by_type_not_by_equality(call):
    # a record equals the plain tuple of its fields, and S carries a record
    # built for its own field: neither may let a wrong F or S through
    F, Q = POINT_F, parse_field("Q")
    for warm in (False, True):
        S, other = build_S(F, [2, 3]), build_S(Q, [2])
        if warm:
            covolume.invariants(F, S)
            covolume.invariants(Q, other)
        bad_fields = [(5,), [5], None, 5, "Q(sqrt 5)", S]
        bad_sets = [None, (F, ()), F, object(), other]
        for bad_F, bad_S in [(x, S) for x in bad_fields] + [(F, x) for x in bad_sets]:
            with pytest.raises(ValueError, match=f"^{re.escape(NOT_AN_S_SET)} "):
                call(bad_F, bad_S)
        # refused before anything is read: a fresh S is still fresh
        assert ("invariants" in S.__dict__) is warm


class TestInvariantsRecord:
    def test_built_once_per_fresh_point(self, monkeypatch):
        built = []
        original = covolume.delta_2
        monkeypatch.setattr(covolume, "delta_2", lambda S: built.append(S) or original(S))
        F = parse_field("Q(sqrt 13)")
        S = build_S(F, [2, 3])
        assert S.size % 2 == 0
        sl2_covolume(F, S)
        pgl2_covolume(F, S)
        for group in ("pgl", "psl", "sl"):
            steinberg_vn_dim(F, S, group)
        _module_vn_dim_sl(F, S)
        jl_ratio_sl(F, S)
        jl_ratio_pgl(F, S)
        zeta_D_leading_ratio_at_zero(F, S)
        assert check_identities(F, S).all_pass
        assert len(built) == 1
        assert covolume.invariants(F, S) is covolume.invariants(F, S)
        # an equal S-set built anew gets an equal record of its own
        T = build_S(F, [2, 3])
        assert T == S and covolume.invariants(F, T) == covolume.invariants(F, S)
        assert covolume.invariants(F, T) is not covolume.invariants(F, S)
        assert len(built) == 2


class TestSteinbergDim:
    def test_pgl_modular(self):
        dim = steinberg_vn_dim(parse_field("Q"), build_S(parse_field("Q"), []), "pgl")
        assert dim.value == Fraction(1, 12)

    def test_psl_modular(self):
        F = parse_field("Q")
        dim = steinberg_vn_dim(F, build_S(F, []), "psl")
        assert dim.value == Fraction(1, 6)

    def test_sl_with_prime_two(self):
        F = parse_field("Q")
        assert steinberg_vn_dim(F, build_S(F, [2]), "sl").value == Fraction(1, 12)

    def test_group_coercion_rejects_junk(self):
        F = parse_field("Q")
        for group in ("gl", "PGL"):
            with pytest.raises(ValueError):
                steinberg_vn_dim(F, build_S(F, []), group)

    def test_two_routes_agree_on_grid(self):
        # steinberg_vn_dim computes closed form and covolume * degree and
        # raises InternalInconsistency on any mismatch
        for F, S in grid_points():
            pgl = steinberg_vn_dim(F, S, "pgl")
            psl = steinberg_vn_dim(F, S, "psl")
            sl = steinberg_vn_dim(F, S, "sl")
            assert psl.value == 2**S.size * pgl.value
            assert sl.value == psl.value / 2
            assert pgl.value > 0

    def test_two_adic_valuation_bound(self):
        # v_2(dim) >= -1 - |S|: the closed form contributes 1 - |S| and the
        # zeta value at worst -2 since its denominator divides 60
        for F, S in grid_points():
            dim = steinberg_vn_dim(F, S, "pgl")
            assert two_adic_valuation(dim.value) >= -1 - S.size, (F, S)


class TestModuleDim:
    def test_steinberg_specialization(self):
        F = parse_field("Q")
        S = build_S(F, [])
        data = [LocalRepDatum.archimedean(S.places[0], 2)]
        assert module_vn_dim(F, S, "pgl", data).value == Fraction(1, 12)

    def test_weight_three(self):
        F = parse_field("Q")
        S = build_S(F, [])
        data = [LocalRepDatum.archimedean(S.places[0], 3)]
        assert module_vn_dim(F, S, "pgl", data).value == Fraction(1, 6)

    def test_sl_with_finite_dim(self):
        F = parse_field("Q")
        S = build_S(F, [2])
        data = [
            LocalRepDatum.archimedean(S.places[0], 2),
            LocalRepDatum.finite(S.places[1], 2),
        ]
        assert module_vn_dim(F, S, "sl", data).value == Fraction(1, 6)

    def test_missing_datum(self):
        F = parse_field("Q")
        S = build_S(F, [2])
        with pytest.raises(MissingDatum):
            module_vn_dim(F, S, "sl", [LocalRepDatum.archimedean(S.places[0], 2)])

    def test_mismatched_datum(self):
        F = parse_field("Q")
        S = build_S(F, [2])
        stray = LocalRepDatum.finite(build_S(F, [3]).finite_places[0], 1)
        data = [LocalRepDatum.archimedean(S.places[0], 2), stray]
        with pytest.raises(DatumPlaceMismatch):
            module_vn_dim(F, S, "sl", data)

    def test_duplicate_datum(self):
        F = parse_field("Q(sqrt 5)")
        S = build_S(F, [])
        data = [
            LocalRepDatum.archimedean(S.places[0], 2),
            LocalRepDatum.archimedean(S.places[0], 2),
        ]
        with pytest.raises(DatumPlaceMismatch):
            module_vn_dim(F, S, "pgl", data)

    def test_non_integer_weight(self):
        # a float weight would give a float dimension
        F = parse_field("Q")
        S = build_S(F, [])
        with pytest.raises(OutOfRange, match=r"^the datum at oo_0 must be an int >= 2, got 2\.5$"):
            module_vn_dim(F, S, "pgl", [LocalRepDatum.archimedean(S.places[0], 2.5)])

    @pytest.mark.parametrize("entry", [2, None, "weight:2", (Place(), 2)])
    def test_entry_must_be_a_datum(self, entry):
        F = parse_field("Q")
        S = build_S(F, [2])
        data = [LocalRepDatum.archimedean(S.places[0], 2), entry]
        with pytest.raises(ValueError) as raised:
            module_vn_dim(F, S, "sl", data)
        assert str(raised.value) == f"local data must be LocalRepDatum records, got {entry!r}"

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=2, max_value=40))
    def test_multiplicative_in_local_ratio(self, n1, n2):
        F = parse_field("Q")
        S = build_S(F, [])
        base = module_vn_dim(F, S, "pgl", [LocalRepDatum.archimedean(S.places[0], n1)])
        scaled = module_vn_dim(F, S, "pgl", [LocalRepDatum.archimedean(S.places[0], n2)])
        assert scaled.value * (n1 - 1) == base.value * (n2 - 1)


class TestJLRatios:
    def test_sl_examples(self):
        F = parse_field("Q")
        assert jl_ratio_sl(F, build_S(F, [2])) == Fraction(1, 12)
        F5 = parse_field("Q(sqrt 5)")
        assert jl_ratio_sl(F5, build_S(F5, [])) == Fraction(1, 30)

    def test_sl_odd_cardinality(self):
        F = parse_field("Q")
        with pytest.raises(OddCardinality):
            jl_ratio_sl(F, build_S(F, []))

    def test_pgl_examples(self):
        F = parse_field("Q")
        assert jl_ratio_pgl(F, build_S(F, [2]), 24) == 1
        F5 = parse_field("Q(sqrt 5)")
        assert jl_ratio_pgl(F5, build_S(F5, []), 60) == 1
        assert jl_ratio_pgl(F, build_S(F, [2])) == Fraction(1, 24)

    @pytest.mark.parametrize("pd_order", [0, -1, 1.5, 24.0, True])
    def test_pgl_order_below_one(self, pd_order):
        F = parse_field("Q")
        with pytest.raises(OutOfRange, match=rf"^pd_order must be an int >= 1, got {re.escape(repr(pd_order))}$"):
            jl_ratio_pgl(F, build_S(F, [2]), pd_order)

    def test_pgl_order_of_more_than_4300_digits(self):
        # repr() refuses such an int, so the message gives its size
        F = parse_field("Q")
        with pytest.raises(OutOfRange, match=r"^pd_order must be an int >= 1, got -<int of 16610 bits>$"):
            jl_ratio_pgl(F, build_S(F, [2]), -(10**5000))

    def test_pgl_odd_cardinality(self):
        F = parse_field("Q")
        with pytest.raises(OddCardinality):
            jl_ratio_pgl(F, build_S(F, [2, 3]), 24)

    def test_sl_equals_steinberg_sl_on_even_grid(self):
        for F, S in grid_points():
            if S.size % 2:
                continue
            assert jl_ratio_sl(F, S) == steinberg_vn_dim(F, S, "sl").value, (F, S)

    def test_sl_equals_zeta_route_on_even_grid(self):
        for F, S in grid_points():
            if S.size % 2:
                continue
            assert jl_ratio_sl(F, S) == zeta_D_leading_ratio_at_zero(F, S), (F, S)

    def test_pgl_to_sl_transfer(self):
        for F, S in grid_points():
            if S.size % 2:
                continue
            assert jl_ratio_pgl(F, S) * 2**S.size / 2 == jl_ratio_sl(F, S), (F, S)


class TestIdentityReport:
    def test_all_pass_with_even_s(self):
        F = parse_field("Q")
        report = check_identities(F, build_S(F, [2]))
        assert report.all_pass
        assert all(c.status == "pass" for c in report.checks)

    def test_all_pass_quadratic(self):
        F = parse_field("Q(sqrt 5)")
        report = check_identities(F, build_S(F, []))
        assert report.all_pass

    def test_odd_s_skips_quaternion_checks(self):
        F = parse_field("Q")
        report = check_identities(F, build_S(F, [3, 5]))
        by_name = {c.name: c for c in report.checks}
        assert by_name["pgl_two_routes"].status == "pass"
        assert by_name["psl_transfer"].status == "pass"
        assert by_name["sl_transfer"].status == "pass"
        assert by_name["sl_quaternion_zeta_match"].status == "skipped"
        assert "ODD_CARDINALITY" in by_name["sl_quaternion_zeta_match"].detail
        assert by_name["pgl_sl_transfer"].status == "skipped"
        assert report.all_pass  # skips are not failures

    def test_each_route_runs_once(self, monkeypatch):
        calls = {"_global_degree_terms": 0, "_pgl2_covolume_terms": 0}
        for name in calls:
            original = getattr(vndim, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(vndim, name, counted)
        F = parse_field("Q(sqrt 13)")
        assert check_identities(F, build_S(F, [2, 3])).all_pass
        assert calls == {"_global_degree_terms": 1, "_pgl2_covolume_terms": 1}

    def test_pgl_route_disagreement_is_reported(self, monkeypatch):
        original = vndim._pgl2_covolume_terms
        monkeypatch.setattr(vndim, "_pgl2_covolume_terms", lambda inv: (2 * original(inv)[0], original(inv)[1]))
        F = parse_field("Q(sqrt 13)")
        S = build_S(F, [2, 3])
        report = check_identities(F, S)
        by_name = {c.name: c.status for c in report.checks}
        failed = {name for name, status in by_name.items() if status == "fail"}
        assert failed == {"pgl_two_routes", "sl_steinberg_match"}
        assert [status for name, status in by_name.items() if name not in failed] == ["pass"] * 4
        assert not report.all_pass
        with pytest.raises(InternalInconsistency):
            steinberg_vn_dim(F, S, "pgl")


class TestRouteIndependence:
    """Each field of the Invariants record feeds at least one closed form
    that a route not reading the record cross-checks."""

    @pytest.mark.parametrize("name", covolume.Invariants._fields)
    def test_skewed_invariant_is_caught(self, monkeypatch, name):
        original = covolume.invariants

        def skewed(F, S):
            inv = original(F, S)
            return inv._replace(**{name: getattr(inv, name) + 1})

        patched = [
            module
            for module_name, module in sys.modules.items()
            if module_name.startswith("sarithdim.") and getattr(module, "invariants", None) is original
        ]
        assert covolume in patched
        for module in patched:
            monkeypatch.setattr(module, "invariants", skewed)
        caught = 0
        for F, S in grid_points():
            report = check_identities(F, S)  # a skew is reported, never raised
            if S.size % 2 == 0 and any(v.p == 2 for v in S.finite_places):
                assert any(c.status == "fail" for c in report.checks), (name, F, S)
                caught += 1
        assert caught

    def test_siegel_sum_runs_once_per_fresh_point(self):
        F = parse_field("Q(sqrt 13)")
        zeta._zeta_minus1.cache_clear()
        report = check_identities(F, build_S(F, [2, 3]))
        assert report.all_pass
        assert zeta._zeta_minus1.cache_info().misses == 1


#: The binary operators of Fraction, each side: none runs on the exact path.
FRACTION_OPERATORS = tuple(
    f"__{side}{op}__" for op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "divmod", "pow") for side in ("", "r")
)


def test_exact_path_does_no_fraction_arithmetic(monkeypatch):
    # every exact value is one Fraction of integer products; == and abs() stay allowed
    def refused(*args):
        raise AssertionError("a binary Fraction operator ran on the exact path")

    for name in FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, refused)
    points = 0
    for F, S in grid_points():  # fresh S-sets, so each Invariants record is built under the patch
        sl2_covolume(F, S)
        pgl2_covolume(F, S)
        local = [LocalRepDatum(v, 3) for v in S.places]
        for group in ("pgl", "psl", "sl"):
            steinberg_vn_dim(F, S, group)
            module_vn_dim(F, S, group, local)
        if S.size % 2 == 0:
            jl_ratio_sl(F, S)
            jl_ratio_pgl(F, S, 5)
            zeta_D_leading_ratio_at_zero(F, S)
        assert check_identities(F, S).all_pass
        points += 1
    assert points == 210
