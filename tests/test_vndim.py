import dataclasses
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sarithdim import covolume, vndim
from sarithdim.cli import grid_points
from sarithdim.covolume import pgl2_covolume, sl2_covolume
from sarithdim.errors import DatumPlaceMismatch, InternalInconsistency, MissingDatum, OddCardinality
from sarithdim.formal_degree import LocalRepDatum
from sarithdim.numberfield import build_S, parse_field
from sarithdim.quaternion import zeta_D_leading_ratio_at_zero
from sarithdim.zeta import zeta_F_minus1
from sarithdim.vndim import (
    atiyah_schmid_dim,
    check_identities,
    jl_ratio_pgl,
    jl_ratio_sl,
    module_vn_dim,
    steinberg_vn_dim,
    vn_dim_finite_group,
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
    S = build_S(parse_field("Q"), [2])  # |S| = 2 is even, so no parity error comes first
    for _ in range(2):  # the invariants memo must not remember a rejected point
        with pytest.raises(ValueError, match="not of Q\\(sqrt 5\\)"):
            call(F, S)


class TestInvariantsMemo:
    def test_bound_is_the_module_constant(self):
        assert covolume.invariants.cache_info().maxsize == covolume.INVARIANTS_MEMO_SIZE

    def test_built_once_per_fresh_point(self):
        F = parse_field("Q(sqrt 13)")
        S = build_S(F, [2, 3])
        assert S.size % 2 == 0
        covolume.invariants.cache_clear()
        sl2_covolume(F, S)
        pgl2_covolume(F, S)
        for group in ("pgl", "psl", "sl"):
            steinberg_vn_dim(F, S, group)
        _module_vn_dim_sl(F, S)
        jl_ratio_sl(F, S)
        jl_ratio_pgl(F, S)
        zeta_D_leading_ratio_at_zero(F, S)
        assert check_identities(F, S).all_pass
        assert covolume.invariants.cache_info().misses == 1


class TestAtiyahSchmid:
    def test_weight_two_over_modular_group(self):
        assert atiyah_schmid_dim(Fraction(1, 24), 2) == Fraction(1, 12)

    def test_zero_degree(self):
        assert atiyah_schmid_dim(Fraction(1, 8), 0) == 0

    def test_product(self):
        assert atiyah_schmid_dim(Fraction(1, 8), Fraction(1, 6)) == Fraction(1, 48)

    @pytest.mark.parametrize("covolume_value, degree", [(2, 3), (Fraction(1, 24), 2)])
    def test_returns_a_fraction(self, covolume_value, degree):
        assert type(atiyah_schmid_dim(covolume_value, degree)) is Fraction

    def test_rejects_nonpositive_covolume(self):
        with pytest.raises(ValueError):
            atiyah_schmid_dim(0, 2)


class TestFiniteGroup:
    def test_examples(self):
        assert vn_dim_finite_group(2, 24) == Fraction(1, 12)
        assert vn_dim_finite_group(1, 1) == 1
        assert vn_dim_finite_group(4, 120) == Fraction(1, 30)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            vn_dim_finite_group(1, 0)


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

    @pytest.mark.parametrize("pd_order", [0, -1, 1.5, 24.0])
    def test_pgl_order_below_one(self, pd_order):
        F = parse_field("Q")
        with pytest.raises(ValueError):
            jl_ratio_pgl(F, build_S(F, [2]), pd_order)

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
        calls = {"steinberg_global_degree": 0, "pgl2_covolume": 0}
        for name in calls:
            original = getattr(vndim, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(vndim, name, counted)
        F = parse_field("Q(sqrt 13)")
        assert check_identities(F, build_S(F, [2, 3])).all_pass
        assert calls == {"steinberg_global_degree": 1, "pgl2_covolume": 1}

    def test_pgl_route_disagreement_is_reported(self, monkeypatch):
        original = vndim.pgl2_covolume
        monkeypatch.setattr(
            vndim, "pgl2_covolume", lambda F, S: dataclasses.replace(original(F, S), value=2 * original(F, S).value)
        )
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

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(covolume.Invariants)])
    def test_skewed_invariant_is_caught(self, monkeypatch, name):
        original = covolume.invariants

        def skewed(F, S):
            inv = original(F, S)
            return dataclasses.replace(inv, **{name: getattr(inv, name) + 1})

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
        zeta_F_minus1.cache_clear()
        report = check_identities(F, build_S(F, [2, 3]))
        assert report.all_pass
        assert zeta_F_minus1.cache_info().misses == 1
