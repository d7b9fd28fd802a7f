from fractions import Fraction

import pytest

from sarithdim.cli import grid_points
from sarithdim.errors import OddCardinality
from sarithdim.numberfield import build_S, parse_field
from sarithdim.quaternion import (
    pdx_candidates,
    validate_ramification,
    zeta_D_leading_ratio_at_zero,
)


class TestValidate:
    def test_even(self):
        F = parse_field("Q")
        assert validate_ramification(F, build_S(F, [2])) is True

    def test_odd(self):
        F = parse_field("Q")
        assert validate_ramification(F, build_S(F, [])) is False

    def test_quadratic_archimedean(self):
        F = parse_field("Q(sqrt 5)")
        assert validate_ramification(F, build_S(F, [])) is True


class TestZetaRatio:
    def test_rationals_prime_two(self):
        F = parse_field("Q")
        assert zeta_D_leading_ratio_at_zero(F, build_S(F, [2])) == Fraction(1, 12)

    def test_sqrt5_empty_finite_part(self):
        F = parse_field("Q(sqrt 5)")
        assert zeta_D_leading_ratio_at_zero(F, build_S(F, [])) == Fraction(1, 30)

    def test_three_finite_places(self):
        F = parse_field("Q")
        assert zeta_D_leading_ratio_at_zero(F, build_S(F, [2, 3, 5])) == Fraction(2, 3)

    def test_odd_rejected(self):
        F = parse_field("Q")
        with pytest.raises(OddCardinality):
            zeta_D_leading_ratio_at_zero(F, build_S(F, []))

    def test_positive_on_even_grid(self):
        for F, S in grid_points():
            if S.size % 2 == 0:
                assert zeta_D_leading_ratio_at_zero(F, S) > 0


class TestCandidates:
    def test_rationals(self):
        report = pdx_candidates(parse_field("Q"))
        assert report.cyclic_orders == (1, 2, 3, 4, 6)
        assert report.exceptional == ("A4",)
        assert report.bound == 60

    def test_sqrt5(self):
        report = pdx_candidates(parse_field("Q(sqrt 5)"))
        assert set(report.cyclic_orders) == {1, 2, 3, 4, 5, 6, 10}
        assert "A5" in report.exceptional
        assert report.bound == 60

    def test_sqrt2(self):
        report = pdx_candidates(parse_field("Q(sqrt 2)"))
        assert 8 in report.cyclic_orders
        assert "S4" in report.exceptional

    def test_sqrt3(self):
        report = pdx_candidates(parse_field("Q(sqrt 3)"))
        assert 12 in report.cyclic_orders
        assert report.exceptional == ("A4",)

    def test_dihedral_orders_double_cyclic(self):
        for spec in ("Q", "Q(sqrt 2)", "Q(sqrt 5)", "Q(sqrt 7)"):
            report = pdx_candidates(parse_field(spec))
            assert report.dihedral_orders == tuple(2 * m for m in report.cyclic_orders)

    def test_rational_candidates_subset_of_quadratic(self):
        base = pdx_candidates(parse_field("Q"))
        for d in (2, 3, 5, 6, 7, 11, 13):
            report = pdx_candidates(parse_field(f"Q(sqrt {d})"))
            assert set(base.cyclic_orders) <= set(report.cyclic_orders)
            assert set(base.exceptional) <= set(report.exceptional)

    def test_orders_below_bound(self):
        for d in (2, 3, 5, 7, 13):
            report = pdx_candidates(parse_field(f"Q(sqrt {d})"))
            assert all(m <= report.bound for m in report.cyclic_orders)
            assert all(m <= report.bound for m in report.dihedral_orders)
            assert report.bound >= 60  # A5 has order 60
