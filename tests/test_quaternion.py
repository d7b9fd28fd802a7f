import itertools
import math
import re
from collections import Counter
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
        assert validate_ramification(build_S(F, [2])) is None

    def test_odd(self):
        F = parse_field("Q")
        message = "|S| = 1 is odd; ramification sets of quaternion algebras have even size"
        with pytest.raises(OddCardinality, match=re.escape(message)):
            validate_ramification(build_S(F, []))

    def test_quadratic_archimedean(self):
        F = parse_field("Q(sqrt 5)")
        assert validate_ramification(build_S(F, [])) is None


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
        with pytest.raises(OddCardinality, match="ramification sets of quaternion algebras have even size"):
            zeta_D_leading_ratio_at_zero(F, build_S(F, []))

    def test_positive_on_even_grid(self):
        for F, S in grid_points():
            if S.size % 2 == 0:
                assert zeta_D_leading_ratio_at_zero(F, S) > 0


class TestCandidates:
    def test_rationals(self):
        report = pdx_candidates(parse_field("Q"))
        assert report.cyclic_orders == (1, 2, 3, 4, 6)
        assert report.exceptional == ("A4", "S4")
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
        assert report.exceptional == ("A4", "S4")

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


def _quaternion_product(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def _class_mod_rationals(x):
    """The representative of x Q*: coprime integer coordinates, first nonzero one positive."""
    g = math.gcd(*x) * (1 if next(c for c in x if c) > 0 else -1)
    return tuple(c // g for c in x)


def test_hurwitz_units_and_norm_two_elements_give_s4():
    # Over Q, PD* for the definite algebra ramified at {2, oo} contains S4,
    # found by brute force without reading pdx_candidates.  Coordinates are
    # doubled, so the Hurwitz order is the integer 4-tuples of one parity
    # and the norm is the sum of squares over 4.
    hurwitz = [x for x in itertools.product(range(-2, 3), repeat=4) if len({c % 2 for c in x}) == 1]
    units = [x for x in hurwitz if sum(c * c for c in x) == 4]
    norm_two = [x for x in hurwitz if sum(c * c for c in x) == 8]
    assert len(units) == len(norm_two) == 24
    classes = {_class_mod_rationals(x) for x in units + norm_two}
    assert len(classes) == 24
    for x, y in itertools.product(classes, repeat=2):
        assert _class_mod_rationals(_quaternion_product(x, y)) in classes

    def order(x):
        power, m = x, 1
        while any(power[1:]):
            power, m = _class_mod_rationals(_quaternion_product(power, x)), m + 1
        return m

    # S4: the identity, 6 transpositions and 3 double transpositions,
    # 8 three-cycles, 6 four-cycles
    assert Counter(order(x) for x in classes) == {1: 1, 2: 9, 3: 8, 4: 6}
