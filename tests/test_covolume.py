from fractions import Fraction

from sarithdim.cli import GRID_FIELD_SPECS, grid_points
from sarithdim.covolume import pgl2_covolume, pgl_psl_index, sl2_covolume
from sarithdim.numberfield import build_S, delta_2, parse_field
from sarithdim.zeta import zeta_F_2_numeric

GRID_FIELDS = [parse_field(s) for s in GRID_FIELD_SPECS]


class TestSL2:
    def test_modular_group(self):
        cov = sl2_covolume(parse_field("Q"), build_S(parse_field("Q"), []))
        assert cov.value == Fraction(1, 24)

    def test_with_prime_two(self):
        F = parse_field("Q")
        assert sl2_covolume(F, build_S(F, [2])).value == Fraction(1, 8)

    def test_sqrt5_archimedean(self):
        F = parse_field("Q(sqrt 5)")
        assert sl2_covolume(F, build_S(F, [])).value == Fraction(1, 120)


class TestPGL2:
    def test_archimedean(self):
        F = parse_field("Q")
        assert pgl2_covolume(F, build_S(F, [])).value == Fraction(1, 24)

    def test_prime_two(self):
        F = parse_field("Q")
        assert pgl2_covolume(F, build_S(F, [2])).value == Fraction(1, 4)

    def test_prime_three(self):
        F = parse_field("Q")
        assert pgl2_covolume(F, build_S(F, [3])).value == Fraction(1, 6)


class TestIndex:
    def test_modular(self):
        F = parse_field("Q")
        assert pgl_psl_index(build_S(F, [])) == 2

    def test_with_finite_place(self):
        F = parse_field("Q")
        assert pgl_psl_index(build_S(F, [2])) == 4

    def test_quadratic(self):
        F = parse_field("Q(sqrt 5)")
        assert pgl_psl_index(build_S(F, [])) == 4


def test_finite_part_multiplicative():
    for F in GRID_FIELDS:
        base = build_S(F, [3])
        bigger = build_S(F, [3, 7])
        (v,) = [w for w in bigger.finite_places if w.p == 7]
        assert sl2_covolume(F, bigger).value == sl2_covolume(F, base).value * (v.q + 1)
        extra = 2 ** (v.e * v.f) if v.p == 2 else 1
        assert pgl2_covolume(F, bigger).value == pgl2_covolume(F, base).value * (v.q + 1) * extra


def test_adding_place_over_two():
    for F in GRID_FIELDS:
        base = build_S(F, [])
        bigger = build_S(F, [2])
        (v,) = bigger.finite_places
        assert pgl2_covolume(F, bigger).value == pgl2_covolume(F, base).value * (v.q + 1) * 2 ** (v.e * v.f)


def test_pgl_to_sl_ratio():
    for F, S in grid_points():
        ratio = pgl2_covolume(F, S).value / sl2_covolume(F, S).value
        assert ratio == Fraction(2 ** (delta_2(S) + 1), 2**F.degree), (F, S)


def test_numeric_consistency_with_zeta_two():
    # second route: d^(3/2) (2 pi)^(-2n) zeta_F(2) prod (q_v + 1)
    import math

    zf2 = {F: float(zeta_F_2_numeric(F, 64)) for F in GRID_FIELDS}
    for F, S in grid_points():
        numeric = (
            F.discriminant**1.5
            / (2 * math.pi) ** (2 * F.degree)
            * zf2[F]
            * math.prod(v.q + 1 for v in S.finite_places)
        )
        assert abs(numeric - float(sl2_covolume(F, S).value)) < 1e-8, (F, S)


def test_value_positive():
    for F, S in grid_points():
        assert sl2_covolume(F, S).value > 0
        assert pgl2_covolume(F, S).value > 0
