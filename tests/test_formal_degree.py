import math
from fractions import Fraction

import pytest

from sarithdim.cli import GRID_FIELD_SPECS, grid_points
from sarithdim.covolume import invariants
from sarithdim.errors import DatumPlaceMismatch, OutOfRange
from sarithdim.formal_degree import (
    LocalRepDatum,
    jl_degree_ratio,
    steinberg_global_degree,
    steinberg_local_degree,
)
from sarithdim.numberfield import MAX_PRIME, Place, build_S, decompose_prime, is_prime, parse_field

GRID_FIELDS = [parse_field(s) for s in GRID_FIELD_SPECS]
PRIMES_TO_100 = [p for p in range(2, 101) if all(p % k for k in range(2, p))]


class TestLocalDegree:
    def test_real(self):
        assert steinberg_local_degree(Place()) == 2

    def test_odd_prime(self):
        assert steinberg_local_degree(Place(3, 1, 1)) == Fraction(1, 4)

    def test_over_two(self):
        # the aggregate formula forces the extra 2^(-e f) here
        assert steinberg_local_degree(Place(2, 1, 1)) == Fraction(1, 12)

    def test_positive_and_small_at_finite_places(self):
        for F in GRID_FIELDS:
            for p in PRIMES_TO_100:
                for v in decompose_prime(F, p):
                    d = steinberg_local_degree(v)
                    assert 0 < d < Fraction(1, 2), (F, v)


class TestGlobalDegree:
    def test_archimedean_only(self):
        F = parse_field("Q")
        assert steinberg_global_degree(build_S(F, [])) == 2

    def test_with_prime_two(self):
        F = parse_field("Q")
        assert steinberg_global_degree(build_S(F, [2])) == Fraction(1, 6)

    def test_sqrt5_archimedean(self):
        F = parse_field("Q(sqrt 5)")
        assert steinberg_global_degree(build_S(F, [])) == 4

    def test_product_equals_closed_form_on_grid(self):
        points = list(grid_points())
        assert len(points) == 210
        for F, S in points:
            inv = invariants(F, S)
            closed = Fraction(
                2**inv.n * inv.prod_q_minus_1,
                2 ** (inv.delta_2 + inv.size - inv.n) * inv.prod_q_plus_1,
            )
            assert steinberg_global_degree(S) == closed, (F, S)


def local_degree_product(S):
    """The test-side oracle: the local degrees multiplied as Fractions."""
    return math.prod((steinberg_local_degree(v) for v in S.places), start=Fraction(1))


class TestGlobalDegreeOracle:
    def test_grid(self):
        points = list(grid_points())
        assert len(points) == 210
        for F, S in points:
            assert steinberg_global_degree(S) == local_degree_product(S), (F, S)

    @pytest.mark.parametrize(
        "spec, ef",
        [("Q", 1), ("Q(sqrt 17)", 1), ("Q(sqrt 5)", 2), ("Q(sqrt 3)", 2)],
    )
    def test_place_above_two(self, spec, ef):
        F = parse_field(spec)
        S = build_S(F, [2, 7])
        (v,) = [w for w in S.finite_places if w.p == 2]
        assert v.e * v.f == ef
        assert steinberg_global_degree(S) == local_degree_product(S)

    def test_prime_near_the_cap(self):
        p = next(n for n in range(MAX_PRIME, MAX_PRIME - 1000, -1) if is_prime(n))
        for spec in ("Q", "Q(sqrt 2)", "Q(sqrt 5)"):
            F = parse_field(spec)
            S = build_S(F, [2, p])
            assert steinberg_global_degree(S) == local_degree_product(S), (F, p)


class TestDegreeRatio:
    def test_weight_two_is_steinberg(self):
        assert jl_degree_ratio(LocalRepDatum.archimedean(Place(), 2)) == 1

    def test_weight_four(self):
        assert jl_degree_ratio(LocalRepDatum.archimedean(Place(), 4)) == 3

    def test_finite_passthrough(self):
        assert jl_degree_ratio(LocalRepDatum.finite(Place(2, 1, 1), 2)) == 2

    def test_strictly_increasing_in_weight(self):
        ratios = [jl_degree_ratio(LocalRepDatum.archimedean(Place(), n)) for n in range(2, 12)]
        assert ratios == sorted(set(ratios))


class TestDatumValidation:
    def test_weight_on_finite_place(self):
        with pytest.raises(DatumPlaceMismatch):
            LocalRepDatum.archimedean(Place(2, 1, 1), 2)

    def test_dim_on_real_place(self):
        with pytest.raises(DatumPlaceMismatch):
            LocalRepDatum.finite(Place(), 1)

    def test_weight_must_be_at_least_two(self):
        with pytest.raises(OutOfRange, match=r"^the datum at oo_0 must be an int >= 2, got 1$"):
            LocalRepDatum.archimedean(Place(), 1)

    def test_dim_must_be_positive(self):
        with pytest.raises(OutOfRange, match=r"^the datum at v0\(p=3,e=1,f=1\) must be an int >= 1, got 0$"):
            LocalRepDatum.finite(Place(3, 1, 1), 0)

    def test_value_must_be_an_int(self):
        for place, value, message in (
            (Place(), 2.5, "the datum at oo_0 must be an int >= 2, got 2.5"),
            (Place(), 3.0, "the datum at oo_0 must be an int >= 2, got 3.0"),
            (Place(3, 1, 1), 1.5, "the datum at v0(p=3,e=1,f=1) must be an int >= 1, got 1.5"),
            (Place(3, 1, 1), True, "the datum at v0(p=3,e=1,f=1) must be an int >= 1, got True"),
        ):
            with pytest.raises(OutOfRange) as raised:
                LocalRepDatum(place, value)
            assert str(raised.value) == message

    @pytest.mark.parametrize("place", [None, (None, None, None, 0), "oo_0", 2])
    def test_place_must_be_a_place(self, place):
        message = f"the place of a local datum must be a Place, got {place!r}"
        for make in (LocalRepDatum, LocalRepDatum.archimedean, LocalRepDatum.finite):
            with pytest.raises(ValueError) as raised:
                make(place, 2)
            assert str(raised.value) == message

    def test_one_value_read_by_its_place(self):
        assert LocalRepDatum._fields == ("place", "value")
        assert LocalRepDatum.archimedean(Place(), 3) == LocalRepDatum(Place(), 3)
        assert LocalRepDatum.finite(Place(3, 1, 1), 2) == LocalRepDatum(Place(3, 1, 1), 2)
        assert LocalRepDatum(Place(3, 1, 1), 1).value == 1
        with pytest.raises(OutOfRange, match=r"^the datum at oo_0 must be an int >= 2, got 1$"):
            LocalRepDatum(Place(), 1)
