import math
from fractions import Fraction

import pytest

from sarithdim import formal_degree
from sarithdim.cli import GRID_FIELD_SPECS, grid_points
from sarithdim.covolume import invariants
from sarithdim.errors import DatumPlaceMismatch, OutOfRange
from sarithdim.formal_degree import LocalRepDatum, jl_degree_ratio, steinberg_global_degree
from sarithdim.numberfield import MAX_PRIME, Place, SSet, build_S, decompose_prime, is_prime, parse_field

GRID_FIELDS = [parse_field(s) for s in GRID_FIELD_SPECS]
PRIMES_TO_100 = [p for p in range(2, 101) if all(p % k for k in range(2, p))]


def local_degree(v):
    """The test-side d(St_v): 2 at a real place, (q - 1)/(2 (q + 1)) at a
    finite one, times 2^(-e f) above 2."""
    if v.is_real:
        return Fraction(2)
    q = v.p**v.f
    return Fraction(q - 1, 2 * (q + 1) * (2 ** (v.e * v.f) if v.p == 2 else 1))


def degree_at(F, v):
    """The local degree at a finite place v as the library's global degree
    reads it: d(St_S) with S = {v} over d(St_S) with no finite place."""
    return steinberg_global_degree(SSet(F, (v,))) / steinberg_global_degree(SSet(F))


class TestLocalDegree:
    def test_real(self):
        assert steinberg_global_degree(SSet(parse_field("Q"))) == local_degree(Place()) == 2

    def test_odd_prime(self):
        assert degree_at(parse_field("Q"), Place(3, 1, 1)) == local_degree(Place(3, 1, 1)) == Fraction(1, 4)

    def test_over_two(self):
        # the aggregate formula forces the extra 2^(-e f) here
        assert degree_at(parse_field("Q"), Place(2, 1, 1)) == local_degree(Place(2, 1, 1)) == Fraction(1, 12)

    def test_positive_and_small_at_finite_places(self):
        for F in GRID_FIELDS:
            for p in PRIMES_TO_100:
                for v in decompose_prime(F, p):
                    d = degree_at(F, v)
                    assert d == local_degree(v), (F, v)
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
    """The test-side oracle: the test's local degrees multiplied as Fractions."""
    return math.prod((local_degree(v) for v in S.places), start=Fraction(1))


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

    def test_two_places_above_two(self):
        # 2 splits in Q(sqrt 17): delta_2 = 2, from two places with e f = 1;
        # 7 is inert, so q = 49 there
        F = parse_field("Q(sqrt 17)")
        S = build_S(F, [(2, "both"), 7])
        assert [v.e * v.f for v in S.finite_places if v.p == 2] == [1, 1]
        assert invariants(F, S).delta_2 == 2
        assert steinberg_global_degree(S) == local_degree_product(S) == Fraction(1, 75)


def sl_degree_product(S):
    """The test-side SL oracle: 2 at each real place and (q - 1)/(q + 1) at
    each finite one, multiplied as Fractions."""
    return math.prod(
        (Fraction(2) if v.is_real else Fraction(v.p**v.f - 1, v.p**v.f + 1) for v in S.places),
        start=Fraction(1),
    )


class TestSLDegreeOracle:
    def test_grid(self):
        points = list(grid_points())
        assert len(points) == 210
        for F, S in points:
            assert Fraction(*formal_degree._sl_degree_terms(S)) == sl_degree_product(S), (F, S)

    def test_two_places_above_two(self):
        S = build_S(parse_field("Q(sqrt 17)"), [(2, "both"), 7])
        assert Fraction(*formal_degree._sl_degree_terms(S)) == sl_degree_product(S) == Fraction(32, 75)


class TestGlobalDegreeArgument:
    @pytest.mark.parametrize(
        "S", [None, (5,), tuple(SSet(parse_field("Q"))), "S"], ids=["None", "tuple", "tuple_of_S", "str"]
    )
    def test_not_an_s_set(self, S):
        with pytest.raises(ValueError) as raised:
            steinberg_global_degree(S)
        assert str(raised.value) == f"S must be an SSet, got {S!r}"


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
