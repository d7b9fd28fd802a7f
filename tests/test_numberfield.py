import pytest
from hypothesis import given, strategies as st

from sarithdim.errors import (
    DuplicatePlace,
    InvalidSelector,
    MalformedSpec,
    NotSquarefree,
    NotTotallyReal,
    UnsupportedField,
)
from sarithdim.numberfield import (
    MAX_RADICAND,
    FieldKind,
    NumberField,
    Place,
    PlaceKind,
    build_S,
    decompose_prime,
    delta_2,
    kronecker_symbol,
    parse_field,
)

PRIMES_TO_100 = [p for p in range(2, 101) if all(p % k for k in range(2, p))]

TEST_FIELDS = [
    parse_field("Q"),
    parse_field("Q(sqrt 2)"),
    parse_field("Q(sqrt 3)"),
    parse_field("Q(sqrt 5)"),
    parse_field("Q(sqrt 13)"),
    parse_field("Q(sqrt 6)"),
    parse_field("Q(sqrt 21)"),
]


def brute_force_is_square_mod(D, p):
    return any((x * x - D) % p == 0 for x in range(p))


class TestParseField:
    def test_rationals(self):
        F = parse_field("Q")
        assert F.kind is FieldKind.RATIONALS
        assert F.discriminant == 1
        assert F.degree == 1

    def test_sqrt5(self):
        F = parse_field("Q(sqrt 5)")
        assert F.kind is FieldKind.REAL_QUADRATIC
        assert F.d == 5
        assert F.discriminant == 5  # 5 = 1 mod 4
        assert F.degree == 2

    def test_discriminant_doubling(self):
        assert parse_field("Q(sqrt 2)").discriminant == 8
        assert parse_field("Q(sqrt 3)").discriminant == 12
        assert parse_field("Q(sqrt 13)").discriminant == 13

    def test_imaginary_rejected(self):
        with pytest.raises(NotTotallyReal):
            parse_field("Q(sqrt -1)")

    def test_degenerate_rejected(self):
        with pytest.raises(NotTotallyReal):
            parse_field("Q(sqrt 1)")

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            parse_field("Q(sqrt 12)")

    def test_radicand_cap(self):
        assert parse_field("Q(sqrt 999997)").d == 999997  # the largest squarefree d <= 10^6
        for d in (MAX_RADICAND + 1, 10**18 + 3):
            with pytest.raises(UnsupportedField):
                parse_field(f"Q(sqrt {d})")

    @pytest.mark.parametrize("bad", ["", "Q(sqrt5)", "Q(sqrt )", "K", "Q(sqrt 5", "Q sqrt 5"])
    def test_malformed(self, bad):
        with pytest.raises(MalformedSpec):
            parse_field(bad)


class TestKronecker:
    def test_examples(self):
        assert kronecker_symbol(5, 11) == 1  # 4^2 = 5 mod 11
        assert kronecker_symbol(5, 5) == 0
        assert kronecker_symbol(8, 3) == -1

    def test_odd_primes_match_brute_force(self):
        discs = [5, 8, 12, 13, 17, 21, 24, 28, 29, 33]
        for D in discs:
            for p in PRIMES_TO_100:
                if p == 2 or D % p == 0:
                    continue
                expected = 1 if brute_force_is_square_mod(D, p) else -1
                assert kronecker_symbol(D, p) == expected, (D, p)

    def test_at_two(self):
        assert kronecker_symbol(17, 2) == 1  # 17 = 1 mod 8
        assert kronecker_symbol(5, 2) == -1  # 5 mod 8
        assert kronecker_symbol(8, 2) == 0

    def test_composite_modulus(self):
        assert kronecker_symbol(5, 6) == 1  # (5/2)(5/3) = (-1)(-1)
        assert kronecker_symbol(5, 1) == 1
        assert kronecker_symbol(5, 0) == 0
        assert kronecker_symbol(1, 0) == 1

    def test_multiplicative_in_modulus(self):
        for D in (5, 8, 12, 13, 21, 24):
            for m in range(1, 60):
                for k in range(1, 60):
                    assert kronecker_symbol(D, m * k) == kronecker_symbol(D, m) * kronecker_symbol(D, k), (D, m, k)

    def test_negative_modulus_rejected(self):
        with pytest.raises(ValueError):
            kronecker_symbol(5, -1)


class TestDecompose:
    def test_rationals(self):
        (v,) = decompose_prime(parse_field("Q"), 7)
        assert (v.p, v.e, v.f, v.q) == (7, 1, 1, 7)

    def test_split(self):
        places = decompose_prime(parse_field("Q(sqrt 5)"), 11)
        assert len(places) == 2
        assert all((v.e, v.f, v.q) == (1, 1, 11) for v in places)
        assert places[0] != places[1]

    def test_ramified(self):
        (v,) = decompose_prime(parse_field("Q(sqrt 2)"), 2)
        assert (v.e, v.f, v.q) == (2, 1, 2)

    def test_inert(self):
        (v,) = decompose_prime(parse_field("Q(sqrt 5)"), 2)
        assert (v.e, v.f, v.q) == (1, 2, 4)

    def test_sum_ef_equals_degree(self):
        for F in TEST_FIELDS:
            for p in PRIMES_TO_100:
                assert sum(v.e * v.f for v in decompose_prime(F, p)) == F.degree, (F, p)

    def test_split_verdict_matches_brute_force(self):
        for F in TEST_FIELDS:
            if F.kind is FieldKind.RATIONALS:
                continue
            D = F.discriminant
            for p in PRIMES_TO_100:
                if p == 2 or D % p == 0:
                    continue
                split = len(decompose_prime(F, p)) == 2
                assert split == brute_force_is_square_mod(D, p), (F, p)

    def test_pure(self):
        F = parse_field("Q(sqrt 13)")
        assert decompose_prime(F, 3) == decompose_prime(F, 3)


class TestBuildS:
    def test_rationals_one_prime(self):
        S = build_S(parse_field("Q"), [2])
        assert S.size == 2
        assert len(S.finite_places) == 1

    def test_quadratic_archimedean_only(self):
        S = build_S(parse_field("Q(sqrt 5)"), [])
        assert S.size == 2
        assert S.finite_places == ()
        assert S.archimedean_count == 2

    def test_both_selector(self):
        S = build_S(parse_field("Q(sqrt 5)"), [(11, "both")])
        assert S.size == 4
        assert len(S.finite_places) == 2

    def test_duplicate_prime(self):
        with pytest.raises(DuplicatePlace):
            build_S(parse_field("Q"), [2, 2])

    def test_both_on_inert_prime(self):
        with pytest.raises(InvalidSelector):
            build_S(parse_field("Q(sqrt 5)"), [(2, "both")])

    def test_both_on_rationals(self):
        with pytest.raises(InvalidSelector):
            build_S(parse_field("Q"), [(5, "both")])

    def test_unknown_selector(self):
        with pytest.raises(InvalidSelector):
            build_S(parse_field("Q"), [(5, "all")])

    def test_places_enumeration(self):
        S = build_S(parse_field("Q(sqrt 5)"), [11])
        assert len(S.places) == 3
        assert [v.kind for v in S.places] == [PlaceKind.REAL, PlaceKind.REAL, PlaceKind.FINITE]


class TestDelta2:
    def test_place_over_two(self):
        assert delta_2(build_S(parse_field("Q"), [2])) == 1

    def test_no_place_over_two(self):
        assert delta_2(build_S(parse_field("Q"), [3])) == 0

    def test_ramified_two(self):
        assert delta_2(build_S(parse_field("Q(sqrt 2)"), [2])) == 2

    def test_inert_two(self):
        assert delta_2(build_S(parse_field("Q(sqrt 5)"), [2])) == 2


@given(st.permutations([2, 3, 7, 13]))
def test_build_S_order_invariant(primes):
    F = parse_field("Q(sqrt 5)")
    S = build_S(F, primes)
    reference = build_S(F, [2, 3, 7, 13])
    assert delta_2(S) == delta_2(reference)
    assert set(S.finite_places) == set(reference.finite_places)
    assert S.size == reference.size


def test_place_validation():
    with pytest.raises(ValueError):
        Place.finite(4, 1, 1)
    with pytest.raises(ValueError):
        Place.finite(5, 0, 1)
    with pytest.raises(ValueError):
        Place(PlaceKind.REAL, p=3)
    with pytest.raises(ValueError):
        Place.real().q


def test_numberfield_validation():
    with pytest.raises(ValueError):
        NumberField(FieldKind.RATIONALS, d=5)
    with pytest.raises(NotTotallyReal):
        NumberField.real_quadratic(-3)
    with pytest.raises(NotSquarefree):
        NumberField.real_quadratic(50)
