import math

import pytest
from hypothesis import given, strategies as st

from sarithdim import numberfield
from sarithdim.errors import (
    DuplicatePlace,
    InvalidSelector,
    MalformedSpec,
    NotSquarefree,
    NotTotallyReal,
    UnsupportedField,
    UnsupportedPrime,
)
from sarithdim.numberfield import (
    MAX_PRIME,
    MAX_RADICAND,
    NumberField,
    Place,
    build_S,
    decompose_prime,
    delta_2,
    is_prime,
    is_squarefree,
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
        assert F.d is None
        assert F.discriminant == 1
        assert F.degree == 1

    def test_sqrt5(self):
        F = parse_field("Q(sqrt 5)")
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


def trial_division_is_prime(n):
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def is_strong_probable_prime(n, a):
    """n odd passes the Miller-Rabin round to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class TestPrimality:
    def test_matches_trial_division(self):
        for n in range(-3, 10**5):
            assert is_prime(n) == trial_division_is_prime(n), n

    def test_carmichael_numbers(self):
        assert not is_prime(561)  # 3 * 11 * 17
        assert not is_prime(41041)  # 7 * 11 * 13 * 41

    @pytest.mark.parametrize(
        "n, factors, k",
        [
            # psi_k, the least strong pseudoprime to the first k prime bases
            (2047, (23, 89), 1),
            (1373653, (829, 1657), 2),
            (25326001, (2251, 11251), 3),
            (3215031751, (151, 751, 28351), 4),
            (2152302898747, (6763, 10627, 29947), 5),
            (3474749660383, (1303, 16927, 157543), 6),
            (341550071728321, (10670053, 32010157), 8),
            (3825123056546413051, (149491, 747451, 34233211), 11),
            (318665857834031151167461, (399165290221, 798330580441), 12),
        ],
    )
    def test_strong_pseudoprimes(self, n, factors, k):
        assert math.prod(factors) == n
        # n fools the first k bases, so base k + 1 must run
        assert all(is_strong_probable_prime(n, a) for a in PRIMES_TO_100[:k])
        assert not is_prime(n)

    def test_matches_all_thirteen_bases_near_thresholds(self):
        bases = PRIMES_TO_100[:13]
        for psi in (2047, 1373653, 25326001, 3215031751, 2152302898747, 341550071728321, 10**18):
            for n in range(psi - 500, psi + 500):
                expected = n in bases or (
                    all(n % a for a in bases) and all(is_strong_probable_prime(n, a) for a in bases)
                )
                assert is_prime(n) == expected, n

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(10**18 + 3)
        assert not is_prime((2**61 - 1) * (10**18 + 3))

    def test_squarefree_matches_brute_force(self):
        for n in range(-3, 10**4 + 1):
            brute = n >= 1 and all(n % (k * k) for k in range(2, math.isqrt(n) + 1))
            assert is_squarefree(n) == brute, n

    def test_prime_cap(self):
        assert MAX_PRIME == 10**24
        (v,) = decompose_prime(parse_field("Q"), 10**18 + 3)
        assert v.q == 10**18 + 3
        # psi_13 = 3317044064679887385961981 fools all 13 bases; the cap keeps it out
        for p in (MAX_PRIME + 1, 3317044064679887385961981, 2**127 - 1):
            with pytest.raises(UnsupportedPrime):
                decompose_prime(parse_field("Q(sqrt 5)"), p)
            with pytest.raises(UnsupportedPrime):
                build_S(parse_field("Q"), [p])
            with pytest.raises(ValueError):
                Place.finite(p, 1, 1)


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
            if F.d is None:
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

    def test_composite_rejected(self):
        for F in (parse_field("Q"), parse_field("Q(sqrt 5)")):
            for n in (0, 1, 4, 15, 91, 10**18 + 1):
                with pytest.raises(ValueError):
                    decompose_prime(F, n)


class TestBuildS:
    def test_rationals_one_prime(self):
        S = build_S(parse_field("Q"), [2])
        assert S.size == 2
        assert len(S.finite_places) == 1

    def test_quadratic_archimedean_only(self):
        S = build_S(parse_field("Q(sqrt 5)"), [])
        assert S.size == 2
        assert S.finite_places == ()
        assert S.field.degree == 2

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
        assert [v.is_real for v in S.places] == [True, True, False]

    def test_one_primality_test_per_place(self, monkeypatch):
        calls = []
        original = numberfield.is_prime
        monkeypatch.setattr(numberfield, "is_prime", lambda n: calls.append(n) or original(n))
        # over Q(sqrt 5): 2 is inert, 11 and 19 split (two places each, one
        # of them kept for "one"), 5 ramifies
        build_S(parse_field("Q(sqrt 5)"), [2, 11, (19, "both"), 5])
        assert sorted(calls) == [2, 5, 11, 11, 19, 19]


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
        Place(e=1)
    with pytest.raises(ValueError):
        Place.real().q


def test_numberfield_validation():
    with pytest.raises(NotTotallyReal):
        NumberField.real_quadratic(-3)
    with pytest.raises(NotSquarefree):
        NumberField.real_quadratic(50)
