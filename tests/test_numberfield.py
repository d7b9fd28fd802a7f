import math
import os
import pickle
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sarithdim import covolume, numberfield
from sarithdim.cli import grid_points
from sarithdim.errors import (
    DuplicatePlace,
    InvalidSelector,
    MalformedSpec,
    NotSquarefree,
    NotTotallyReal,
    OutOfRange,
    ToleranceTooTight,
    UnsupportedField,
    UnsupportedPrime,
)
from sarithdim.formal_degree import LocalRepDatum
from sarithdim.numberfield import (
    MAX_PRIME,
    MAX_RADICAND,
    NumberField,
    Place,
    SSet,
    build_S,
    decompose_prime,
    delta_2,
    is_prime,
    is_squarefree,
    kronecker_symbol,
    parse_field,
)
from sarithdim.vndim import jl_ratio_pgl, steinberg_vn_dim
from sarithdim.zeta import functional_equation_check, primes_up_to

Q = parse_field("Q")

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

    @pytest.mark.parametrize("spec", [5, None, b"Q", ["Q"]])
    def test_spec_that_is_not_a_str(self, spec):
        message = rf"^cannot parse field spec {re.escape(repr(spec))}: expected 'Q' or 'Q\(sqrt <d>\)'$"
        with pytest.raises(MalformedSpec, match=message):
            parse_field(spec)


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

    def test_squarefree_matches_a_sieve_of_squares_near_the_cap(self):
        # a loop that stopped at a small odd q would pass the test above but
        # call 994009 = 997^2 squarefree
        lo, hi = 10**6 - 10**4, 10**6 + 10**4
        squarefree = [True] * (hi - lo + 1)
        for k in range(2, math.isqrt(hi) + 1):
            for n in range(-(-lo // (k * k)) * k * k, hi + 1, k * k):
                squarefree[n - lo] = False
        assert not squarefree[997**2 - lo]
        for n in range(lo, hi + 1):
            assert is_squarefree(n) == squarefree[n - lo], n

    def test_odd_prime_factors_match_a_factor_sieve(self):
        limit = 10**4
        least = list(range(limit + 1))  # least prime factor of each n >= 2
        for p in range(2, math.isqrt(limit) + 1):
            if least[p] == p:
                for n in range(p * p, limit + 1, p):
                    least[n] = min(least[n], p)
        for n in range(1, limit + 1):
            factors, m = [], n
            while m > 1:
                factors.append(least[m])
                m //= least[m]
            odd = [p for p in factors if p != 2]
            expected = None if len(set(odd)) < len(odd) else sorted(set(odd))
            assert numberfield._odd_prime_factors(n) == expected, n

    @pytest.mark.parametrize(
        "n, primes",
        [
            (994009, None),  # 997^2
            (999983, [999983]),  # the largest prime radicand below the cap
            (999958, [499979]),  # 2 * 499979
            (999995, [5, 199999]),
            (510510, [3, 5, 7, 11, 13, 17]),  # 2 * 3 * 5 * 7 * 11 * 13 * 17
        ],
    )
    def test_odd_prime_factors_near_the_cap(self, n, primes):
        assert numberfield._odd_prime_factors(n) == primes

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
            with pytest.raises(UnsupportedPrime, match=rf"^prime {p} exceeds the supported maximum {MAX_PRIME}$"):
                Place(p, 1, 1)


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
        with pytest.raises(DuplicatePlace, match=r"^repeated place v0\(p=2,e=1,f=1\) in S$"):
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

    def test_places_built_once(self):
        F = parse_field("Q(sqrt 5)")
        S = build_S(F, [11])
        assert S.places is S.places
        # the cached tuple is not part of equality or the hash
        assert S == build_S(F, [11]) and hash(S) == hash(build_S(F, [11]))

    def test_equal_sets_are_one_dict_key(self):
        # built from two equal fields, so the two S-sets share no object
        F, G = parse_field("Q(sqrt 5)"), parse_field("Q(sqrt 5)")
        S, T = build_S(F, [11, (19, "both")]), build_S(G, [11, (19, "both")])
        assert S is not T and S == T and hash(S) == hash(T)
        assert {S: "S"}[T] == "S" and {T: "T"}[S] == "T"
        assert S != build_S(F, [11]) and build_S(F, [11]) not in {S: "S"}

    def test_pickled_set_is_a_dict_key_in_another_process(self):
        # an S-set pickles with what it keeps, its places and its Invariants
        # record; the child's equal S-sets must still find the pickled ones,
        # over Q too, and get records equal to the pickled ones
        sets = [build_S(parse_field(spec), [3]) for spec in ("Q", "Q(sqrt 5)")]
        for S in sets:
            covolume.invariants(S.field, S)
        child = (
            "import pickle, sys\n"
            "from sarithdim.covolume import invariants\n"
            "from sarithdim.numberfield import build_S, parse_field\n"
            "sets = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = [build_S(parse_field(spec), [3]) for spec in ('Q', 'Q(sqrt 5)')]\n"
            "table = dict.fromkeys(sets)\n"
            "print(all(T in table for T in fresh))\n"
            "print(all(invariants(S.field, S) == invariants(T.field, T) for S, T in zip(sets, fresh)))\n"
        )
        source_root = str(Path(numberfield.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", child],
            input=pickle.dumps(sets),
            capture_output=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [b"True", b"True"]

    def test_one_primality_test_per_place(self, monkeypatch):
        calls = []
        original = numberfield.is_prime
        monkeypatch.setattr(numberfield, "is_prime", lambda n: calls.append(n) or original(n))
        built = []
        new_place = Place.__new__
        counted = staticmethod(lambda cls, *args: built.append(args) or new_place(cls, *args))
        monkeypatch.setattr(Place, "__new__", counted)
        # over Q(sqrt 5): 2 is inert, 11 and 19 split (two places each, one
        # of them kept for "one"), 5 ramifies; only the kept places are built
        S = build_S(parse_field("Q(sqrt 5)"), [2, 11, (19, "both"), 5])
        assert len(S.finite_places) == 5
        assert sorted(calls) == [2, 5, 11, 19, 19]
        assert sorted(built) == sorted(tuple(v) for v in S.finite_places)

    @staticmethod
    def count_kronecker_symbols(monkeypatch):
        calls = []
        original = numberfield.kronecker_symbol
        monkeypatch.setattr(numberfield, "kronecker_symbol", lambda D, m: calls.append(m) or original(D, m))
        return calls

    def test_one_kronecker_symbol_per_prime_and_per_kept_place(self, monkeypatch):
        calls = self.count_kronecker_symbols(monkeypatch)
        # decompose_prime reads each prime's splitting once, and SSet checks
        # each kept place once: 19:both keeps two places
        build_S(parse_field("Q(sqrt 5)"), [2, 11, (19, "both"), 5])
        assert sorted(calls) == [2, 2, 5, 5, 11, 11, 19, 19, 19]

    def test_grid_reads_two_kronecker_symbols_per_prime_entry(self, monkeypatch):
        calls = self.count_kronecker_symbols(monkeypatch)
        assert len(list(grid_points())) == 210
        # each of the 384 (quadratic field, prime) entries of the grid keeps
        # one place: one symbol to decompose the prime, one to check the place
        assert len(calls) == 2 * 384


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
        Place(4, 1, 1)
    with pytest.raises(ValueError):
        Place(5, 0, 1)
    with pytest.raises(ValueError):
        Place(e=1)
    with pytest.raises(ValueError):
        Place().q
    # non-int data: is_prime(2.5) is True, so only the type check rejects a float prime
    for args in ((2.5, 1, 1), (3.0, 1, 1), (3, 1.0, 1), (3, 1, 2.0), (3, 1, 1, 0.0), (None, None, None, None)):
        with pytest.raises(ValueError):
            Place(*args)
    with pytest.raises(ValueError):
        build_S(parse_field("Q"), [2.5])
    with pytest.raises(ValueError, match=r"^place data must be ints, got p=Place\(p=3, e=1, f=1, index=0\)$"):
        build_S(parse_field("Q"), [Place(3, 1, 1)])


@pytest.mark.parametrize("p", [2.5, 3.0, True, "3"])
def test_non_int_prime_is_refused_before_any_kronecker_symbol(p, monkeypatch):
    """A non-int p is refused before the splitting law evaluates a single
    Kronecker symbol on it."""
    calls = TestBuildS.count_kronecker_symbols(monkeypatch)
    with pytest.raises(ValueError):
        decompose_prime(parse_field("Q(sqrt 5)"), p)
    assert len(calls) == 0


@pytest.mark.parametrize(
    "field, places",
    [
        ("Q(sqrt 5)", (Place(3, 1, 1),)),  # 3 is inert in Q(sqrt 5): f = 2
        ("Q", (Place(2, 1, 2),)),  # every prime of Q has f = 1
        ("Q", (Place(2, 1, 1, 1),)),  # one place over each prime of Q
        ("Q", (Place(2, 1, 1, 0), Place(2, 1, 1, 1))),
        ("Q", (Place(),)),  # real places are implied, never listed
    ],
)
def test_s_set_rejects_a_place_not_of_its_field(field, places):
    with pytest.raises(ValueError):
        SSet(parse_field(field), places)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: build_S(None, []), "^the field must be a NumberField, got NoneType None$"),
        (lambda: build_S(None, [2]), "^the field must be a NumberField, got NoneType None$"),
        (lambda: SSet((5,), ()), r"^the field must be a NumberField, got tuple \(5,\)$"),
        (lambda: SSet(parse_field("Q"), (2,)), "^finite_places must all be finite Places, got 2$"),
        (lambda: SSet(parse_field("Q"), ((2, 1, 1, 0),)), r"^finite_places .* got \(2, 1, 1, 0\)$"),
    ],
    ids=["build_S_empty", "build_S", "SSet_field", "SSet_place", "SSet_place_tuple"],
)
def test_s_set_refuses_a_field_or_place_by_type(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_s_set_names_a_repeated_place():
    F = parse_field("Q(sqrt 5)")
    v, w = decompose_prime(F, 11)
    with pytest.raises(DuplicatePlace, match=r"^repeated place v1\(p=11,e=1,f=1\) in S$"):
        SSet(F, (w, v, w))


def test_s_set_of_twenty_thousand_places_is_built_in_linear_time():
    # checking each place against all earlier ones, a quadratic test, took
    # about 7 s for these places on a 2-CPU x86-64 host
    F = parse_field("Q(sqrt 5)")
    primes = primes_up_to(224_737)
    assert len(primes) == 20_000
    start = time.perf_counter()
    S = build_S(F, primes)
    assert time.perf_counter() - start < 2
    assert len(S.finite_places) == 20_000


def test_s_set_accepts_every_decomposed_place():
    for F in TEST_FIELDS:
        for p in PRIMES_TO_100:
            places = tuple(decompose_prime(F, p))
            assert SSet(F, places).finite_places == places, (F, p)


BITS = "<int of 16610 bits>"  # 10**5000
FRACTION = "<Fraction too large to print>"


@pytest.mark.parametrize(
    "build, error, stand_in",
    [
        (lambda: NumberField(10**5000), UnsupportedField, BITS),
        (lambda: NumberField(-(10**5000)), NotTotallyReal, "-" + BITS),
        (lambda: build_S(parse_field("Q"), [10**5000]), UnsupportedPrime, BITS),
        (lambda: decompose_prime(parse_field("Q(sqrt 5)"), 10**5000), UnsupportedPrime, BITS),
        (lambda: Place(10**5000, 1, 1), UnsupportedPrime, BITS),
        (lambda: jl_ratio_pgl(Q, build_S(Q, [2]), Fraction(10**5000)), OutOfRange, FRACTION),
        (lambda: functional_equation_check(Q, 1e-8, precision_bits=Fraction(10**5000)), OutOfRange, FRACTION),
        (lambda: functional_equation_check(Q, Fraction(10**5000)), ToleranceTooTight, FRACTION),
        (lambda: functional_equation_check(Q, -(10**5000)), ToleranceTooTight, "-" + BITS),
        (lambda: build_S(Q, [(5, 10**5000)]), InvalidSelector, BITS),
        (lambda: NumberField(Fraction(10**5000)), ValueError, FRACTION),
        (lambda: decompose_prime(Q, Fraction(10**5000)), ValueError, FRACTION),
        (lambda: LocalRepDatum(Place(), -(10**5000)), OutOfRange, "-" + BITS),
        (lambda: LocalRepDatum(Place(), Fraction(10**5000)), OutOfRange, FRACTION),
        (lambda: steinberg_vn_dim(Q, build_S(Q, [2]), 10**5000), ValueError, BITS),
    ],
    ids=[
        "radicand",
        "negative_radicand",
        "build_S",
        "decompose_prime",
        "Place",
        "pd_order_fraction",
        "precision_bits_fraction",
        "tol_fraction",
        "tol_negative",
        "selector",
        "radicand_fraction",
        "decompose_prime_fraction",
        "datum_negative",
        "datum_fraction",
        "group",
    ],
)
def test_int_beyond_str_conversion_limit(build, error, stand_in):
    # repr() refuses a value of more than 4300 digits, so the message gives
    # the size of an int, signed, or the type of anything else
    with pytest.raises(error, match=rf"(?<!-){re.escape(stand_in)}"):
        build()


def test_place_data_of_the_wrong_type_is_named_by_value():
    # a huge p beside a float e: the message names each value, p by its size
    with pytest.raises(ValueError, match=r"^place data .* got \(<int of 16610 bits>, 1\.0, 1, 0\)$"):
        Place(10**5000, 1.0, 1)


def test_int_at_str_conversion_limit_is_named_in_full():
    p = 10**4299  # 4300 digits
    with pytest.raises(UnsupportedPrime) as raised:
        decompose_prime(parse_field("Q"), p)
    assert str(raised.value) == f"prime {p} exceeds the supported maximum {MAX_PRIME}"


def test_numberfield_validation():
    with pytest.raises(NotTotallyReal):
        NumberField(-3)
    with pytest.raises(NotSquarefree):
        NumberField(50)
    # a non-int radicand would pass the squarefree test as Q(sqrt 6.5)
    for d in (6.5, 5.0, "5", True):
        with pytest.raises(ValueError):
            NumberField(d)
