import ast
import functools
import math
import random
import re
import signal
import tracemalloc
from array import array
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import libmp

from sarithdim import numberfield, zeta
from sarithdim.errors import OutOfRange, ToleranceTooTight
from sarithdim.numberfield import MAX_RADICAND, NumberField, is_squarefree, kronecker_symbol, parse_field
from sarithdim.quaternion import pdx_candidates
from sarithdim.zeta import (
    MAX_PRECISION_BITS,
    SpecialValue,
    functional_equation_check,
    primes_up_to,
    zeta_F_2_numeric,
    zeta_F_minus1,
)
from test_vndim import FRACTION_OPERATORS


def real_quadratic_fields_with_disc_up_to(limit):
    """All real quadratic fields with fundamental discriminant <= limit."""
    fields = []
    for d in range(2, limit + 1):
        if (d if d % 4 == 1 else 4 * d) > limit:
            continue
        if any(d % (k * k) == 0 for k in range(2, int(d**0.5) + 1)):
            continue
        F = NumberField(d)
        if F.discriminant <= limit:
            fields.append(F)
    return sorted(fields, key=lambda F: F.discriminant)


def kronecker_table(D):
    """chi_D(a) for 0 <= a < D, extended completely multiplicatively from its
    values at primes: Euler's criterion at odd p, the mod-8 rule at p = 2.
    Independent of the reciprocity-based symbol in the library."""
    smallest_factor = list(range(D))
    for p in range(2, math.isqrt(D - 1) + 1):
        if smallest_factor[p] == p:
            for m in range(p * p, D, p):
                if smallest_factor[m] == m:
                    smallest_factor[m] = p
    chi = [0, 1] + [0] * (D - 2)
    at_prime = {}
    for a in range(2, D):
        p = smallest_factor[a]
        if p not in at_prime:
            if D % p == 0:
                at_prime[p] = 0
            elif p == 2:
                at_prime[p] = 1 if D % 8 in (1, 7) else -1
            else:
                at_prime[p] = 1 if pow(D, (p - 1) // 2, p) == 1 else -1
        chi[a] = at_prime[p] * chi[a // p]
    return chi


def character_table(D, n):
    """The kernel's table of chi_D(r) for 0 <= r < n, from D's odd primes."""
    return list(zeta._character_table(D, numberfield._odd_prime_factors(D), n))


def bernoulli_route_zeta_minus1(D):
    """zeta_F(-1) = B_{2,chi}/24 with B_{2,chi} = D * sum_{a=1}^{D} chi(a) B_2(a/D)
    and B_2(x) = x^2 - x + 1/6 (Washington, Introduction to Cyclotomic Fields,
    Thm 4.2).  With denominators cleared, D * B_2(a/D) = (6a^2 - 6aD + D^2) / (6D)."""
    chi = kronecker_table(D)
    total = sum(chi[a % D] * (6 * a * a - 6 * a * D + D * D) for a in range(1, D + 1))
    return Fraction(total, 24 * 6 * D)


def hurwitz_route_zeta_F_2(D, bits):
    """zeta(2) * L(2, chi_D) by the residue-class regrouping
    L(2, chi) = D^-2 * sum_{r=1}^{D-1} chi(r) * zeta(2, r/D) (Hurwitz zeta)."""
    ctx = mpmath.mp.clone()
    ctx.prec = bits
    chi = kronecker_table(D)
    total = ctx.mpf(0)
    for r in range(1, D):
        if chi[r]:
            total += chi[r] * ctx.zeta(2, ctx.mpf(r) / D)
    return ctx.pi**2 / 6 * total / D**2


def sine_route_zeta_F_2(D, bits):
    """zeta(2) * L(2, chi_D) by the half-range csc^2 sum
    (pi^4 / 6D^2) * sum_{1 <= r < D/2} chi(r) * csc^2(pi r / D), one mpmath
    sine per residue at D.bit_length() guard bits, rounded to ``bits``."""
    ctx = mpmath.mp.clone()
    ctx.prec = bits + D.bit_length()
    chi = kronecker_table(D)
    angle = ctx.pi / D
    total = ctx.mpf(0)
    for r in range(1, (D + 1) // 2):
        if chi[r]:
            total += chi[r] / ctx.sin(angle * r) ** 2
    value = ctx.pi**4 / 6 * total / D**2
    ctx.prec = bits
    return +value


def zeta_F_2_euler_product(F: NumberField, primes: list[int]) -> float:
    """Truncated Euler-product route to zeta_F(2), for cross-checks.

    The factor common to every field, prod_p (1 - p^-2)^-1 = zeta(2), is
    folded into its closed form pi^2/6; only the character factors
    (1 - chi(p) p^-2)^-1 are truncated, to the ascending list ``primes``.
    Truncating the common factor as well would plateau near 7e-8 over the
    primes below 10^6, while the character tail oscillates and is orders of
    magnitude smaller (measured < 2e-10 for every discriminant <= 200 over
    those primes), so this split is what makes a desk-scale prime list
    usable.  Factors are multiplied in ascending-prime order;
    double-precision rounding (~1e-13) is negligible against the truncation
    term.
    """
    if F.d is None:
        return math.pi**2 / 6
    D = F.discriminant
    # the Kronecker symbol (D/.) has period D, and is read directly rather
    # than through the package's character, which the numeric route uses
    chi = [kronecker_symbol(D, r) for r in range(D)]
    product = 1.0
    for p in primes:
        c = chi[p % D]
        if c:
            product *= 1.0 / (1.0 - c / (p * p))
    return math.pi**2 / 6 * product


def fraction(x):
    """x as an exact Fraction: a Fraction as it is, an mpf by its mantissa
    and exponent."""
    return x if isinstance(x, Fraction) else Fraction(*libmp.to_rational(x._mpf_))


def ulp(x, bits):
    """The unit in the last place of the Fraction x > 0 at ``bits`` of precision."""
    k = x.numerator.bit_length() - x.denominator.bit_length()  # 2^(k-1) < x < 2^(k+1)
    if x >= Fraction(2) ** k:
        k += 1
    return Fraction(2) ** (k - bits)


def ulps_apart(a, b, bits):
    """|a - b| in units of the last place of b > 0 at ``bits`` of precision."""
    a, b = fraction(a), fraction(b)
    return abs(a - b) / ulp(b, bits)


def significant_bits(x):
    """The bit length of the odd part of the dyadic Fraction x's numerator."""
    m = x.numerator
    return (m >> (m & -m).bit_length() - 1).bit_length()


def naive_divisor_sum(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def naive_lattice_sum(D):
    # every integer b, positive and negative, with b^2 < D and b^2 = D mod 4
    total = 0
    for b in range(-D, D + 1):
        if b * b < D and (b * b - D) % 4 == 0:
            total += naive_divisor_sum((D - b * b) // 4)
    return Fraction(total, 60)


def trial_division_sigma(n):
    """sigma_1(n) for n >= 1 by trial division: each prime power p^a found
    contributes 1 + p + ... + p^a, and the cofactor m > 1 left once the
    trial divisor k passes sqrt(m) is prime and contributes m + 1."""
    total = 1
    k = 2
    while k * k <= n:
        if n % k == 0:
            term = power = 1
            while n % k == 0:
                n //= k
                power *= k
                term += power
            total *= term
        k += 1 if k == 2 else 2
    if n > 1:
        total *= n + 1
    return total


def trial_division_lattice_sum(D, sigma=trial_division_sigma):
    """60 * zeta_F(-1) as the lattice sum with each value (D - b^2)/4 factored
    on its own: the oracle for the sieve of zeta_F_minus1."""
    total = 0
    b = 0
    while b * b < D:
        if (D - b * b) % 4 == 0:
            # b and -b both contribute for b > 0
            total += (2 if b else 1) * sigma((D - b * b) // 4)
        b += 1
    return total


def sieve_branches(D):
    """The branches of the sieve in zeta_F_minus1 that the discriminant D takes."""
    values = [(D - b * b) // 4 for b in range(D % 2, math.isqrt(D) + 1, 2)]
    odd_primes = primes_up_to(math.isqrt(D // 4))[1:]
    branches = {"D odd" if D % 2 else "D even"}
    if any(D % p == 0 for p in odd_primes):
        branches.add("p divides D")
    if any(m % 8 == 0 for m in values):
        branches.add("2^a with a >= 3")
    if any(m % (p * p) == 0 for p in odd_primes for m in values):
        branches.add("odd square factor")
    for m in values:
        for p in [2] + odd_primes:
            while m % p == 0:
                m //= p
        if m > 1:
            branches.add("prime cofactor above sqrt(D/4)")
    return branches


class TestZetaMinusOne:
    def test_rationals(self):
        sv = zeta_F_minus1(parse_field("Q"))
        assert sv.value == Fraction(-1, 12)

    def test_sqrt5(self):
        sv = zeta_F_minus1(parse_field("Q(sqrt 5)"))
        assert sv.value == Fraction(1, 30)

    def test_sqrt2(self):
        assert zeta_F_minus1(parse_field("Q(sqrt 2)")).value == Fraction(1, 12)

    def test_matches_naive_lattice_sum(self):
        for F in real_quadratic_fields_with_disc_up_to(200):
            assert zeta_F_minus1(F).value == naive_lattice_sum(F.discriminant), F

    def test_denominator_divides_60(self):
        for F in real_quadratic_fields_with_disc_up_to(200):
            assert 60 % zeta_F_minus1(F).value.denominator == 0, F

    def test_matches_bernoulli_route(self):
        fields = real_quadratic_fields_with_disc_up_to(500)
        # d = 100001 = 1 (mod 4) has D = d, and d = 100003 has D = 4d
        # D = 100001 = 1 and D = 100005 = 5 (mod 8); 100003 = 3 (mod 4) has D = 4d;
        # 25006 = 2 (mod 4) has D = 8 * 12503
        fields += [parse_field(f"Q(sqrt {d})") for d in (1001, 10007, 100001, 100005, 100003, 25006)]
        for F in fields:
            assert zeta_F_minus1(F).value == bernoulli_route_zeta_minus1(F.discriminant), F


def test_trial_division_sigma_brute_force():
    for n in range(1, 1000):
        assert trial_division_sigma(n) == naive_divisor_sum(n)
    # prime powers: sigma_1(p^a) = (p^(a+1) - 1) / (p - 1)
    for p, a in ((2, 40), (3, 25), (101, 4), (10007, 2), (999983, 1)):
        assert trial_division_sigma(p**a) == (p ** (a + 1) - 1) // (p - 1), (p, a)
    # products of two large primes: one found by trial division, one left as the cofactor
    for p, q in ((10007, 999983), (999983, 1000003), (2, 1000003), (999983, 999983)):
        expected = 1 + p + p * p if p == q else (1 + p) * (1 + q)
        assert trial_division_sigma(p * q) == expected, (p, q)


class TestSiegelSieve:
    def test_matches_trial_division_for_every_discriminant_to_20000(self):
        # sigma_1 of every value (D - b^2)/4 <= 5000, each by trial division once
        sigma = [0] + [trial_division_sigma(n) for n in range(1, 20000 // 4 + 1)]
        fields = real_quadratic_fields_with_disc_up_to(20000)
        assert len(fields) == 6081
        for F in fields:
            assert zeta_F_minus1(F).value * 60 == trial_division_lattice_sum(F.discriminant, sigma.__getitem__), F

    def test_matches_trial_division_at_large_discriminants(self):
        rng = random.Random(13)
        radicands = []
        while len(radicands) < 20:
            d = round(math.exp(rng.uniform(math.log(10**5 / 4), math.log(MAX_RADICAND))))
            if is_squarefree(d) and 10**5 <= NumberField(d).discriminant:
                radicands.append(d)
        # within 100 of the cap: D = d = 1 (mod 4) and D = 4d for d = 2 and 3 (mod 4)
        radicands += [999901, 999942, 999995, 999997]
        for d in radicands:
            D = NumberField(d).discriminant
            assert 10**5 <= D <= 4 * MAX_RADICAND
            assert zeta_F_minus1(NumberField(d)).value * 60 == trial_division_lattice_sum(D), d

    @pytest.mark.parametrize(
        "branch, d",
        [
            ("D odd", 1001),
            ("D even", 1155),
            ("p divides D", 1155),  # D = 4 * 3 * 5 * 7 * 11
            ("2^a with a >= 3", 1001),  # (1001 - 3^2)/4 = 8 * 31
            ("odd square factor", 1001),  # (1001 - 1)/4 = 2 * 5^3
            ("prime cofactor above sqrt(D/4)", 1001),
        ],
    )
    def test_branch(self, branch, d):
        D = NumberField(d).discriminant
        assert branch in sieve_branches(D)
        assert zeta_F_minus1(NumberField(d)).value * 60 == trial_division_lattice_sum(D)

    def test_square_root_mod_every_odd_prime_below_300(self):
        """The table of square roots mod an odd prime is total: a root at a
        nonzero square, 0 at a = 0 and None at a nonresidue, also read at a
        above p, reduced mod p as the sieve reduces D."""
        for p in primes_up_to(300)[1:]:
            squares = {x * x % p for x in range(1, p)}
            table = zeta._square_roots(p)
            assert len(table) == p
            for a in range(p):
                for n in (a, a + 7 * p):
                    root = table[n % p]
                    if a == 0:
                        assert root == 0, (n, p)
                    elif a in squares:
                        assert root * root % p == a and root <= p // 2, (n, p)
                    else:
                        assert root is None, (n, p)

    def test_sieve_reads_square_root_tables_alone(self, monkeypatch):
        """One square-root table read per odd prime p <= sqrt(D/4), and no
        Kronecker symbol: the sieve reads residuosity off its tables."""
        D = 3999980
        expected = zeta._zeta_minus1(D)
        table_reads = []
        square_roots = zeta._square_roots

        def counted_square_roots(p):
            table_reads.append(p)
            return square_roots(p)

        monkeypatch.setattr(zeta, "_square_roots", counted_square_roots)
        assert zeta._zeta_minus1.__wrapped__(D) == expected
        assert table_reads == primes_up_to(math.isqrt(D // 4))[1:]
        assert len(table_reads) == 167
        assert not hasattr(zeta, "kronecker_symbol")

    def test_square_root_tables_stay_inside_the_radicand_cap(self):
        """At the cap's largest discriminant the sieve builds one table per
        odd prime p <= 999, 167 tables of 76,125 entries in all; a small D
        builds none more."""
        zeta._square_roots.cache_clear()
        try:
            zeta._zeta_minus1.__wrapped__(3999980)
            assert zeta._square_roots.cache_info().currsize == 167
            assert sum(len(zeta._square_roots(p)) for p in primes_up_to(999)[1:]) == 76125
            zeta._zeta_minus1.__wrapped__(5)
            assert zeta._square_roots.cache_info().currsize == 167
        finally:
            zeta._square_roots.cache_clear()


class TestZetaTwoNumeric:
    def test_rationals(self):
        value = zeta_F_2_numeric(parse_field("Q"), 64)
        assert abs(float(value) - math.pi**2 / 6) < 1e-15

    def test_sqrt5(self):
        expected = (2 * math.pi) ** 4 * (1 / 30) / (2**2 * 5**1.5)
        value = zeta_F_2_numeric(parse_field("Q(sqrt 5)"), 64)
        assert abs(float(value) - expected) < 1e-12

    def test_sqrt2(self):
        expected = (2 * math.pi) ** 4 * (1 / 12) / (2**2 * 8**1.5)
        value = zeta_F_2_numeric(parse_field("Q(sqrt 2)"), 64)
        assert abs(float(value) - expected) < 1e-12

    @pytest.mark.parametrize("bits", [64, 100, 160])
    def test_precision_is_bits(self, bits):
        # one ulp at bits: the sine route over quadratic fields, pi^2/6 over Q
        ctx = mpmath.mp.clone()
        ctx.prec = bits + 32
        for spec in ("Q", "Q(sqrt 2)", "Q(sqrt 5)", "Q(sqrt 2993)"):
            F = parse_field(spec)
            value = zeta_F_2_numeric(F, bits)
            reference = ctx.pi**2 / 6 if F.d is None else sine_route_zeta_F_2(F.discriminant, bits)
            assert significant_bits(value) <= bits, (F, bits)
            assert ulps_apart(value, reference, bits) <= 1, (F, bits)

    def test_tolerance_floor(self):
        with pytest.raises(ToleranceTooTight):
            functional_equation_check(parse_field("Q"), 1e-13)
        with pytest.raises(ToleranceTooTight):
            functional_equation_check(parse_field("Q"), -1.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, Decimal("NaN"), Decimal("sNaN")])
    def test_non_finite_tolerance(self, tol):
        for spec in ("Q", "Q(sqrt 5)"):
            with pytest.raises(ToleranceTooTight):
                functional_equation_check(parse_field(spec), tol)

    @pytest.mark.parametrize("tol", [math.nan, Decimal("NaN"), Decimal("sNaN")])
    def test_nan_tolerance_has_no_teeth(self, tol):
        # a Decimal NaN signals InvalidOperation on <, so it must be refused before any comparison
        message = rf"^tolerance {re.escape(repr(tol))} is not below 1, so the check has no teeth$"
        with pytest.raises(ToleranceTooTight, match=message):
            functional_equation_check(parse_field("Q(sqrt 5)"), tol)

    @pytest.mark.parametrize("tol", ["0.1", None, 1j, [1e-8]])
    def test_tolerance_that_is_not_a_number(self, tol):
        with pytest.raises(ToleranceTooTight, match=rf"^tolerance {re.escape(repr(tol))} is not a real number$"):
            functional_equation_check(parse_field("Q"), tol)

    @pytest.mark.parametrize("tol", [Decimal("1e-8"), Fraction(1, 10**8), 10**-8])
    def test_tolerance_of_any_real_type(self, tol):
        assert functional_equation_check(parse_field("Q(sqrt 5)"), tol).ok

    @pytest.mark.parametrize("tol", [1.0, 5.0])
    def test_tolerance_without_teeth(self, tol):
        # a tolerance as large as zeta_F(2) > 1 itself gives the check no teeth
        with pytest.raises(ToleranceTooTight):
            functional_equation_check(parse_field("Q(sqrt 5)"), tol)

    @pytest.mark.parametrize("bits", [100.5, "128", True, 0, -5, MAX_PRECISION_BITS + 1])
    def test_precision_bits_outside_the_cli_range(self, bits):
        message = rf"^precision_bits must be None or an int in \[1, 4096\], got {re.escape(repr(bits))}$"
        with pytest.raises(OutOfRange, match=message):
            functional_equation_check(parse_field("Q(sqrt 5)"), 1e-8, precision_bits=bits)

    def test_precision_bits_of_more_than_4300_digits(self):
        # repr() refuses such an int, so the message gives its size
        with pytest.raises(OutOfRange, match=r"^precision_bits must be None or an int in \[1, 4096\], got <int of 16610 bits>$"):
            functional_equation_check(parse_field("Q(sqrt 5)"), 1e-8, precision_bits=10**5000)

    @pytest.mark.parametrize("bits", [None, 1, MAX_PRECISION_BITS])
    def test_precision_bits_in_the_cli_range(self, bits):
        assert functional_equation_check(parse_field("Q(sqrt 5)"), 1e-8, precision_bits=bits).ok

    def test_matches_hurwitz_route(self):
        # the 128-bit reference is good to about D * 2^-128, far inside 2^-100
        for F in real_quadratic_fields_with_disc_up_to(200):
            reference = hurwitz_route_zeta_F_2(F.discriminant, 128)
            for bits in (128, 192):
                value = zeta_F_2_numeric(F, bits)
                assert abs(value - fraction(reference)) <= fraction(reference) / 2**100, (F, bits)

    @pytest.mark.parametrize("bits", [70, 128, 192])
    def test_kernel_matches_sine_route(self, bits):
        # D = 2993 is the largest fundamental discriminant <= 3000; 40028 = 4 * 10007;
        # D = 105, 3405 and 4620 run chains of stride 3, 15 and 6
        fields = real_quadratic_fields_with_disc_up_to(500)
        fields += [parse_field(f"Q(sqrt {d})") for d in (2993, 10007, 3405, 1155)]
        for F in fields:
            value = zeta_F_2_numeric(F, bits)
            reference = sine_route_zeta_F_2(F.discriminant, bits)
            assert ulps_apart(value, reference, bits) <= 1, (F, bits)
            assert float(value) == float(reference), (F, bits)

    @pytest.mark.parametrize("bits", [70, 128, 192])
    def test_kernel_error_bound(self, bits, monkeypatch):
        # before its final rounding the kernel is within 2^-(bits + 4 + D.bit_length())
        # of zeta_F(2) relatively, so the result is within that plus half an ulp;
        # the value before rounding is read by making the rounding exact.  The
        # reference has 64 more bits than the result, so it adds at most
        # 2^-(bits + 60).  The recurrence's error grows like D^3 log D, so the
        # largest D tested carry the most weight.
        # D = 105 (in D <= 500), 3405 and 4620 carry the chain starts' and t_k's error
        fields = real_quadratic_fields_with_disc_up_to(500)
        fields += [parse_field(f"Q(sqrt {d})") for d in (2993, 10007, 3405, 1155)]  # D = 2993, 40028, 3405, 4620
        for F in fields:
            D = F.discriminant
            exact = fraction(sine_route_zeta_F_2(D, bits + 64))
            bound = exact / 2 ** (bits + 4 + D.bit_length()) + exact / 2 ** (bits + 60)
            value = zeta_F_2_numeric(F, bits)
            with monkeypatch.context() as m:
                m.setattr(zeta, "_rounded", lambda num, den, bits: Fraction(num, den))
                unrounded = zeta_F_2_numeric(F, bits)
            assert abs(unrounded - exact) <= bound, (F, bits)
            assert abs(value - exact) <= ulp(value, bits) / 2 + bound, (F, bits)

    def test_values_are_dyadic_at_bits(self):
        for bits in (64, 128, 192):
            for spec in ("Q", "Q(sqrt 5)", "Q(sqrt 10007)"):
                value = zeta_F_2_numeric(parse_field(spec), bits)
                assert type(value) is Fraction, (spec, bits)
                assert value.denominator & (value.denominator - 1) == 0, (spec, bits)
                assert significant_bits(value) <= bits, (spec, bits)

    @pytest.mark.parametrize("bits", [1, 2, 53, 64, 200])
    def test_rounded_matches_libmp(self, bits):
        # ties to even as libmp rounds; exact ties and quotients that round up
        # to 2^bits are drawn on purpose
        rng = random.Random(bits)
        cases = []
        for _ in range(2000):
            cases.append((rng.getrandbits(rng.randint(1, 400)) + 1, rng.getrandbits(rng.randint(1, 400)) + 1))
            half = (2 * (rng.getrandbits(bits) | 1 << (bits - 1)) + 1) << rng.randint(0, 80)
            cases.append((half, 2 << rng.randint(0, 160)))
            below = (1 << rng.randint(bits + 1, bits + 80)) - rng.randint(1, 3)
            cases.append((below, 1 << rng.randint(0, 160)))
        for num, den in cases:
            value = zeta._rounded(num, den, bits)
            expected = Fraction(*libmp.to_rational(libmp.from_rational(num, den, bits, libmp.round_nearest)))
            assert value == expected, (num, den, bits)
            assert value.denominator & (value.denominator - 1) == 0, (num, den, bits)

    @pytest.mark.parametrize(
        "wp, discriminants",
        [(wp, None) for wp in (64, 128, 192, 1024)] + [(4096, (5, 8, 12, 13))],
        ids=["64", "128", "192", "1024", "4096"],
    )
    def test_two_cos_sin_matches_libmp(self, wp, discriminants):
        # every fundamental D <= 12000 (None), or the smallest D, whose pi/D
        # is the series' largest argument, at the largest precision; libmp
        # rounds at wp + 8 bits and truncates to wp, as the kernel once read
        # it, and the reference at wp + 64 bits is within 2^-60 units
        bound = Fraction(6, 10) + Fraction(1, 2**60)  # the docstring's 0.6 eps
        for D in discriminants or [F.discriminant for F in real_quadratic_fields_with_disc_up_to(12000)]:
            t, y = zeta._two_cos_sin_pi_over(D, wp)
            cos, sin = libmp.mpf_cos_sin_pi(libmp.from_rational(1, D, wp + 8), wp + 8, libmp.round_nearest)
            assert abs(t - libmp.to_fixed(cos, wp + 1)) <= 1, (D, wp)
            assert abs(y - libmp.to_fixed(sin, wp)) <= 1, (D, wp)
            cos, sin = libmp.mpf_cos_sin_pi(libmp.from_rational(1, D, wp + 64), wp + 64, libmp.round_nearest)
            assert abs(t - Fraction(*libmp.to_rational(cos)) * 2 ** (wp + 1)) <= bound, (D, wp)
            assert abs(y - Fraction(*libmp.to_rational(sin)) * 2**wp) <= bound, (D, wp)

    def test_monotone_improving(self):
        F = parse_field("Q(sqrt 13)")
        tol = 1e-6
        while tol >= 1e-11:
            coarse = functional_equation_check(F, tol).numeric_side
            fine = functional_equation_check(F, tol / 2).numeric_side
            assert abs(coarse - fine) <= tol
            tol /= 2

    def test_deterministic(self):
        F = parse_field("Q(sqrt 21)")
        assert zeta_F_2_numeric(F, 128) == zeta_F_2_numeric(F, 128)


# (5,) equals NumberField(5) but has no .d: F is checked before it is read
@pytest.mark.parametrize("F", [None, 5, "Q(sqrt 5)", Fraction(5), (5,)])
@pytest.mark.parametrize(
    "call",
    [
        zeta_F_minus1,
        lambda F: zeta_F_2_numeric(F, 64),
        lambda F: functional_equation_check(F, 1e-8),
        pdx_candidates,
    ],
    ids=["zeta_F_minus1", "zeta_F_2_numeric", "functional_equation_check", "pdx_candidates"],
)
def test_a_field_that_is_not_a_number_field(F, call):
    message = rf"^the field must be a NumberField, got {type(F).__name__} {re.escape(repr(F))}$"
    with pytest.raises(ValueError, match=message):
        call(F)


@pytest.mark.parametrize("F", [(5,), [5]])
def test_a_field_that_is_not_a_number_field_on_a_warm_memo(F):
    # the memo holds Q(sqrt 5), a tuple equal to (5,), and a list is unhashable
    assert zeta_F_minus1(NumberField(5)).value == Fraction(1, 30)
    message = rf"^the field must be a NumberField, got {type(F).__name__} {re.escape(repr(F))}$"
    with pytest.raises(ValueError, match=message):
        zeta_F_minus1(F)


@pytest.mark.parametrize("bits", [0, -3, True, 64.0, None, "64", MAX_PRECISION_BITS + 1])
def test_numeric_bits_outside_their_range(bits):
    for spec in ("Q", "Q(sqrt 5)"):
        with pytest.raises(OutOfRange, match=rf"^bits must be an int in \[1, 4096\], got {re.escape(repr(bits))}$"):
            zeta_F_2_numeric(parse_field(spec), bits)


class TestEulerProduct:
    def test_agrees_with_numeric_route(self):
        primes = primes_up_to(10**5)
        for spec in ("Q", "Q(sqrt 5)", "Q(sqrt 2)", "Q(sqrt 13)"):
            F = parse_field(spec)
            truncated = zeta_F_2_euler_product(F, primes)
            reference = float(zeta_F_2_numeric(F, 64))
            assert abs(truncated - reference) < 1e-7, spec

    def test_character_table_periodic_values(self):
        # half a period, 0 <= r <= D/2
        assert character_table(5, 3) == [0, 1, -1]

    def test_character_table_is_the_kronecker_symbol(self):
        for F in real_quadratic_fields_with_disc_up_to(3000):
            D = F.discriminant
            assert character_table(D, D // 2 + 1) == [kronecker_symbol(D, r) for r in range(D // 2 + 1)], D


class TestQuadraticCharacter:
    @pytest.mark.parametrize(
        "D, period",
        [
            (5, [0, 1, -1, -1, 1]),  # 2-part 1: (r/5)
            (12, [0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1]),  # -4 * -3
            (8, [0, 1, 0, -1, 0, -1, 0, 1]),  # 8: +1 at r = +-1 (mod 8)
            (24, [0, 1, 0, 0, 0, 1, 0, -1, 0, 0, 0, -1, 0, -1, 0, 0, 0, -1, 0, 1, 0, 0, 0, 1]),  # -8 * -3
        ],
    )
    def test_each_two_part(self, D, period):
        # three periods, so every factor's codes are repeated past their period
        assert character_table(D, 3 * D) == 3 * period
        assert period == [kronecker_symbol(D, r) for r in range(D)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_residues_of_large_discriminants(self, seed):
        # seed 0 takes D = 2042040 = 8 * 3 * 5 * 7 * 11 * 13 * 17, seven prime
        # discriminants; the others draw a fundamental D within 5% of the cap
        rng = random.Random(seed)
        if seed == 0:
            D = NumberField(510510).discriminant
        else:
            while True:
                d = rng.randrange(MAX_RADICAND * 95 // 100, MAX_RADICAND + 1)
                if is_squarefree(d):
                    break
            D = NumberField(d).discriminant
        chi = zeta._character_table(D, numberfield._odd_prime_factors(D), 2 * D)
        for r in rng.sample(range(2 * D), 2000):
            assert chi[r] == kronecker_symbol(D, r), (D, r)

    def test_half_a_period_at_the_cap_in_under_five_bytes_a_residue(self):
        # D = 3999980 = 4 * 5 * 199999: the table holds one byte a residue,
        # and building it holds the code sums as ints of as many bytes
        D = NumberField(999995).discriminant
        assert D == 3999980
        n = (D - 1) // 2 + 1
        tracemalloc.start()
        try:
            chi = zeta._character_table(D, numberfield._odd_prime_factors(D), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(chi) == n
        assert sum(chi) == 0  # chi_D is even and sums to 0 over a period, so over half of one
        assert peak < 5 * n, peak

    def test_no_byte_of_a_code_sum_carries(self):
        # a byte sums 16 per factor at 0 and 1 per factor at -1, so it holds
        # while 16 times the most prime-discriminant factors of a
        # D <= 4 MAX_RADICAND is below 256; those are the odd primes q, of size
        # q, and a 2-part of size at least 4, so the most is the longest run
        # of 4, 3, 5, 7, 11, ... whose product is at most 4 MAX_RADICAND
        sizes = [4, *primes_up_to(200)[1:]]
        most = max(f for f in range(len(sizes) + 1) if math.prod(sizes[:f]) <= 4 * MAX_RADICAND)
        assert most < len(sizes)
        assert most >= 7  # D = 2042040 = 8 * 3 * 5 * 7 * 11 * 13 * 17
        assert 16 * most < 256, most

    def test_numeric_route_computes_no_kronecker_symbol(self, monkeypatch):
        def refused(D, m):
            raise AssertionError("a zeta route called kronecker_symbol")

        fields = [parse_field(f"Q(sqrt {d})") for d in (2, 3, 5, 6, 1155, 510510)]
        monkeypatch.setattr(numberfield, "kronecker_symbol", refused)
        # D = 3999980 = 4 * 5 * 199999: the sieve reads all 167 of its odd
        # primes' square-root tables
        assert zeta._zeta_minus1.__wrapped__(3999980).value > 0
        for F in fields:
            assert zeta_F_2_numeric(F, 64) > 1, F

    def test_prime_discriminants_come_from_one_trial_division(self, monkeypatch):
        calls = []
        odd_prime_factors = numberfield._odd_prime_factors

        def counted(n):
            calls.append(n)
            return odd_prime_factors(n)

        monkeypatch.setattr(zeta, "_odd_prime_factors", counted)
        # the table takes D's odd primes from its caller's trial division and runs none itself
        for D in (5, 8, 12, 2042040, 3999980):
            odd_primes = odd_prime_factors(D)
            assert list(zeta._character_table(D, odd_primes, 30)) == [kronecker_symbol(D, r) for r in range(30)], D
            assert calls == []

    def test_one_trial_division_per_numeric_call(self, monkeypatch):
        # the kernel takes chi_D's prime discriminants and J_2(D)'s primes from one list
        fields = {D: parse_field(f"Q(sqrt {d})") for D, d in ((5, 5), (8, 2), (12, 3), (2042040, 510510), (3999980, 999995))}
        calls = []
        odd_prime_factors = numberfield._odd_prime_factors

        def counted(n):
            calls.append(n)
            return odd_prime_factors(n)

        monkeypatch.setattr(zeta, "_odd_prime_factors", counted)
        for D, F in fields.items():
            assert F.discriminant == D
            calls.clear()
            zeta_F_2_numeric(F, 64)
            assert calls == [D]


def brute_force_jordan_totient(D):
    """J_2(D) = sum over the divisors k of D of mu(k) * (D/k)^2, with the
    Moebius function mu(k) read off the trial-division factorization of k."""

    def mu(k):
        sign, p = 1, 2
        while k > 1:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                sign = -sign
            p += 1
        return sign

    return sum(mu(k) * (D // k) ** 2 for k in range(1, D + 1) if D % k == 0)


class TestCosecantSquaredIdentity:
    """The numeric kernel divides only at chi_D = +1 and takes the chi_D = -1
    half from sum_(r < D/2, gcd(r, D) = 1) csc^2(pi r / D) = J_2(D) / 6,
    Moebius inversion of sum_(r=1)^(N-1) csc^2(pi r / N) = (N^2 - 1) / 3."""

    def test_half_sum_over_residues_prime_to_D(self):
        ctx = mpmath.mp.clone()
        ctx.prec = 200
        fields = real_quadratic_fields_with_disc_up_to(500)
        fields += [parse_field("Q(sqrt 2993)"), parse_field("Q(sqrt 10007)")]  # D = 2993, 40028
        for F in fields:
            D = F.discriminant
            angle = ctx.pi / D
            total = ctx.fsum(1 / ctx.sin(angle * r) ** 2 for r in range(1, (D + 1) // 2) if math.gcd(r, D) == 1)
            expected = Fraction(brute_force_jordan_totient(D), 6)
            assert abs(fraction(total) - expected) <= expected / 2**150, D


def chain_stride(D):
    """The kernel's stride k: D's smallest primes p, ascending, each taken
    while (k p)^3 <= D and D >= 30 k p (p - 2)."""
    k = 1
    for p in range(2, D):
        if (k * p) ** 3 > D or 30 * k * p * (p - 2) > D:
            break
        if D % p == 0 and all(p % q for q in range(2, p)):
            k *= p
    return k


def stride_one_kernel(F, bits):
    """zeta_F_2_numeric as one stride-1 Chebyshev recurrence over every
    r < D/2, the kernel before its chains: the same guard bits, cos/sin(pi/D)
    and final rounding, with chi_D from kronecker_table and J_2(D) by its
    divisor sum."""
    D = F.discriminant
    b = D.bit_length()
    wp = bits + 2 * b + b.bit_length() + 8
    chi = kronecker_table(D)
    t, y = zeta._two_cos_sin_pi_over(D, wp)
    one = 1 << (3 * wp)
    previous = plus = 0
    for r in range(1, (D + 1) // 2):
        if chi[r] > 0:
            plus += one // (y * y)
        previous, y = y, ((t * y) >> wp) - previous
    total6 = 12 * plus - (brute_force_jordan_totient(D) << wp)
    return zeta._rounded(total6 * libmp.pi_fixed(wp) ** 4, 36 * D * D << 5 * wp, bits)


class SliceLog(array):
    """A character table that logs each slice read from it, with its length."""

    def __new__(cls, table):
        self = super().__new__(cls, "b", table)
        self.reads = []
        return self

    def __getitem__(self, index):
        values = super().__getitem__(index)
        self.reads.append((index, len(values)))
        return values


class TestChainKernel:
    """The kernel steps one chain of stride k per reduced residue mod k, so
    it never reaches an r that shares a prime with k."""

    @pytest.mark.parametrize("bits", [70, 128, 192])
    def test_bit_identical_to_the_stride_one_loop(self, bits):
        # every D <= 500, with k = 1, 2, 3, 5 and 6, and D = 3405, 4620 and 120120, with k = 15, 6 and 30
        fields = real_quadratic_fields_with_disc_up_to(500)
        fields += [parse_field(f"Q(sqrt {d})") for d in (3405, 1155, 30030)]
        assert {chain_stride(F.discriminant) for F in fields} == {1, 2, 3, 5, 6, 15, 30}
        for F in fields:
            assert zeta_F_2_numeric(F, bits) == stride_one_kernel(F, bits), (F, bits)

    @pytest.mark.parametrize(
        "d, k, reads",
        # D = 2042040 = 8 * 3 * 5 * 7 * 11 * 13 * 17, where one chain of
        # stride 1 would read 1,021,019; D = 2993 = 41 * 73 has 41^3 > D,
        # and D = 57 = 3 * 19 is below 30 * 3 * (3 - 2)
        [
            (5, 1, 2),
            (3, 2, 3),
            (105, 3, 35),
            (57, 1, 28),
            (2993, 1, 1496),
            (3405, 15, 908),
            (1155, 6, 770),
            (510510, 30, 272272),
            (999995, 10, 799996),
        ],
    )
    def test_reads_one_character_value_per_residue_prime_to_k(self, d, k, reads, monkeypatch):
        D = NumberField(d).discriminant
        assert chain_stride(D) == k
        assert reads == sum(1 for r in range(1, (D - 1) // 2 + 1) if math.gcd(r, k) == 1)
        tables = []
        character_table = zeta._character_table

        def logged(D, odd_primes, n):
            tables.append(SliceLog(character_table(D, odd_primes, n)))
            return tables[-1]

        monkeypatch.setattr(zeta, "_character_table", logged)
        zeta_F_2_numeric(NumberField(d), 64)
        [table] = tables
        assert len(table) == (D - 1) // 2 + 1
        assert [index for index, _ in table.reads] == [slice(a, None, k) for a in range(1, k + 1) if math.gcd(a, k) == 1]
        assert sum(count for _, count in table.reads) == reads

    @pytest.mark.parametrize("D", [5, 12, 105, 3405, 4620, 120120])
    def test_each_chain_reads_chi_D_along_it(self, D):
        chi = kronecker_table(D)
        half = (D - 1) // 2
        table = zeta._character_table(D, numberfield._odd_prime_factors(D), half + 1)
        k = chain_stride(D)
        chains = [a for a in range(1, k + 1) if math.gcd(a, k) == 1]
        for a in chains:
            assert list(table[a::k]) == [chi[r] for r in range(a, half + 1, k)], (D, a)
        # the chains cover each r <= D/2 prime to k once
        assert sum(len(table[a::k]) for a in chains) == sum(1 for r in range(1, half + 1) if math.gcd(r, k) == 1)


def power_route_rational_side(F, bits):
    """(2 pi)^(2n) / 2^n * D^(-3/2) * |zeta_F(-1)|, the image of zeta_F(-1)
    under the functional equation, as the mpmath expression reads, at
    ``bits`` of precision."""
    ctx = mpmath.mp.clone()
    ctx.prec = bits
    n = F.degree
    z = abs(zeta_F_minus1(F).value)
    return (2 * ctx.pi) ** (2 * n) / 2**n * ctx.mpf(F.discriminant) ** ctx.mpf(-1.5) * z.numerator / z.denominator


def fraction_form_report(F, tol, precision_bits):
    """functional_equation_check as it reads with both sides Fractions: the
    same working precision and rational side, the difference
    abs(numeric - rational), the bound 120 z difference < rational, and the
    report's floats by float()."""
    bits = max(math.ceil(-2 * math.log2(tol)) + 16, precision_bits, 64)
    n, D = F.degree, F.discriminant
    numeric = zeta.zeta_F_2_numeric(F, bits)
    z = abs(zeta.zeta_F_minus1(F).value)
    wp = bits + 16
    top = (z.numerator << n) * libmp.pi_fixed(wp) ** (2 * n)
    bottom = D * z.denominator * math.isqrt(D << 2 * wp) << (2 * n - 1) * wp
    rational = zeta._rounded(top, bottom, bits)
    difference = abs(numeric - rational)
    ok = difference < tol and 120 * z * difference < rational
    return zeta.FunctionalEquationReport(ok, float(numeric), float(rational), float(difference), tol)


class TestFunctionalEquation:
    @pytest.mark.parametrize("tol, bits", [(1e-8, 128), (1e-10, 192)])
    def test_report_equals_the_fraction_form(self, tol, bits):
        for F in [parse_field("Q")] + real_quadratic_fields_with_disc_up_to(500):
            report = functional_equation_check(F, tol, bits)
            assert report.ok, F
            assert report == fraction_form_report(F, tol, bits), F

    def test_wrong_siegel_integer_fails_the_integer_inequality(self, monkeypatch):
        # z off by 1/60 moves the rational side by less than tol = 0.9 at every
        # field (by 0.58 at D = 5), so only the integer inequality can fail it
        monkeypatch.setattr(zeta, "zeta_F_minus1", lambda F: SpecialValue(zeta_F_minus1(F).value + Fraction(1, 60)))
        for F in [parse_field("Q")] + real_quadratic_fields_with_disc_up_to(500):
            report = functional_equation_check(F, 0.9, 128)
            assert report.difference < report.tol, F
            assert not report.ok, F
            assert report == fraction_form_report(F, 0.9, 128), F

    def test_check_applies_no_fraction_operator(self, monkeypatch):
        # both sides are compared as integer pairs; the one Fraction is the
        # value zeta_F_2_numeric returns, read by its numerator and denominator
        def refused(*args):
            raise AssertionError("functional_equation_check applied a Fraction operator")

        for name in FRACTION_OPERATORS + ("__lt__", "__le__", "__gt__", "__ge__", "__abs__", "__neg__", "__float__"):
            monkeypatch.setattr(Fraction, name, refused)
        for spec in ("Q", "Q(sqrt 5)", "Q(sqrt 10007)"):
            assert functional_equation_check(parse_field(spec), 1e-10, 192).ok, spec

    def test_rationals(self):
        assert functional_equation_check(parse_field("Q"), 1e-8).ok

    @pytest.mark.parametrize("tol, bits", [(1e-8, 128), (1e-10, 192)])
    def test_rational_side_matches_power_route(self, tol, bits, monkeypatch):
        # the numeric side is tested above; a stand-in keeps 910 fields cheap
        monkeypatch.setattr(zeta, "zeta_F_2_numeric", lambda F, bits: Fraction(1))
        for F in [parse_field("Q")] + real_quadratic_fields_with_disc_up_to(3000):
            report = functional_equation_check(F, tol, bits)
            assert report.rational_side == float(power_route_rational_side(F, bits + 64)), F

    def test_sqrt5(self):
        report = functional_equation_check(parse_field("Q(sqrt 5)"), 1e-8)
        assert report.ok
        assert abs(report.numeric_side - 1.1615) < 1e-3

    def test_detects_corruption(self, monkeypatch):
        monkeypatch.setattr(zeta, "zeta_F_minus1", lambda F: SpecialValue(Fraction(-1, 10)))
        report = functional_equation_check(parse_field("Q"), 1e-8)
        assert not report.ok

    def test_all_fundamental_discs(self, monkeypatch):
        fields = real_quadratic_fields_with_disc_up_to(500) + [parse_field("Q(sqrt 10007)")]
        for F in fields:
            assert functional_equation_check(F, 1e-8).ok, F
        # zeta_F(-1) lies in (1/60)Z, so a value off by 1/60 is the nearest wrong one
        monkeypatch.setattr(zeta, "zeta_F_minus1", lambda F: SpecialValue(zeta_F_minus1(F).value + Fraction(1, 60)))
        for F in fields:
            assert not functional_equation_check(F, 1e-8).ok, F

    def test_wrong_siegel_integer_is_flagged_up_to_the_cap(self, monkeypatch):
        # at D = 3999980 a zeta_F(-1) off by 1/60 moves the rational side by
        # 8.1e-10, inside tol = 1e-8, so only the integer bound flags it; the
        # numeric side does not read zeta_F(-1), so each field's kernel runs once
        rng = random.Random(60)
        radicands = [5, 100003, 999995]  # D = 5, 400012, 3999980
        while len(radicands) < 5:
            d = round(math.exp(rng.uniform(math.log(10**5 / 4), math.log(MAX_RADICAND))))
            if is_squarefree(d) and 10**5 <= NumberField(d).discriminant:
                radicands.append(d)
        monkeypatch.setattr(zeta, "zeta_F_2_numeric", functools.cache(zeta.zeta_F_2_numeric))
        for d in radicands:
            F = NumberField(d)
            assert functional_equation_check(F, 1e-8).ok, d
            for shift in (Fraction(1, 60), Fraction(-1, 60)):
                with monkeypatch.context() as m:
                    m.setattr(zeta, "zeta_F_minus1", lambda F, shift=shift: SpecialValue(zeta_F_minus1(F).value + shift))
                    assert not functional_equation_check(F, 1e-8).ok, (d, shift)

    def test_large_discriminant_within_two_seconds(self):
        F = parse_field("Q(sqrt 100003)")  # D = 400012
        zeta_F_minus1(F)  # the exact side is timed elsewhere

        def too_slow(signum, frame):
            raise TimeoutError("the functional-equation check at D = 400012 took more than 2 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            report = functional_equation_check(F, 1e-8, precision_bits=128)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert report.ok
        assert report.difference < 2**-120


def test_mpmath_is_imported_once_as_libmp():
    # the package takes only pi from mpmath, as libmp.pi_fixed
    imports = []
    read = set()
    for path in sorted(Path(zeta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names if alias.name.split(".")[0] == "mpmath"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath":
                imports += [(path.name, f"{node.module}.{alias.name}") for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "libmp":
                read.add(node.attr)
    assert imports == [("zeta.py", "mpmath.libmp")]
    assert read == {"pi_fixed"}
