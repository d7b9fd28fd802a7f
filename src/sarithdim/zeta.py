"""Exact and numeric special values of the Dedekind zeta function.

zeta_F(-1) is exact: -1/12 over Q, and over a real quadratic field of
discriminant D the divisor lattice sum

    zeta_F(-1) = (1/60) * sum over b^2 < D, b^2 = D (mod 4)
                 of sigma_1((D - b^2)/4),

always an integer divided by 60.  Its about sqrt(D)/2 values (D - b^2)/4
are factored together by one quadratic sieve: each odd prime p <= sqrt(D/4)
divides exactly the values whose b is a square root of D mod p, read from
one cached table of the square roots mod p, so it is stepped to in
arithmetic progressions rather than tried on every value.  The sum costs
about sqrt(D) * log log D.
zeta_F(2) = zeta(2) * L(2, chi_D) is evaluated numerically by an
elementary cosecant sum good to any working precision,

    L(2, chi_D) = (pi^2 / D^2) * sum_{1 <= r < D/2} chi_D(r) * csc^2(pi r / D),

which is the residue-class regrouping of the L-series folded in half by the
trigamma reflection formula (DLMF 5.15.6).  It reads chi_D from one
table of its values below D/2, a byte a residue, summed from the
characters of the prime discriminants dividing D, each a short period: a
Legendre symbol mod an odd prime q, or chi_-4, chi_8 or chi_-8.  So
neither zeta route computes a Kronecker symbol: the exact sieve reads
residuosity off its own table of square roots mod p.  The sum runs
as a fixed-point integer kernel with 2b + b.bit_length() + 8 guard bits
for b = D.bit_length(): sin(pi r / D) is stepped by the three-term
Chebyshev recurrence, one multiply in Python ints a step, in chains of
stride k, where k is a product of D's smallest primes, at most D^(1/3),
taken while they save more steps than their chains cost.  Only
the r prime to k are stepped to, one chain per reduced residue mod k, so
the kernel takes about (D/2) phi(k)/k + k steps.  It divides only at the
residues where chi_D = +1: the csc^2 terms at all residues prime to D
below D/2 sum to exactly J_2(D)/6, where J_2(D) = D^2 prod_(p | D)
(1 - p^-2) is Jordan's totient, by Moebius inversion of
sum_(r=1)^(N-1) csc^2(pi r / N) = (N^2 - 1)/3 (Berndt and Yeap, Adv.
Appl. Math. 29, 2002), so the chi_D = -1 terms are that total less the
chi_D = +1 ones.
2 cos(pi/D) and sin(pi/D) are summed once as a fixed-point Taylor series.
Every numeric value is an exact dyadic Fraction, rounded once to its
working precision; mpmath's libmp supplies only pi as a fixed-point int.
The functional equation

    zeta_F(2) = (2 pi)^(2n) / 2^n * d_F^(-3/2) * |zeta_F(-1)|

ties the exact layer to the numeric one; its check is the one place where
a tolerance becomes a working precision, and it compares the two sides as
integer pairs.
"""

import functools
import math
from array import array
from decimal import Decimal
from fractions import Fraction
from numbers import Real
from typing import NamedTuple

from mpmath import libmp

from .errors import OutOfRange, ToleranceTooTight
from .numberfield import NumberField, _odd_prime_factors, _repr, check_field

#: Field discriminants whose zeta_F(-1) is memoized.  One S-arithmetic computation asks
#: for the value of one field many times; a bounded memo keeps long runs over
#: many distinct fields at constant memory.
ZETA_MEMO_SIZE = 256

#: Largest accepted working precision of zeta_F_2_numeric and of the
#: functional-equation check: at Q(sqrt 997) the check takes 0.04 s at 4,096
#: bits, but at the radicand cap, Q(sqrt 999995), 3.5 s at 1,024 bits and
#: 38 s at 4,096, nearly all in zeta_F_2_numeric's (D/2) phi(k)/k + k =
#: 800,006 steps (k = 10), and peaks at 26 MB RSS, 2 MB of it the table of
#: chi_D (one run each, shared 2-CPU Xeon, Python 3.11.7).  Nothing bounds
#: that time yet; the work budget planned in ROADMAP.md item 2 will.
MAX_PRECISION_BITS = 4096

#: chi_-4, chi_8 and chi_-8 over one period, from r = 0, the characters of
#: the 2-part of a fundamental discriminant, in the byte codes of
#: :func:`_character_table`: 0 at +1, 1 at -1, 16 at 0.
_TWO_PART_CODES = {-4: bytes([16, 0, 16, 1]), 8: bytes([16, 0, 16, 1, 16, 1, 16, 0]), -8: bytes([16, 0, 16, 0, 16, 1, 16, 1])}

#: chi_D at each byte s of a sum of codes: 0 from s = 16 up, else (-1)^s, -1
#: as the byte 255.
_CHARACTER_OF_SUM = bytes(0 if s >= 16 else 255 if s & 1 else 1 for s in range(256))


class SpecialValue(NamedTuple):
    value: Fraction


@functools.cache
def _square_roots(p: int) -> tuple[int | None, ...]:
    """The square roots mod the odd prime p, as a tuple of length p: at a,
    the root x <= p/2 of x^2 = a (mod p), so 0 at a = 0, and None where a
    is a nonresidue.  Each x in [0, p/2] is written at x^2 mod p; the
    other root of a is p - x.

    One table is cached per prime, without a bound: the sieve of
    :func:`_zeta_minus1` asks only for primes p <= isqrt(D // 4), and
    D // 4 is at most the radicand, a squarefree d < MAX_RADICAND = 10^6,
    so p <= 999.  That is at most 167 tables of 76,125 entries in all,
    under 1 MB.
    """
    roots = [None] * p
    for x in range(p // 2 + 1):
        roots[x * x % p] = x
    return tuple(roots)


def zeta_F_minus1(F: NumberField) -> SpecialValue:
    """Exact zeta_F(-1), memoized per field discriminant: -1/12 over Q, over
    a real quadratic field the divisor sum above.

    F must be exactly a NumberField (``numberfield.check_field``), else
    ValueError, checked before the memo, which is keyed on the
    discriminant, so an equal tuple or a list is refused like any other
    value, whatever the memo holds.
    """
    check_field(F)
    return _zeta_minus1(F.discriminant)


@functools.lru_cache(maxsize=ZETA_MEMO_SIZE)
def _zeta_minus1(D: int) -> SpecialValue:
    """zeta_F(-1) of the field of discriminant D (Q at D = 1), memoized for
    :func:`zeta_F_minus1`.

    Over a real quadratic field the divisor sum above, by one sieve pass
    over the values m_t = (D - b^2)/4 with b = 2t + (D mod 2) >= 0.  Each
    m_t loses its power of 2 by its trailing zeros.  An odd prime p divides
    m_t exactly when b^2 = D (mod p), that is b = +-r for the root
    r = _square_roots(p)[D % p]: never when it is None, at b = 0 (mod p)
    when it is 0 (p divides D), and else at +-r, so the t it divides run
    through t = (+-r - (D mod 2)) / 2 (mod p).  At each, the
    full power p^a is divided out and sigma_1(p^a) multiplied in.  After
    every p <= sqrt(D/4), what is left of m_t is 1 or a prime, which
    contributes m_t + 1.  Every b > 0 stands for b and -b.  The value is
    positive, and its denominator divides 60.
    """
    if D == 1:
        return SpecialValue(Fraction(-1, 12))
    odd = D % 2
    m = [(D - b * b) >> 2 for b in range(odd, math.isqrt(D) + 1, 2)]
    twos = [(v & -v).bit_length() - 1 for v in m]
    m = [v >> a for v, a in zip(m, twos)]
    sigma = [(2 << a) - 1 for a in twos]
    for p in primes_up_to(math.isqrt(D // 4))[1:]:
        r = _square_roots(p)[D % p]
        if r is None:
            continue
        half = (p + 1) // 2  # the inverse of 2 mod p
        for start in {(r - odd) * half % p, (-r - odd) * half % p}:
            for t in range(start, len(m), p):
                v, power = m[t] // p, p
                term = 1 + p
                while v % p == 0:
                    v //= p
                    power *= p
                    term += power
                m[t] = v
                sigma[t] *= term
    terms = [s * (v + 1) if v > 1 else s for s, v in zip(sigma, m)]
    # b = 0, the one b without a partner -b, is t = 0 when D is even
    return SpecialValue(Fraction(2 * sum(terms) - (0 if odd else terms[0]), 60))


def _character_table(D: int, odd_primes: list[int], n: int) -> array:
    """chi_D(r) for 0 <= r < n, one signed byte a residue, for the
    fundamental discriminant D whose odd primes, from the one trial
    division that numberfield's squarefree test runs too, are
    ``odd_primes``.

    chi_D is the product of the characters of D's prime discriminants:
    q* = +-q = 1 (mod 4) for each odd q, a Legendre symbol (r/q) read off
    the squares x^2 mod q, and, unless the 2-part D / prod q* is 1, chi_-4,
    chi_8 or chi_-8.  Each is written over one period as byte codes, 0 at
    +1, 1 at -1 and 16 at 0, repeated to n bytes and read as one
    little-endian int, and the ints are added: a byte of the sum is 16
    times the factors at 0 plus the factors at -1.  No byte carries while
    16 times the number of factors is below 256; a D <= 4 MAX_RADICAND has
    at most 7, as a 2-part is at least 4 in size and
    4 * 3 * 5 * 7 * 11 * 13 * 17 * 19 > 4 * 10^6.  One
    bytes.translate maps each sum to chi_D: 0 from 16 up, else -1 at an
    odd count of -1s and +1 at an even one.
    """
    periods = []
    two = D
    for q in odd_primes:
        period = bytearray([1]) * q
        period[0] = 16
        for x in range(1, (q + 1) // 2):
            period[x * x % q] = 0
        periods.append(period)
        two //= q if q % 4 == 1 else -q
    if two != 1:
        periods.append(_TWO_PART_CODES[two])
    total = sum(int.from_bytes((period * (n // len(period) + 1))[:n], "little") for period in periods)
    return array("b", total.to_bytes(n, "little").translate(_CHARACTER_OF_SUM))


def primes_up_to(n: int) -> list[int]:
    """Ascending primes <= n."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i, is_p in enumerate(flags) if is_p]


def _rounded_terms(num: int, den: int, bits: int) -> tuple[int, int]:
    """The positive rational num/den rounded to ``bits`` significant bits,
    ties to even, as an unreduced (numerator, denominator) pair whose
    denominator is a power of two: one integer division, by a shift chosen
    so that its quotient has exactly ``bits`` bits (Brent and Zimmermann,
    Modern Computer Arithmetic, 2010, ch. 3)."""
    e = bits + den.bit_length() - num.bit_length()
    num, den = (num << e, den) if e >= 0 else (num, den << -e)
    if num >= den << bits:
        e -= 1
        den <<= 1
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return (q, 1 << e) if e >= 0 else (q << -e, 1)


def _rounded(num: int, den: int, bits: int) -> Fraction:
    """:func:`_rounded_terms` as a Fraction."""
    return Fraction(*_rounded_terms(num, den, bits))


def _two_cos_sin_pi_over(D: int, wp: int) -> tuple[int, int]:
    """t = 2 cos(pi/D) and y_1 = sin(pi/D) for D >= 5, scaled by 2^wp and
    rounded to ints, each within 0.6 eps for eps = 2^-wp: inside the
    1.01 eps that the error bound of :func:`zeta_F_2_numeric` assumes.

    Both are computed at W = wp + 16 bits, in units u = 2^-W.  x = pi/D
    is pi_fixed(W) // D, within 2u, and x^2 one floored product, within
    3.6u as x <= pi/5 < 0.63.  sin(x) is the Taylor series
    x - x^3/3! + x^5/5! - ..., each term the last times x^2 / (m (m + 1)),
    one product floored to W bits and one floored division by a small int
    (Brent and Zimmermann, Modern Computer Arithmetic, 2010, ch. 4).  An
    error e in one term leaves the next within (0.4 e + 2.3u) / 6 + u, so
    every term is within 2u.  A term is below 2^W / (2j + 1)! when 2j + 1
    is its power of x, so the terms are 0 from 2j + 1 >= W/2 on, since
    (W/2)! > 2^W, and the series stops at its first zero term, after at
    most W/4 + 1 terms.  The terms fall by more than 15 a step, so what is
    left off is below the first term left off, which is within 2u of 0;
    so sin(x) is within W/2 + 4 < 2^12 units, as W < 8000 here.
    cos(x) = sqrt(1 - sin(x)^2), by one math.isqrt, is within tan(pi/5)
    < 0.73 times that plus u.  Rounded to wp bits, y_1 is within
    eps/2 + 2^-4 eps and t, twice cos(x), within eps/2 + 0.092 eps.
    """
    W = wp + 16
    x = libmp.pi_fixed(W) // D
    x2 = x * x >> W
    sin = term = x
    m = 2
    while term:
        term = (term * x2 >> W) // (m * (m + 1))
        sin -= term
        term = (term * x2 >> W) // ((m + 2) * (m + 3))
        sin += term
        m += 4
    cos = math.isqrt((1 << 2 * W) - sin * sin)
    return (cos + (1 << 14)) >> 15, (sin + (1 << 15)) >> 16


def zeta_F_2_numeric(F: NumberField, bits: int) -> Fraction:
    """zeta_F(2) within one ulp at ``bits`` of precision, as a dyadic
    Fraction of at most ``bits`` significant bits.

    Over Q this is pi^2/6, squared from pi at 8 guard bits and rounded once
    to ``bits``.  Over a quadratic field of discriminant D,
    zeta_F(2) = zeta(2) * L(2, chi_D).  Regrouping the L-series into
    residue classes mod D gives D^-2 * sum_{r=1}^{D-1} chi(r) * psi'(r/D),
    with psi' the trigamma function.  chi_D is even for real quadratic F,
    so pairing r with D - r and applying the reflection formula
    psi'(x) + psi'(1 - x) = pi^2 csc^2(pi x) (DLMF 5.15.6) leaves

        L(2, chi) = (pi^2 / D^2) * sum_{1 <= r < D/2} chi(r) * csc^2(pi r / D)

    (the middle residue D/2 of an even D is not prime to D).  Both steps
    are exact, so the only error is evaluation error.

    The sum is a fixed-point integer kernel at wp = bits + g bits, with
    g = 2b + b.bit_length() + 8 guard bits for b = D.bit_length().  With
    theta = pi/D, t = 2 cos(theta) and y_1 = sin(theta) are computed once,
    as integers scaled by 2^wp (:func:`_two_cos_sin_pi_over`), and y_0 = 0.
    The stride k is the product of D's smallest primes p, 2 first, each
    taken while (k p)^3 <= D and D >= 30 k p (p - 2): a prime p saves
    (D/2) phi(k)/(k p) steps and adds phi(k) (p - 2) chains, and the rule
    charges each chain 15 steps, several times what its set-up costs.  The
    Chebyshev recurrence y_(r+1) = floor(t * y_r / 2^wp) - y_(r-1) gives
    y_2, ..., y_k, and the same recurrence in t, from t_0 = 2 and t_1 = t,
    gives t_k = 2 cos(k theta), each in k - 1 steps.  Then for each a in
    [1, k] prime to k one chain visits r = a, a + k, a + 2k, ... < D/2 by
    y_(r+k) = floor(t_k * y_r / 2^wp) - y_(r-k), one multiply a step, from
    y_a and y_(a-k) = -y_(k-a), as sine is odd.  So y_r is sin(r theta)
    scaled by 2^wp, and no r sharing a prime with k, where chi(r) = 0, is
    stepped to: (D/2) phi(k)/k + k steps in all.  At k = 1 the one chain
    is the stride-1 recurrence from y_0 and y_1.  Where chi(r) = +1,
    floor(2^(3 wp) / y_r^2), which is csc^2(r theta) scaled by 2^wp, goes
    into an integer total ``plus``; chi(r) is read along each chain as the
    slice chi[a::k] of one table of chi_D below D/2
    (:func:`_character_table`), D/2 bytes.  No division
    is made where chi(r) = -1: the residues prime to D below D/2 have
    csc^2 sum exactly J_2(D)/6, with Jordan's totient
    J_2(D) = D^2 prod_(p | D) (1 - p^-2) (Moebius inversion over the
    divisors of D of sum_(r=1)^(N-1) csc^2(pi r / N) = (N^2 - 1)/3, halved
    by r <-> D - r), so the chi = -1 terms sum to J_2(D)/6 - plus and the
    sum is 2 plus - J_2(D)/6.  J_2's primes are the ones chi_D is built
    from, found by one trial division.  The terms are floored ints, so
    their total does not depend on the order of the chains, and results
    are reproducible bit for bit.  In integer units six times the sum is
    12 plus - J_2(D) 2^wp; that times pi^4 / (36 D^2), with pi scaled by
    2^wp, is rounded once to ``bits``.

    Error bound, with eps = 2^-wp: t and y_1 are each within 1.01 eps.  A
    step of the stride-1 recurrence adds at most 2.01 eps (the error in t
    times |y_r| <= 1, and eps for the floor).  An error made at step i
    reaches y_r multiplied by U_(r-1-i)(cos theta), the Chebyshev
    polynomial of the second kind, and |U_m| <= m + 1, so y_r is within
    1.01 r eps + 1.005 r (r - 1) eps <= 1.01 r^2 eps of sin(r theta); that
    bounds y_0 .. y_k, and every y_r at k = 1.  The recurrence in t, whose
    values are at most 2 in size, adds at most 3.02 eps a step, so t_k is
    within 1.01 k eps + 1.51 k (k - 1) eps <= 1.51 k^2 eps of
    2 cos(k theta).  Along a chain z_m = y_(a + m k), an error in z_0
    reaches z_m multiplied by U_m(cos k theta), one in z_(-1) by U_(m-1),
    and each step adds at most (1.51 k^2 + 1) eps, so z_m is within
    1.01 ((m + 1) a^2 + m (k - a)^2) eps + (1.51 k^2 + 1) m (m + 1)/2 eps.
    For m >= 1 and k >= 2, with s = m k, (m + 1) a^2 + m (k - a)^2 <=
    a^2 + m k^2 = a^2 + s k, k <= s, k^2 m (m + 1) = s^2 + s k and
    m (m + 1)/2 <= m^2 <= s^2/4, so that is at most
    (1.01 a^2 + 2.77 s^2) eps <= 2.77 r^2 eps for r = a + s.  Since
    sin(r theta) >= 2r/D below D/2, the csc^2 term at r is off by at most
    0.693 D^3 eps / r, and the terms of ``plus`` together by at most
    0.693 D^3 eps (ln D + 0.31); the floors add at most D eps / 2.
    J_2(D)/6 is exact, so only ``plus`` carries error, and the sum
    2 plus - J_2(D)/6 carries twice it.  Scaled by pi^4 / (6 D^2), with pi
    within eps, that is below 23 D (ln D + 0.31) eps, as k >= 2 only for
    D >= 8 (at k = 1 the 1.01 r^2 bound gives below 9 D (ln D + 0.31) eps).
    As D < 2^b, 23 (ln D + 0.31) < 15.95 b + 7.2 < 16 (b + 1), and
    b + 1 <= 2^b.bit_length(), so the error is below 2^-(bits + 4 + b).
    As zeta_F(2) > 1, the value rounded to ``bits`` is within one ulp of
    zeta_F(2).

    An F that is not exactly a NumberField is a ValueError; then ``bits``
    must be an int in [1, MAX_PRECISION_BITS], else OutOfRange.
    """
    check_field(F)
    if not (type(bits) is int and 1 <= bits <= MAX_PRECISION_BITS):
        raise OutOfRange(f"bits must be an int in [1, {MAX_PRECISION_BITS}], got {_repr(bits)}")
    if F.d is None:
        wp = bits + 8
        pi = libmp.pi_fixed(wp)
        return _rounded(pi * pi, 6 << 2 * wp, bits)
    D = F.discriminant
    b = D.bit_length()
    wp = bits + 2 * b + b.bit_length() + 8
    odd_primes = _odd_prime_factors(D)
    jordan = D * D  # J_2(D) = D^2 * prod_(p | D) (1 - p^-2)
    k = 1  # D's smallest primes, 2 first, while their chains pay: see above
    for p in odd_primes if D % 2 else [2, *odd_primes]:
        jordan = jordan // (p * p) * (p * p - 1)
        if k * k * k * p * p * p <= D and 30 * k * p * (p - 2) <= D:
            k *= p
    t, y = _two_cos_sin_pi_over(D, wp)
    # y_0 .. y_k and t_k = 2 cos(k theta) by the stride-1 recurrence, t_k from 2 and t
    ys = [0, y]
    tk, previous = t, 2 << wp
    for _ in range(k - 1):
        ys.append(((t * ys[-1]) >> wp) - ys[-2])
        tk, previous = ((t * tk) >> wp) - previous, tk
    half = (D - 1) // 2
    chi = _character_table(D, odd_primes, half + 1)
    one = 1 << (3 * wp)
    plus = 0
    for a in range(1, k + 1):
        if math.gcd(a, k) != 1:
            continue
        # the chain r = a, a + k, ... <= half, from y_a and y_(a-k) = -y_(k-a)
        previous, y = -ys[k - a], ys[a]
        for c in chi[a::k]:
            if c == 1:
                plus += one // (y * y)
            previous, y = y, ((tk * y) >> wp) - previous
    # the chi = -1 terms are J_2(D)/6 - plus, so 6 * the sum is 12 plus - J_2(D)
    total6 = 12 * plus - (jordan << wp)
    return _rounded(total6 * libmp.pi_fixed(wp) ** 4, 36 * D * D << 5 * wp, bits)


class FunctionalEquationReport(NamedTuple):
    ok: bool
    numeric_side: float
    rational_side: float
    difference: float
    tol: float


def functional_equation_check(
    F: NumberField, tol: float, precision_bits: int | None = None
) -> FunctionalEquationReport:
    """Check zeta_F(2) numerically against the image of zeta_F(-1) under the
    functional equation, to absolute tolerance tol, and check that the
    numeric side pins 60 * zeta_F(-1) as an integer.

    An F that is not exactly a NumberField is a ValueError.  This is the one place
    a tolerance is validated and sized: tol must be a
    real number (a Decimal included) that gives its exact value by
    ``as_integer_ratio``, as int, float, Fraction and Decimal do, in
    [1e-12, 1), else ToleranceTooTight
    (zeta_F(2) > 1 passes any looser check), and ``precision_bits`` must be
    None or an int in [1, MAX_PRECISION_BITS], else OutOfRange.  The working precision is twice
    the target bits -log2(tol), rounded up, plus 16 guard bits, and at
    least 64 and at least ``precision_bits``.

    Both sides are dyadic rationals rounded to those bits, held as integer
    (numerator, denominator) pairs, and both tests compare them by
    cross-multiplication, so they are exact; the report's floats are int
    true divisions, each the correctly rounded value.  The rational side is
    c * z, with
    c = 2^n pi^(2n) / (D sqrt D) and z = |zeta_F(-1)|, formed in ints from
    pi and sqrt(D) scaled by 2^(bits + 16) and rounded once.  As 60 z is an
    integer, a wrong z moves it by at least c / 60, so the check passes only
    when the difference is below tol and below c / 120, which is
    rational_side / (120 z) whatever z is claimed: the recovery
    nint(60 * numeric_side / c) = 60 z as one integer inequality.  It is the
    same computation as the tolerance check, made exact, not a third route.
    With valid input the difference is at most the numeric side's ulp plus
    half an ulp and 2^-(bits + 8) relative of the rational side, below
    zeta_F(2) * 2^(2 - bits), so the integer bound holds whenever
    bits >= (60 z).bit_length() + 4; below MAX_RADICAND, 60 z has at most
    31 bits, and bits >= 64.
    """
    check_field(F)
    if not (isinstance(tol, (Real, Decimal)) and hasattr(tol, "as_integer_ratio")):
        raise ToleranceTooTight(f"tolerance {_repr(tol)} is not a real number")
    # nan and +inf included; a Decimal NaN signals on <, so it is asked first
    if isinstance(tol, Decimal) and tol.is_nan() or not tol < 1:
        raise ToleranceTooTight(f"tolerance {_repr(tol)} is not below 1, so the check has no teeth")
    if tol < 1e-12:
        raise ToleranceTooTight(f"tolerance {_repr(tol)} below the supported floor of 1e-12")
    if precision_bits is not None and not (type(precision_bits) is int and 1 <= precision_bits <= MAX_PRECISION_BITS):
        raise OutOfRange(f"precision_bits must be None or an int in [1, {MAX_PRECISION_BITS}], got {_repr(precision_bits)}")
    bits = max(math.ceil(-2 * math.log2(tol)) + 16, precision_bits or 0, 64)
    n = F.degree
    D = F.discriminant
    numeric_side = zeta_F_2_numeric(F, bits)
    a, A = numeric_side.numerator, numeric_side.denominator
    z = zeta_F_minus1(F).value
    zn, zd = abs(z.numerator), z.denominator
    # 2^n pi^(2n) z / (D sqrt D), with pi and sqrt D scaled by 2^wp
    wp = bits + 16
    top = (zn << n) * libmp.pi_fixed(wp) ** (2 * n)
    bottom = D * zd * math.isqrt(D << 2 * wp) << (2 * n - 1) * wp
    r, R = _rounded_terms(top, bottom, bits)
    # |a/A - r/R| = dn/dd; difference < tol and 120 z difference < r/R
    dn, dd = abs(a * R - r * A), A * R
    tn, td = tol.as_integer_ratio()
    ok = dn * td < tn * dd and 120 * zn * dn * R < r * zd * dd
    return FunctionalEquationReport(ok, a / A, r / R, dn / dd, tol)
