"""Exact and numeric special values of the Dedekind zeta function.

zeta_F(-1) is exact: -1/12 over Q, and over a real quadratic field of
discriminant D the divisor lattice sum

    zeta_F(-1) = (1/60) * sum over b^2 < D, b^2 = D (mod 4)
                 of sigma_1((D - b^2)/4),

always an integer divided by 60, with sigma_1 computed from the
factorization of its argument.  zeta_F(2) = zeta(2) * L(2, chi_D) is
evaluated numerically by two independent routes: an elementary cosecant sum
good to any working precision,

    L(2, chi_D) = (pi^2 / D^2) * sum_{1 <= r < D/2} chi_D(r) * csc^2(pi r / D),

which is the residue-class regrouping of the L-series folded in half by the
trigamma reflection formula (DLMF 5.15.6), and a truncated Euler product
used for cross-checks.  The cosecant sum runs as a fixed-point integer
kernel: exp(i pi r / D) is stepped by one complex multiply in Python ints
per residue, with 2 * D.bit_length() + 8 guard bits, and only the total
becomes an mpmath number, within one ulp of zeta_F(2) at the working
precision.  Each working precision has one mpmath context, cloned once and
never mutated.  The functional equation

    zeta_F(2) = (2 pi)^(2n) / 2^n * d_F^(-3/2) * |zeta_F(-1)|

ties the exact layer to the numeric one.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import libmp

from .errors import ToleranceTooTight
from .numberfield import NumberField, kronecker_symbol

#: Fields whose zeta_F(-1) is memoized.  One S-arithmetic computation asks
#: for the value of one field many times; a bounded memo keeps long runs over
#: many distinct fields at constant memory.
ZETA_MEMO_SIZE = 256

#: Working precisions whose mpmath context is kept.  Callers use a handful:
#: the CLI asks for one per process, and the default tolerance alone gives
#: 70 bits.
PRECISION_CONTEXTS = 8


@dataclass(frozen=True)
class SpecialValue:
    value: Fraction


def sum_of_divisors(n: int) -> int:
    """sigma_1(n), the sum of the positive divisors of n >= 1.

    sigma_1 is multiplicative: trial division factors n, each prime power
    p^a contributes 1 + p + ... + p^a, and the cofactor m > 1 left once the
    trial divisor k passes sqrt(m) is prime and contributes m + 1.
    """
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


@functools.lru_cache(maxsize=ZETA_MEMO_SIZE)
def zeta_F_minus1(F: NumberField) -> SpecialValue:
    """Exact zeta_F(-1), memoized per field.

    Over Q the classical value -1/12.  Over a real quadratic field the
    divisor sum above, the only place the O(D) sum runs; it is positive,
    and the denominator divides 60.
    """
    if F.d is None:
        return SpecialValue(Fraction(-1, 12))
    D = F.discriminant
    total = 0
    b = 0
    while b * b < D:
        if (D - b * b) % 4 == 0:
            # b and -b both contribute for b > 0
            total += (2 if b else 1) * sum_of_divisors((D - b * b) // 4)
        b += 1
    return SpecialValue(Fraction(total, 60))


def quadratic_character_table(D: int) -> list[int]:
    """chi_D(r) for 0 <= r < D: the quadratic character attached to the
    fundamental discriminant D, periodic mod D."""
    return [kronecker_symbol(D, r) for r in range(D)]


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


def _working_prec_bits(tol: float, precision_bits: int | None) -> int:
    if not math.isfinite(tol):
        raise ToleranceTooTight(f"tolerance {tol} is not a finite number")
    if tol < 1e-12:
        raise ToleranceTooTight(f"tolerance {tol} below the supported floor of 1e-12")
    # at least twice the target digits, plus guard bits
    target_bits = max(-math.log2(tol), 1.0)
    return max(int(math.ceil(2 * target_bits)) + 16, precision_bits or 0, 64)


@functools.lru_cache(maxsize=PRECISION_CONTEXTS)
def _context(bits: int) -> mpmath.ctx_mp.MPContext:
    """The mpmath context at ``bits`` of precision, cloned once per precision
    and never mutated afterwards, so concurrent callers share it safely.
    It is the ``.context`` of every mpf this module returns; callers must
    not change its precision."""
    ctx = mpmath.mp.clone()
    ctx.prec = bits
    return ctx


def zeta_F_2_numeric(F: NumberField, tol: float, precision_bits: int | None = None) -> mpmath.mpf:
    """zeta_F(2) to within tol (finite, tol >= 1e-12).

    Over Q this is pi^2/6.  Over a quadratic field of discriminant D,
    zeta_F(2) = zeta(2) * L(2, chi_D).  Regrouping the L-series into
    residue classes mod D gives D^-2 * sum_{r=1}^{D-1} chi(r) * psi'(r/D),
    with psi' the trigamma function.  chi_D is even for real quadratic F,
    so pairing r with D - r and applying the reflection formula
    psi'(x) + psi'(1 - x) = pi^2 csc^2(pi x) (DLMF 5.15.6) leaves

        L(2, chi) = (pi^2 / D^2) * sum_{1 <= r < D/2} chi(r) * csc^2(pi r / D)

    (the middle residue D/2 of an even D is not prime to D).  Both steps
    are exact, so the only error is evaluation error.

    The sum is a fixed-point integer kernel at wp = bits + g bits, with
    g = 2 * D.bit_length() + 8 guard bits on top of the working precision
    ``bits`` (at least twice the requested digits).  cos(pi/D) and
    sin(pi/D) are computed once, as integers scaled by 2^wp; each step
    rotates z_r = exp(i pi r / D) by one complex multiply in Python ints,
    and chi(r) * floor(2^(3 wp) / (Im z_r)^2), which is csc^2(pi r / D)
    scaled by 2^wp, goes into an integer total.  The residues are summed in
    fixed ascending order, so results are reproducible bit for bit.

    Error bound, with eps = 2^-wp: the truncated cos and sin and each
    truncating step put z_r within 3 r eps of exp(i pi r / D).  Since
    sin(pi r / D) >= 2r/D below D/2, every csc^2 term is off by a relative
    3 D eps at most, and the half-range sum of csc^2 is below D^2/6, so the
    total is off by at most D^3 eps / 2 (the floors add at most D eps / 2).
    Scaled by pi^4 / (6 D^2), that is 8.2 D eps, below 2^-(bits + 4) times
    2^-D.bit_length(); as zeta_F(2) > 1, the value rounded to ``bits`` is
    within one ulp of zeta_F(2).
    """
    bits = _working_prec_bits(tol, precision_bits)
    ctx = _context(bits)
    if F.d is None:
        return ctx.pi**2 / 6
    D = F.discriminant
    wp = bits + 2 * D.bit_length() + 8
    cos, sin = libmp.mpf_cos_sin_pi(libmp.from_rational(1, D, wp + 8), wp + 8, libmp.round_nearest)
    c, s = libmp.to_fixed(cos, wp), libmp.to_fixed(sin, wp)
    one = 1 << (3 * wp)
    x, y = c, s
    total = 0
    for r in range(1, (D + 1) // 2):
        chi = kronecker_symbol(D, r)
        if chi > 0:
            total += one // (y * y)
        elif chi:
            total -= one // (y * y)
        x, y = (x * c - y * s) >> wp, (x * s + y * c) >> wp
    pi4 = libmp.mpf_pow_int(libmp.mpf_pi(wp), 4, wp)
    value = libmp.mpf_mul(libmp.from_man_exp(total, -wp), pi4, wp)
    return ctx.make_mpf(libmp.mpf_div(value, libmp.from_int(6 * D * D), bits, libmp.round_nearest))


def zeta_F_2_euler_product(F: NumberField, prime_bound: int, primes: list[int] | None = None) -> float:
    """Truncated Euler-product route to zeta_F(2), for cross-checks.

    The factor common to every field, prod_p (1 - p^-2)^-1 = zeta(2), is
    folded into its closed form pi^2/6; only the character factors
    (1 - chi(p) p^-2)^-1 are truncated at ``prime_bound``.  Truncating the
    common factor as well would plateau near 7e-8 at a bound of 10^6, while
    the character tail oscillates and is orders of magnitude smaller
    (measured < 2e-10 for every discriminant <= 200 at that bound), so
    this split is what makes a desk-scale bound usable.  Factors are
    multiplied in ascending-prime order; double-precision rounding
    (~1e-13) is negligible against the truncation term.

    ``primes`` may supply a precomputed ascending prime list covering
    ``prime_bound``, to amortize the sieve across many fields.
    """
    if F.d is None:
        return math.pi**2 / 6
    D = F.discriminant
    chi = quadratic_character_table(D)
    if primes is None:
        primes = primes_up_to(prime_bound)
    product = 1.0
    for p in primes:
        if p > prime_bound:
            break
        c = chi[p % D]
        if c:
            product *= 1.0 / (1.0 - c / (p * p))
    return math.pi**2 / 6 * product


@dataclass(frozen=True)
class FunctionalEquationReport:
    ok: bool
    numeric_side: float
    rational_side: float
    difference: float
    tol: float


def functional_equation_check(
    F: NumberField,
    tol: float,
    zeta_minus1: Fraction | None = None,
    precision_bits: int | None = None,
) -> FunctionalEquationReport:
    """Check zeta_F(2) numerically against the image of zeta_F(-1) under the
    functional equation, to absolute tolerance tol.

    ``zeta_minus1`` overrides the computed exact value; feeding a wrong
    value makes the check fail, which is how its tests prove it has teeth.
    """
    if zeta_minus1 is None:
        zeta_minus1 = zeta_F_minus1(F).value
    n = F.degree
    bits = _working_prec_bits(tol, precision_bits)
    ctx = _context(bits)
    numeric_side = zeta_F_2_numeric(F, tol, precision_bits=bits)
    z = abs(zeta_minus1)
    rational_side = (
        (2 * ctx.pi) ** (2 * n)
        / 2**n
        * ctx.mpf(F.discriminant) ** ctx.mpf("-1.5")
        * ctx.mpf(z.numerator)
        / z.denominator
    )
    difference = abs(numeric_side - rational_side)
    ok = bool(difference < tol)
    return FunctionalEquationReport(ok, float(numeric_side), float(rational_side), float(difference), tol)
