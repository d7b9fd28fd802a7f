"""Correctness reference for the benchmark, independent of ``src/``.

zeta_F(-1) comes from the generalized Bernoulli number B_{2,chi_D}: for the
real quadratic field of fundamental discriminant D,

    zeta_F(-1) = zeta(-1) * L(-1, chi_D) = B_{2,chi}/24 = (1/(24 D)) * sum_{a<D} chi_D(a) a^2

(chi_D is even, so the a and constant terms of B_2(a/D) cancel), and -1/12
over Q.  This is a different route from the divisor lattice sum the package
uses.  Every other expected value follows from zeta_F(-1) and the place data
through the closed forms of the README:

    covolume SL   = |z| / 2^n * prod (q+1)
    covolume PGL  = 2^(delta_2+1) |z| / 2^(2n) * prod (q+1)
    Steinberg PGL = 2 |z| prod (q-1) / 2^|S|,  PSL = 2^|S| PGL,  SL = PSL / 2
    jl ratio SL   = |z| prod (q-1) = |zeta_D(0)/zeta_F(0)|,  PGL = 2 |z| N prod (q-1) / 2^|S|

Run as a script, it reads a JSON list of discriminants on stdin and writes
``{"D": [num, den]}`` on stdout.  The benchmark runs it in a child process so
that numpy never enters the measured process.
"""

import json
import math
import sys
from fractions import Fraction


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D/n) for n >= 0, by the binary Jacobi algorithm."""
    if n == 0:
        return 1 if abs(D) == 1 else 0
    result = 1
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            result = -result
    a = D % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def odd_prime_factors(m: int) -> list[int]:
    factors = []
    while m % 2 == 0:
        m //= 2
    p = 3
    while p * p <= m:
        if m % p == 0:
            factors.append(p)
            while m % p == 0:
                m //= p
        p += 2
    if m > 1:
        factors.append(m)
    return factors


def totient(D: int) -> int:
    """Euler's phi: the number of residues r mod D with chi_D(r) != 0."""
    primes = odd_prime_factors(D) + ([2] if D % 2 == 0 else [])
    for p in primes:
        D = D // p * (p - 1)
    return D


def chi_table(D: int):
    """chi_D(a) for 0 <= a < D as a numpy int64 array.

    chi_D is the product of the characters of the prime discriminants dividing
    D: the Legendre symbol (a/p) for each odd p, times chi_-4, chi_8 or chi_-8
    for the 2-part.
    """
    import numpy as np

    a = np.arange(D, dtype=np.int64)
    chi = np.ones(D, dtype=np.int64)
    for p in odd_prime_factors(D):
        legendre = -np.ones(p, dtype=np.int64)
        legendre[(np.arange(1, p, dtype=np.int64) ** 2) % p] = 1
        legendre[0] = 0
        chi *= legendre[a % p]
    if D % 2 == 0:
        odd = D >> (D & -D).bit_length() - 1
        chi_m4 = np.array([0, 1, 0, -1], dtype=np.int64)[a % 4]
        chi_8 = np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int64)[a % 8]
        if D % 8 == 4:  # D = 4m, m = 3 mod 4: 2-part -4
            chi *= chi_m4
        else:  # D = 8m: 2-part 8 or -8 by m mod 4
            chi *= chi_8 if odd % 4 == 1 else chi_m4 * chi_8
    return chi


def zeta_minus1(D: int) -> Fraction:
    """Exact zeta_F(-1) for the field of discriminant D (D = 1 is Q)."""
    if D == 1:
        return Fraction(-1, 12)
    import numpy as np

    a = np.arange(D, dtype=np.int64)
    # exact in int64: sum a^2 < D^3/3 < 2^62 for D <= 2.4e6
    return Fraction(int(np.dot(chi_table(D), a * a)), 24 * D)


def zeta_values_in_child(discriminants, root) -> dict[int, Fraction]:
    """zeta_F(-1) for each D, computed by this file run as a child process."""
    import subprocess

    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "reference.py")],
        input=json.dumps(sorted(set(discriminants))),
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return {int(D): Fraction(num, den) for D, (num, den) in json.loads(proc.stdout).items()}


# ---- place data and closed forms -------------------------------------------


def discriminant(d: int | None) -> int:
    if d is None:
        return 1
    return d if d % 4 == 1 else 4 * d


def finite_places(d: int | None, primes) -> list[tuple[int, int, int]]:
    """(p, q, e*f) for each finite place chosen by ``primes``, a list of
    (p, selector) pairs.  Raises ValueError for 'both' over a non-split prime."""
    places = []
    for p, selector in primes:
        kind = 1 if d is None else kronecker(discriminant(d), p)
        if selector == "both":
            if kind != 1 or d is None:
                raise ValueError("INVALID_SELECTOR")
            places += [(p, p, 1), (p, p, 1)]
        elif kind == -1:
            places.append((p, p * p, 2))
        else:
            places.append((p, p, 2 if kind == 0 else 1))
    return places


def expected_values(d: int | None, primes, z: Fraction, pd_order: int = 1) -> dict[str, Fraction]:
    """Every exact quantity the benchmark checks at one (F, S) point."""
    n = 1 if d is None else 2
    places = finite_places(d, primes)
    size = n + len(places)
    delta2 = sum(ef for p, _, ef in places if p == 2)
    az = abs(z)
    plus = math.prod(q + 1 for _, q, _ in places)
    minus = math.prod(q - 1 for _, q, _ in places)
    st_pgl = 2 * az * Fraction(minus, 2**size)
    values = {
        "cov_sl": az / 2**n * plus,
        "cov_pgl": Fraction(2 ** (delta2 + 1), 2 ** (2 * n)) * az * plus,
        "st_pgl": st_pgl,
        "st_psl": 2**size * st_pgl,
        "st_sl": 2**size * st_pgl / 2,
    }
    if size % 2 == 0:
        values["jl_sl"] = az * minus
        values["zeta_d"] = az * minus
        values["jl_pgl"] = 2 * az * pd_order * Fraction(minus, 2**size)
    return values


def rational_side(D: int, z: Fraction) -> float:
    """(2 pi)^(2n) / 2^n * D^(-3/2) * |zeta_F(-1)|: zeta_F(2) by the functional equation."""
    n = 1 if D == 1 else 2
    return (2 * math.pi) ** (2 * n) / 2**n * D**-1.5 * float(abs(z))


if __name__ == "__main__":
    out = {}
    for D in json.load(sys.stdin):
        value = zeta_minus1(D)
        out[str(D)] = [value.numerator, value.denominator]
    json.dump(out, sys.stdout)
