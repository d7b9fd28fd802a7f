"""Base fields (Q or a real quadratic field), their places, and S-sets.

A place is an equivalence class of absolute values of the field: each real
embedding gives a real place, each prime ideal a finite place with
ramification index e, inertia degree f and residue cardinality q = p^f.
An S-set is a finite set of places containing every real place; its finite
part determines the ring of S-integers.

Each fact is stored once: a field is Q exactly when its radicand d is None,
a place is real exactly when its prime p is None, and the real places of an
S-set are the field's degree many.
"""

import bisect
import re
from dataclasses import dataclass

from .errors import (
    DuplicatePlace,
    InvalidSelector,
    MalformedSpec,
    NotSquarefree,
    NotTotallyReal,
    UnsupportedField,
    UnsupportedPrime,
)

#: Largest accepted radicand d of Q(sqrt d).  Above it the trial-division
#: squarefree test, O(sqrt d), and the zeta layers stop being desk scale:
#: the Siegel sum takes O(sqrt D) divisor sums, each by trial division up to
#: sqrt(D/4), and the numeric zeta_F(2) oracle one fixed-point rotation and
#: one Kronecker symbol per residue below D/2.  At the cap (D up to 4 * 10^6)
#: ``zeta --field`` takes about 4 s on a 2-CPU Xeon, nearly all of it in the
#: numeric oracle.
MAX_RADICAND = 10**6

#: Largest accepted rational prime below a finite place, under the bound
#: 3.3 * 10^24 up to which :func:`is_prime` is exact.
MAX_PRIME = 10**24

#: The first 13 primes, the Miller-Rabin bases of :func:`is_prime`.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: psi_k for k = 1..13, the least odd composite that is a strong probable
#: prime to each of the first k prime bases (OEIS A014233; Jaeschke 1993,
#: Sorenson and Webster 2015): below psi_k the first k bases decide
#: primality exactly.
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)

_QUADRATIC_RE = re.compile(r"Q\(sqrt (-?)(\d+)\)")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 3.3 * 10^24.

    Trial division by the 13 bases settles every n < 43^2 and every n with a
    base as a factor.  Any other n below psi_13 = 3317044064679887385961981
    is prime exactly when it is a strong probable prime to the first k
    bases, for the least k with n < psi_k; above psi_13 all 13 bases run
    and the answer is only probable.
    """
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES[: bisect.bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_squarefree(n: int) -> bool:
    if n < 1 or n % 4 == 0:
        return False
    # any other square factor has an odd prime p, and p^2 divides n
    k = 3
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 2
    return True


@dataclass(frozen=True)
class NumberField:
    """Q (d is None), or the real quadratic field of squarefree radicand d > 1."""

    d: int | None = None

    def __post_init__(self):
        if self.d is None:
            return
        if self.d <= 1:
            raise NotTotallyReal(f"Q(sqrt {self.d}) is not a totally real quadratic field")
        if self.d > MAX_RADICAND:
            raise UnsupportedField(f"radicand {self.d} exceeds the supported maximum {MAX_RADICAND}")
        if not is_squarefree(self.d):
            raise NotSquarefree(f"{self.d} is not squarefree")

    @classmethod
    def rationals(cls) -> "NumberField":
        return cls()

    @classmethod
    def real_quadratic(cls, d: int) -> "NumberField":
        return cls(d)

    @property
    def degree(self) -> int:
        return 1 if self.d is None else 2

    @property
    def discriminant(self) -> int:
        if self.d is None:
            return 1
        return self.d if self.d % 4 == 1 else 4 * self.d

    def __str__(self) -> str:
        return "Q" if self.d is None else f"Q(sqrt {self.d})"


@dataclass(frozen=True)
class Place:
    """One place of a field: real when p is None, else finite over the prime p
    with ramification index e and inertia degree f.

    ``index`` distinguishes the two places over a split prime (and the real
    places of a quadratic field); it carries no arithmetic content.
    """

    p: int | None = None
    e: int | None = None
    f: int | None = None
    index: int = 0

    def __post_init__(self):
        if self.p is None and self.e is None and self.f is None:
            return
        if self.p is None or self.e is None or self.f is None:
            raise ValueError("finite places need p, e, f")
        if self.p > MAX_PRIME:
            raise ValueError(f"prime {self.p} exceeds the supported maximum {MAX_PRIME}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.e < 1 or self.f < 1:
            raise ValueError("e and f must be >= 1")

    @classmethod
    def real(cls, index: int = 0) -> "Place":
        return cls(index=index)

    @classmethod
    def finite(cls, p: int, e: int, f: int, index: int = 0) -> "Place":
        return cls(p, e, f, index)

    @property
    def is_real(self) -> bool:
        return self.p is None

    @property
    def q(self) -> int:
        """Residue cardinality p^f of a finite place."""
        if self.is_real:
            raise ValueError("real places have no residue field")
        return self.p**self.f

    def __str__(self) -> str:
        if self.is_real:
            return f"oo_{self.index}"
        return f"v{self.index}(p={self.p},e={self.e},f={self.f})"


@dataclass(frozen=True)
class SSet:
    """A finite set of places containing every real place of the field."""

    field: NumberField
    finite_places: tuple[Place, ...] = ()

    def __post_init__(self):
        for v in self.finite_places:
            if v.is_real:
                raise ValueError("finite_places must all be finite")
        if len(set(self.finite_places)) != len(self.finite_places):
            raise DuplicatePlace("repeated place in S")

    @property
    def real_places(self) -> tuple[Place, ...]:
        return tuple(Place.real(i) for i in range(self.field.degree))

    @property
    def places(self) -> tuple[Place, ...]:
        return self.real_places + self.finite_places

    @property
    def size(self) -> int:
        return self.field.degree + len(self.finite_places)

    def __str__(self) -> str:
        finite = ",".join(str(v) for v in self.finite_places)
        return f"S({self.field}; oo x{self.field.degree}" + (f"; {finite})" if finite else ")")


def parse_field(spec: str) -> NumberField:
    """Parse a field spec: ``Q``, or ``Q(sqrt <d>)`` with d squarefree and > 1."""
    text = spec.strip()
    if text == "Q":
        return NumberField.rationals()
    m = _QUADRATIC_RE.fullmatch(text)
    if m is None:
        raise MalformedSpec(f"cannot parse field spec {spec!r}: expected 'Q' or 'Q(sqrt <d>)'")
    sign, digits = m.group(1), m.group(2).lstrip("0") or "0"
    if len(digits) > len(str(MAX_RADICAND)):
        # out of range by its length alone, and int() refuses more than 4300 digits
        if sign:
            raise NotTotallyReal(f"Q(sqrt -{digits}) is not a totally real quadratic field")
        raise UnsupportedField(f"radicand {digits} exceeds the supported maximum {MAX_RADICAND}")
    return NumberField.real_quadratic(int(sign + digits))


def kronecker_symbol(D: int, m: int) -> int:
    """Kronecker symbol (D/m) for every m >= 0.

    Multiplicative in m.  (D/0) is 1 for D = +-1 and 0 otherwise; (D/2) is
    0 for even D, +1 for D = +-1 and -1 for D = +-3 (mod 8); odd m go
    through the Jacobi symbol and quadratic reciprocity.  For D a
    fundamental discriminant, m -> (D/m) is the quadratic character chi_D,
    and at an odd prime p it is +1 exactly when D is a nonzero square mod p.
    """
    if m < 0:
        raise ValueError(f"the Kronecker symbol needs m >= 0, got {m}")
    if m == 0:
        return 1 if abs(D) == 1 else 0
    result = 1
    while m % 2 == 0:
        if D % 2 == 0:
            return 0
        m //= 2
        if D % 8 in (3, 5):
            result = -result
    a, n = D % m, m
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


def decompose_prime(F: NumberField, p: int) -> list[Place]:
    """The places of F above the rational prime p.

    The returned places always satisfy sum(e*f) = degree(F).  Over a split
    prime the two places differ only by ``index``.  A p above MAX_PRIME
    raises UnsupportedPrime; a composite p raises ValueError from the
    primality check of :class:`Place`.
    """
    if p > MAX_PRIME:
        raise UnsupportedPrime(f"prime {p} exceeds the supported maximum {MAX_PRIME}")
    if F.d is None:
        return [Place.finite(p, 1, 1)]
    sym = kronecker_symbol(F.discriminant, p)
    if sym == 0:
        return [Place.finite(p, 2, 1)]
    if sym == 1:
        return [Place.finite(p, 1, 1, index=0), Place.finite(p, 1, 1, index=1)]
    return [Place.finite(p, 1, 2)]


def build_S(F: NumberField, finite_primes) -> SSet:
    """Assemble an S-set from (prime, selector) pairs.

    All real places are included automatically.  Each entry is a prime or a
    (prime, selector) pair; selector ``"one"`` (the default) picks a single
    place over the prime, ``"both"`` picks both places over a split prime.
    """
    seen: set[int] = set()
    chosen: list[Place] = []
    for entry in finite_primes:
        p, selector = entry if isinstance(entry, tuple) else (entry, "one")
        if p in seen:
            raise DuplicatePlace(f"prime {p} listed twice")
        seen.add(p)
        places = decompose_prime(F, p)
        if selector == "both":
            if len(places) != 2:
                raise InvalidSelector(f"'both' requires a split prime, but {p} is not split in {F}")
            chosen.extend(places)
        elif selector == "one":
            chosen.append(places[0])
        else:
            raise InvalidSelector(f"unknown place selector {selector!r}")
    return SSet(F, tuple(chosen))


def delta_2(S: SSet) -> int:
    """Sum of e*f over the finite places of S with residue characteristic 2."""
    return sum(v.e * v.f for v in S.finite_places if v.p == 2)
