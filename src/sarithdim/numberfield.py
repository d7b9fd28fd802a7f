"""Base fields (Q or a real quadratic field), their places, and S-sets.

A place is an equivalence class of absolute values of the field: each real
embedding gives a real place, each prime ideal a finite place with
ramification index e, inertia degree f and residue cardinality q = p^f.
An S-set is a finite set of places containing every real place; its finite
part determines the ring of S-integers.

Each fact is stored once: a field is Q exactly when its radicand d is None,
a place is real exactly when its prime p is None, and the real places of an
S-set are the field's degree many.  Build fields and S-sets with
:func:`parse_field` and :func:`build_S`, or with the records themselves
(``NumberField(d)``, ``Place(p, e, f, index)``); an :class:`SSet` rejects a
field that is not a :class:`NumberField`, a finite place that is not a
place of its field, and a repeated place.  The records are named tuples
whose ``__new__`` checks them, ``_replace`` too.

A record compares equal to the plain tuple of its fields, so an argument is
accepted as a field or an S-set by its exact type, never by equality: the
two rules are :func:`check_field` and :func:`check_s_set`, and every entry
point that takes F, or F and S, calls one of them before it reads anything.
"""

import functools
import re
from collections import namedtuple

from .errors import (
    DuplicatePlace,
    InvalidSelector,
    MalformedSpec,
    NotSquarefree,
    NotTotallyReal,
    UnsupportedField,
    UnsupportedPrime,
)

#: Largest accepted radicand d of Q(sqrt d).  Above it the one trial
#: division of d, O(sqrt d), that the squarefree test and chi_D share, and
#: the numeric zeta layer stop being desk scale: the numeric zeta_F(2)
#: oracle takes (D/2) phi(k)/k + k fixed-point multiplies, for k a product
#: of D's smallest primes, and one division where chi_D = +1, O(D), and
#: reads chi_D from a table of D/2 bytes, while the exact Siegel sum is a
#: sieve, about sqrt(D) * log log D (0.37-0.57 ms at the cap: D = 3999932,
#: 3999980 and 3999916, median of 51 calls each).  At the cap (D up to
#: 4 * 10^6) ``zeta --field`` takes about 0.43 s at d = 999995 (k = 10,
#: 800,006 steps) and 0.55 s at the prime d = 999983 (k = 2, 999,985
#: steps), nearly all of it in the numeric oracle, and peaks at 28-29 MB
#: RSS (median of eight runs each; all on a shared 2-CPU Xeon, Python 3.11.7).
MAX_RADICAND = 10**6

#: Largest accepted rational prime below a finite place, under the bound
#: 3.3 * 10^24 up to which :func:`is_prime` is exact.
MAX_PRIME = 10**24

#: The first 13 primes: :func:`is_prime` divides by each, and runs all 13
#: as Miller-Rabin bases above the last bound of _MILLER_RABIN_SETS.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: (bound, bases), ascending: below bound, an n prime to the 13 primes is
#: prime exactly when it is a strong probable prime to each base.  The
#: first two are Jaeschke's sets (G. Jaeschke, Math. Comp. 61, 1993), each
#: bound a strong pseudoprime to its set: 4759123141 = 48781 * 97561 and
#: 1122004669633 = 611557 * 1834669.  Then come the first k primes below
#: psi_k, the least odd composite that is a strong probable prime to each of
#: them (OEIS A014233; Jaeschke 1993, Sorenson and Webster 2015).
_MILLER_RABIN_SETS = (
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, _MILLER_RABIN_BASES[:5]),
    (3474749660383, _MILLER_RABIN_BASES[:6]),
    (341550071728321, _MILLER_RABIN_BASES[:7]),
    (3825123056546413051, _MILLER_RABIN_BASES[:9]),
    (318665857834031151167461, _MILLER_RABIN_BASES[:12]),
    (3317044064679887385961981, _MILLER_RABIN_BASES),
)

_QUADRATIC_RE = re.compile(r"Q\(sqrt (-?)(\d+)\)")


def _repr(x) -> str:
    """repr(x) for an error message, or past str()'s digit limit an int's size or x's type."""
    try:
        return repr(x)
    except ValueError:
        if isinstance(x, int):
            return f"{'-' if x < 0 else ''}<int of {x.bit_length()} bits>"
        return f"<{type(x).__name__} too large to print>"


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 3.3 * 10^24.

    Trial division by the first 13 primes settles every n < 43^2 and every
    n with one of them as a factor.  Any other n is tested to the bases of
    the first row of _MILLER_RABIN_SETS whose bound is above it: Jaeschke's
    {2, 7, 61} below 4759123141 and {2, 13, 23, 1662803} below
    1122004669633, then the first k primes below psi_k.  Below
    psi_13 = 3317044064679887385961981 the answer is exact; above it all
    13 primes run as bases and the answer is only probable.
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
    for a in next((bases for bound, bases in _MILLER_RABIN_SETS if n < bound), _MILLER_RABIN_BASES):
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


def _odd_prime_factors(n: int) -> list[int] | None:
    """The odd primes dividing n >= 1, ascending, or None as soon as one of
    them divides n twice.  One trial division: after the powers of 2, each
    odd q with q^2 <= what is left is tried and divided out when it divides,
    so what is left at the end is 1 or a prime."""
    n >>= (n & -n).bit_length() - 1
    primes = []
    q = 3
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return None
            primes.append(q)
        q += 2
    if n > 1:
        primes.append(n)
    return primes


def is_squarefree(n: int) -> bool:
    return n >= 1 and n % 4 != 0 and _odd_prime_factors(n) is not None


class _Validated:
    """Base of the records that check their fields in ``__new__``: ``_make``,
    and so ``_replace``, builds through the constructor, which namedtuple's skips."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class NumberField(_Validated, namedtuple("NumberField", "d")):
    """Q (d is None), or the real quadratic field of squarefree radicand d > 1."""

    __slots__ = ()

    def __new__(cls, d: int | None = None):
        if d is not None:
            if type(d) is not int:
                raise ValueError(f"the radicand must be an int, got {_repr(d)}")
            if d <= 1:
                raise NotTotallyReal(f"Q(sqrt {_repr(d)}) is not a totally real quadratic field")
            if d > MAX_RADICAND:
                raise UnsupportedField(f"radicand {_repr(d)} exceeds the supported maximum {MAX_RADICAND}")
            if not is_squarefree(d):
                raise NotSquarefree(f"{_repr(d)} is not squarefree")
        return super().__new__(cls, d)

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


class Place(_Validated, namedtuple("Place", "p e f index")):
    """One place of a field: real when p is None, else finite over the prime p
    with ramification index e and inertia degree f.  A p above MAX_PRIME
    raises UnsupportedPrime; a composite p, or data not ints, ValueError.

    ``index`` distinguishes the two places over a split prime (and the real
    places of a quadratic field); it carries no arithmetic content.
    """

    __slots__ = ()

    def __new__(cls, p: int | None = None, e: int | None = None, f: int | None = None, index: int = 0):
        if not (p is e is f is None and type(index) is int):
            if not type(p) is type(e) is type(f) is type(index) is int:
                got = ", ".join(_repr(x) for x in (p, e, f, index))
                raise ValueError(f"place data (p, e, f, index) must be ints, or p, e, f all None; got ({got})")
            if p > MAX_PRIME:
                raise UnsupportedPrime(f"prime {_repr(p)} exceeds the supported maximum {MAX_PRIME}")
            if not is_prime(p):
                raise ValueError(f"{_repr(p)} is not prime")
            if e < 1 or f < 1:
                raise ValueError("e and f must be >= 1")
        return super().__new__(cls, p, e, f, index)

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


class SSet(_Validated, namedtuple("SSet", "field finite_places")):
    """A finite set of places of the field containing every real place: each
    finite place has the (e, f) of its prime and an index below its g."""

    # no __slots__: ``places`` and the Invariants record are kept in the instance dict
    def __new__(cls, field: NumberField, finite_places: tuple[Place, ...] = ()):
        check_field(field)
        seen = set()
        for v in finite_places:
            if type(v) is not Place or v.is_real:
                raise ValueError(f"finite_places must all be finite Places, got {_repr(v)}")
            e, f, g = _splitting(field, v.p)
            if (v.e, v.f) != (e, f) or not 0 <= v.index < g:
                raise ValueError(f"{v} is not a place of {field}")
            if v in seen:
                raise DuplicatePlace(f"repeated place {v} in S")
            seen.add(v)
        return super().__new__(cls, field, finite_places)

    @functools.cached_property
    def places(self) -> tuple[Place, ...]:
        return tuple(Place(index=i) for i in range(self.field.degree)) + self.finite_places

    @property
    def size(self) -> int:
        return self.field.degree + len(self.finite_places)

    def __str__(self) -> str:
        finite = ",".join(str(v) for v in self.finite_places)
        return f"S({self.field}; oo x{self.field.degree}" + (f"; {finite})" if finite else ")")


def check_field(F: NumberField) -> None:
    """ValueError unless F is exactly a :class:`NumberField`: an equal tuple,
    a list or a spec string is refused like any other value."""
    if type(F) is not NumberField:
        raise ValueError(f"the field must be a NumberField, got {type(F).__name__} {_repr(F)}")


def check_s_set(F: NumberField, S: SSet) -> None:
    """ValueError unless F is exactly a :class:`NumberField` and S exactly an
    :class:`SSet` of F, whatever record S already carries.  The field's type
    is tested here, not by :func:`check_field`, because every exact call
    through ``covolume.invariants`` passes this test many times."""
    if not (type(S) is SSet and type(F) is NumberField and S.field == F):
        raise ValueError(f"S must be an SSet of the NumberField F, got F = {_repr(F)}, S = {_repr(S)}")


def parse_field(spec: str) -> NumberField:
    """Parse a field spec: ``Q``, or ``Q(sqrt <d>)`` with d squarefree and > 1.
    Anything else, a spec that is not a str included, is MalformedSpec."""
    text = spec.strip() if type(spec) is str else ""
    if text == "Q":
        return NumberField()
    m = _QUADRATIC_RE.fullmatch(text)
    if m is None:
        raise MalformedSpec(f"cannot parse field spec {_repr(spec)}: expected 'Q' or 'Q(sqrt <d>)'")
    sign, digits = m.group(1), m.group(2).lstrip("0") or "0"
    if len(digits) > len(str(MAX_RADICAND)):
        # out of range by its length alone, and int() refuses more than 4300 digits
        if sign:
            raise NotTotallyReal(f"Q(sqrt -{digits}) is not a totally real quadratic field")
        raise UnsupportedField(f"radicand {digits} exceeds the supported maximum {MAX_RADICAND}")
    return NumberField(int(sign + digits))


def kronecker_symbol(D: int, m: int) -> int:
    """Kronecker symbol (D/m) for every m >= 0.

    Multiplicative in m.  (D/0) is 1 for D = +-1 and 0 otherwise; (D/2) is
    0 for even D, +1 for D = +-1 and -1 for D = +-3 (mod 8); odd m go
    through the Jacobi symbol and quadratic reciprocity.  For D a
    fundamental discriminant, m -> (D/m) is the quadratic character chi_D,
    and at an odd prime p it is +1 exactly when D is a nonzero square mod p.
    """
    if m < 0:
        raise ValueError(f"the Kronecker symbol needs m >= 0, got {_repr(m)}")
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


def _splitting(F: NumberField, p: int) -> tuple[int, int, int]:
    """(e, f, g) of the prime p in F: ramification index, inertia degree and
    number of places over p, from the sign of (D/p); e * f * g = degree(F)."""
    if F.d is None:
        return 1, 1, 1
    sym = kronecker_symbol(F.discriminant, p)
    if sym == 0:
        return 2, 1, 1
    return (1, 1, 2) if sym == 1 else (1, 2, 1)


def _checked_splitting(F: NumberField, p: int) -> tuple[int, int, int]:
    """:func:`_splitting` after the argument checks of :func:`decompose_prime`."""
    check_field(F)
    if type(p) is not int:
        raise ValueError(f"place data must be ints, got p={_repr(p)}")
    return _splitting(F, p)


def decompose_prime(F: NumberField, p: int) -> list[Place]:
    """The places of F above the rational prime p.

    The returned places always satisfy sum(e*f) = degree(F).  Over a split
    prime the two places differ only by ``index``.  An F that is not a
    NumberField, then a p that is not an int, raises ValueError before the
    splitting is computed, any other bad p the error of :class:`Place`.
    """
    e, f, g = _checked_splitting(F, p)
    return [Place(p, e, f, i) for i in range(g)]


def build_S(F: NumberField, finite_primes) -> SSet:
    """Assemble an S-set from (prime, selector) pairs.

    All real places are included automatically.  Each entry is a prime or a
    (prime, selector) pair; selector ``"one"`` (the default) picks a single
    place over the prime, ``"both"`` picks both places over a split prime.
    Each entry is checked as :func:`decompose_prime` checks its arguments,
    and its first place is built, so a bad prime is refused before its
    selector; only the places kept are built.  Every entry is checked before
    :class:`SSet` rejects a repeated place.
    """
    chosen: list[Place] = []
    for entry in finite_primes:
        # a record is a tuple too: a Place entry goes on to fail as a non-int prime
        p, selector = entry if type(entry) is tuple else (entry, "one")
        e, f, g = _checked_splitting(F, p)
        chosen.append(Place(p, e, f, 0))
        if selector == "both":
            if g != 2:
                raise InvalidSelector(f"'both' requires a split prime, but {_repr(p)} is not split in {F}")
            chosen.append(Place(p, e, f, 1))
        elif selector != "one":
            raise InvalidSelector(f"unknown place selector {_repr(selector)}")
    return SSet(F, tuple(chosen))


def delta_2(S: SSet) -> int:
    """Sum of e*f over the finite places of S with residue characteristic 2."""
    return sum(v.e * v.f for v in S.finite_places if v.p == 2)
