"""The paper's identity and the cross-route checks as properties over the
input box, off the 210-point grid that the other tests and the golden
digests pin."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from sarithdim.covolume import pgl2_covolume, sl2_covolume
from sarithdim.formal_degree import LocalRepDatum
from sarithdim.numberfield import MAX_PRIME, MAX_RADICAND, NumberField, build_S, decompose_prime, is_prime, is_squarefree
from sarithdim.quaternion import zeta_D_leading_ratio_at_zero
from sarithdim.vndim import check_identities, jl_ratio_pgl, jl_ratio_sl, module_vn_dim, steinberg_vn_dim
from sarithdim.zeta import zeta_F_minus1


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


#: a prime drawn below 50, 10^4, 10^12 or MAX_PRIME: the top band draws up to
#: MAX_PRIME / 10, so the next prime (below twice the draw) stays under the cap
primes = st.sampled_from((50, 10**4, 10**12, MAX_PRIME // 10)).flatmap(lambda b: st.integers(2, b).map(_next_prime))


@st.composite
def off_grid_entries(draw):
    """Q or Q(sqrt d) with squarefree d up to MAX_RADICAND, and the build_S
    entries of 0 to 4 distinct primes, "both" on some split ones."""
    F = NumberField(draw(st.integers(2, MAX_RADICAND).filter(is_squarefree)) if draw(st.integers(0, 3)) else None)
    entries = [
        (p, "both") if len(decompose_prime(F, p)) == 2 and draw(st.booleans()) else p
        for p in draw(st.lists(primes, max_size=4, unique=True))
    ]
    return F, entries


@st.composite
def off_grid_points(draw):
    """An off-grid (F, S), then one local datum per place of S."""
    F, entries = draw(off_grid_entries())
    S = build_S(F, entries)
    data = [LocalRepDatum(v, draw(st.integers(2 if v.is_real else 1, 12))) for v in S.places]
    return F, S, data


@settings(max_examples=200, derandomize=True, deadline=None)
@given(off_grid_points())
def test_identities_hold_off_the_grid(point):
    """Every check_identities row passes (skipped at odd |S|), and at even
    |S| the paper's identity dim pi_S / dim pi'_S = |zeta_D(0)/zeta_F(0)|
    holds over SL(2, O_S)."""
    F, S, data = point
    report = check_identities(F, S)
    assert all(c.status == "pass" or (c.status == "skipped" and S.size % 2) for c in report.checks), report
    if S.size % 2 == 0:
        # dim pi'_v: k - 1 for weight k at a real place, the datum itself at a finite one
        dim_pi_prime = 1
        for datum in data:
            dim_pi_prime *= datum.value - 1 if datum.place.is_real else datum.value
        assert module_vn_dim(F, S, "sl", data).value / dim_pi_prime == jl_ratio_sl(F, S)


def _character_at_prime(D, p):
    """chi_D(p) by the test's own rule, not read from a Place or the library's
    Kronecker symbol: 0 where p divides D (p ramifies); at an odd p, 1 or -1
    as D^((p-1)/2) is 1 or -1 mod p (Euler's criterion: p splits or is
    inert); at p = 2, 1 for D = 1 (mod 8) and -1 for D = 5 (mod 8)."""
    if D % p == 0:
        return 0
    if p == 2:
        return 1 if D % 8 == 1 else -1
    return 1 if pow(D, (p - 1) // 2, p) == 1 else -1


def _residue_cardinality(F, p):
    """q_v of a place of F over p: p where p ramifies or splits, p^2 where it
    is inert (chi_D(p) = -1)."""
    return p * p if _character_at_prime(F.discriminant, p) == -1 else p


def _bernoulli_zeta_minus1(D):
    """zeta_F(-1) of the field of discriminant D as generalized Bernoulli
    numbers: zeta(-1) = -B_2/2 = -1/12 over Q (D = 1), and over a real
    quadratic field zeta(-1) L(-1, chi_D) = B_{2,chi_D}/24, where
    B_{2,chi} = (1/D) sum_{a < D} chi(a) a^2 for an even character.

    chi_D is built here: _character_at_prime at each prime p < D, extended
    completely multiplicatively, a sign flip at the multiples of each power
    of a p with chi_D(p) = -1."""
    if D == 1:
        return Fraction(-1, 12)
    chi = [1] * D
    chi[0] = 0
    composite = bytearray(D)
    for p in range(2, D):
        if composite[p]:
            continue
        composite[p * p :: p] = b"\x01" * len(range(p * p, D, p))
        value = _character_at_prime(D, p)
        if value == 0:
            chi[p::p] = [0] * len(range(p, D, p))
        elif value == -1:
            power = p
            while power < D:
                chi[power::power] = [-c for c in chi[power::power]]
                power *= p
    return Fraction(sum(c * a * a for a, c in enumerate(chi)), 24 * D)


def _public_values(F, S):
    values = [sl2_covolume(F, S), pgl2_covolume(F, S), check_identities(F, S)]
    values += [steinberg_vn_dim(F, S, group) for group in ("pgl", "psl", "sl")]
    # one datum per place, its value and its position in the list fixed by the place alone
    data = [LocalRepDatum(v, 2 + i) for i, v in enumerate(sorted(S.places, key=str))]
    values.append(module_vn_dim(F, S, "sl", data))
    if S.size % 2 == 0:
        values += [jl_ratio_sl(F, S), jl_ratio_pgl(F, S), zeta_D_leading_ratio_at_zero(F, S)]
    return values


@settings(max_examples=100, derandomize=True, deadline=None)
@given(off_grid_entries(), st.data())
def test_adding_a_place_and_reordering_S(point, data):
    """Adding a prime p to S multiplies the SL(2, O_S) covolume by q_v + 1,
    with q_v from the test's own splitting rule; permuting the entries of S
    changes no public value."""
    F, entries = point
    S = build_S(F, entries)
    taken = {entry[0] if type(entry) is tuple else entry for entry in entries}
    p = data.draw(primes.filter(lambda p: p not in taken), label="p")
    grown = sl2_covolume(F, build_S(F, [*entries, p])).value
    assert grown == sl2_covolume(F, S).value * (_residue_cardinality(F, p) + 1)
    shuffled = build_S(F, data.draw(st.permutations(entries), label="order"))
    assert _public_values(F, shuffled) == _public_values(F, S)


#: Q, or Q(sqrt d) with squarefree d <= 10^5
fields = st.one_of(st.just(NumberField()), st.integers(2, 10**5).filter(is_squarefree).map(NumberField))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(fields)
def test_zeta_minus1_is_a_generalized_bernoulli_number(F):
    """The sieve's zeta_F(-1) equals B_{2,chi_D}/24 from the test's own
    character (-1/12 over Q)."""
    assert zeta_F_minus1(F).value == _bernoulli_zeta_minus1(F.discriminant)
