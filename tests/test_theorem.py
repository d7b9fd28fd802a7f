"""The paper's identity and the cross-route checks as properties over the
input box, off the 210-point grid that the other tests and the golden
digests pin."""

from hypothesis import given, settings, strategies as st

from sarithdim.formal_degree import LocalRepDatum
from sarithdim.numberfield import NumberField, build_S, decompose_prime, is_prime, is_squarefree
from sarithdim.vndim import check_identities, jl_ratio_sl, module_vn_dim


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@st.composite
def off_grid_points(draw):
    """Q or Q(sqrt d) with squarefree d <= 10^5, and 0 to 4 primes drawn
    below 50, 10^4 and 10^12, "both" on some split ones; then one local
    datum per place of S."""
    F = NumberField(draw(st.integers(2, 10**5).filter(is_squarefree)) if draw(st.integers(0, 3)) else None)
    bound = st.sampled_from((50, 10**4, 10**12))
    primes = draw(st.lists(bound.flatmap(lambda b: st.integers(2, b).map(_next_prime)), max_size=4, unique=True))
    entries = [(p, "both") if len(decompose_prime(F, p)) == 2 and draw(st.booleans()) else p for p in primes]
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
