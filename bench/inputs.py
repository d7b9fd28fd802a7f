"""Seeded input generation for the benchmark workloads.

Nothing here imports ``sarithdim``: squarefree and primality tests are the
benchmark's own.  Inputs come in blocks of fixed structure, each holding one
draw from every stratum of the workload's distribution, and a run measures
whole blocks, so the mix a run sees in a few seconds does not depend on the
seed (stratified sampling).
"""

import bisect
import hashlib
import itertools
import json
import math
import random

from reference import discriminant, kronecker, totient

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

# the standard identity grid of the package README: five fields, up to three
# of the primes 2..13, default place selector
GRID_RADICANDS = (None, 2, 3, 5, 13)
GRID_PRIMES = (2, 3, 5, 7, 11, 13)

# Miller-Rabin with the first 13 prime bases is exact below 3.3e24
# (Sorenson and Webster 2015), far above anything drawn here
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def is_squarefree(n: int) -> bool:
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


GOLDEN = (5**0.5 - 1) / 2


def stratum_draws(rng: random.Random, size: int):
    """u(b, j): the position in stratum j of [0, 1) (of ``size``) for block b.

    Each stratum walks a golden-ratio sequence from a seeded start, so any few
    consecutive blocks cover every stratum evenly whatever the seed
    (randomly shifted low-discrepancy sampling).
    """
    starts = [rng.random() for _ in range(size)]
    return lambda b, j: (j + (starts[j] + b * GOLDEN) % 1) / size


def log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def squarefree_near(x: float, lo: int, hi: int, residue: int | None = None) -> int:
    """The first squarefree integer >= x within [lo, hi] (optionally with the
    given residue mod 4), else the last one below."""

    def ok(d):
        return (residue is None or d % 4 == residue) and is_squarefree(d)

    d = min(max(int(x), lo), hi)
    up = d
    while up <= hi and not ok(up):
        up += 1
    if up <= hi:
        return up
    while not ok(d):
        d -= 1
    return d


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()[:16]


# ---- exact points ----------------------------------------------------------
# A point is (d, primes, group): d is None for Q, primes a list of
# [p, selector], group the variant used for module_vn_dim.


def grid_points() -> list[tuple]:
    return [
        (d, [[p, "one"] for p in subset])
        for d in GRID_RADICANDS
        for k in range(4)
        for subset in itertools.combinations(GRID_PRIMES, k)
    ]


def grid_sequence(seed: int, passes: int) -> tuple[list[list], list[int]]:
    """The 210 grid points, each with a seeded group variant for its module
    dimension, and ``passes`` seeded shuffles of their indexes."""
    rng = random.Random(seed)
    points = [[d, primes, rng.choice(("pgl", "psl", "sl"))] for d, primes in grid_points()]
    order = []
    for _ in range(passes):
        shuffled = list(range(len(points)))
        rng.shuffle(shuffled)
        order += shuffled
    return points, order


# Every block of ten points has the same structure: the point in d-stratum j
# (of ten log-strata of [2, 2e5]) has WIDE_TYPES[j] = (finite primes, of which
# drawn from [1e8, 1e10] instead of below 100).  The pairing is a fixed
# scramble, so D and |S| are not correlated.  The large-prime share (10 of 22
# S-primes) is set so that trial-division primality and the O(D) divisor sum
# cost about the same in a traced run.
WIDE_TYPES = ((2, 1), (4, 2), (0, 0), (3, 1), (1, 1), (2, 0), (4, 2), (1, 0), (3, 2), (2, 1))
WIDE_D_MAX = 200_000


def wide_points(seed: int, blocks: int) -> list[list]:
    """Blocks of ten points of fixed structure (above), in seeded order.

    D is d or 4d by d mod 4, a fourfold cost difference, so the residue class
    of each stratum rotates through 1, 2, 3 from block to block; the large
    primes' log-strata rotate over the block's large-prime slots likewise.
    Only positions within strata, the small primes and the order are drawn.
    """
    rng = random.Random(seed)
    size = len(WIDE_TYPES)
    large_total = sum(m for _, m in WIDE_TYPES)
    d_draw = stratum_draws(rng, size)
    p_draw = stratum_draws(rng, large_total)
    points = []
    for b in range(blocks):
        block = []
        slot = 0
        for j, (k, m) in enumerate(WIDE_TYPES):
            d = squarefree_near(log_uniform(d_draw(b, j), 2, WIDE_D_MAX), 2, WIDE_D_MAX, 1 + (b + j) % 3)
            D = discriminant(d)
            chosen = []
            for _ in range(m):
                v = p_draw(b, (slot + b) % large_total)
                chosen.append([next_prime(int(log_uniform(v, 1e8, 1e10))), "one"])
                slot += 1
            for p in rng.sample(SMALL_PRIMES, k - m):
                split = kronecker(D, p) == 1
                chosen.append([p, "both" if split and rng.random() < 0.3 else "one"])
            rng.shuffle(chosen)
            block.append([d, chosen, ("pgl", "psl", "sl")[(b + j) % 3]])
        rng.shuffle(block)
        points += block
    return points


# ---- numeric oracle --------------------------------------------------------

NUMERIC_D_MAX = 3000
# per block of fifteen checks, one per stratum: the CLI defaults, except the
# tighter setting at four fixed strata
NUMERIC_SETTINGS = tuple((1e-10, 192) if j % 4 == 1 else (1e-8, 128) for j in range(15))


def is_fundamental(D: int) -> bool:
    if D % 4 == 1:
        return D > 1 and is_squarefree(D)
    return D % 4 == 0 and (D // 4) % 4 in (2, 3) and is_squarefree(D // 4)


def numeric_checks(seed: int, blocks: int) -> list[list]:
    """[d, tol, bits] triples for functional_equation_check, in blocks of
    fixed structure and seeded order.

    The oracle sums over the phi(D) residues prime to D, so its cost follows
    phi(D), not D.  Each stratum is a log-stratum of phi(D) over [4, 1400],
    and the check takes the D <= 3000 whose phi(D) is nearest a draw in it,
    alternating between odd and even D from block to block.
    """
    pools = ([], [])
    for D in range(5, NUMERIC_D_MAX + 1):
        if is_fundamental(D):
            pools[D % 2 == 0].append((totient(D), D))
    for pool in pools:
        pool.sort()
    rng = random.Random(seed)
    checks = []
    draw = stratum_draws(rng, len(NUMERIC_SETTINGS))
    for b in range(blocks):
        block = []
        for j, (tol, bits) in enumerate(NUMERIC_SETTINGS):
            target = log_uniform(draw(b, j), 4, 1400)
            pool = pools[(b + j) % 2]
            i = min(bisect.bisect_left(pool, (target, 0)), len(pool) - 1)
            if i and target - pool[i - 1][0] < pool[i][0] - target:
                i -= 1
            D = pool[i][1]
            block.append([D if D % 4 == 1 else D // 4, tol, bits])
        rng.shuffle(block)
        checks += block
    return checks


# ---- CLI mix -----------------------------------------------------------------
# A request is [argv, expect] where expect is one of
#   ["ok", quantity, d, primes, key, pd_order]  exit 0, value from the reference
#   ["ok_one", quantity]                        exit 0, value exactly 1
#   ["ok_const", quantity, num, den]            exit 0, a known constant
#   ["error", code]                             exit 1 with this error.code
#   ["usage"]                                   exit 2 with a usage message
#   ["bounded", quantity, d]                    a ROADMAP item 2 input: either
#        exit 0 with the zeta value, or a clean exit 1 or 2 once it is rejected

CLI_FIELDS = (None, 2, 3, 5, 6, 7, 13, 17)
CLI_PRIMES = (2, 3, 5, 7, 11, 13)


def spec(d):
    return "Q" if d is None else f"Q(sqrt {d})"


def _primes_arg(primes):
    return ",".join(str(p) if sel == "one" else f"{p}:both" for p, sel in primes)


def _even_primes(rng, d):
    """Small primes making |S| even over the field of radicand d."""
    n = 1 if d is None else 2
    k = rng.choice([c for c in (0, 1, 2, 3) if (n + c) % 2 == 0])
    return [[p, "one"] for p in sorted(rng.sample(CLI_PRIMES, k))]


def _any_primes(rng):
    return [[p, "one"] for p in sorted(rng.sample(CLI_PRIMES, rng.randrange(4)))]


def _ok_requests(rng):
    d = rng.choice(CLI_FIELDS)
    f = spec(d)
    primes = _any_primes(rng)
    even = _even_primes(rng, d)
    group = rng.choice(("sl", "pgl"))
    dim_group = rng.choice(("sl", "psl", "pgl"))
    n = 1 if d is None else 2
    local = ",".join(["weight:2"] * n + ["dim:1"] * len(primes))
    small = rng.choice((None, 2, 5, 13))
    pd = rng.choice((1, 2, 6, 12))
    return [
        [["covolume", "--field", f, "--s-primes", _primes_arg(primes), "--group", group],
         ["ok", f"covolume_{group}", d, primes, f"cov_{group}", 1]],
        [["covolume", "--field", f, "--s-primes", _primes_arg(primes), "--group", group, "--format", "table"],
         ["ok", f"covolume_{group}", d, primes, f"cov_{group}", 1]],
        [["steinberg-dim", "--field", f, "--s-primes", _primes_arg(primes), "--group", dim_group],
         ["ok", f"steinberg_dim_{dim_group}", d, primes, f"st_{dim_group}", 1]],
        [["module-dim", "--field", f, "--s-primes", _primes_arg(primes), "--group", dim_group, "--local-data", local],
         ["ok", f"module_dim_{dim_group}", d, primes, f"st_{dim_group}", 1]],
        [["jl-ratio", "--field", f, "--s-primes", _primes_arg(even), "--group", "sl"],
         ["ok", "jl_ratio_sl", d, even, "jl_sl", 1]],
        [["jl-ratio", "--field", f, "--s-primes", _primes_arg(even), "--group", "pgl", "--pd-order", str(pd)],
         ["ok", "jl_ratio_pgl", d, even, "jl_pgl", pd]],
        [["zeta", "--field", spec(small)], ["ok", "zeta_minus1", small, [], "zeta", 1]],
        [["zeta", "--field", spec(small), "--tol", "1e-10", "--working-precision", "192"],
         ["ok", "zeta_minus1", small, [], "zeta", 1]],
        [["candidates", "--field", f], ["ok_const", "pdx_candidate_bound", 60, 1]],
        [["check", "--field", f, "--s-primes", _primes_arg(primes)], ["ok_one", "identity_checks"]],
        [["check", "--grid"], ["ok_one", "identity_grid"]],
    ]


def _error_requests(rng):
    p = rng.choice(CLI_PRIMES)
    return [
        [["covolume", "--field", f"Q(sqrt {rng.choice((4, 8, 12, 18, 20))})", "--group", "sl"],
         ["error", "NOT_SQUAREFREE"]],
        [["covolume", "--field", f"Q(sqrt {rng.choice((-1, -3, 0, 1))})", "--group", "pgl"],
         ["error", "NOT_TOTALLY_REAL"]],
        [["steinberg-dim", "--field", "Q(sqrt x)", "--group", "sl"], ["error", "MALFORMED_SPEC"]],
        [["jl-ratio", "--field", "Q", "--s-primes", "2,3", "--group", "sl"], ["error", "ODD_CARDINALITY"]],
        [["covolume", "--field", "Q", "--s-primes", f"{p}:both", "--group", "sl"], ["error", "INVALID_SELECTOR"]],
        [["covolume", "--field", "Q", "--s-primes", f"{p},{p}", "--group", "sl"], ["error", "DUPLICATE_PLACE"]],
        [["module-dim", "--field", "Q", "--s-primes", str(p), "--group", "sl", "--local-data", "weight:2"],
         ["error", "MISSING_DATUM"]],
        [["zeta", "--field", "Q", "--tol", "1e-13"], ["error", "TOLERANCE_TOO_TIGHT"]],
    ]


def _usage_requests(rng):
    return [
        [["covolume", "--field", "Q", "--s-primes", str(rng.choice((4, 9, 15, 1))), "--group", "sl"], ["usage"]],
        [["covolume", "--field", "Q", "--group", "gl"], ["usage"]],
        [["check"], ["usage"]],
        [["frobnicate"], ["usage"]],
        [["module-dim", "--field", "Q", "--group", "sl", "--local-data", "weight:1"], ["usage"]],
    ]


def _bounded_requests(rng):
    d = rng.choice((None, 5))
    return [
        [["zeta", "--field", spec(d), "--tol", "inf"], ["bounded", "zeta_minus1", d]],
        [["zeta", "--field", spec(d), "--working-precision", "-5"], ["bounded", "zeta_minus1", d]],
    ]


# per block of nineteen requests: the eleven valid templates, four domain
# errors, three usage errors, one bounded ROADMAP item 2 input
CLI_BLOCK = (("ok", 11), ("error", 4), ("usage", 3), ("bounded", 1))
_CLI_POOLS = {"ok": _ok_requests, "error": _error_requests, "usage": _usage_requests, "bounded": _bounded_requests}

# Inputs with a known defect at the time the benchmark was written: they print
# a traceback instead of a JSON error.  They run once per cli_mix run, outside
# the timed loop, and their outcome is reported beside the metrics.
KNOWN_DEFECT_PROBES = (
    ["zeta", "--field", "Q", "--tol", "nan"],
    ["jl-ratio", "--field", "Q", "--s-primes", "2", "--group", "pgl", "--pd-order", "0"],
)


def cli_requests(seed: int, blocks: int) -> list[list]:
    rng = random.Random(seed)
    requests = []
    for _ in range(blocks):
        block = []
        for kind, count in CLI_BLOCK:
            pool = _CLI_POOLS[kind](rng)
            block += rng.sample(pool, count)
        rng.shuffle(block)
        requests += block
    return requests
