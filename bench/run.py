"""Benchmark for sarithdim: exact and numeric workloads, in process and through the CLI.

Usage, from the repository root:

    python3 bench/run.py --workload grid_exact --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client in this one process: the next
op starts when the previous one has been verified.  A run measures whole
blocks of inputs (see inputs.py) for at least ``--seconds``.  Inputs come from
``--seed``; expected values come from reference.py, which does not use the
package.  With ``--trace 0`` the last stdout line reports the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics (spans.py).
The line before it is a JSON object with the seed, an input digest, the
failure share, the tail percentile used, raw (unscaled) timings and, when
traced, the layer shares and the scaling table.  The exit status is 1 when
any op failed.

Op times are scaled to a reference machine speed (see YARDSTICK_REF_NS);
percentiles are Harrell-Davis estimates; ops_per_s is verified ops per second
of op time.

Workloads:

* grid_exact: the 210-point identity grid in seeded shuffled passes; every
  exact public call per point.  Fraction arithmetic and the lattice modules
  dominate; the divisor sum and primality barely run.
* wide_exact: the same calls on distinct seeded points, d log-uniform up to
  2e5 and a share of S-primes in [1e8, 1e10]; the axes that grow, D and p.
* numeric_oracle: functional_equation_check on seeded fields with D <= 3000;
  the mpmath Hurwitz route is nearly all of the time.
* cli_mix: one ``python -m sarithdim`` process at a time over a fixed mix of
  valid requests, domain errors and usage errors; interpreter start-up and
  imports dominate.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import reference  # noqa: E402

SETUP_REPEATS = 9
PROCESS_TIMEOUT_S = 60
CLI_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


# ---- in-process exact ops --------------------------------------------------


def exact_op(sd, item):
    d, primes, group = item
    F = sd.parse_field(inputs.spec(d))
    S = sd.build_S(F, [tuple(entry) for entry in primes])
    out = {"cov_sl": sd.sl2_covolume(F, S).value, "cov_pgl": sd.pgl2_covolume(F, S).value}
    for g in ("pgl", "psl", "sl"):
        out[f"st_{g}"] = sd.steinberg_vn_dim(F, S, g).value
    local = [sd.LocalRepDatum.archimedean(v, 2) if v.is_real else sd.LocalRepDatum.finite(v, 1) for v in S.places]
    out["module"] = sd.module_vn_dim(F, S, group, local).value
    if S.size % 2 == 0:
        out["jl_sl"] = sd.jl_ratio_sl(F, S)
        out["jl_pgl"] = sd.jl_ratio_pgl(F, S)
        out["zeta_d"] = sd.zeta_D_leading_ratio_at_zero(F, S)
    out["checks"] = [(c.name, c.status) for c in sd.check_identities(F, S).checks]
    return out


def exact_expected(item, zetas):
    d, primes, group = item
    expected = reference.expected_values(d, primes, zetas[reference.discriminant(d)])
    expected["module"] = expected[f"st_{group}"]
    return expected


def exact_verify(item, out, expected):
    checks = out.pop("checks")
    quaternion_side = "jl_sl" in expected
    statuses = [status for _, status in checks]
    return (
        out == expected
        and len(checks) == 6
        and "fail" not in statuses
        and statuses.count("skipped") == (0 if quaternion_side else 3)
    )


def exact_size(item):
    d, primes, _ = item
    return (1 if d is None else 2) + len(reference.finite_places(d, primes))


# ---- in-process numeric ops ------------------------------------------------


def numeric_op(sd, item):
    d, tol, bits = item
    return sd.functional_equation_check(sd.parse_field(inputs.spec(d)), tol, precision_bits=bits)


def numeric_expected(item, zetas):
    D = reference.discriminant(item[0])
    return reference.rational_side(D, zetas[D])


def numeric_verify(item, report, rational):
    tol = item[1]
    return (
        report.ok
        and abs(report.rational_side - rational) <= 1e-12 * rational
        and abs(report.numeric_side - rational) < tol
    )


# ---- CLI ops -----------------------------------------------------------------


def cli_expected(request, zetas):
    argv, expect = request
    kind = expect[0]
    if kind == "ok":
        _, quantity, d, primes, key, pd = expect
        z = zetas[reference.discriminant(d)]
        value = z if key == "zeta" else reference.expected_values(d, primes, z, pd)[key]
        return quantity, value
    if kind == "ok_one":
        return expect[1], Fraction(1)
    if kind == "ok_const":
        return expect[1], Fraction(expect[2], expect[3])
    if kind == "bounded":
        return expect[1], zetas[reference.discriminant(expect[2])]
    return None


def _parse_ok(argv, stdout):
    """(quantity, value, diagnostics) from a successful response."""
    if "table" in argv:
        quantity, exact, _ = (part.strip() for part in stdout.strip().split("|"))
        return quantity, Fraction(exact), []
    response = json.loads(stdout)
    if response["status"] != "ok":
        return None, None, []
    value = Fraction(int(response["value"]["num"]), int(response["value"]["den"]))
    return response["quantity"], value, response["diagnostics"]


def cli_verify(request, result, expected):
    """True when exit code, output and error code match the reference."""
    try:
        return _cli_matches(request, result, expected)
    except (ValueError, KeyError, TypeError):  # output that does not parse
        return False


def _cli_matches(request, result, expected):
    argv, expect = request
    code, stdout, stderr = result
    kind = expect[0]
    if "Traceback" in stderr:
        return False
    if kind == "bounded" and code in (1, 2):
        kind = "error" if code == 1 else "usage"
        expect = ["error", None]
    if kind == "usage":
        return code == 2 and stdout == "" and "usage:" in stderr
    if kind == "error":
        if code != 1:
            return False
        response = json.loads(stdout)
        return response["status"] == "error" and (expect[1] is None or response["error"]["code"] == expect[1])
    if code != 0:
        return False
    quantity, value = expected
    got_quantity, got_value, diagnostics = _parse_ok(argv, stdout)
    if argv[0] == "zeta" and kind == "ok":
        if [(d["name"], d["status"]) for d in diagnostics] != [("functional_equation", "pass")]:
            return False
    return (got_quantity, got_value) == (quantity, value)


def cli_process(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "sarithdim", *argv],
        cwd=ROOT,
        env=CLI_ENV,
        capture_output=True,
        text=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def cli_in_process(sd, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sd.cli.run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# ---- workloads -------------------------------------------------------------


def in_order(items):
    return items, list(range(len(items)))


# block: the ops of one block of fixed structure (see inputs.py).
# tail: the percentile reported as op_latency_tail_ms, fixed per workload: the
# highest whose value repeats across runs within a few percent, with at least
# ten samples beyond it at the recorded baseline rate (the count is reported
# with it).  Above p90 the grid's sub-millisecond ops are ranked by machine
# noise rather than by input.
WORKLOADS = {
    "grid_exact": dict(
        generate=lambda seed: inputs.grid_sequence(seed, passes=200),
        block=len(inputs.grid_points()),
        discriminants=lambda items: {reference.discriminant(d) for d in inputs.GRID_RADICANDS},
        op=exact_op, expected=exact_expected, verify=exact_verify, size=exact_size,
        warmup=[None, [[2, "one"]], "sl"], tail=90,
    ),
    "wide_exact": dict(
        generate=lambda seed: in_order(inputs.wide_points(seed, blocks=150)),
        block=len(inputs.WIDE_TYPES),
        discriminants=lambda items: {reference.discriminant(item[0]) for item in items},
        op=exact_op, expected=exact_expected, verify=exact_verify, size=exact_size,
        warmup=[None, [[2, "one"]], "sl"], tail=95,
    ),
    "numeric_oracle": dict(
        generate=lambda seed: in_order(inputs.numeric_checks(seed, blocks=40)),
        block=len(inputs.NUMERIC_SETTINGS),
        discriminants=lambda items: {reference.discriminant(item[0]) for item in items},
        op=numeric_op, expected=numeric_expected, verify=numeric_verify, size=lambda item: None,
        warmup=[5, 1e-8, 128], tail=75,
    ),
    "cli_mix": dict(
        generate=lambda seed: in_order(inputs.cli_requests(seed, blocks=30)),
        block=sum(count for _, count in inputs.CLI_BLOCK),
        discriminants=lambda items: {reference.discriminant(e[2]) for _, e in items if e[0] in ("ok", "bounded")},
        op=lambda sd, request: cli_in_process(sd, request[0]),
        expected=cli_expected, verify=cli_verify, size=lambda item: None,
        warmup=["covolume", "--field", "Q", "--s-primes", "2", "--group", "sl"], tail=75,
    ),
}


def import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sarithdim
    import sarithdim.cli  # noqa: F401  (cli is not imported by the package itself)

    return sarithdim


def setup_probe(workload):
    """Child side of setup_s: import the package and run one warm-up op."""
    w = WORKLOADS[workload]
    before = yardstick_ns()
    t0 = time.perf_counter_ns()
    sd = import_package()
    w["op"](sd, w["warmup"])
    elapsed = time.perf_counter_ns() - t0
    print(at_reference_speed(elapsed, before, yardstick_ns()) / 1e9)


def measure_setup(workload) -> list[float]:
    """setup_s samples, each from a fresh process.

    In process: the child's own clock around ``import sarithdim`` and one
    warm-up op.  For cli_mix: the wall time of one warm-up CLI process.  Both
    are scaled to the reference speed like op times.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        if workload == "cli_mix":
            before = yardstick_ns()
            t0 = time.perf_counter_ns()
            code, _, _ = cli_process(WORKLOADS["cli_mix"]["warmup"])
            elapsed = time.perf_counter_ns() - t0
            samples.append(at_reference_speed(elapsed, before, yardstick_ns()) / 1e9)
            if code != 0:
                raise RuntimeError("warm-up CLI process failed")
        else:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--setup-probe", workload],
                cwd=ROOT, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S, check=True,
            )
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# The machine's speed drifts by up to a third over tens of seconds on a shared
# host, which swamps any change worth measuring.  A fixed interpreted kernel
# (the yardstick, about 0.7 ms) runs every YARDSTICK_PERIOD_NS between ops.
# Its times are smoothed by a centred running median of five samples, which
# drops a sample inflated by preemption, and each op's time is scaled by
# YARDSTICK_REF_NS over the mean of the smoothed samples just before and just
# after it, giving op times at one reference speed.  The raw times are
# reported beside them.
YARDSTICK_REF_NS = 700_000
YARDSTICK_PERIOD_NS = 50_000_000


def yardstick_ns() -> int:
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(12_000):
        s += i * i % 7
    return time.perf_counter_ns() - t0


def at_reference_speed(elapsed_ns, yardstick_before, yardstick_after):
    return elapsed_ns * 2 * YARDSTICK_REF_NS / (yardstick_before + yardstick_after)


class Loop(NamedTuple):
    latencies: list  # ns at the reference speed
    raw: list  # ns as measured
    failed: int
    outcomes: list
    yardsticks: list

    @property
    def ops_per_s(self):
        """Verified ops per second of (speed-normalized) op time."""
        return (len(self.latencies) - self.failed) / (sum(self.latencies) / 1e9)


def warm_up(run_op, item, detail):
    """One untimed op before the loop.  Its failure is recorded, not raised:
    the loop counts the same failure on the ops it measures."""
    try:
        run_op(item)
    except Exception as exc:
        detail["warmup_error"] = repr(exc)


def closed_loop(items, order, block, run_op, verify, expected, seconds, tracer=None) -> Loop:
    """Run ops on ``items`` in ``order`` (wrapping around) back to back, each
    verified before the next starts, for ``seconds`` and then to the end of
    the current block of ``block`` ops, so that every run measures the same
    mix of input strata.

    With ``verify`` None the outcomes are kept for verification after the
    loop (the CLI workload, so the reference child runs after RSS is read).
    """
    raw = []
    marks = []
    failed = 0
    outcomes = []
    clock = time.perf_counter_ns
    yardsticks = [yardstick_ns()]
    next_yardstick = clock() + YARDSTICK_PERIOD_NS
    deadline = clock() + int(seconds * 1e9)
    n = 0
    while n % block or clock() < deadline:
        if clock() >= next_yardstick:
            yardsticks.append(yardstick_ns())
            next_yardstick = clock() + YARDSTICK_PERIOD_NS
        i = order[n % len(order)]
        root = tracer.begin_op(n) if tracer else None
        t0 = clock()
        try:
            out = run_op(items[i])
            error = None
        except Exception as exc:  # an unexpected exception is a failed op
            out, error = None, exc
        raw.append(clock() - t0)
        marks.append(len(yardsticks) - 1)
        if tracer:
            tracer.end_op(root)
        if verify is None:
            outcomes.append((i, out, error))
        elif error is not None or not verify(items[i], out, expected[i]):
            failed += 1
        n += 1
    yardsticks.append(yardstick_ns())
    smooth = [statistics.median(yardsticks[max(0, k - 2) : k + 3]) for k in range(len(yardsticks))]
    latencies = [at_reference_speed(lat, smooth[k], smooth[k + 1]) for lat, k in zip(raw, marks)]
    return Loop(latencies, raw, failed, outcomes, yardsticks)


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _betai(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def percentile(sorted_values, p):
    """Harrell-Davis estimate of the p-th percentile, and the number of
    samples beyond the nearest-rank p-th percentile.

    The estimate weights every order statistic by a Beta((n+1)q, (n+1)(1-q))
    mass instead of taking one of them, so a single op's noise moves it
    little; weights more than ten standard deviations from rank qn are zero.
    """
    n = len(sorted_values)
    q = p / 100
    beyond = n - max(1, math.ceil(q * n))
    if n == 1:
        return sorted_values[0], beyond
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    half = 10 * math.sqrt(q * (1 - q) * n) + 2
    lo, hi = max(1, int(q * n - half)), min(n, int(q * n + half) + 1)
    cdf = [_betai(a, b, i / n) for i in range(lo - 1, hi + 1)]
    weights = [cdf[k + 1] - cdf[k] for k in range(hi - lo + 1)]
    return sum(w * x for w, x in zip(weights, sorted_values[lo - 1 : hi])) / sum(weights), beyond


def process_metrics():
    """cli.bare_python_ms, cli.import_sarithdim_ms and cli.import_mpmath_ms:
    medians over fresh processes, the imports read from ``-X importtime``."""
    bare, pkg, mp = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=PROCESS_TIMEOUT_S)
        bare.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sarithdim"],
            cwd=ROOT, env=CLI_ENV, capture_output=True, text=True, check=True, timeout=PROCESS_TIMEOUT_S,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
            if len(fields) == 3 and fields[1].isdigit():
                cumulative[fields[2]] = int(fields[1])
        pkg.append(cumulative["sarithdim"] / 1e3)
        mp.append(cumulative["mpmath"] / 1e3)
    return {
        "cli.bare_python_ms": (statistics.median(bare), "ms"),
        "cli.import_sarithdim_ms": (statistics.median(pkg), "ms"),
        "cli.import_mpmath_ms": (statistics.median(mp), "ms"),
    }


def known_defect_probes():
    """Outcome of each known-defect input, run once outside the timed loop."""
    report = []
    for argv in inputs.KNOWN_DEFECT_PROBES:
        code, stdout, stderr = cli_process(argv)
        status = "traceback" if "Traceback" in stderr else f"exit {code}"
        report.append({"argv": argv, "outcome": status})
    return report


def run(workload, seed, seconds, trace):
    w = WORKLOADS[workload]
    items, order = w["generate"](seed)
    detail = {
        "workload": workload,
        "seed": seed,
        "inputs": len(items),
        "inputs_digest": inputs.digest([items, order]),
    }
    is_cli = workload == "cli_mix"

    def reference_values():
        zetas = reference.zeta_values_in_child(w["discriminants"](items), ROOT)
        return [w["expected"](item, zetas) for item in items]

    if trace:
        return run_traced(w, items, order, reference_values(), seconds, detail, is_cli)

    setup = measure_setup(workload)
    expected = None if is_cli else reference_values()
    sd = import_package()
    if is_cli:
        loop = closed_loop(items, order, w["block"], lambda r: cli_process(r[0]), None, None, seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        expected = reference_values()
        failed = sum(
            1 for i, out, error in loop.outcomes if error is not None or not cli_verify(items[i], out, expected[i])
        )
        loop = loop._replace(failed=failed)
        detail["known_defects"] = known_defect_probes()
    else:
        warm_up(lambda item: w["op"](sd, item), w["warmup"], detail)
        loop = closed_loop(
            items, order, w["block"], lambda item: w["op"](sd, item), w["verify"], expected, seconds
        )
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = len(loop.latencies)
    ordered = sorted(loop.latencies)
    tail, beyond = percentile(ordered, w["tail"])
    raw = sorted(loop.raw)
    detail.update(
        attempted=attempted,
        failed=loop.failed,
        failed_op_share=loop.failed / attempted,
        distinct_inputs_used=len(set(order[:attempted])),
        tail_percentile=w["tail"],
        tail_samples_beyond=beyond,
        setup_samples_s=setup,
        raw={
            "ops_per_s": (attempted - loop.failed) / (sum(raw) / 1e9),
            "op_latency_p50_ms": percentile(raw, 50)[0] / 1e6,
            "op_latency_tail_ms": percentile(raw, w["tail"])[0] / 1e6,
        },
        yardstick_us={
            "reference": YARDSTICK_REF_NS / 1e3,
            "median": statistics.median(loop.yardsticks) / 1e3,
            "min": min(loop.yardsticks) / 1e3,
            "max": max(loop.yardsticks) / 1e3,
        },
    )
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "op_latency_p50_ms": (percentile(ordered, 50)[0] / 1e6, "ms"),
        "op_latency_tail_ms": (tail / 1e6, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return attempted, loop.failed, metrics, detail


def run_traced(w, items, order, expected, seconds, detail, is_cli):
    from spans import Tracer, summarize

    sd = import_package()
    run_op = (lambda item: w["op"](sd, item)) if not is_cli else (lambda r: cli_in_process(sd, r[0]))
    warm_up(run_op, w["warmup"] if not is_cli else [w["warmup"], None], detail)
    plain = closed_loop(items, order, w["block"], run_op, w["verify"], expected, seconds)
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(items, order, w["block"], run_op, w["verify"], expected, seconds, tracer)
    finally:
        tracer.uninstall()
    ops = len(traced.latencies)
    metrics, trace_detail = summarize(
        tracer, ops, reference.totient, lambda op: w["size"](items[order[op % len(order)]])
    )
    metrics.update(process_metrics())
    metrics["cli.run_ms"] = (statistics.median(plain.latencies) / 1e6 if is_cli else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (traced.ops_per_s / plain.ops_per_s, "ratio")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{detail['workload']}-{detail['seed']}.tsv.gz"
    tracer.write(spans_file)
    detail.update(trace_detail, spans_file=str(spans_file.relative_to(ROOT)), traced_ops=ops, untraced_ops=len(plain.latencies))
    return ops + len(plain.latencies), traced.failed + plain.failed, metrics, detail


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec_ = json.load(f)
    return {m["name"]: m["unit"] for m in spec_["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "sarithdim" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'sarithdim'}")
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return
    if args.workload is None:
        parser.error("--workload is required")
    attempted, failed, metrics, detail = run(args.workload, args.seed, args.seconds, args.trace)
    declared = declared_metrics(args.trace)
    for name, unit in declared.items():
        if name not in metrics or metrics[name][1] != unit:
            sys.exit(f"bench: metric {name} [{unit}] was not measured")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in declared.items()},
    }))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
