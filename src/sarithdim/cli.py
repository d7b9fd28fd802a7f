"""Command-line frontend emitting exact rationals plus decimals.

The JSON response goes to stdout and human-readable diagnostic lines to
stderr.  Exit status: 0 on success, 1 on a domain error (the JSON then
carries a stable error code), 2 on a usage error.  Output is deterministic
byte for byte for identical arguments.
"""

import argparse
import itertools
import json
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from .covolume import pgl2_covolume, sl2_covolume
from .errors import CalcError, DatumPlaceMismatch, UnsupportedPrime
from .formal_degree import LocalRepDatum
from .numberfield import MAX_PRIME, is_prime, parse_field, build_S
from .quaternion import pdx_candidates
from .vndim import SL_ROWS, check_identities, jl_ratio_pgl, jl_ratio_sl, module_vn_dim, steinberg_vn_dim
from .zeta import MAX_PRECISION_BITS, functional_equation_check, zeta_F_minus1

DEFAULT_TOL = 1e-8
DEFAULT_PRECISION_BITS = 128

GRID_FIELD_SPECS = ("Q", "Q(sqrt 2)", "Q(sqrt 3)", "Q(sqrt 5)", "Q(sqrt 13)")
GRID_PRIMES = (2, 3, 5, 7, 11, 13)
GRID_MAX_FINITE = 3
#: Significant digits of the "decimal" field.
DECIMAL_DIGITS = 20


def decimal_string(value: Fraction) -> str:
    """Decimal rendering of an exact rational to DECIMAL_DIGITS significant digits."""
    if value == 0:
        return "0." + "0" * (DECIMAL_DIGITS - 1)
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _s_primes_arg(text: str):
    entries = []
    if not text.strip():
        return entries
    for chunk in text.split(","):
        chunk = chunk.strip()
        selector = "one"
        if ":" in chunk:
            chunk, selector = (part.strip() for part in chunk.split(":", 1))
        # int() refuses more than 4300 digits, leading zeros included
        digits = chunk.lstrip("0")
        if digits.isdecimal() and len(digits) > len(str(MAX_PRIME)):
            # above the cap by its length alone: kept as text, for _build_S to reject
            entries.append((digits, selector))
            continue
        try:
            p = int(digits if digits.isdecimal() else chunk)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{chunk!r} is not an integer prime") from None
        # above the cap build_S raises UNSUPPORTED_PRIME, a domain error;
        # cli_mix's "--s-primes 4|9|15|1" request pins the exit 2 below it
        if p <= MAX_PRIME and not is_prime(p):
            raise argparse.ArgumentTypeError(f"{p} is not prime")
        entries.append((p, selector))
    return entries


def _build_S(F, entries):
    """One build_S call over parsed --s-primes entries, passed as a generator.
    An entry kept as text is above MAX_PRIME; the generator raises
    UnsupportedPrime when build_S reaches it, where build_S raises for an int
    above the cap: after the decomposition and selector errors of the entries
    before it, and before SSet refuses a repeated place."""

    def checked():
        for p, selector in entries:
            if isinstance(p, str):
                raise UnsupportedPrime(f"prime {p} exceeds the supported maximum {MAX_PRIME}")
            yield p, selector

    return build_S(F, checked())


def _tol_arg(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    # the JSON echo cannot hold nan or inf; functional_equation_check owns the range
    if not math.isfinite(tol):
        raise argparse.ArgumentTypeError(f"tolerance must be finite, got {text!r}")
    return tol


def _local_data_arg(text: str):
    entries = []
    for chunk in text.split(","):
        kind, _, raw = chunk.strip().partition(":")
        if kind not in ("weight", "dim"):
            raise argparse.ArgumentTypeError(f"local datum must be 'weight:<n>' or 'dim:<m>', got {chunk!r}")
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{raw!r} is not an integer") from None
        # cli_mix's "--local-data weight:1" request pins this exit 2
        if kind == "weight" and value < 2:
            raise argparse.ArgumentTypeError("weights must be >= 2")
        entries.append((kind, value))
    return entries


def _diag(name: str, status: str, detail: str) -> dict:
    return {"name": name, "status": status, "detail": detail}


def _cmd_covolume(ns, F, S):
    cov = sl2_covolume(F, S) if ns.group == "sl" else pgl2_covolume(F, S)
    return f"covolume_{ns.group}", cov.value, []


def _cmd_zeta(ns, F, S):
    special = zeta_F_minus1(F)
    report = functional_equation_check(F, ns.tol, precision_bits=ns.working_precision)
    diagnostics = [
        _diag(
            "functional_equation",
            "pass" if report.ok else "fail",
            f"zeta_F(2) numeric {report.numeric_side!r} vs rational side {report.rational_side!r} (tol {ns.tol!r})",
        )
    ]
    return "zeta_minus1", special.value, diagnostics


def _cmd_steinberg_dim(ns, F, S):
    dim = steinberg_vn_dim(F, S, ns.group)
    diagnostics = [_diag("pgl_two_routes", "pass", "closed form == covolume * formal degree")]
    return f"steinberg_dim_{ns.group}", dim.value, diagnostics


def _cmd_module_dim(ns, F, S):
    # each datum checks its kind and range as it is built; module_vn_dim names uncovered places
    if len(ns.local_data) > len(S.places):
        raise DatumPlaceMismatch(f"{len(ns.local_data)} local data entries for {len(S.places)} places")
    data = [
        LocalRepDatum.archimedean(v, value) if kind == "weight" else LocalRepDatum.finite(v, value)
        for v, (kind, value) in zip(S.places, ns.local_data)
    ]
    return f"module_dim_{ns.group}", module_vn_dim(F, S, ns.group, data).value, []


def _cmd_jl_ratio(ns, F, S):
    if ns.group == "pgl":
        value = jl_ratio_pgl(F, S, 1 if ns.pd_order is None else ns.pd_order)
        diagnostics = []
        if ns.pd_order is None:
            diagnostics.append(_diag("pd_order", "info", "coefficient only: multiply by |PD*(O_S)|"))
        return "jl_ratio_pgl", value, diagnostics
    value = jl_ratio_sl(F, S)
    status = {c.name: c.status for c in check_identities(F, S).checks}
    diagnostics = [_diag(name, status[name], detail) for name, detail in SL_ROWS[:2]]
    return "jl_ratio_sl", value, diagnostics


def _cmd_candidates(ns, F, S):
    report = pdx_candidates(F)
    diagnostics = [
        _diag("cyclic_orders", "info", ",".join(str(m) for m in report.cyclic_orders)),
        _diag("dihedral_orders", "info", ",".join(str(m) for m in report.dihedral_orders)),
        _diag("exceptional", "info", ",".join(report.exceptional)),
        _diag("caveat", "info", "necessary-condition superset, not exact orders"),
    ]
    return "pdx_candidate_bound", Fraction(report.bound), diagnostics


def grid_points():
    """The standard identity grid: five fields, finite parts of size <= 3."""
    for spec in GRID_FIELD_SPECS:
        F = parse_field(spec)
        for k in range(GRID_MAX_FINITE + 1):
            for subset in itertools.combinations(GRID_PRIMES, k):
                yield F, build_S(F, subset)


def _cmd_check(ns, F, S):
    if ns.grid:
        total = 0
        passed = 0
        diagnostics = []
        for F, S in grid_points():
            report = check_identities(F, S)
            total += 1
            if report.all_pass:
                passed += 1
            else:
                for c in report.checks:
                    if c.status == "fail":
                        diagnostics.append(_diag(f"{F}|{S}|{c.name}", "fail", c.detail))
        diagnostics.insert(0, _diag("grid", "pass" if passed == total else "fail", f"{passed}/{total} points pass"))
        return "identity_grid", Fraction(passed, total), diagnostics
    report = check_identities(F, S)
    diagnostics = [_diag(c.name, c.status, c.detail) for c in report.checks]
    return "identity_checks", Fraction(1 if report.all_pass else 0), diagnostics


def build_parser() -> argparse.ArgumentParser:
    """The argument parser.  Each subcommand is declared once, by one
    ``command`` call that adds it, binds its handler (``run`` calls
    ``ns.handler(ns, F, S)``) and adds the shared ``--field``, ``--s-primes``
    and ``--format`` options; its own options follow the call."""
    parser = argparse.ArgumentParser(
        prog="sarithdim",
        description="Exact covolume / formal degree / von Neumann dimension calculator "
        "for S-arithmetic subgroups of SL(2) and PGL(2) over totally real fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, s_primes=True, field_required=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--field", required=field_required, help="field spec: 'Q' or 'Q(sqrt <d>)'")
        if s_primes:
            p.add_argument(
                "--s-primes",
                type=_s_primes_arg,
                default=[],
                help="comma-separated finite primes; use 'p:both' for both places over a split prime",
            )
        p.add_argument("--format", choices=("json", "table"), default="json")
        return p

    p = command("covolume", _cmd_covolume, "covolume of SL(2,O_S) or PGL(2,O_S)")
    p.add_argument("--group", choices=("sl", "pgl"), required=True)

    p = command("zeta", _cmd_zeta, "exact zeta_F(-1) with a numeric functional-equation check", s_primes=False)
    p.add_argument("--tol", type=_tol_arg, default=DEFAULT_TOL, help="absolute tolerance, finite and in [1e-12, 1)")
    p.add_argument(
        "--working-precision",
        type=int,
        default=DEFAULT_PRECISION_BITS,
        metavar="BITS",
        help=f"minimum working precision in bits, 1 to {MAX_PRECISION_BITS}",
    )

    p = command("steinberg-dim", _cmd_steinberg_dim, "von Neumann dimension of the Steinberg module")
    p.add_argument("--group", choices=("sl", "psl", "pgl"), required=True)

    p = command("module-dim", _cmd_module_dim, "dimension of the module with given local data")
    p.add_argument("--group", choices=("sl", "psl", "pgl"), required=True)
    p.add_argument(
        "--local-data",
        type=_local_data_arg,
        required=True,
        help="comma-separated 'weight:<n>' (real places first) then 'dim:<m>' per finite place",
    )

    p = command("jl-ratio", _cmd_jl_ratio, "dimension ratio across the quaternion correspondence")
    p.add_argument("--group", choices=("sl", "pgl"), default="sl")
    p.add_argument("--pd-order", type=int, default=None, metavar="N")

    command("candidates", _cmd_candidates, "finite-subgroup candidates for PD*(O_S)", s_primes=False)

    p = command("check", _cmd_check, "cross-route identity suite at one point or on the grid", field_required=False)
    p.add_argument("--grid", action="store_true", help="run the standard field x S grid")

    return parser


def _request_echo(ns) -> dict:
    """The request as argparse parsed it: every option in declaration order
    (``command``, then ``field`` and ``s_primes``, then the subcommand's
    own), with ``format`` last.  An option left unset (None, or a flag left
    False) is not echoed; a falsy value such as ``--tol 0`` is."""
    echo = {key: value for key, value in vars(ns).items() if key != "handler" and value is not None and value is not False}
    if "s_primes" in echo:
        echo["s_primes"] = [str(p) if sel == "one" else f"{p}:{sel}" for p, sel in ns.s_primes]
    if "local_data" in echo:
        echo["local_data"] = [f"{kind}:{value}" for kind, value in ns.local_data]
    echo["format"] = echo.pop("format")
    return echo


def render_table(response: dict) -> str:
    """Fixed-width row: quantity | exact | decimal."""
    value = response["value"]
    exact = f"{value['num']}/{value['den']}"
    return f"{response['quantity']:<28} | {exact:>12} | {response['decimal']}"


def run(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "check" and not ns.grid and ns.field is None:
        parser.error("check requires --field (or --grid)")
    response = _request_echo(ns)
    try:
        # check --grid builds its own fields; zeta and candidates take no S
        F = S = None
        if not getattr(ns, "grid", False):
            F = parse_field(ns.field)
            if hasattr(ns, "s_primes"):
                S = _build_S(F, ns.s_primes)
        quantity, value, diagnostics = ns.handler(ns, F, S)
    except CalcError as err:
        response["status"] = "error"
        response["error"] = {"code": err.code, "message": str(err)}
        print(json.dumps(response))
        return 1
    response["quantity"] = quantity
    response["value"] = {"num": str(value.numerator), "den": str(value.denominator)}
    response["decimal"] = decimal_string(value)
    response["diagnostics"] = diagnostics
    response["status"] = "ok"
    if ns.format == "table":
        print(render_table(response))
    else:
        print(json.dumps(response))
    for d in diagnostics:
        print(f"{d['name']}: {d['status']} ({d['detail']})", file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run())
