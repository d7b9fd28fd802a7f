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
from .errors import CalcError, DatumPlaceMismatch, MissingDatum, UnsupportedPrime
from .formal_degree import LocalRepDatum
from .numberfield import MAX_PRIME, is_prime, parse_field, build_S
from .quaternion import pdx_candidates
from .vndim import check_identities, jl_ratio_pgl, jl_ratio_sl, module_vn_dim, steinberg_vn_dim
from .zeta import functional_equation_check, zeta_F_minus1

DEFAULT_TOL = 1e-8
DEFAULT_PRECISION_BITS = 128
#: Largest accepted --working-precision.
MAX_PRECISION_BITS = 4096

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
        if selector not in ("one", "both"):
            raise argparse.ArgumentTypeError(f"selector must be 'one' or 'both', got {selector!r}")
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
        # above the cap build_S raises UNSUPPORTED_PRIME, a domain error
        if p <= MAX_PRIME and not is_prime(p):
            raise argparse.ArgumentTypeError(f"{p} is not prime")
        entries.append((p, selector))
    return entries


def _build_S(F, entries):
    """build_S over parsed --s-primes entries.  An entry kept as text is above
    MAX_PRIME; it raises UnsupportedPrime after the errors of the entries
    before it, as build_S does for an int above the cap."""
    for i, (p, _) in enumerate(entries):
        if isinstance(p, str):
            build_S(F, entries[:i])
            raise UnsupportedPrime(f"prime {p} exceeds the supported maximum {MAX_PRIME}")
    return build_S(F, entries)


def _tol_arg(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    # a non-finite tolerance, or one as large as zeta_F(2) > 1 itself, gives the check no teeth
    if not (math.isfinite(tol) and 0 < tol < 1):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and in (0, 1), got {text!r}")
    return tol


def _int_in_range_arg(low: int, high: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low or (high is not None and value > high):
            bounds = f"in [{low}, {high}]" if high is not None else f">= {low}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return parse


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
        if kind == "weight" and value < 2:
            raise argparse.ArgumentTypeError("weights must be >= 2")
        if kind == "dim" and value < 1:
            raise argparse.ArgumentTypeError("dimensions must be >= 1")
        entries.append((kind, value))
    return entries


def _diag(name: str, status: str, detail: str) -> dict:
    return {"name": name, "status": status, "detail": detail}


def _build_local_data(S, entries):
    places = S.places
    if len(entries) < len(places):
        raise MissingDatum(f"{len(places)} places in S but only {len(entries)} local data entries")
    if len(entries) > len(places):
        raise DatumPlaceMismatch(f"{len(entries)} local data entries for {len(places)} places")
    data = []
    for place, (kind, value) in zip(places, entries):
        if place.is_real != (kind == "weight"):
            raise DatumPlaceMismatch(f"entry {kind}:{value} does not fit place {place}")
        if place.is_real:
            data.append(LocalRepDatum.archimedean(place, value))
        else:
            data.append(LocalRepDatum.finite(place, value))
    return data


def _cmd_covolume(ns):
    F = parse_field(ns.field)
    S = _build_S(F, ns.s_primes)
    cov = sl2_covolume(F, S) if ns.group == "sl" else pgl2_covolume(F, S)
    return f"covolume_{ns.group}", cov.value, []


def _cmd_zeta(ns):
    F = parse_field(ns.field)
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


def _cmd_steinberg_dim(ns):
    F = parse_field(ns.field)
    S = _build_S(F, ns.s_primes)
    dim = steinberg_vn_dim(F, S, ns.group)
    diagnostics = [_diag("pgl_two_routes", "pass", "closed form == covolume * formal degree")]
    return f"steinberg_dim_{ns.group}", dim.value, diagnostics


def _cmd_module_dim(ns):
    F = parse_field(ns.field)
    S = _build_S(F, ns.s_primes)
    data = _build_local_data(S, ns.local_data)
    dim = module_vn_dim(F, S, ns.group, data)
    return f"module_dim_{ns.group}", dim.value, []


def _cmd_jl_ratio(ns):
    F = parse_field(ns.field)
    S = _build_S(F, ns.s_primes)
    if ns.group == "pgl":
        value = jl_ratio_pgl(F, S, ns.pd_order or 1)
        diagnostics = []
        if ns.pd_order is None:
            diagnostics.append(_diag("pd_order", "info", "coefficient only: multiply by |PD*(O_S)|"))
        return "jl_ratio_pgl", value, diagnostics
    value = jl_ratio_sl(F, S)
    status = {c.name: c.status for c in check_identities(F, S).checks}
    diagnostics = [
        _diag(name, status[name], detail)
        for name, detail in (
            ("sl_quaternion_zeta_match", "SL ratio vs zeta_D factorization route"),
            ("sl_steinberg_match", "SL ratio vs Steinberg SL dimension"),
        )
    ]
    return "jl_ratio_sl", value, diagnostics


def _cmd_candidates(ns):
    F = parse_field(ns.field)
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


def _cmd_check(ns):
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
    F = parse_field(ns.field)
    S = _build_S(F, ns.s_primes)
    report = check_identities(F, S)
    diagnostics = [_diag(c.name, c.status, c.detail) for c in report.checks]
    return "identity_checks", Fraction(1 if report.all_pass else 0), diagnostics


_HANDLERS = {
    "covolume": _cmd_covolume,
    "zeta": _cmd_zeta,
    "steinberg-dim": _cmd_steinberg_dim,
    "module-dim": _cmd_module_dim,
    "jl-ratio": _cmd_jl_ratio,
    "candidates": _cmd_candidates,
    "check": _cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarithdim",
        description="Exact covolume / formal degree / von Neumann dimension calculator "
        "for S-arithmetic subgroups of SL(2) and PGL(2) over totally real fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, s_primes=True, field_required=True):
        p.add_argument("--field", required=field_required, help="field spec: 'Q' or 'Q(sqrt <d>)'")
        if s_primes:
            p.add_argument(
                "--s-primes",
                type=_s_primes_arg,
                default=[],
                help="comma-separated finite primes; use 'p:both' for both places over a split prime",
            )
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("covolume", help="covolume of SL(2,O_S) or PGL(2,O_S)")
    common(p)
    p.add_argument("--group", choices=("sl", "pgl"), required=True)

    p = sub.add_parser("zeta", help="exact zeta_F(-1) with a numeric functional-equation check")
    common(p, s_primes=False)
    p.add_argument("--tol", type=_tol_arg, default=DEFAULT_TOL, help="absolute tolerance, finite and in (0, 1)")
    p.add_argument(
        "--working-precision",
        type=_int_in_range_arg(1, MAX_PRECISION_BITS),
        default=DEFAULT_PRECISION_BITS,
        metavar="BITS",
        help=f"minimum working precision in bits, 1 to {MAX_PRECISION_BITS}",
    )

    p = sub.add_parser("steinberg-dim", help="von Neumann dimension of the Steinberg module")
    common(p)
    p.add_argument("--group", choices=("sl", "psl", "pgl"), required=True)

    p = sub.add_parser("module-dim", help="dimension of the module with given local data")
    common(p)
    p.add_argument("--group", choices=("sl", "psl", "pgl"), required=True)
    p.add_argument(
        "--local-data",
        type=_local_data_arg,
        required=True,
        help="comma-separated 'weight:<n>' (real places first) then 'dim:<m>' per finite place",
    )

    p = sub.add_parser("jl-ratio", help="dimension ratio across the quaternion correspondence")
    common(p)
    p.add_argument("--group", choices=("sl", "pgl"), default="sl")
    p.add_argument("--pd-order", type=_int_in_range_arg(1), default=None, metavar="N")

    p = sub.add_parser("candidates", help="finite-subgroup candidates for PD*(O_S)")
    common(p, s_primes=False)

    p = sub.add_parser("check", help="cross-route identity suite at one point or on the grid")
    common(p, field_required=False)
    p.add_argument("--grid", action="store_true", help="run the standard field x S grid")

    return parser


def _request_echo(ns) -> dict:
    echo = {"command": ns.command}
    if getattr(ns, "field", None) is not None:
        echo["field"] = ns.field
    if hasattr(ns, "s_primes"):
        echo["s_primes"] = [str(p) if sel == "one" else f"{p}:both" for p, sel in ns.s_primes]
    for key in ("group", "pd_order", "tol", "working_precision"):
        if getattr(ns, key, None) is not None:
            echo[key] = getattr(ns, key)
    if getattr(ns, "local_data", None) is not None:
        echo["local_data"] = [f"{kind}:{value}" for kind, value in ns.local_data]
    if getattr(ns, "grid", False):
        echo["grid"] = True
    echo["format"] = ns.format
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
        quantity, value, diagnostics = _HANDLERS[ns.command](ns)
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
