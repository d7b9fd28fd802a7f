"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Everything here is desk scale (< 1 minute total).
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import sarithdim
from sarithdim.cli import GRID_FIELD_SPECS, grid_points
from sarithdim.numberfield import NumberField, build_S, decompose_prime, parse_field
from sarithdim.covolume import pgl2_covolume
from sarithdim.formal_degree import steinberg_global_degree
from sarithdim.quaternion import zeta_D_leading_ratio_at_zero
from sarithdim.vndim import atiyah_schmid_dim, jl_ratio_pgl, jl_ratio_sl, steinberg_vn_dim
from sarithdim.zeta import (
    primes_up_to,
    zeta_F_2_euler_product,
    zeta_F_minus1,
)

PRIMES_TO_100 = [p for p in range(2, 101) if all(p % k for k in range(2, p))]


def fundamental_discriminant_fields(limit):
    fields = []
    for d in range(2, limit + 1):
        if any(d % (k * k) == 0 for k in range(2, int(d**0.5) + 1)):
            continue
        F = NumberField(d)
        if F.discriminant <= limit:
            fields.append(F)
    return sorted(fields, key=lambda F: F.discriminant)


def report(name, started):
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_anchor_values():
    started = time.perf_counter()
    Q = parse_field("Q")
    assert steinberg_vn_dim(Q, build_S(Q, []), "psl").value == Fraction(1, 6)
    assert atiyah_schmid_dim(Fraction(1, 24), 2) == Fraction(1, 12)
    report("1 anchor-value reproduction", started)


def test_criterion_2_two_route_identity():
    started = time.perf_counter()
    count = 0
    for F, S in grid_points():
        z = abs(zeta_F_minus1(F).value)
        closed_form = 2 * z * Fraction(1, 2**S.size)
        for v in S.finite_places:
            closed_form *= v.q - 1
        via_covolume = pgl2_covolume(F, S).value * steinberg_global_degree(S)
        assert via_covolume == closed_form, (F, S)
        assert steinberg_vn_dim(F, S, "pgl").value == closed_form, (F, S)
        count += 1
    assert count == 210
    report(f"2 two-route identity on {count} grid points", started)


def test_criterion_3_zeta_cross_validation():
    started = time.perf_counter()
    fields = fundamental_discriminant_fields(200)
    assert len(fields) >= 50
    primes = primes_up_to(10**6)
    for F in fields:
        siegel = zeta_F_minus1(F).value
        zf2 = zeta_F_2_euler_product(F, primes)
        # functional equation: |zeta_F(-1)| = 2^n d^(3/2) (2 pi)^(-2n) zeta_F(2)
        import math

        oracle = 2**2 * F.discriminant**1.5 / (2 * math.pi) ** 4 * zf2
        relative = abs(oracle - float(siegel)) / float(siegel)
        assert relative < 1e-8, (F, relative)
        assert Fraction(round(60 * oracle), 60) == siegel, F
    anchors = {5: Fraction(1, 30), 2: Fraction(1, 12)}
    for d, expected in anchors.items():
        assert zeta_F_minus1(NumberField(d)).value == expected
    report(f"3 zeta cross-validation on {len(fields)} discriminants", started)


def test_criterion_4_sl_ratio_three_routes():
    started = time.perf_counter()
    count = 0
    for F, S in grid_points():
        if S.size % 2:
            continue
        ratio = jl_ratio_sl(F, S)
        assert ratio == zeta_D_leading_ratio_at_zero(F, S), (F, S)
        assert ratio == steinberg_vn_dim(F, S, "sl").value, (F, S)
        count += 1
    Q = parse_field("Q")
    assert jl_ratio_sl(Q, build_S(Q, [2])) == Fraction(1, 12)
    report(f"4 SL-ratio three-route consistency on {count} even points", started)


def test_criterion_5_pgl_sl_transfer():
    started = time.perf_counter()
    count = 0
    for F, S in grid_points():
        if S.size % 2:
            continue
        assert jl_ratio_pgl(F, S) * 2**S.size / 2 == jl_ratio_sl(F, S), (F, S)
        count += 1
    report(f"5 PGL-to-SL transfer on {count} even points", started)


def test_criterion_6_splitting_law_oracle():
    started = time.perf_counter()
    for spec in GRID_FIELD_SPECS[1:]:
        F = parse_field(spec)
        D = F.discriminant
        for p in PRIMES_TO_100:
            places = decompose_prime(F, p)
            assert sum(v.e * v.f for v in places) == F.degree, (F, p)
            if p == 2 or D % p == 0:
                continue
            is_split = len(places) == 2
            brute = any((x * x - D) % p == 0 for x in range(p))
            assert is_split == brute, (F, p)
    Q = parse_field("Q")
    for p in PRIMES_TO_100:
        assert sum(v.e * v.f for v in decompose_prime(Q, p)) == 1
    report("6 splitting-law oracle", started)


def _run_cli(args):
    # the child imports the same package as this process, installed or not
    source_root = str(Path(sarithdim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "sarithdim", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_criterion_7_cli_contract():
    started = time.perf_counter()
    first = _run_cli(["jl-ratio", "--field", "Q", "--s-primes", "2", "--group", "sl", "--format", "json"])
    assert first.returncode == 0
    payload = json.loads(first.stdout)
    assert payload["value"] == {"num": "1", "den": "12"}

    second = _run_cli(["steinberg-dim", "--field", "Q", "--group", "psl", "--format", "json"])
    assert second.returncode == 0
    payload = json.loads(second.stdout)
    assert payload["value"] == {"num": "1", "den": "6"}

    third = _run_cli(["jl-ratio", "--field", "Q", "--s-primes", "2,3"])
    assert third.returncode == 1
    payload = json.loads(third.stdout)
    assert payload["status"] == "error"
    assert payload["error"]["code"] == "ODD_CARDINALITY"

    for args in (
        ["jl-ratio", "--field", "Q", "--s-primes", "2", "--group", "sl", "--format", "json"],
        ["steinberg-dim", "--field", "Q", "--group", "psl", "--format", "json"],
        ["jl-ratio", "--field", "Q", "--s-primes", "2,3"],
    ):
        a, b = _run_cli(args), _run_cli(args)
        assert a.stdout == b.stdout and a.stderr == b.stderr and a.returncode == b.returncode
    report("7 CLI contract", started)
