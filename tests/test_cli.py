import contextlib
import io
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sarithdim
from sarithdim import cli, vndim
from sarithdim.numberfield import MAX_PRIME


def invoke(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rejection(argv):
    """(error code, message) of the request argv: the domain error's code and
    message at exit 1, or None and argparse's message at exit 2."""
    code, out, err = run_bounded(argv)
    if code == 2:
        assert out == "" and "usage:" in err and "Traceback" not in err
        return None, err.splitlines()[-1].partition(": error: ")[2]
    assert code == 1 and err == ""
    error = json.loads(out)["error"]
    return error["code"], error["message"]


#: --local-data over S = {oo, 2} of Q -> (code, message) as rejection() gives
#: them.  The kind and the range of each entry are checked as its datum is
#: built, and module_vn_dim names a place left uncovered.
INVALID_LOCAL_DATA = {
    "weight:x": (None, "argument --local-data: 'x' is not an integer"),
    "weight:2": ("MISSING_DATUM", "no local datum for v0(p=2,e=1,f=1)"),
    "dim:2": ("DATUM_PLACE_MISMATCH", "oo_0 is real and takes a weight, not a complex dimension"),
    "dim:2,weight:2": ("DATUM_PLACE_MISMATCH", "oo_0 is real and takes a weight, not a complex dimension"),
    "weight:2,weight:2": ("DATUM_PLACE_MISMATCH", "v0(p=2,e=1,f=1) is finite and takes a complex dimension, not a weight"),
    "weight:2,dim:2,dim:1": ("DATUM_PLACE_MISMATCH", "3 local data entries for 2 places"),
    "weight:2,dim:0": ("OUT_OF_RANGE", "the datum at v0(p=2,e=1,f=1) must be an int >= 1, got 0"),
}

#: zeta (flag, value) -> (code, message) as rejection() gives them.  A finite
#: tolerance and any int precision reach functional_equation_check, the one
#: home of each range; the JSON echo cannot hold a non-finite tolerance.
OUT_OF_RANGE_ZETA_FLAGS = {
    **{("--tol", v): (None, f"argument --tol: tolerance must be finite, got {v!r}") for v in ("nan", "inf", "-inf")},
    ("--tol", "abc"): (None, "argument --tol: 'abc' is not a number"),
    ("--tol", "1"): ("TOLERANCE_TOO_TIGHT", "tolerance 1.0 is not below 1, so the check has no teeth"),
    **{("--tol", v): ("TOLERANCE_TOO_TIGHT", f"tolerance {float(v)} below the supported floor of 1e-12") for v in ("0", "-5")},
    **{("--working-precision", v): (None, f"argument --working-precision: invalid int value: {v!r}") for v in ("nan", "inf")},
    **{
        ("--working-precision", v): ("OUT_OF_RANGE", f"precision_bits must be None or an int in [1, 4096], got {v}")
        for v in ("0", "-5", "4097")
    },
}


class TestContractExamples:
    def test_jl_ratio_sl(self, capsys):
        code, out, _ = invoke(capsys, ["jl-ratio", "--field", "Q", "--s-primes", "2", "--group", "sl", "--format", "json"])
        assert code == 0
        response = json.loads(out)
        assert response["value"] == {"num": "1", "den": "12"}
        assert response["status"] == "ok"

    def test_steinberg_psl_no_finite_places(self, capsys):
        code, out, _ = invoke(capsys, ["steinberg-dim", "--field", "Q", "--group", "psl", "--format", "json"])
        assert code == 0
        response = json.loads(out)
        assert response["value"] == {"num": "1", "den": "6"}

    def test_odd_cardinality_error(self, capsys):
        code, out, _ = invoke(capsys, ["jl-ratio", "--field", "Q", "--s-primes", "2,3"])
        assert code == 1
        response = json.loads(out)
        assert response["status"] == "error"
        assert response["error"]["code"] == "ODD_CARDINALITY"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["jl-ratio", "--field", "Q", "--s-primes", "2", "--group", "sl"],
            ["zeta", "--field", "Q(sqrt 5)"],
            ["check", "--field", "Q(sqrt 5)", "--s-primes", "11:both"],
            ["steinberg-dim", "--field", "Q(sqrt 2)", "--s-primes", "2,3", "--group", "sl", "--format", "table"],
        ],
    )
    def test_byte_identical_runs(self, capsys, argv):
        first = invoke(capsys, argv)
        second = invoke(capsys, argv)
        assert first == second


class TestResponseShape:
    def test_json_round_trip(self, capsys):
        code, out, _ = invoke(capsys, ["covolume", "--field", "Q(sqrt 5)", "--s-primes", "11", "--group", "pgl"])
        assert code == 0
        response = json.loads(out)
        value = Fraction(int(response["value"]["num"]), int(response["value"]["den"]))
        assert cli.decimal_string(value) == response["decimal"]

    def test_value_in_lowest_terms(self, capsys):
        code, out, _ = invoke(capsys, ["jl-ratio", "--field", "Q", "--s-primes", "2,3,5", "--group", "sl"])
        assert code == 0
        response = json.loads(out)
        num = int(response["value"]["num"])
        den = int(response["value"]["den"])
        from math import gcd

        assert (num, den) == (2, 3)  # 1/12 * 1 * 2 * 4, already reduced
        assert den > 0 and gcd(num, den) == 1

    def test_echo_fields(self, capsys):
        _, out, _ = invoke(capsys, ["jl-ratio", "--field", "Q", "--s-primes", "2", "--pd-order", "24", "--group", "pgl"])
        response = json.loads(out)
        assert response["command"] == "jl-ratio"
        assert response["field"] == "Q"
        assert response["s_primes"] == ["2"]
        assert response["group"] == "pgl"
        assert response["pd_order"] == 24

    def test_diagnostics_on_stderr(self, capsys):
        _, _, err = invoke(capsys, ["jl-ratio", "--field", "Q", "--s-primes", "2", "--group", "sl"])
        assert "sl_quaternion_zeta_match: pass" in err

    def test_route_disagreement_is_a_failed_diagnostic(self, capsys, monkeypatch):
        original = vndim._pgl2_covolume_terms
        monkeypatch.setattr(vndim, "_pgl2_covolume_terms", lambda inv: (2 * original(inv)[0], original(inv)[1]))
        code, out, err = invoke(capsys, ["jl-ratio", "--field", "Q", "--s-primes", "2", "--group", "sl"])
        assert code == 0
        assert json.loads(out)["value"] == {"num": "1", "den": "12"}
        assert "sl_quaternion_zeta_match: pass" in err
        assert "sl_steinberg_match: fail" in err

    def test_grid_reports_each_failed_point(self, capsys, monkeypatch):
        original = vndim._pgl2_covolume_terms
        monkeypatch.setattr(vndim, "_pgl2_covolume_terms", lambda inv: (2 * original(inv)[0], original(inv)[1]))
        code, out, err = invoke(capsys, ["check", "--grid"])
        assert code == 0
        response = json.loads(out)
        assert response["value"] == {"num": "0", "den": "1"}
        assert response["decimal"] == "0.0000000000000000000"
        assert response["diagnostics"][0] == cli._diag("grid", "fail", "0/210 points pass")
        assert err.startswith("grid: fail (0/210 points pass)\n")
        first = cli._diag("Q|S(Q; oo x1)|pgl_two_routes", "fail", "covolume*degree vs closed form: 1/6 vs 1/12")
        assert response["diagnostics"][1] == first
        assert sum(d["name"].endswith("|pgl_two_routes") for d in response["diagnostics"]) == 210


class TestTable:
    def test_row_format(self, capsys):
        code, out, _ = invoke(capsys, ["steinberg-dim", "--field", "Q", "--group", "pgl", "--format", "table"])
        assert code == 0
        quantity, exact, decimal = (part.strip() for part in out.rstrip("\n").split("|"))
        assert quantity == "steinberg_dim_pgl"
        assert exact == "1/12"
        assert decimal.startswith("0.0833")

    def test_render_table_pure(self):
        response = {
            "quantity": "steinberg_dim_pgl",
            "value": {"num": "1", "den": "12"},
            "decimal": "0.083333333333333333333",
        }
        row = cli.render_table(response)
        assert row == cli.render_table(response)
        assert "1/12" in row


class TestCommands:
    def test_zeta_functional_equation_diag(self, capsys):
        code, out, _ = invoke(capsys, ["zeta", "--field", "Q(sqrt 13)", "--tol", "1e-9"])
        assert code == 0
        response = json.loads(out)
        assert response["value"] == {"num": "1", "den": "6"}
        (diag,) = response["diagnostics"]
        assert diag["name"] == "functional_equation"
        assert diag["status"] == "pass"

    def test_module_dim(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["module-dim", "--field", "Q", "--s-primes", "2", "--group", "sl", "--local-data", "weight:2,dim:2"],
        )
        assert code == 0
        response = json.loads(out)
        assert response["value"] == {"num": "1", "den": "6"}

    @pytest.mark.parametrize("local_data", INVALID_LOCAL_DATA)
    def test_module_dim_invalid_local_data(self, local_data):
        argv = ["module-dim", "--field", "Q", "--s-primes", "2", "--group", "sl", "--local-data", local_data]
        assert rejection(argv) == INVALID_LOCAL_DATA[local_data]

    def test_check_single_point(self, capsys):
        code, out, _ = invoke(capsys, ["check", "--field", "Q", "--s-primes", "2"])
        assert code == 0
        response = json.loads(out)
        assert response["value"] == {"num": "1", "den": "1"}
        assert all(d["status"] == "pass" for d in response["diagnostics"])

    def test_check_odd_point_skips(self, capsys):
        code, out, _ = invoke(capsys, ["check", "--field", "Q", "--s-primes", "2,3"])
        assert code == 0
        response = json.loads(out)
        statuses = {d["name"]: d["status"] for d in response["diagnostics"]}
        assert statuses["sl_quaternion_zeta_match"] == "skipped"

    def test_candidates(self, capsys):
        code, out, _ = invoke(capsys, ["candidates", "--field", "Q"])
        assert code == 0
        response = json.loads(out)
        assert response["value"] == {"num": "60", "den": "1"}

    def test_covolume_sl(self, capsys):
        code, out, _ = invoke(capsys, ["covolume", "--field", "Q", "--group", "sl"])
        response = json.loads(out)
        assert response["value"] == {"num": "1", "den": "24"}


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.run(["jl-ratio", "--field", "Q", "--frobnicate", "1"])
        assert err.value.code == 2

    def test_nonprime_s_prime(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.run(["jl-ratio", "--field", "Q", "--s-primes", "4"])
        assert err.value.code == 2

    def test_bad_selector(self, capsys):
        code, out, _ = invoke(capsys, ["covolume", "--field", "Q", "--s-primes", "5:all", "--group", "sl"])
        assert code == 1
        response = json.loads(out)
        assert response["s_primes"] == ["5:all"]
        assert response["error"] == {"code": "INVALID_SELECTOR", "message": "unknown place selector 'all'"}

    def test_entries_are_decomposed_before_repeats_are_rejected(self, capsys):
        code, out, _ = invoke(capsys, ["covolume", "--field", "Q", "--s-primes", "2,2,3:both", "--group", "sl"])
        assert (code, json.loads(out)["error"]["code"]) == (1, "INVALID_SELECTOR")
        code, out, _ = invoke(capsys, ["covolume", "--field", "Q", "--s-primes", "2,2", "--group", "sl"])
        assert (code, json.loads(out)["error"]) == (1, {"code": "DUPLICATE_PLACE", "message": "repeated place v0(p=2,e=1,f=1) in S"})

    def test_check_needs_field_or_grid(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.run(["check"])
        assert err.value.code == 2

    def test_grid_builds_no_field_or_s_set(self, capsys):
        code, out, _ = invoke(capsys, ["check", "--grid", "--field", "junk", "--s-primes", "3,3"])
        assert code == 0
        assert json.loads(out)["quantity"] == "identity_grid"

    def test_field_then_s_set_then_handler_errors(self, capsys):
        code, out, _ = invoke(capsys, ["covolume", "--field", "Q(sqrt 8)", "--s-primes", "3,3", "--group", "sl"])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "NOT_SQUAREFREE"
        code, out, _ = invoke(capsys, ["module-dim", "--field", "Q", "--s-primes", "3,3", "--group", "sl", "--local-data", "dim:2"])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "DUPLICATE_PLACE"

    @pytest.mark.parametrize("flag, value", OUT_OF_RANGE_ZETA_FLAGS)
    def test_zeta_numeric_flag_out_of_range(self, flag, value):
        # as a separate word, -inf reads as an option and never reaches the flag's parser
        assert rejection(["zeta", "--field", "Q(sqrt 5)", f"{flag}={value}"]) == OUT_OF_RANGE_ZETA_FLAGS[flag, value]

    def test_tolerance_below_floor_is_domain_error(self, capsys):
        code, out, _ = invoke(capsys, ["zeta", "--field", "Q", "--tol", "1e-13"])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "TOLERANCE_TOO_TIGHT"

    def test_pd_order_below_one(self):
        # jl_ratio_pgl owns the range, after the ramification check
        argv = ["jl-ratio", "--field", "Q", "--group", "pgl", "--pd-order=-3"]
        assert rejection([*argv, "--s-primes", "2"]) == ("OUT_OF_RANGE", "pd_order must be an int >= 1, got -3")
        assert rejection([*argv, "--s-primes", "2,3"])[0] == "ODD_CARDINALITY"

    def test_pd_order_zero_is_read_only_under_pgl(self, capsys):
        # 0 is not an omitted N = 1; --group sl never reads N
        argv = ["jl-ratio", "--field", "Q", "--s-primes", "2", "--pd-order", "0", "--group"]
        assert rejection([*argv, "pgl"]) == ("OUT_OF_RANGE", "pd_order must be an int >= 1, got 0")
        code, out, _ = invoke(capsys, [*argv, "sl"])
        assert code == 0
        assert json.loads(out)["value"] == {"num": "1", "den": "12"}

    def test_malformed_field_is_domain_error(self, capsys):
        code, out, _ = invoke(capsys, ["zeta", "--field", "Q[sqrt 5]"])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "MALFORMED_SPEC"

    def test_not_totally_real(self, capsys):
        code, out, _ = invoke(capsys, ["zeta", "--field", "Q(sqrt -7)"])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "NOT_TOTALLY_REAL"

    def test_radicand_above_cap_is_domain_error(self, capsys):
        # trial-division squarefree testing of this d would not finish
        code, out, _ = invoke(capsys, ["zeta", "--field", "Q(sqrt 1000000000000000003)"])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "UNSUPPORTED_FIELD"

    @pytest.mark.parametrize(
        "radicand, code",
        [("7" * 5000, "UNSUPPORTED_FIELD"), ("-" + "7" * 5000, "NOT_TOTALLY_REAL"), ("-" + "0" * 5000, "NOT_TOTALLY_REAL")],
    )
    def test_radicand_beyond_int_conversion_limit(self, capsys, radicand, code):
        # int() refuses strings of more than 4300 digits
        exit_code, out, err = invoke(capsys, ["zeta", "--field", f"Q(sqrt {radicand})"])
        assert exit_code == 1
        assert json.loads(out)["error"]["code"] == code
        assert err == ""

    def test_leading_zeros_beyond_int_conversion_limit(self, capsys):
        code, out, _ = invoke(capsys, ["zeta", "--field", "Q(sqrt " + "0" * 5000 + "5)"])
        assert code == 0
        assert json.loads(out)["value"] == {"num": "1", "den": "30"}

    def test_s_prime_leading_zeros_beyond_int_conversion_limit(self, capsys):
        code, out, _ = invoke(capsys, ["covolume", "--field", "Q", "--s-primes", "0" * 5000 + "7", "--group", "sl"])
        assert code == 0
        response = json.loads(out)
        assert response["s_primes"] == ["7"]
        assert response["value"] == {"num": "1", "den": "3"}  # (7 + 1) / 24

    def test_huge_s_prime_returns_promptly(self):
        # trial-division primality testing of this p would not finish;
        # run_bounded turns a hang into a failure after 2 s of wall-clock time
        p = 10**18 + 3
        code, out, _ = run_bounded(["covolume", "--field", "Q", "--s-primes", str(p), "--group", "sl"])
        assert code == 0
        value = Fraction(1, 12) * (p + 1) / 2  # |zeta_Q(-1)| * prod (q_v + 1) / 2^n
        assert value == Fraction(p + 1, 24)
        assert json.loads(out)["value"] == {"num": str(value.numerator), "den": str(value.denominator)}

    @pytest.mark.parametrize(
        "p",
        ["1000000000000000000000001", "1000000000000000000000007", str(2**127 - 1), pytest.param("7" * 5000, id="7x5000")],
    )
    def test_s_prime_above_cap_is_domain_error(self, p):
        # int() refuses strings of more than 4300 digits
        code, out, err = run_bounded(["covolume", "--field", "Q", "--s-primes", p, "--group", "sl"])
        assert code == 1
        response = json.loads(out)
        assert response["error"]["code"] == "UNSUPPORTED_PRIME"
        assert response["s_primes"] == [p]
        assert err == ""

    def test_s_prime_above_cap_after_earlier_errors(self, capsys):
        # an over-long entry is rejected where build_S rejects an int above the
        # cap, as the 25-digit entry is: after the decomposition and selector
        # errors of the entries before it, and before any repeated place
        cases = [("2,2,{}", "UNSUPPORTED_PRIME"), ("3:both,{}", "INVALID_SELECTOR"), ("{},2,2", "UNSUPPORTED_PRIME")]
        for template, expected in cases:
            for p in ("7" * 5000, str(MAX_PRIME + 7)):
                argv = ["covolume", "--field", "Q", "--s-primes", template.format(p), "--group", "sl"]
                code, out, _ = invoke(capsys, argv)
                assert (code, json.loads(out)["error"]["code"]) == (1, expected), (template, len(p))


# ---- fuzzing cli.run over argv ------------------------------------------------
# Valid radicands stay small and valid primes fast to test, so that one call
# takes milliseconds; the out-of-range values fail before any O(D) work.

FUZZ_SECONDS = 2.0

_junk = st.text(max_size=10).filter(lambda t: not t.startswith("-"))
_valid_prime = st.sampled_from(["2", "3", "5", "7", "11", "13", "101", "10007", str(10**18 + 3), str(10**24 - 257)])
_prime = st.one_of(
    _valid_prime,
    st.sampled_from([0, 1, -7, 4, 91, 10**18 + 1, 10**24 + 7, 2**127 - 1, 3317044064679887385961981]).map(str),
    st.integers(-10, 200).map(str),
    st.just("7" * 5000),
)
_datum = st.tuples(st.sampled_from(["weight", "dim", "wt", ""]), st.integers(-2, 12).map(str)).map(":".join)


def _joined(entries, min_size=0):
    return st.lists(entries, min_size=min_size, max_size=4).map(",".join)


# flag -> (a valid value, any value); value None is a flag without one
_FLAG_VALUES = {
    "--field": (
        st.one_of(st.just("Q"), st.integers(2, 300).map("Q(sqrt {})".format)),
        st.one_of(
            st.one_of(st.integers(-3, 1), st.integers(10**6 + 1, 10**40), st.integers(-(10**40), -(10**6))).map(
                "Q(sqrt {})".format
            ),
            st.sampled_from(["Q(sqrt 5", "Q(sqrt  5)", "Q(sqrt 0005)", "Q(sqrt +5)", "Q(cbrt 5)", "q", " Q ", ""]),
            st.sampled_from(["Q(sqrt " + "7" * 5000 + ")", "Q(sqrt -" + "7" * 5000 + ")"]),
            _junk,
        ),
    ),
    "--s-primes": (
        _joined(st.tuples(_valid_prime, st.sampled_from(["", ":both"])).map("".join)),
        _joined(st.one_of(_prime, st.tuples(_prime, st.sampled_from([":one", ":all", ":", " : both"])).map("".join), _junk)),
    ),
    "--group": (st.sampled_from(["sl", "pgl"]), st.sampled_from(["psl", "gl", "SL", ""])),
    "--tol": (
        st.sampled_from(["1e-8", "1e-10", "1e-12", "0.5"]),
        st.sampled_from(["1e-13", "1e-300", "1", "0", "-1e-8", "nan", "inf", "x"]),
    ),
    "--working-precision": (
        st.sampled_from(["1", "64", "128", "192", "1024"]),
        st.sampled_from(["4097", "0", "-5", "3.5", "x"]),
    ),
    # real places take weights, then each finite place a dimension
    "--local-data": (
        st.tuples(_joined(st.integers(2, 6).map("weight:{}".format), 1), _joined(st.integers(1, 6).map("dim:{}".format))).map(
            lambda parts: ",".join(filter(None, parts))
        ),
        _joined(st.one_of(_datum, _junk), 1),
    ),
    "--pd-order": (st.sampled_from(["1", "24", "120", str(10**30)]), st.sampled_from(["0", "-3", "x"])),
    "--format": (st.sampled_from(["json", "table"]), st.just("xml")),
    "--grid": (st.none(), st.none()),
    "--frobnicate": (_junk, _junk),
}
# subcommand -> (required flags, optional flags)
_COMMAND_FLAGS = {
    "covolume": (("--field", "--group"), ("--s-primes", "--format")),
    "zeta": (("--field",), ("--tol", "--working-precision", "--format")),
    "steinberg-dim": (("--field", "--group"), ("--s-primes", "--format")),
    "module-dim": (("--field", "--group", "--local-data"), ("--s-primes", "--format")),
    "jl-ratio": (("--field",), ("--group", "--s-primes", "--pd-order", "--format")),
    "candidates": (("--field",), ("--format",)),
    "check": ((), ("--field", "--s-primes", "--grid", "--format")),
}


@st.composite
def cli_argv(draw):
    """An argv for cli.run, and the --format it asks for.

    Each flag the subcommand takes is present or not; at most one present
    flag gets an arbitrary value, the rest valid ones.  One draw in ten also
    has a malformed subcommand, drops a required flag or adds a foreign one.
    """
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    required, optional = _COMMAND_FLAGS[command]
    present = list(required) + [flag for flag in optional if draw(st.booleans())]
    mishap = draw(st.sampled_from([None] * 27 + ["command", "drop", "foreign"]))
    if mishap == "command":
        command = draw(st.sampled_from(["", "zeta2", "Check", "--field"]))
    elif mishap == "drop" and required:
        present.remove(draw(st.sampled_from(required)))
    elif mishap == "foreign":
        present.append(draw(st.sampled_from(sorted(set(_FLAG_VALUES) - set(present)))))
    arbitrary = draw(st.sampled_from([None] * len(present) + present)) if present else None
    flags = {flag: draw(_FLAG_VALUES[flag][flag == arbitrary]) for flag in present}
    argv = [command]
    for flag, value in draw(st.permutations(list(flags.items()))):
        if value is None:
            argv.append(flag)
        elif value.startswith("-"):
            # as a word of its own, argparse would read -1e-8 as an option
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv, flags.get("--format", "json")


def run_bounded(argv):
    """cli.run(argv) with stdout and stderr captured, under FUZZ_SECONDS of
    wall-clock time; any exception other than SystemExit propagates."""

    def too_slow(signum, frame):
        raise TimeoutError(f"cli.run({argv!r}) took more than {FUZZ_SECONDS} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, FUZZ_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except SystemExit as exit_:
                code = exit_.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_argv())
def test_fuzz_argv_contract(case):
    argv, output_format = case
    code, out, err = run_bounded(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out + err, argv
    if code == 2:
        assert out == "" and "usage:" in err, argv
    elif code == 0 and output_format == "table":
        assert out.count("\n") == 1 and out.count(" | ") == 2, argv
    else:
        response = json.loads(out)
        assert response["status"] == ("ok" if code == 0 else "error"), argv


def test_zero_decimal_rendering():
    assert cli.decimal_string(Fraction(0)) == "0.0000000000000000000"


def test_decimal_twenty_significant_digits():
    assert cli.decimal_string(Fraction(1, 12)) == "0.083333333333333333333"
    assert cli.decimal_string(Fraction(1, 30)) == "0.033333333333333333333"


@pytest.mark.parametrize(
    "module, absent",
    [
        ("sarithdim", ("sarithdim.cli", "argparse")),
        # the records are named tuples: a CLI process creates no dataclass
        ("sarithdim.cli", ("dataclasses", "inspect")),
    ],
    ids=["package", "cli"],
)
def test_package_import_leaves_the_cli_out(module, absent):
    # the child imports the same package as this process, installed or not
    source_root = str(Path(sarithdim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    child = f"import sys, {module}\nprint(sorted({set(absent)!r} & sys.modules.keys()))\n"
    result = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
