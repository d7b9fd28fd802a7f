import json
import signal
from fractions import Fraction

import pytest

from sarithdim import cli


def invoke(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_module_dim_missing_datum(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["module-dim", "--field", "Q", "--s-primes", "2", "--group", "sl", "--local-data", "weight:2"],
        )
        assert code == 1
        assert json.loads(out)["error"]["code"] == "MISSING_DATUM"

    def test_module_dim_kind_mismatch(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["module-dim", "--field", "Q", "--s-primes", "2", "--group", "sl", "--local-data", "dim:2,weight:2"],
        )
        assert code == 1
        assert json.loads(out)["error"]["code"] == "DATUM_PLACE_MISMATCH"

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
        with pytest.raises(SystemExit) as err:
            cli.run(["covolume", "--field", "Q", "--s-primes", "5:all", "--group", "sl"])
        assert err.value.code == 2

    def test_check_needs_field_or_grid(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.run(["check"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--tol", v) for v in ("nan", "inf", "-inf", "1", "0", "-5")]
        + [("--working-precision", v) for v in ("nan", "inf", "0", "-5", "4097")],
    )
    def test_zeta_numeric_flag_out_of_range(self, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            cli.run(["zeta", "--field", "Q(sqrt 5)", flag, value])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err and "Traceback" not in captured.err

    def test_tolerance_below_floor_is_domain_error(self, capsys):
        code, out, _ = invoke(capsys, ["zeta", "--field", "Q", "--tol", "1e-13"])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "TOLERANCE_TOO_TIGHT"

    def test_pd_order_below_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.run(["jl-ratio", "--field", "Q", "--s-primes", "2", "--group", "pgl", "--pd-order", "0"])
        assert err.value.code == 2
        assert "usage:" in capsys.readouterr().err

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

    def test_huge_s_prime_returns_promptly(self, capsys):
        # trial-division primality testing of this p would not finish; the
        # alarm turns a hang into a failure after 2 s of wall-clock time
        def too_slow(signum, frame):
            raise TimeoutError("covolume over an 18-digit prime took more than 2 s")

        p = 10**18 + 3
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            code, out, _ = invoke(capsys, ["covolume", "--field", "Q", "--s-primes", str(p), "--group", "sl"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 0
        value = Fraction(1, 12) * (p + 1) / 2  # |zeta_Q(-1)| * prod (q_v + 1) / 2^n
        assert value == Fraction(p + 1, 24)
        assert json.loads(out)["value"] == {"num": str(value.numerator), "den": str(value.denominator)}

    @pytest.mark.parametrize("p", ["1000000000000000000000001", "1000000000000000000000007", str(2**127 - 1)])
    def test_s_prime_above_cap_is_domain_error(self, capsys, p):
        code, out, err = invoke(capsys, ["covolume", "--field", "Q", "--s-primes", p, "--group", "sl"])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "UNSUPPORTED_PRIME"
        assert err == ""


def test_zero_decimal_rendering():
    assert cli.decimal_string(Fraction(0)) == "0.0000000000000000000"


def test_decimal_twenty_significant_digits():
    assert cli.decimal_string(Fraction(1, 12)) == "0.083333333333333333333"
    assert cli.decimal_string(Fraction(1, 30)) == "0.033333333333333333333"
