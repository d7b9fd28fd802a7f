"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the package's default test collection: it
spawns benchmark runs and takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_reference_anchor_values():
    assert reference.zeta_minus1(1) == Fraction(-1, 12)
    assert reference.zeta_minus1(5) == Fraction(1, 30)
    assert reference.zeta_minus1(8) == Fraction(1, 12)
    assert reference.zeta_minus1(12) == Fraction(1, 6)


@pytest.mark.parametrize("D", [5, 8, 12, 13, 21, 24, 28, 40, 56, 60, 88, 104, 120, 1001, 4012])
def test_character_table_is_the_kronecker_symbol(D):
    assert list(reference.chi_table(D)) == [reference.kronecker(D, a) for a in range(D)]


def test_reference_matches_the_package_siegel_sum():
    run.import_package()
    import sarithdim

    for d in (2, 3, 5, 13, 101, 1001, 10007):
        F = sarithdim.parse_field(f"Q(sqrt {d})")
        assert reference.zeta_minus1(F.discriminant) == sarithdim.zeta_F_minus1(F).value


def test_own_primality_and_squarefree_tests():
    small = [n for n in range(200) if inputs.is_prime(n)]
    assert small == [n for n in range(2, 200) if all(n % k for k in range(2, n))]
    assert inputs.is_prime(1_000_000_007) and not inputs.is_prime(1_000_000_007 * 3)
    assert [n for n in range(1, 30) if inputs.is_squarefree(n)] == [
        1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29]


def test_inputs_follow_the_seed():
    for name in ("grid_exact", "wide_exact", "numeric_oracle", "cli_mix"):
        generate = run.WORKLOADS[name]["generate"]
        assert inputs.digest(generate(3)) == inputs.digest(generate(3))
        assert inputs.digest(generate(3)) != inputs.digest(generate(4))


def test_corrupted_reference_counts_as_failed(monkeypatch):
    real = reference.zeta_values_in_child

    def corrupted(discriminants, root):
        values = real(discriminants, root)
        values[5] += Fraction(1, 60)
        return values

    monkeypatch.setattr(reference, "zeta_values_in_child", corrupted)
    attempted, failed, _, detail = run.run("grid_exact", 1, 0.2, trace=0)
    # every pass holds the 42 points over Q(sqrt 5) among its 210
    assert failed == attempted // 5
    assert detail["failed_op_share"] == pytest.approx(0.2)


def test_injected_exception_counts_as_failed(monkeypatch):
    sd = run.import_package()

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(sd, "jl_ratio_sl", boom)
    attempted, failed, _, detail = run.run("grid_exact", 1, 0.2, trace=0)
    assert 0 < failed < attempted
    assert detail["failed_op_share"] > 0


def test_cli_checks_have_teeth():
    ok = [["zeta", "--field", "Q"], ["ok", "zeta_minus1", None, [], "zeta", 1]]
    expected = ("zeta_minus1", Fraction(-1, 12))
    good = json.dumps({"status": "ok", "quantity": "zeta_minus1", "value": {"num": "-1", "den": "12"},
                       "diagnostics": [{"name": "functional_equation", "status": "pass"}]})
    assert run.cli_verify(ok, (0, good, ""), expected)
    assert not run.cli_verify(ok, (0, good.replace('"12"', '"6"'), ""), expected)
    assert not run.cli_verify(ok, (0, good.replace("pass", "fail"), ""), expected)
    assert not run.cli_verify(ok, (1, good, ""), expected)
    assert not run.cli_verify(ok, (0, good, "Traceback (most recent call last)"), expected)
    error = [["jl-ratio", "--field", "Q", "--s-primes", "2,3"], ["error", "ODD_CARDINALITY"]]
    response = json.dumps({"status": "error", "error": {"code": "ODD_CARDINALITY", "message": ""}})
    assert run.cli_verify(error, (1, response, ""), None)
    assert not run.cli_verify(error, (1, response.replace("ODD", "EVEN"), ""), None)
    assert not run.cli_verify(error, (2, "", "usage: x"), None)
    bounded = [["zeta", "--field", "Q", "--tol", "inf"], ["bounded", "zeta_minus1", None]]
    assert run.cli_verify(bounded, (0, good, ""), expected)
    assert run.cli_verify(bounded, (2, "", "usage: sarithdim zeta"), expected)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_prints_every_declared_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert detail["detail"]["inputs_digest"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "grid_exact", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
