"""The benchmark's per-layer tracer (bench/spans.py) rebinds package
functions by name; these tests fail when a rename or deletion in the package
would break ``bench/run.py --trace 1`` or the names ``bench/run.py`` and
``bench/selftest.py`` read from the package, or when a library change would
make every benchmark op fail its verification."""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

import sarithdim
import sarithdim.cli  # noqa: F401  (the tracer wraps cli.run)

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"

# names the benchmark harness reads from the top-level package
BENCH_NAMES = (
    "parse_field",
    "build_S",
    "sl2_covolume",
    "pgl2_covolume",
    "steinberg_vn_dim",
    "module_vn_dim",
    "LocalRepDatum",
    "jl_ratio_sl",
    "jl_ratio_pgl",
    "zeta_D_leading_ratio_at_zero",
    "check_identities",
    "functional_equation_check",
    "zeta_F_minus1",
    "cli",
)


def load_bench_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_bench_module("bench_spans", SPANS)


@functools.cache
def load_run():
    """bench/run.py, which puts bench/ on sys.path for its inputs and reference modules."""
    return load_bench_module("bench_run", BENCH / "run.py")


def package_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "sarithdim" or name.startswith("sarithdim.")
        for attr, value in vars(module).items()
    }


def test_tracer_wraps_every_layer_function_and_restores_them():
    spans = load_spans()
    before = package_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for layer, functions in spans.LAYERS.items():
            home = sys.modules[f"sarithdim.{layer}"]
            for fname in functions:
                wrapped = getattr(home, fname)
                assert wrapped is not before[(f"sarithdim.{layer}", fname)], f"{layer}.{fname} not wrapped"
                assert wrapped.__wrapped__ is before[(f"sarithdim.{layer}", fname)]
    finally:
        tracer.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_bench_names_resolve_at_top_level():
    for name in BENCH_NAMES:
        assert getattr(sarithdim, name, None) is not None, name
        assert name in sarithdim.__all__, name


def test_numeric_oracle_span_nests_in_fe_check():
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        sarithdim.zeta.functional_equation_check(sarithdim.parse_field("Q(sqrt 13)"), 1e-8)
    finally:
        tracer.uninstall()
    names = [tracer.names[nid] for nid in tracer.name]
    numeric = [i for i, name in enumerate(names) if name == "zeta.zeta_F_2_numeric"]
    fe_check = [i for i, name in enumerate(names) if name == "zeta.functional_equation_check"]
    assert len(numeric) == 1 and len(fe_check) == 1
    assert tracer.parent[numeric[0]] == fe_check[0]
    assert tracer.start[fe_check[0]] <= tracer.start[numeric[0]] <= tracer.end[numeric[0]] <= tracer.end[fe_check[0]]


# (d, [[p, selector], ...], module group) as bench/inputs.py draws them; d None is Q
@pytest.mark.parametrize(
    "item",
    [[5, [[11, "both"]], "psl"], [None, [[2, "one"], [3, "one"]], "sl"]],
    ids=["even_S", "odd_S"],
)
def test_bench_exact_op_verifies(item):
    run = load_run()
    D = run.reference.discriminant(item[0])
    expected = run.exact_expected(item, {D: run.reference.zeta_minus1(D)})
    assert run.exact_verify(item, run.exact_op(sarithdim, item), expected)


def test_bench_numeric_op_verifies():
    run = load_run()
    item = [13, 1e-8, 128]  # (d, tol, precision bits)
    D = run.reference.discriminant(item[0])
    expected = run.numeric_expected(item, {D: run.reference.zeta_minus1(D)})
    assert run.numeric_verify(item, run.numeric_op(sarithdim, item), expected)
