"""The benchmark's per-layer tracer (bench/spans.py) rebinds package
functions by name; these tests fail when a rename or deletion in the package
would break ``bench/run.py --trace 1`` or the names ``bench/run.py`` and
``bench/selftest.py`` read from the package, or when a library change would
make every benchmark op fail its verification.  They also pin the work of
one exact and one numeric benchmark op: how many Fractions each builds."""

import functools
import importlib.util
import sys
from fractions import Fraction
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


def count_fractions(monkeypatch):
    """Patch Fraction.__new__ to count; returns the one-element count list."""
    built = [0]
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return built


@pytest.mark.parametrize("item", [[13, 1e-8, 128], [2, 1e-10, 192], [1001, 1e-8, 128], [None, 1e-8, 64]])
def test_numeric_op_builds_one_fraction(monkeypatch, item):
    """A numeric op of the benchmark builds one Fraction, the zeta_F(2)
    value that zeta_F_2_numeric returns: functional_equation_check compares
    the two sides as integer pairs, and zeta_F(-1) is the memo's value."""
    run = load_run()
    sarithdim.zeta_F_minus1(sarithdim.parse_field(run.inputs.spec(item[0])))
    built = count_fractions(monkeypatch)
    report = run.numeric_op(sarithdim, item)
    assert report.ok
    assert built[0] == 1, item


def record_compared_pairs(monkeypatch):
    """Patch check_identities' row comparison to record both sides of each row."""
    pairs = []
    original = sarithdim.vndim._compare

    def recorded(name, lhs, rhs, detail):
        pairs.extend((lhs, rhs))
        return original(name, lhs, rhs, detail)

    monkeypatch.setattr(sarithdim.vndim, "_compare", recorded)
    return pairs


@pytest.mark.parametrize("points", ["grid", "wide"])
def test_exact_op_builds_one_fraction_per_public_value(monkeypatch, points):
    """Each exact op of the benchmark builds one Fraction per value its
    public calls return, plus what abs() builds for the |zeta_F(-1)| of the
    Invariants record of its fresh S-set (one Fraction on Python 3.11, none
    from 3.12 on); check_identities builds none.  Its row details print
    each compared pair as str(Fraction) would.  Over the 210 grid points
    and 400 seeded off-grid points of wide_exact."""
    run = load_run()
    items = run.inputs.grid_sequence(1, 1)[0] if points == "grid" else run.inputs.wide_points(1, 40)
    pairs = record_compared_pairs(monkeypatch)
    built = count_fractions(monkeypatch)
    zeta = Fraction(-1, 12)
    abs(zeta)
    per_record = built[0] - 1
    for item in items:
        sarithdim.zeta_F_minus1(sarithdim.parse_field(run.inputs.spec(item[0])))  # the memo's value, built once
        before = built[0]
        out = run.exact_op(sarithdim, item)
        returned = sum(type(value) is Fraction for value in out.values())
        assert returned == (9 if "jl_sl" in out else 6), item
        assert built[0] - before == returned + per_record, item
    assert len(pairs) == 12 * len(items) - 6 * sum(run.exact_size(item) % 2 for item in items)
    for pair in pairs:
        assert sarithdim.vndim._fraction_str(pair) == str(Fraction(*pair)), pair
