"""Spans around the public functions of each package layer, recorded from
benchmark code.

Each layer-boundary function is wrapped by rebinding the module attribute and
every intra-package import of it (``sarithdim.covolume.zeta_F_minus1`` is the
same object as ``sarithdim.zeta.zeta_F_minus1``), so internal calls are
spanned too.  Helpers called only inside their own layer (``sum_of_divisors``,
``quadratic_character_table``, ``steinberg_local_degree``) are not wrapped:
their time is the self time of the layer function that calls them.

A span is (name, start, end, parent, op id, arg), kept in flat arrays in
memory and written out when the run ends.  ``arg`` is the discriminant for
zeta spans and the tested integer for ``is_prime``, for the scaling table.
"""

import gzip
import math
import sys
import time
from array import array
from collections import defaultdict

# layer -> functions wrapped in that layer's module
LAYERS = {
    "numberfield": ("parse_field", "build_S", "decompose_prime", "kronecker_symbol", "delta_2",
                    "is_prime", "is_squarefree"),
    "zeta": ("zeta_F_minus1", "zeta_F_2_numeric", "functional_equation_check"),
    "covolume": ("sl2_covolume", "pgl2_covolume", "pgl_psl_index"),
    "formal_degree": ("steinberg_global_degree", "jl_degree_ratio"),
    "vndim": ("steinberg_vn_dim", "module_vn_dim", "jl_ratio_sl", "jl_ratio_pgl", "check_identities"),
    "quaternion": ("zeta_D_leading_ratio_at_zero", "validate_ramification", "pdx_candidates"),
    "cli": ("run",),
}

# the zeta module is split into its exact and numeric parts
SPAN_LAYER = {
    "zeta.zeta_F_minus1": "zeta.exact",
    "zeta.zeta_F_2_numeric": "zeta.numeric",
    "zeta.functional_equation_check": "zeta.fe_check",
}

_INT64_MAX = 2**63 - 1


def _field_arg(args):
    return args[0].discriminant if args else 0


def _int_arg(args):
    return min(args[0], _INT64_MAX) if args and isinstance(args[0], int) and args[0] >= 0 else 0


ARG_OF = {
    "zeta.zeta_F_minus1": _field_arg,
    "zeta.zeta_F_2_numeric": _field_arg,
    "numberfield.is_prime": _int_arg,
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores the package."""

    def __init__(self):
        self.names: list[str] = ["bench.op"]
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.arg = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.margins: list[float] = []
        self._restore: list[tuple] = []

    def _wrap(self, span_name, fn):
        nid = len(self.names)
        self.names.append(span_name)
        arg_of = ARG_OF.get(span_name)
        is_fe = span_name == "zeta.functional_equation_check"
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer.stack[-1])
            tracer.op.append(tracer.op_id)
            tracer.arg.append(arg_of(args) if arg_of else 0)
            tracer.end.append(0)
            tracer.stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.stack.pop()
            if is_fe:
                tracer.margins.append(1 - result.difference / result.tol)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "sarithdim" or n.startswith("sarithdim.")]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"sarithdim.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._restore.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def uninstall(self):
        for module, fname, original in reversed(self._restore):
            setattr(module, fname, original)
        self._restore.clear()

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one benchmark op; returns its index."""
        self.op_id = op_id
        idx = len(self.start)
        self.name.append(0)
        self.parent.append(-1)
        self.op.append(op_id)
        self.arg.append(0)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def end_op(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        del self.stack[1:]

    def self_times(self) -> array:
        """Each span's duration minus the time its direct children cover."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, path):
        with gzip.open(path, "wt") as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\targ\n")
            for i in range(len(self.start)):
                out.write(f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                          f"{self.parent[i]}\t{self.op[i]}\t{self.arg[i]}\n")


def layer_of(span_name: str) -> str:
    return SPAN_LAYER.get(span_name, span_name.split(".")[0])


def _count(rows, key, ns):
    row = rows[key]
    row[0] += 1
    row[1] += ns


def summarize(tracer: Tracer, ops: int, residues_of, op_size) -> tuple[dict, dict]:
    """Per-layer metrics and the scaling table from the recorded spans.

    ``residues_of(D)`` gives the residue count of the numeric sum at D;
    ``op_size(op)`` gives |S| of the op's point, or None.  Metrics of a layer
    that did not run read 0.
    """
    own = tracer.self_times()
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    by_name_calls = defaultdict(int)
    by_name_ns = defaultdict(int)
    exact_fields = set()
    exact_D = 0
    residues = 0
    by_decade = defaultdict(lambda: [0, 0])
    prime_by_digits = defaultdict(lambda: [0, 0])
    prime_by_size = defaultdict(lambda: [0, 0])
    for i, nid in enumerate(tracer.name):
        name = tracer.names[nid]
        layer = layer_of(name)
        calls[layer] += 1
        self_ns[layer] += own[i]
        by_name_calls[name] += 1
        by_name_ns[name] += own[i]
        arg = tracer.arg[i]
        if name == "zeta.zeta_F_minus1":
            exact_fields.add(arg)
            exact_D += arg
            _count(by_decade, f"1e{int(math.log10(arg))}", own[i])
        elif name == "zeta.zeta_F_2_numeric":
            residues += residues_of(arg)
        elif name == "numberfield.is_prime" and arg >= 2:
            _count(prime_by_digits, f"1e{int(math.log10(arg))}", own[i])
            size = op_size(tracer.op[i])
            if size is not None:
                _count(prime_by_size, str(size), own[i])
    total_ns = sum(self_ns.values())
    s = 1e-9
    exact_calls = by_name_calls["zeta.zeta_F_minus1"]
    metrics = {
        "numberfield.calls": (calls["numberfield"], "count"),
        "numberfield.self_s": (self_ns["numberfield"] * s, "s"),
        "numberfield.is_prime.calls": (by_name_calls["numberfield.is_prime"], "count"),
        "numberfield.is_prime.self_s": (by_name_ns["numberfield.is_prime"] * s, "s"),
        "zeta.exact.calls": (exact_calls, "count"),
        "zeta.exact.self_s": (self_ns["zeta.exact"] * s, "s"),
        "zeta.exact.calls_per_op": (exact_calls / ops if ops else 0.0, "calls/op"),
        "zeta.exact.unique_ratio": (len(exact_fields) / exact_calls if exact_calls else 0.0, "ratio"),
        "zeta.exact.ns_per_D": (self_ns["zeta.exact"] / exact_D if exact_D else 0.0, "ns"),
        "zeta.numeric.calls": (calls["zeta.numeric"], "count"),
        "zeta.numeric.self_s": (self_ns["zeta.numeric"] * s, "s"),
        "zeta.numeric.ns_per_residue": (self_ns["zeta.numeric"] / residues if residues else 0.0, "ns"),
        "zeta.fe_check.self_s": (self_ns["zeta.fe_check"] * s, "s"),
        "zeta.numeric.min_margin_ratio": (min(tracer.margins) if tracer.margins else 0.0, "ratio"),
    }
    for layer in ("covolume", "formal_degree", "vndim", "quaternion"):
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_ns[layer] * s, "s")
    metrics["vndim.check_identities.self_s"] = (by_name_ns["vndim.check_identities"] * s, "s")
    shares = {layer: ns / total_ns for layer, ns in sorted(self_ns.items())} if total_ns else {}
    if total_ns:
        shares["numberfield.is_prime"] = by_name_ns["numberfield.is_prime"] / total_ns

    def table(rows):
        return {k: {"calls": c, "self_s": ns * s} for k, (c, ns) in sorted(rows.items(), key=lambda kv: float(kv[0]))}

    detail = {
        "self_share": shares,
        "scaling": {
            "zeta.exact_by_D_decade": table(by_decade),
            "is_prime_by_p_decade": table(prime_by_digits),
            "is_prime_by_S_size": table(prime_by_size),
        },
        "spans": len(tracer.start),
    }
    return metrics, detail
