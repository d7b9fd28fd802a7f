"""Golden digests of the default CLI output.

About 1,970 requests go through ``cli.run``: ``check --grid``; at each of
the 210 grid points ``check``, ``covolume --group pgl``, ``jl-ratio --group
pgl``, ``steinberg-dim --group psl``, ``module-dim --group sl`` (weight 3 at
each real place, dimension 2 at each finite place), ``jl-ratio --group sl``
(whose odd-|S| points give the ODD_CARDINALITY error) and ``covolume --group
sl --format table``; ``zeta`` and ``candidates`` for each grid field; and
``zeta --field`` over Q and the 242 squarefree d from 2 to 400, at the
defaults and at ``--tol 1e-10 --working-precision 192``.
Each request family gets one sha256 over the (argv, exit code, stdout,
stderr) of its requests, in order, compared with the digest committed below.
This pins the rule that the default output does not change by one byte.

A change that means to alter the output regenerates these digests
(``PYTHONPATH=src python tests/test_cli_golden.py`` prints them) and says
so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import math

from sarithdim import cli

GOLDEN = {
    "check --grid": "ea833e770f3ea17b25285570eaf4ed8759b807edfda17022bfb1f0f670b0e3d0",
    "check": "07876a65f921ff36619e3105683c00b9acc8b49eb523d9f90db477b0b0b1f460",
    "covolume": "f914d0076228d03eb536d1fd2d743e79efb7988c2274748e1a0251666da1ed18",
    "jl-ratio": "5791cd250294e5f30160a91fb55a0b79ca664514e40b9c3cb8893cede58a2af7",
    "zeta": "6170b6d2ede69b63d80dff14d2963ec06d85e147a441336f24c91f26bb66f54d",
    "candidates": "7d96bfc968f84b9dd86d11fe666ddb74a2f29935f311fd75ca9f56320f583947",
    "steinberg-dim --group psl": "38d81b152dabd81d1f3ba0c7486b99265d445c0e5444d7ec297194b0ae39c3bb",
    "module-dim --group sl": "95bc1bfdad32f53dfa18893288f1a28a7040daaa10c5b27ab40ca80e15280c13",
    "jl-ratio --group sl": "f33f02fb0ead86ded82b0a1fac767823d246181fd9d7e8c1bc073be519fdffc0",
    "covolume --group sl --format table": "8a071729b669a587ab9fb85620225bc3c83a5033420d4b445bb151eca8620440",
    "zeta, d <= 400": "359d434c0fe2022979d266ab547a86bd744351852104e7e2be3968160fe3eb9d",
}

#: Q and the real quadratic fields of squarefree radicand 2 <= d <= 400.
ZETA_FIELD_SPECS = ("Q",) + tuple(
    f"Q(sqrt {d})" for d in range(2, 401) if all(d % (k * k) for k in range(2, math.isqrt(d) + 1))
)


def _requests():
    yield "check --grid", ["check", "--grid"]
    for F, S in cli.grid_points():
        primes = [v.p for v in S.finite_places]
        common = ["--field", str(F), "--s-primes", ",".join(map(str, primes))]
        local_data = ",".join(["weight:3"] * F.degree + ["dim:2"] * len(primes))
        yield "check", ["check", *common]
        yield "covolume", ["covolume", *common, "--group", "pgl"]
        yield "jl-ratio", ["jl-ratio", *common, "--group", "pgl"]
        yield "steinberg-dim --group psl", ["steinberg-dim", *common, "--group", "psl"]
        yield "module-dim --group sl", ["module-dim", *common, "--group", "sl", "--local-data", local_data]
        yield "jl-ratio --group sl", ["jl-ratio", *common, "--group", "sl"]
        yield "covolume --group sl --format table", ["covolume", *common, "--group", "sl", "--format", "table"]
    for spec in cli.GRID_FIELD_SPECS:
        yield "zeta", ["zeta", "--field", spec]
        yield "candidates", ["candidates", "--field", spec]
    for spec in ZETA_FIELD_SPECS:
        yield "zeta, d <= 400", ["zeta", "--field", spec]
        yield "zeta, d <= 400", ["zeta", "--field", spec, "--tol", "1e-10", "--working-precision", "192"]


def digests() -> dict[str, str]:
    hashes = {name: hashlib.sha256() for name in GOLDEN}
    for name, argv in _requests():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        hashes[name].update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


def test_default_output_matches_golden_digests():
    assert digests() == GOLDEN


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f"    {name!r}: {digest!r},")
