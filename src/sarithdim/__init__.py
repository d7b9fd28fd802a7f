"""Exact-arithmetic calculator for covolumes, Steinberg formal degrees, and
von Neumann dimensions of S-arithmetic subgroups of SL(2)/PGL(2) over
totally real fields, with the quaternion-side zeta ratio they match.

The names below are the library surface; everything else lives in its
module (``numberfield``, ``zeta``, ``covolume``, ``formal_degree``,
``vndim``, ``quaternion``).  The CLI module is not imported with the
package: ``import sarithdim.cli``.
"""

from . import errors
from .covolume import pgl2_covolume, sl2_covolume
from .formal_degree import LocalRepDatum
from .numberfield import build_S, parse_field
from .quaternion import zeta_D_leading_ratio_at_zero
from .vndim import check_identities, jl_ratio_pgl, jl_ratio_sl, module_vn_dim, steinberg_vn_dim
from .zeta import functional_equation_check, zeta_F_minus1

__version__ = "0.1.0"

__all__ = [
    "LocalRepDatum",
    "build_S",
    "check_identities",
    "cli",
    "errors",
    "functional_equation_check",
    "jl_ratio_pgl",
    "jl_ratio_sl",
    "module_vn_dim",
    "parse_field",
    "pgl2_covolume",
    "sl2_covolume",
    "steinberg_vn_dim",
    "zeta_D_leading_ratio_at_zero",
    "zeta_F_minus1",
]
