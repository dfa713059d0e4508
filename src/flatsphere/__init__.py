"""Exact intersection numbers and volumes of moduli spaces of flat cone
metrics on the sphere.

The public names load on first use: reading one imports the submodule that
defines it, so ``import flatsphere`` alone runs none of them.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each public name with the submodule that defines it
_MODULE_OF = {name: module for module, names in (
    ("core", ("PiValue", "Signature", "ValidationError", "WeightVector",
              "minimal_denominator", "parse_rational", "parse_signature",
              "parse_weights", "weights_from_signature")),
    ("recursion", ("QuadSignature", "a_n", "j_n", "mv_quadratic_aez", "quad_V",
                   "quad_V_closed", "quad_V_recursive", "vol1")),
    ("closed_forms", ("double_factorial", "f_nab", "v_kontsevich")),
    ("piecewise", ("MultiPoly", "SignDomain", "WallError", "an_polynomial")),
    ("flat_charts", ("UnsupportedChart", "UnsupportedLevel", "mv_ratio",
                     "mv_table_entry")),
) for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
