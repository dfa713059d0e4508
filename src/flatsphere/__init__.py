"""Exact intersection numbers and volumes of moduli spaces of flat cone
metrics on the sphere."""

from types import ModuleType as _ModuleType

from .core import (
    PiValue,
    Signature,
    ValidationError,
    WeightVector,
    minimal_denominator,
    parse_rational,
    parse_signature,
    parse_weights,
    weights_from_signature,
)
from .recursion import (
    QuadSignature,
    a_n,
    j_n,
    mv_quadratic_aez,
    quad_V,
    quad_V_closed,
    quad_V_recursive,
    vol1,
)
from .closed_forms import double_factorial, f_nab, v_kontsevich
from .piecewise import MultiPoly, SignDomain, WallError, an_polynomial
from .flat_charts import UnsupportedChart, UnsupportedLevel, mv_ratio, mv_table_entry

__version__ = "0.1.0"

# the public names imported above, without the submodules the imports bind
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
