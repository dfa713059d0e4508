"""Exact intersection numbers and volumes of moduli spaces of flat cone
metrics on the sphere."""

from .core import (
    PiValue,
    Signature,
    ValidationError,
    WeightVector,
    canonicalize,
    minimal_denominator,
    parse_rational,
    parse_signature,
    parse_weights,
    weights_from_signature,
)
from .partitions import (
    PartitionRecord,
    TwoBlockPartition,
    enum_P,
    enum_P0,
    enum_T1a,
    enum_T1b,
    enum_T2a,
    enum_T2b,
)
from .recursion import (
    QuadSignature,
    a4_closed,
    a5_direct,
    a_n,
    j_n,
    mv_quadratic_aez,
    quad_V,
    quad_V_closed,
    quad_V_recursive,
    recursive_rhs_dform,
    vol1,
)
from .closed_forms import (
    double_factorial,
    f_nab,
    f_p22_bridge,
    identity_n_minus_1,
    sum_dependence_check,
    v_kontsevich,
)
from .piecewise import MultiPoly, SignDomain, WallError, an_polynomial, wall_continuity_check
from .flat_charts import (
    Cyclo24,
    HermitianForm,
    QuadInt,
    UnsupportedChart,
    UnsupportedLevel,
    area_form,
    chart_constraint,
    lattice_index,
    mv_ratio,
    mv_table_entry,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
