"""Numerical laboratory for order-zero symbol calculus on the circle.

Dense finite models of the multiplication/quantization operators attached
to matrix-valued symbols on the cotangent space of the circle, the dyadic
quadratic partition machinery, the approximate-unit construction relating
the two, and integer index pairings with three independent routes.
"""

from .numerics import CircleGrid, fourier_coefficients, operator_norm
from .partition import DyadicPartition, SmoothStep, build_partition
from .symbols import (CutFunction, HomogeneousSymbol, Loop, RadialProfile,
                      Symbol, SymbolClass, smash)
from .quantize import (Atlas, multiplication_operator, op_quantize,
                       t_quantize, t_quantize_charts)
from .connes_higson import (ApproximateUnit, ch_apply, ch_extended_apply,
                            default_unit, kappa, kappa_inv, tail_deformed_unit)
from .homotopy import endpoint_defect, equ1_defect, equ2_defect
from .index_theory import (InconclusiveIndexError, IndexReport,
                           analytic_index, fredholm_index_svd,
                           higson_trace_index, index_report, winding_number)

__all__ = [
    "CircleGrid", "fourier_coefficients", "operator_norm",
    "DyadicPartition", "SmoothStep", "build_partition",
    "CutFunction", "HomogeneousSymbol", "Loop", "RadialProfile", "Symbol",
    "SymbolClass", "smash",
    "Atlas", "multiplication_operator", "op_quantize", "t_quantize",
    "t_quantize_charts",
    "ApproximateUnit", "ch_apply", "ch_extended_apply", "default_unit",
    "kappa", "kappa_inv", "tail_deformed_unit",
    "endpoint_defect", "equ1_defect", "equ2_defect",
    "InconclusiveIndexError", "IndexReport", "analytic_index",
    "fredholm_index_svd", "higson_trace_index", "index_report",
    "winding_number",
]
