"""Numerical laboratory for order-zero symbol calculus on the circle.

Dense finite models of the multiplication/quantization operators attached
to matrix-valued symbols on the cotangent space of the circle, the dyadic
quadratic partition machinery, the approximate-unit construction relating
the two, and integer index pairings with three independent routes.
"""

from .numerics import (CircleGrid, FourierOperator, compact_tail_norm,
                       fourier_coefficients, operator_norm)
from .partition import DyadicPartition, SmoothStep, build_partition
from .symbols import (CutFunction, HomogeneousSymbol, Loop, RadialProfile,
                      Symbol, SymbolClass, dilate, smash)
from .quantize import (Atlas, multiplication_operator, op_quantize,
                       t_quantize, t_quantize_charts)
from .extension import ExtensionDefectProfile, lifting_check, symbol_map_defect
from .connes_higson import (ApproximateUnit, ch_apply, ch_extended_apply,
                            default_unit, kappa, kappa_inv,
                            quasicentrality_defect, tail_deformed_unit)
from .homotopy import (BlockOperator, endpoint_defect, equ1_defect,
                       equ2_defect, i0_block_operator, psi_s)
from .index_theory import (InconclusiveIndexError, IndexReport,
                           analytic_index, fredholm_index_svd,
                           higson_trace_index, index_report, winding_number)

__all__ = [
    "CircleGrid", "FourierOperator", "compact_tail_norm",
    "fourier_coefficients", "operator_norm",
    "DyadicPartition", "SmoothStep", "build_partition",
    "CutFunction", "HomogeneousSymbol", "Loop", "RadialProfile", "Symbol",
    "SymbolClass", "dilate", "smash",
    "Atlas", "multiplication_operator", "op_quantize", "t_quantize",
    "t_quantize_charts",
    "ExtensionDefectProfile", "lifting_check", "symbol_map_defect",
    "ApproximateUnit", "ch_apply", "ch_extended_apply", "default_unit",
    "kappa", "kappa_inv", "quasicentrality_defect", "tail_deformed_unit",
    "BlockOperator", "endpoint_defect", "equ1_defect", "equ2_defect",
    "i0_block_operator", "psi_s",
    "InconclusiveIndexError", "IndexReport", "analytic_index",
    "fredholm_index_svd", "higson_trace_index", "index_report",
    "winding_number",
]
