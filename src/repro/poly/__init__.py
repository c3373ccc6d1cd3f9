"""Polynomial algebra substrate (dense polys, NTT, fast division, interpolation)."""

from .batch import (
    FixedOperand,
    mat_interpolate_at_roots_of_unity,
    mat_interpolate_newton,
    mat_poly_mul,
    newton_levels,
    pad_rows,
)
from .dense import (
    degree,
    is_zero,
    poly_add,
    poly_derivative,
    poly_eval,
    poly_from_roots,
    poly_mul_naive,
    poly_neg,
    poly_scale,
    poly_shift,
    poly_sub,
    trim,
)
from .divide import poly_div_exact, poly_divmod, poly_divmod_naive
from .interpolate import (
    SubproductTree,
    barycentric_lagrange_coeffs,
    barycentric_weights,
    barycentric_weights_arithmetic,
    interpolate_at_roots_of_unity,
)
from .multiply import mul_strategy, poly_mul
from .ntt import intt, max_ntt_size, ntt, ntt_mul, ntt_reference
from .plan import (
    NTTPlan,
    clear_plan_caches,
    get_barycentric_weights,
    get_ntt_plan,
    plan_cache_info,
)

__all__ = [
    "FixedOperand",
    "NTTPlan",
    "SubproductTree",
    "barycentric_lagrange_coeffs",
    "barycentric_weights",
    "barycentric_weights_arithmetic",
    "clear_plan_caches",
    "degree",
    "get_barycentric_weights",
    "get_ntt_plan",
    "interpolate_at_roots_of_unity",
    "intt",
    "is_zero",
    "mat_interpolate_at_roots_of_unity",
    "mat_interpolate_newton",
    "mat_poly_mul",
    "max_ntt_size",
    "mul_strategy",
    "newton_levels",
    "pad_rows",
    "ntt",
    "ntt_mul",
    "ntt_reference",
    "plan_cache_info",
    "poly_add",
    "poly_derivative",
    "poly_div_exact",
    "poly_divmod",
    "poly_divmod_naive",
    "poly_eval",
    "poly_from_roots",
    "poly_mul",
    "poly_mul_naive",
    "poly_neg",
    "poly_scale",
    "poly_shift",
    "poly_sub",
    "trim",
]
