"""Finite-field substrate: named primes, scalar and vector arithmetic."""

from .backend import (
    BACKEND_ENV_VAR,
    HAVE_NUMPY,
    FieldBackend,
    NumpyBackend,
    ScalarBackend,
    WordRows,
    element_words,
    resolve_backend,
)
from .counting import CountingField, counting_field
from .crt import MAX_CONV, PLANE_TWO_ADICITY, mat_polymul_crt
from .params import GOLDILOCKS, NAMED_FIELDS, P128, P192, P220, FieldParams, field_params
from .prime_field import (
    CheckedPrimeField,
    PrimeField,
    checked_field,
    is_probable_prime,
)
from .vector import outer, powers

__all__ = [
    "BACKEND_ENV_VAR",
    "CheckedPrimeField",
    "CountingField",
    "FieldBackend",
    "HAVE_NUMPY",
    "MAX_CONV",
    "NumpyBackend",
    "PLANE_TWO_ADICITY",
    "mat_polymul_crt",
    "ScalarBackend",
    "WordRows",
    "element_words",
    "resolve_backend",
    "FieldParams",
    "GOLDILOCKS",
    "NAMED_FIELDS",
    "P128",
    "P192",
    "P220",
    "PrimeField",
    "checked_field",
    "counting_field",
    "field_params",
    "is_probable_prime",
    "outer",
    "powers",
]
