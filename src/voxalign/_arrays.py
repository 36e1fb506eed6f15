"""Array coercion helpers used by the public operations."""

import numpy as np

from .errors import DegenerateInput, ShapeMismatch


def as_array(x, name: str = "array") -> np.ndarray:
    """Coerce to a finite, C-contiguous float64 array of rank >= 1."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        raise ShapeMismatch(f"{name}: expected at least 1-D, got a scalar")
    if a.size == 0:
        raise ShapeMismatch(f"{name}: array is empty")
    if not np.isfinite(a).all():
        raise DegenerateInput(f"{name}: contains non-finite entries")
    return np.ascontiguousarray(a)


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    a = as_array(x, name)
    if a.ndim != 2:
        raise ShapeMismatch(f"{name}: expected 2-D, got shape {a.shape}")
    return a


def as_vector(x, name: str = "vector") -> np.ndarray:
    a = as_array(x, name)
    if a.ndim != 1:
        raise ShapeMismatch(f"{name}: expected 1-D, got shape {a.shape}")
    return a


def first_constant_row(m: np.ndarray):
    """Index of the first row of 2-D `m` whose entries all equal its first entry, or None."""
    constant = np.flatnonzero((m == m[:, :1]).all(axis=1))
    return int(constant[0]) if constant.size else None


def require_same_shape(a: np.ndarray, b: np.ndarray, context: str) -> None:
    if a.shape != b.shape:
        raise ShapeMismatch(f"{context}: shapes {a.shape} and {b.shape} differ")
