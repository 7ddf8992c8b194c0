"""Floating-point precision kernel.

Every numeric stage of the toolkit is generic over a :class:`Precision`
(IEEE-754 binary16/32/64).  This module owns the precision descriptors,
correct rounding between them, and the deterministic mixed-precision dot
product used to demonstrate how promotion breaks exact cancellation.

binary16 has no native sparse-arithmetic support in the SciPy stack; it is
emulated by rounding every intermediate through binary16 storage while the
heavy compute runs in binary32 (see :attr:`Precision.sparse_dtype`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Precision:
    """Descriptor of one IEEE-754 floating-point format."""

    name: str
    dtype: np.dtype
    eps: float
    bytes: int

    @property
    def sparse_dtype(self) -> np.dtype:
        """Storage dtype usable by scipy.sparse (binary16 is emulated)."""
        if self.dtype == np.dtype(np.float16):
            return np.dtype(np.float32)
        return self.dtype

    def __repr__(self):
        return f"Precision({self.name})"


HALF = Precision("half", np.dtype(np.float16), float(np.finfo(np.float16).eps), 2)
SINGLE = Precision("single", np.dtype(np.float32), float(np.finfo(np.float32).eps), 4)
DOUBLE = Precision("double", np.dtype(np.float64), float(np.finfo(np.float64).eps), 8)

_BY_NAME = {p.name: p for p in (HALF, SINGLE, DOUBLE)}
_BY_DTYPE = {p.dtype: p for p in (HALF, SINGLE, DOUBLE)}


def precision(name):
    """Look up a Precision by name ('half' | 'single' | 'double')."""
    if isinstance(name, Precision):
        return name
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown precision {name!r}; expected half, single or double")


def precision_of(array) -> Precision:
    """Precision whose dtype matches the array's dtype."""
    dt = np.asarray(array).dtype
    try:
        return _BY_DTYPE[dt]
    except KeyError:
        raise ValueError(f"array dtype {dt} is not a supported precision")


def widest(*precisions: Precision) -> Precision:
    """The precision with the smallest machine epsilon among the arguments."""
    return min(precisions, key=lambda p: p.eps)


def round_to(x, p: Precision):
    """Round x (scalar or array) to precision p, round-to-nearest-even.

    Overflow saturates to +-inf per IEEE-754; NaN and infinities pass
    through.  Rounding to the value's own precision is the identity.
    """
    p = precision(p)
    if isinstance(x, np.ndarray) and x.ndim and x.dtype == p.dtype:
        return x
    with np.errstate(over="ignore"):
        out = np.asarray(x).astype(p.dtype, copy=False)
    if np.isscalar(x) or np.ndim(x) == 0:
        return p.dtype.type(out)
    return out


def mixed_dot(v1, v2):
    """Dot product of two vectors, possibly stored at different precisions.

    Both operands are promoted to the wider of the two precisions and the
    accumulation runs left to right at that precision, so repeated calls on
    identical inputs are bit-identical.
    """
    v1 = np.asarray(v1)
    v2 = np.asarray(v2)
    if v1.shape != v2.shape or v1.ndim != 1:
        raise ValueError(f"length mismatch: {v1.shape} vs {v2.shape}")
    p = widest(precision_of(v1), precision_of(v2))
    a = round_to(v1, p)
    b = round_to(v2, p)
    acc = p.dtype.type(0.0)
    for i in range(a.shape[0]):
        acc = p.dtype.type(acc + p.dtype.type(a[i] * b[i]))
    return acc
