"""Floating-point precision kernel.

Every numeric stage of the toolkit is generic over a :class:`Precision`
(IEEE-754 binary16/32/64).  This module owns the precision descriptors,
correct rounding between them, and the deterministic mixed-precision dot
product used to demonstrate how promotion breaks exact cancellation.

binary16 arithmetic is emulated: its values live in float32 containers
(:attr:`Precision.sparse_dtype`), each operation runs in binary32 and its
result is rounded to binary16 by :func:`_round_half`, a branch-free
round-to-nearest-even (the ``chop`` technique of Higham and Pranesh,
"Simulating low precision floating-point arithmetic", SISC 2019).  binary32
holds 24 >= 2*11 + 2 significand bits, so a binary32 +, -, * or / of two
binary16 values rounded once to binary16 is the binary16 result; numpy's
float16 loops compute exactly that, in software and several times slower,
and slower still on subnormals.  :func:`_half_dot` is numpy's float16 dot
on containers.  Every other precision's container is its own dtype, and
:func:`_rounder` returns the identity for it.
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


_SIGN = np.uint32(0x80000000)
_EXPONENT = np.uint32(0x7F800000)
_EXP_MIN = np.uint32(113 << 23)  # exponent field of 2**-14, binary16's smallest normal
_EXP_MAX = np.uint32(143 << 23)  # 2**16
_SHIFT = np.uint32((13 << 23) | 0x00400000)  # times 2**13, significand 1.5
_HALF_BITS = np.uint32(0xFFFFE000)  # the bits a binary16 value can set in binary32
_UP, _DOWN = np.float32(2.0**112), np.float32(2.0**-112)


def _round_half(x):
    """Round the float32 array x to binary16 values in place (round to
    nearest even, as astype(np.float16) does) and return it; the values
    stay in float32.

    y = (x + s) - s with s = 1.5 * 2**(E + 13) built from the exponent E of
    x, clamped to [-14, 16]: x + s lies in s's binade, where the binary32
    spacing is x's binary16 spacing 2**(E - 10), so the addition rounds x
    to it, ties to even (s is an even multiple of it), and the subtraction
    is exact.  Below 2**-14 the clamp gives binary16's subnormal spacing
    2**-24 (s = 0.75); above 2**16 it keeps s finite, and y stays large.
    No branch depends on the data, and every step is an integer or a
    binary32 pass: x's sign bit is put back, so that a negative x that
    rounds to zero gives -0; clearing the low 13 bits truncates a NaN's
    payload as the conversion does (every binary16 value has them clear
    already); and scaling by 2**112 and back turns exactly the results
    above 65,504 (65,536 and up) into infinities.  A signalling NaN comes
    out quiet."""
    bits = x.view(np.uint32)
    sign = np.bitwise_and(bits, _SIGN)
    s = np.bitwise_and(bits, _EXPONENT)
    np.clip(s, _EXP_MIN, _EXP_MAX, out=s)
    s += _SHIFT
    x += s.view(np.float32)
    x -= s.view(np.float32)
    bits &= _HALF_BITS
    bits |= sign
    with np.errstate(over="ignore"):
        x *= _UP
    x *= _DOWN
    return x


def _same(x):
    return x


def _rounder(p: Precision):
    """The in-place rounding of an array in p's container to p:
    _round_half for binary16, the identity where the container is p's own
    dtype."""
    return _round_half if p.sparse_dtype != p.dtype else _same


def _half_dot(a, b):
    """numpy's float16 dot of binary16 values in float32 containers: the
    products, exact in binary32, summed left to right in binary32 and
    rounded once to binary16."""
    t = np.multiply(a, b)
    return np.float16(np.cumsum(t, out=t)[-1] if t.size else 0.0)


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
