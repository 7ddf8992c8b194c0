import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mpdwr.scalar import (
    DOUBLE,
    HALF,
    SINGLE,
    _half_dot,
    _round_half,
    _rounder,
    mixed_dot,
    precision,
    precision_of,
    round_to,
    widest,
)


def test_precision_descriptors():
    assert DOUBLE.eps < SINGLE.eps < HALF.eps
    assert (DOUBLE.bytes, SINGLE.bytes, HALF.bytes) == (8, 4, 2)
    assert precision("single") is SINGLE
    with pytest.raises(ValueError):
        precision("quad")


def test_sparse_dtype_emulation():
    assert HALF.sparse_dtype == np.float32
    assert SINGLE.sparse_dtype == np.float32
    assert DOUBLE.sparse_dtype == np.float64


def test_round_to_representable_value():
    assert round_to(0.5, SINGLE) == 0.5


def test_round_to_below_single_eps():
    # 1 + 2^-24 is exact in double, ties to even when rounded to binary32
    assert round_to(1.0 + 2.0**-24, SINGLE) == np.float32(1.0)


def test_round_to_cos_probe():
    c = math.cos(math.pi / 3)
    c32 = round_to(c, SINGLE)
    assert float(c32) != c
    assert abs(float(c32) - c) <= 2.0**-24


def test_round_to_saturates_to_inf():
    assert np.isinf(round_to(1e300, SINGLE))
    assert np.isnan(round_to(float("nan"), HALF))


def test_round_to_identity_same_precision():
    x = np.float32(0.1)
    assert round_to(x, SINGLE) == x


def test_mixed_dot_rotated_basis_single_single():
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    v1 = np.array([c, s], dtype=np.float32)
    v2 = np.array([-s, c], dtype=np.float32)
    d = mixed_dot(v1, v2)
    assert d == np.float32(0.0)
    assert d.dtype == np.float32


def test_mixed_dot_single_double_band():
    # the promoted single operand breaks the exact cancellation; the
    # magnitude depends on libm only through the last bits of sin
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    v1 = np.array([c, s], dtype=np.float32)
    v2 = np.array([-s, c], dtype=np.float64)
    d = mixed_dot(v1, v2)
    assert d.dtype == np.float64
    assert 5e-9 <= abs(float(d)) <= 1.5e-8


def test_mixed_dot_zero_vectors():
    assert mixed_dot(np.zeros(3, np.float16), np.zeros(3, np.float64)) == 0.0


def test_mixed_dot_length_mismatch():
    with pytest.raises(ValueError):
        mixed_dot(np.zeros(3, np.float32), np.zeros(4, np.float32))


def test_mixed_dot_deterministic():
    rng = np.random.default_rng(7)
    v1 = rng.standard_normal(100).astype(np.float32)
    v2 = rng.standard_normal(100)
    a = mixed_dot(v1, v2)
    b = mixed_dot(v1, v2)
    assert np.float64(a).tobytes() == np.float64(b).tobytes()


@given(st.floats(width=32, allow_nan=False, allow_infinity=False))
def test_promotion_is_exact(x):
    x32 = np.float32(x)
    assert float(round_to(x32, DOUBLE)) == float(x32)


@given(st.floats(width=32, allow_nan=False, allow_infinity=False))
def test_round_trip_through_double(x):
    x32 = np.float32(x)
    assert round_to(round_to(x32, DOUBLE), SINGLE) == round_to(x32, SINGLE)


def test_widest():
    assert widest(SINGLE, DOUBLE) is DOUBLE
    assert widest(HALF, SINGLE) is SINGLE


def test_precision_of():
    assert precision_of(np.zeros(2, np.float32)) is SINGLE
    with pytest.raises(ValueError):
        precision_of(np.zeros(2, np.int64))


def _half_bits(x32):
    """astype(np.float16) of float32 values, back in float32, as bits."""
    with np.errstate(over="ignore"):
        return x32.astype(np.float16).astype(np.float32).view(np.uint32)


def _signalling_nan(bits):
    return ((bits & 0x7F800000) == 0x7F800000) & ((bits & 0x7FFFFF) != 0) & ((bits & 0x400000) == 0)


def test_round_half_matches_astype_on_a_sweep_of_all_float32_patterns():
    # every 2,861st bit pattern: both signs, every exponent, subnormals,
    # infinities and NaNs; a signalling NaN comes out quiet, as arithmetic
    # makes it, so only its NaN-ness is compared
    bits = np.arange(0, 2**32, 2_861, dtype=np.uint64).astype(np.uint32)
    x = bits.view(np.float32)
    with np.errstate(invalid="ignore"):  # signalling NaNs
        y = _round_half(x.copy()).view(np.uint32)
    ref = _half_bits(x)
    quiet = ~_signalling_nan(bits)
    assert (y[quiet] == ref[quiet]).all()
    assert np.isnan(y[~quiet].view(np.float32)).all()


@pytest.mark.parametrize(
    "x, expected",
    [
        (0.0, 0.0), (-0.0, -0.0),
        (2.0**-25, 0.0),  # a tie between 0 and 2**-24: to even, 0
        (-(2.0**-25), -0.0),
        (3 * 2.0**-26, 2.0**-24),
        (2.0**-24, 2.0**-24),
        (float(np.nextafter(np.float32(2.0**-14), np.float32(0))), 2.0**-14),
        (65504.0, 65504.0),
        (float(np.nextafter(np.float32(65520), np.float32(0))), 65504.0),
        (65520.0, np.inf), (-65520.0, -np.inf),
        (np.inf, np.inf), (-np.inf, -np.inf), (np.nan, np.nan), (-np.nan, -np.nan),
        (float(np.finfo(np.float32).smallest_subnormal), 0.0),
        (-float(np.finfo(np.float32).smallest_subnormal), -0.0),
        (float(np.nextafter(np.float32(2.0**-126), np.float32(0))), 0.0),
    ],
)
def test_round_half_edge_cases(x, expected):
    x32 = np.array([x], dtype=np.float32)
    y = _round_half(x32.copy())
    assert y.view(np.uint32)[0] == np.array([expected], dtype=np.float32).view(np.uint32)[0]
    assert y.view(np.uint32)[0] == _half_bits(x32)[0]


def _random_halves(rng, n):
    """Random binary16 bit patterns: subnormals, infinities and NaNs included."""
    return rng.integers(0, 2**16, n, dtype=np.uint16).view(np.float16)


@pytest.mark.parametrize("op", [np.add, np.subtract, np.multiply, np.divide])
def test_binary32_operation_rounded_once_is_binary16_arithmetic(op):
    rng = np.random.default_rng(16)
    a, b = _random_halves(rng, 200_000), _random_halves(rng, 200_000)
    small = rng.integers(0, 2**10, 50_000, dtype=np.uint16)  # subnormal operands
    a = np.concatenate([a, small.view(np.float16), a[:50_000]])
    b = np.concatenate([b, b[:50_000], (small ^ 0x8000).view(np.float16)])
    with np.errstate(all="ignore"):
        ref = op(a, b).astype(np.float32)
        y = _round_half(op(a.astype(np.float32), b.astype(np.float32)))
    nan = np.isnan(ref)  # of two NaN operands, numpy's loops may keep either payload
    assert (y.view(np.uint32)[~nan] == ref.view(np.uint32)[~nan]).all()
    assert np.isnan(y[nan]).all()


@pytest.mark.parametrize("n", [0, 1, 7, 1000, 40_000])
def test_half_dot_is_numpys_float16_dot(n):
    rng = np.random.default_rng(n)
    a = (rng.standard_normal(n) * 10.0 ** rng.integers(-7, 2, n)).astype(np.float16)
    b = (rng.standard_normal(n) * 10.0 ** rng.integers(-7, 2, n)).astype(np.float16)
    d = _half_dot(a.astype(np.float32), b.astype(np.float32))
    assert d.dtype == np.float16
    assert d.tobytes() == np.dot(a, b).tobytes()


def test_rounder_is_the_identity_outside_binary16():
    x = np.array([0.1, 1 / 3], dtype=np.float32)
    assert _rounder(SINGLE)(x) is x and _rounder(DOUBLE)(x) is x
    assert _rounder(HALF) is _round_half
