"""Exact float-to-text kernels for float64 arrays.

``fixed6(x)`` gives the text ``"%.6f" % v`` and ``shortest(x)`` the text
``float.__repr__(v)`` of each value ``v`` of ``x``, byte for byte, as
NUL-padded ASCII fields: an (n, W) uint8 array whose row i, with its NULs
dropped, is the text of ``x[i]``.  ``join_rows`` lays rows of literal text
and fields side by side and returns the text of the rows.

Both kernels round with an exact product.  Dekker's product (Numer. Math.
18, 1971) gives ``a*b == p + e`` exactly, where ``p`` is the float product,
from a Veltkamp split of each factor with 2**27 + 1; numpy has no fma.  A
value outside the range a kernel proves exact is formatted in Python into
the same field array.  The kernels build their fields as (slot, row)
arrays, so that each numpy operation runs along contiguous rows of values,
and ``join_rows`` transposes them into the text.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

#: Veltkamp's splitter: a == hi + lo, each half of at most 26 significant bits
_SPLIT = 134217729.0  # 2**27 + 1

#: 10**s, exact in float64 for s <= 22
_POW10 = 10.0 ** np.arange(23)

_MINUS, _DOT, _ZERO = np.uint8(ord("-")), np.uint8(ord(".")), np.uint8(ord("0"))

#: _DIGITS[:, v] is the ASCII text of v < 10**4 as four decimal digits
_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + _ZERO


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _product_error(a, b_hi, b_lo, p):
    """The exact ``a*b - p`` of the float product ``p = a*b``, where
    ``b == b_hi + b_lo`` is split, for products that neither overflow nor
    underflow."""
    a_hi, a_lo = _split(a)
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _put_digits(out: np.ndarray, n: np.ndarray) -> None:
    """Write the ``len(out)`` decimal digits of the int64 values
    ``n < 10**len(out)`` into the slot rows of ``out``, most significant first."""
    end = out.shape[0]
    while end > 4:
        q = n // 10_000  # a floor division by a constant is faster than divmod
        np.take(_DIGITS, n - q * 10_000, axis=1, out=out[end - 4:end], mode="clip")
        n, end = q, end - 4
    np.take(_DIGITS[4 - end:], n, axis=1, out=out[:end], mode="clip")


def _fields(x: np.ndarray, ok: np.ndarray, slots: np.ndarray, fallback) -> np.ndarray:
    """The (n, W) fields of ``x`` from the (W, n) slot rows a kernel wrote,
    with the text ``fallback(v)`` where ``ok`` is false."""
    rest = np.flatnonzero(~ok)
    if rest.size:
        texts = np.array(list(map(fallback, x[rest].tolist())), dtype=np.bytes_)
        if texts.itemsize > slots.shape[0]:
            slots = np.concatenate([slots, np.zeros((texts.itemsize - slots.shape[0], x.size),
                                                    dtype=np.uint8)])
        slots[:, rest] = texts.astype(f"S{slots.shape[0]}").view(np.uint8).reshape(rest.size, -1).T
    return slots.T


def fixed6(x: np.ndarray) -> np.ndarray:
    """The (n, W) NUL-padded fields of ``"%.6f" % v`` for the float64 values of ``x``.

    ``%.6f`` rounds the exact binary value to a multiple of 1e-6, ties to
    even.  With p = |v|*1e6 and e its exact error, n = rint(p) is that
    rounding unless p - n is +-0.5 and e moves the value off the tie.  That
    step is taken in int64, where it is not lost above 2**53.  Non-finite
    values and |v| >= 1e9 are formatted by Python's ``%``.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    a = np.abs(x)
    ok = a < 1e9
    v = np.where(ok, a, 0.0)
    p = v * 1e6
    e = _product_error(v, 1e6, 0.0, p)  # 1e6 has 14 significant bits
    n = np.rint(p)
    d = p - n
    n = n.astype(np.int64)
    n += (d == 0.5) & (e > 0)
    n -= (d == -0.5) & (e < 0)
    whole = n // 1_000_000
    # integer digits from the rounded value: 999999999.9999995 gives 1000000000
    width = len(str(whole.max(initial=0)))
    slots = np.empty((width + 8, x.size), dtype=np.uint8)
    slots[0] = np.signbit(x) * _MINUS
    _put_digits(slots[1:width + 1], whole)
    for k in range(1, width):  # blank the leading zeros
        slots[width - k] *= whole >= 10**k
    slots[width + 1] = _DOT
    _put_digits(slots[width + 2:], n - whole * 1_000_000)
    return _fields(x, ok, slots, "%.6f".__mod__)


def shortest(x: np.ndarray, fallback: Callable[[float], str] = float.__repr__) -> np.ndarray:
    """The (n, W) NUL-padded fields of ``float.__repr__(v)`` for the float64
    values of ``x``, with ``fallback(v)`` for the values outside the kernel.

    repr writes the shortest digits that round-trip, the nearest of them
    where there are several, in positional notation for 1e-4 <= |v| < 1e16;
    the kernel takes 1e-4 <= |v| < 1e15.  With E the decimal exponent,
    10**(E-1) <= |v| < 10**E, and units of 10**(E-17), one exact product
    gives |v| == n17 + r, n17 an integer and |r| <= 1/2, and n17 gives the
    nearest 15- and 16-digit decimals exactly.  A decimal k - r units from
    |v| round-trips where |k - r| < h, for h the half ulp of |v| in units:
    h <= 11.1 has at most 49 significant bits, so k +- h is exact for
    integer |k| <= 12, and a larger |k| fails either way.  |k - r| == h
    cannot hold: a midpoint between two floats below 2**53 has 17 or more
    significant digits.  The 15-digit spacing is wider than ulp(v), so a
    15-digit decimal that round-trips is the only one of 15 or fewer digits
    and gives the digits with its trailing zeros dropped.  Else the nearest
    16-digit decimal if it round-trips, else n17.  A wrong E from log10 and
    exact 16- and 17-digit ties go to ``fallback``.  A power of two has an
    asymmetric rounding interval; the 63 in range are tested one by one.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e15)
    v = np.where(ok, a, 1.5)
    exp10 = np.floor(np.log10(v)).astype(np.int64) + 1
    s = 17 - exp10
    p = v * _POW10[s]
    e = _product_error(v, _POW10_HI[s], _POW10_LO[s], p)
    # E is right where p + e lies in [1e16, 1e17)
    ok &= ((p > 1e16) | ((p == 1e16) & (e >= 0))) & (p < 1e17)
    rounded = np.rint(e)
    r = e - rounded
    n17 = p.astype(np.int64) + rounded.astype(np.int64)
    half = np.ldexp(_POW10[s], np.frexp(v)[1] - 54)

    def nearest(unit):
        """The nearest decimal in steps of ``unit``, in units, whether it
        round-trips, and whether |v| lies halfway between two steps."""
        q = n17 // unit
        m = n17 - q * unit
        n = (q + ((m > unit // 2) | ((m == unit // 2) & (r > 0)))) * unit
        k = (n - n17).astype(np.float64)
        return n, (k - half < r) & (r < k + half), (m == unit // 2) & (r == 0)

    n15, ok15, _ = nearest(100)
    n16, ok16, tie16 = nearest(10)
    ok &= ok15 | (~tie16 & (ok16 | (np.abs(r) != 0.5)))

    # digits[1:18] are the 17 digits; digits[i + 1] goes to slot i before
    # the point, digits[i] after it
    digits = np.empty((19, x.size), dtype=np.uint8)
    _put_digits(digits[1:18], np.where(ok15, n15, np.where(ok16, n16, n17)))
    digits[18] = _ZERO
    # the digits up to the last nonzero one show, and up to the point and
    # one after it, which is the 0 of "1.0"; int8 keeps the (slot, row)
    # comparisons narrow, and masks multiply where np.where is slow on uint8
    count = (np.arange(1, 18, dtype=np.uint8)[:, None] * (digits[1:18] != _ZERO)).max(axis=0)
    exp10 = exp10.astype(np.int8)
    point = np.where(exp10 > 0, exp10, 18)
    shown = np.maximum(count, exp10 + 1) + (exp10 > 0)
    slot = np.arange(18, dtype=np.int8)[:, None]
    slots = np.empty((24, x.size), dtype=np.uint8)
    slots[0] = np.signbit(x) * _MINUS
    slots[1] = (exp10 <= 0) * _ZERO
    slots[2] = (exp10 <= 0) * _DOT
    slots[3:6] = (slot[:3] < -exp10) * _ZERO
    text = slots[6:]
    np.subtract(digits[1:19], digits[:18], out=text)  # uint8 wraps: the sum below is exact
    text *= slot < point
    text += digits[:18]
    text += (slot == point) * (_DOT - text)
    text *= slot < shown
    return _fields(x, ok, slots, fallback)


def join_rows(parts: Sequence[str], fields: Sequence[np.ndarray], sep: str) -> str:
    """``sep.join`` over rows i of ``parts[0] + text(fields[0][i]) + parts[1]
    + ... + parts[-1]``, where ``text`` drops a field's NULs.  The parts and
    ``sep`` are ASCII without NULs."""
    parts = [*parts[:-1], parts[-1] + sep]
    buf = np.empty((fields[0].shape[0], sum(map(len, parts)) + sum(f.shape[1] for f in fields)),
                   dtype=np.uint8)
    col = 0
    for part, field in zip(parts, [*fields, None]):
        buf[:, col:col + len(part)] = np.frombuffer(part.encode("ascii"), dtype=np.uint8)
        col += len(part)
        if field is not None:
            buf[:, col:col + field.shape[1]] = field
            col += field.shape[1]
    return buf.reshape(-1)[:buf.size - len(sep)].tobytes().translate(None, b"\0").decode("ascii")
