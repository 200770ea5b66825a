"""Characteristic-function building blocks of the parent laws.

The logistic characteristic function is evaluated in its closed real form
pi*t/sinh(pi*t). It equals the gamma product Gamma(1+it)*Gamma(1-it); the
tests check it against that product through ``scipy.special.gamma``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["logistic_cf", "exponential_cf"]


# Taylor window and coefficients for t/sinh(t) = 1 - t^2/6 + 7 t^4/360 - ...
_CF_TAYLOR_CUTOFF = 1e-4


def logistic_cf(t):
    """Characteristic function of the standard logistic law, pi*t/sinh(pi*t).

    Accepts a scalar or array; the value is real (imaginary part exactly
    zero), even in t, and lies in (0, 1].
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise DomainError("t must be finite")
    pt = np.pi * np.abs(t_arr)
    out = np.empty(t_arr.shape, dtype=np.complex128)

    small = np.abs(t_arr) < _CF_TAYLOR_CUTOFF
    pts = pt[small]
    out[small] = 1.0 - pts**2 / 6.0 + 7.0 * pts**4 / 360.0

    mid = ~small & (pt <= 700.0)
    out[mid] = pt[mid] / np.sinh(pt[mid])

    large = ~small & (pt > 700.0)
    if np.any(large):
        # sinh overflows; use 2x e^{-x}/(1-e^{-2x}), which just underflows to 0
        pl = pt[large]
        out[large] = 2.0 * pl * np.exp(-pl)

    if out.ndim == 0:
        return complex(out)
    return out


def exponential_cf(t, rate: float = 1.0):
    """Characteristic function of an exponential law: (1 - i*t/rate)^(-1)."""
    if not (math.isfinite(rate) and rate > 0.0):
        raise DomainError(f"rate must be positive and finite, got {rate!r}")
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise DomainError("t must be finite")
    out = rate / (rate - 1j * t_arr)
    if out.ndim == 0:
        return complex(out)
    return out
