"""Characteristic functions of order statistics.

For a standard logistic parent, the CF of the k-th of n order statistics
has an exact closed form: with phi(t) = pi*t/sinh(pi*t),

    phi_{k,n}(t) = prod_{j=1}^{k-1} (1 + it/j) * prod_{j=1}^{n-k} (1 - it/j) * phi(t),

equivalently Gamma(k+it)*Gamma(n-k+1-it) / (Gamma(k)*Gamma(n-k+1)). The
linear-factor product is the one evaluated (exact structure over integer
denominators); the tests cross-check it against the gamma quotient through
``scipy.special.gamma``.

``numerical_cf`` integrates e^{itx} against the order-statistic density by
adaptive quadrature and acts as the independent oracle for arbitrary
parents. ``cf_invert_derivative`` recovers CDF derivatives from a sampled
CF grid through the Fourier inversion

    F^{(m)}(x) = (-i)^{m-1} / (2*pi) * integral e^{-itx} t^{m-1} phi(t) dt,

valid for 1 <= m <= 4 once t^{m-1} phi(t) is absolutely integrable. On a
uniform grid the trapezoid rule is spectrally accurate here because the
integrand decays like e^{-pi|t|} and is analytic in a strip, so the grid
range, not the spacing, limits accuracy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .distributions import OrderStatistic
from .errors import ConvergenceError, DomainError, TruncationError
from .quadrature import adaptive_quadrature
from .special import logistic_cf

__all__ = [
    "CFGrid",
    "logistic_order_stat_cf",
    "exponential_order_stat_cf",
    "numerical_cf",
    "cf_invert_derivative",
    "logistic_cf_grid",
]

_EDGE_DECAY_LIMIT = 1e-10


@dataclass(frozen=True)
class CFGrid:
    """Characteristic-function samples on a sorted real grid with error bounds."""

    t: np.ndarray
    values: np.ndarray
    abs_error: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        values = np.asarray(self.values, dtype=np.complex128)
        abs_error = np.broadcast_to(np.asarray(self.abs_error, dtype=float), t.shape).copy()
        if t.ndim != 1 or t.size < 2:
            raise DomainError("grid needs at least two points")
        if values.shape != t.shape:
            raise DomainError("t and values must have the same length")
        if np.any(np.diff(t) <= 0):
            raise DomainError("t values must be strictly increasing")
        if np.any(abs_error < 0):
            raise DomainError("error bounds must be nonnegative")
        slack = 1e-12  # rounding headroom on the unit-modulus bound
        if np.any(np.abs(values) > 1.0 + abs_error + slack):
            raise DomainError("|cf| exceeds 1 beyond the stated error bound")
        at_zero = t == 0.0
        if np.any(np.abs(values[at_zero] - 1.0) > abs_error[at_zero] + slack):
            raise DomainError("cf(0) differs from 1 beyond the stated error bound")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "abs_error", abs_error)

    def to_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj)
        writer.writerow(["t", "re", "im", "err"])
        for ti, vi, ei in zip(self.t, self.values, self.abs_error):
            writer.writerow(
                [repr(float(ti)), repr(float(vi.real)), repr(float(vi.imag)), repr(float(ei))]
            )

    @classmethod
    def from_csv(cls, fileobj) -> "CFGrid":
        reader = csv.reader(fileobj)
        header = next(reader, None)
        if header != ["t", "re", "im", "err"]:
            raise DomainError(f"unexpected CSV header {header!r}")
        try:
            rows = [(float(r[0]), complex(float(r[1]), float(r[2])), float(r[3])) for r in reader]
        except (IndexError, ValueError) as exc:
            raise DomainError(f"malformed CSV row: {exc}") from exc
        # a header-only file gives an empty grid, refused by the constructor
        t, values, err = zip(*rows) if rows else ((), (), ())
        return cls(np.array(t), np.array(values), np.array(err))


def logistic_order_stat_cf(n: int, k: int, t):
    """Exact CF of the k-th of n standard-logistic order statistics."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= n):
        raise DomainError(f"rank k must lie in [1, {n}], got {k!r}")
    t_arr = np.asarray(t, dtype=float)
    it = 1j * t_arr
    value = np.asarray(logistic_cf(t_arr), dtype=np.complex128).copy()
    for j in range(1, k):
        value *= 1.0 + it / j
    for j in range(1, n - k + 1):
        value *= 1.0 - it / j
    if value.ndim == 0:
        return complex(value)
    return value


def exponential_order_stat_cf(n: int, k: int, t, rate: float = 1.0):
    """Exact CF of the k-th of n exponential order statistics.

    Via the spacing representation, the k-th order statistic equals
    sum_{j=n-k+1}^{n} E_j / (j * rate), so the CF is the matching product
    of exponential CFs.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= n):
        raise DomainError(f"rank k must lie in [1, {n}], got {k!r}")
    if not rate > 0:
        raise DomainError("rate must be positive")
    t_arr = np.asarray(t, dtype=float)
    value = np.ones(t_arr.shape, dtype=np.complex128)
    for j in range(n - k + 1, n + 1):
        value /= 1.0 - 1j * t_arr / (j * rate)
    if value.ndim == 0:
        return complex(value)
    return value


def _truncation_bounds(spec: OrderStatistic, tail_mass: float) -> tuple[float, float]:
    """[L, U] leaving at most ``tail_mass`` of order-statistic probability outside."""
    parent, n, k = spec.parent, spec.n, spec.k
    # crude but safe parent-quantile start: P(X_{k,n} <= x) <= 2^n F(x)^k
    p_lo = (tail_mass / 2.0 / 2.0**n) ** (1.0 / k)
    p_hi = 1.0 - (tail_mass / 2.0 / 2.0**n) ** (1.0 / (n - k + 1))
    lo = float(parent.quantile(max(p_lo, 1e-300)))
    hi = float(parent.quantile(min(p_hi, 1.0 - 2**-53)))
    for _ in range(60):
        if spec.cdf(lo) <= tail_mass / 2.0:
            break
        lo = lo - max(1.0, abs(lo))
    for _ in range(60):
        if 1.0 - spec.cdf(hi) <= tail_mass / 2.0:
            break
        hi = hi + max(1.0, abs(hi))
    return lo, hi


def numerical_cf(spec: OrderStatistic, t: float, tol: float) -> complex:
    """Quadrature oracle: integral of e^{itx} * order-statistic density.

    The domain is truncated where the omitted tail mass is below tol/10;
    the quadrature itself targets the remaining budget. Raises
    ConvergenceError if the subdivision budget runs out.
    """
    if not tol >= 1e-12:
        raise DomainError(f"tol must be >= 1e-12, got {tol!r}")
    lo, hi = _truncation_bounds(spec, tail_mass=tol / 10.0)

    def integrand(x):
        return np.exp(1j * t * x) * spec.pdf(x)

    # split budget: tail already spent tol/10
    value, _ = adaptive_quadrature(integrand, lo, hi, tol=0.8 * tol)
    return complex(value)


def cf_invert_derivative(grid: CFGrid, m: int, x: float, return_residual: bool = False):
    """m-th CDF derivative at x from a CF grid (m in 1..4).

    Raises TruncationError when |t^{m-1} cf(t)| at either grid edge is
    above 1e-10, i.e. the grid does not cover the decay of the integrand.
    With ``return_residual=True`` also returns the imaginary residual of
    the inversion integral, a diagnostic that should sit below ~1e-8.
    """
    if not (isinstance(m, (int, np.integer)) and 1 <= m <= 4):
        raise DomainError(f"derivative order m must lie in [1, 4], got {m!r}")
    t = grid.t
    weighted = t ** (m - 1) * grid.values
    edge = max(abs(weighted[0]), abs(weighted[-1]))
    if edge > _EDGE_DECAY_LIMIT:
        raise TruncationError(
            f"|t^(m-1) cf| = {edge:.3e} at the grid edge; extend the grid range"
        )
    integrand = np.exp(-1j * t * x) * weighted
    integral = np.trapezoid(integrand, t)
    value = (-1j) ** (m - 1) / (2.0 * math.pi) * integral
    if return_residual:
        return float(value.real), abs(float(value.imag))
    return float(value.real)


def logistic_cf_grid(
    n: int,
    k: int,
    max_order: int = 1,
    spacing: float = 0.05,
    decay_threshold: float = 1e-13,
    abs_error: float = 1e-14,
) -> CFGrid:
    """Uniform CF grid for the (n, k) logistic order statistic.

    The half-range grows until |t|^(max_order-1) * |cf(t)| falls below
    ``decay_threshold``, which keeps inversion up to derivative order
    ``max_order`` inside its truncation budget.
    """
    if spacing <= 0 or spacing > 0.05:
        raise DomainError("spacing must lie in (0, 0.05] to resolve the oscillation")
    t_max = 5.0
    while t_max < 400.0:
        tail = abs(t_max ** (max_order - 1) * logistic_order_stat_cf(n, k, t_max))
        if tail < decay_threshold:
            break
        t_max += 1.0
    else:
        raise ConvergenceError("cf decay threshold not reached at t = 400")
    half = int(math.ceil(t_max / spacing))
    t = np.arange(-half, half + 1) * spacing
    return CFGrid(t, logistic_order_stat_cf(n, k, t), abs_error)
