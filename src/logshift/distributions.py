"""Parent distribution families and their order statistics.

Every family exposes a vectorized cdf/pdf/quantile triple plus inverse-CDF
sampling from an :class:`~logshift.rng.RngStream`. The supported parents are
the ones the shift identities need: logistic (unit scale, optional
location), exponential, Laplace indexed by a positive integer rate,
uniform on (0, 1), and normal.

Order statistics are sampled through the uniform representation: the k-th
of n uniforms is Beta(k, n-k+1), so a parent quantile applied to a beta
draw realizes the k-th order statistic in O(1) per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError
from .rng import RngStream

__all__ = [
    "Distribution",
    "Logistic",
    "Exponential",
    "Laplace",
    "Uniform01",
    "Normal",
    "OrderStatistic",
    "parse_distribution",
]


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def _scalar_like(arr, template):
    if np.ndim(arr) == 0:
        return float(arr)
    return arr


def _check_finite_location(mu) -> None:
    if not math.isfinite(mu):
        raise DomainError(f"mu is not finite, got {mu!r}")


def _validated_int(value, name: str, minimum: int):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


class Distribution:
    """Common behaviour for all parent families."""

    name: str = ""

    def cdf(self, x):
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def quantile(self, p):
        raise NotImplementedError

    def sample(self, rng: RngStream, count: int) -> np.ndarray:
        """i.i.d. draws by inverse-CDF transform; deterministic given the stream."""
        if count < 1:
            raise DomainError("count must be >= 1")
        return self.quantile(rng.uniform_open(count))

    def label(self) -> str:
        """The CLI-addressable name, e.g. ``normal,mu=0,sigma=1.8138``."""
        raise NotImplementedError


@dataclass(frozen=True)
class Logistic(Distribution):
    """Logistic with unit scale; cdf(x) = 1 / (1 + exp(-(x - mu)))."""

    mu: float = 0.0
    name = "logistic"

    def __post_init__(self):
        _check_finite_location(self.mu)

    def cdf(self, x):
        t = _as_float_array(x) - self.mu
        e = np.exp(-np.abs(t))
        out = np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return _scalar_like(out, x)

    def pdf(self, x):
        t = _as_float_array(x) - self.mu
        e = np.exp(-np.abs(t))
        out = e / (1.0 + e) ** 2
        return _scalar_like(out, x)

    def quantile(self, p):
        p = _as_float_array(p)
        out = self.mu + np.log(p) - np.log1p(-p)
        return _scalar_like(out, p)

    def label(self) -> str:
        return "logistic" if self.mu == 0.0 else f"logistic,mu={self.mu:g}"


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float = 1.0
    name = "exponential"

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise DomainError(f"rate must be positive, got {self.rate!r}")

    def cdf(self, x):
        t = _as_float_array(x)
        out = np.where(t < 0, 0.0, -np.expm1(-self.rate * np.maximum(t, 0.0)))
        return _scalar_like(out, x)

    def pdf(self, x):
        t = _as_float_array(x)
        out = np.where(t < 0, 0.0, self.rate * np.exp(-self.rate * np.maximum(t, 0.0)))
        return _scalar_like(out, x)

    def quantile(self, p):
        p = _as_float_array(p)
        out = -np.log1p(-p) / self.rate
        return _scalar_like(out, p)

    def label(self) -> str:
        return f"exponential,rate={self.rate:g}"


@dataclass(frozen=True)
class Laplace(Distribution):
    """Two-sided exponential with integer rate index j: density j*exp(-j|x|)/2."""

    index: int = 1
    name = "laplace"

    def __post_init__(self):
        object.__setattr__(self, "index", _validated_int(self.index, "index", 1))

    def cdf(self, x):
        t = _as_float_array(x) * self.index
        out = np.where(t < 0, 0.5 * np.exp(np.minimum(t, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(t, 0.0)))
        return _scalar_like(out, x)

    def pdf(self, x):
        t = _as_float_array(x)
        out = 0.5 * self.index * np.exp(-self.index * np.abs(t))
        return _scalar_like(out, x)

    def quantile(self, p):
        p = _as_float_array(p)
        out = np.where(
            p < 0.5,
            np.log(np.maximum(2.0 * p, np.finfo(float).tiny)) / self.index,
            -(math.log(2.0) + np.log1p(-p)) / self.index,
        )
        return _scalar_like(out, p)

    def label(self) -> str:
        return f"laplace,index={self.index}"


@dataclass(frozen=True)
class Uniform01(Distribution):
    name = "uniform01"

    def cdf(self, x):
        out = np.clip(_as_float_array(x), 0.0, 1.0)
        return _scalar_like(out, x)

    def pdf(self, x):
        t = _as_float_array(x)
        out = np.where((t >= 0.0) & (t <= 1.0), 1.0, 0.0)
        return _scalar_like(out, x)

    def quantile(self, p):
        out = _as_float_array(p)
        return _scalar_like(out, p)

    def label(self) -> str:
        return "uniform01"


@dataclass(frozen=True)
class Normal(Distribution):
    mu: float = 0.0
    sigma: float = 1.0
    name = "normal"

    def __post_init__(self):
        _check_finite_location(self.mu)
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError(f"sigma must be positive, got {self.sigma!r}")

    def cdf(self, x):
        z = (_as_float_array(x) - self.mu) / self.sigma
        out = ndtr(z)
        return _scalar_like(out, x)

    def pdf(self, x):
        z = (_as_float_array(x) - self.mu) / self.sigma
        out = np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))
        return _scalar_like(out, x)

    def quantile(self, p):
        p = _as_float_array(p)
        out = self.mu + self.sigma * ndtri(p)
        return _scalar_like(out, p)

    def label(self) -> str:
        return f"normal,mu={self.mu:g},sigma={self.sigma:g}"


@dataclass(frozen=True)
class OrderStatistic:
    """The k-th smallest of n i.i.d. draws from ``parent``."""

    parent: Distribution
    n: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "n", _validated_int(self.n, "n", 1))
        object.__setattr__(self, "k", _validated_int(self.k, "rank k", 1))
        if self.k > self.n:
            raise DomainError(f"rank k must lie in [1, {self.n}], got {self.k!r}")

    def pdf(self, x):
        """k * C(n,k) * F^(k-1) * (1-F)^(n-k) * f, the order-statistic density."""
        n, k = self.n, self.k
        F = np.asarray(self.parent.cdf(x), dtype=float)
        f = np.asarray(self.parent.pdf(x), dtype=float)
        out = k * math.comb(n, k) * F ** (k - 1) * (1.0 - F) ** (n - k) * f
        return _scalar_like(out, x)

    def cdf(self, x):
        """Upper binomial tail: sum of C(n,j) F^j (1-F)^(n-j) over j = k..n."""
        n, k = self.n, self.k
        F = np.asarray(self.parent.cdf(x), dtype=float)
        out = np.zeros_like(F)
        for j in range(k, n + 1):
            out += math.comb(n, j) * F**j * (1.0 - F) ** (n - j)
        return _scalar_like(out, x)

    def sample(self, rng: RngStream, count: int) -> np.ndarray:
        """Beta-quantile route: parent quantile of a Beta(k, n-k+1) draw."""
        if count < 1:
            raise DomainError("count must be >= 1")
        u = rng.beta(float(self.k), float(self.n - self.k + 1), count)
        # beta draws can touch 0/1 in floating point; nudge into the open interval
        tiny = np.finfo(float).tiny
        u = np.clip(u, tiny, 1.0 - 2**-53)
        return self.parent.quantile(u)


_FAMILY_KEYS = {
    "logistic": ({"mu"}, lambda kw: Logistic(mu=float(kw.get("mu", 0.0)))),
    "exponential": ({"rate"}, lambda kw: Exponential(rate=float(kw.get("rate", 1.0)))),
    "laplace": ({"index", "j"}, lambda kw: Laplace(index=int(kw.get("index", kw.get("j", 1))))),
    "uniform01": (set(), lambda kw: Uniform01()),
    "normal": (
        {"mu", "sigma"},
        lambda kw: Normal(mu=float(kw.get("mu", 0.0)), sigma=float(kw.get("sigma", 1.0))),
    ),
}


def parse_params(parts, allowed: set[str], owner: str) -> dict[str, str]:
    """Read ``key=value`` selector parts; keys are case-folded, values stripped.

    ``owner`` names the selector in the error for a key outside ``allowed``.
    """
    params = {}
    for part in parts:
        if "=" not in part:
            raise DomainError(f"malformed parameter {part!r} (expected key=value)")
        key, value = part.split("=", 1)
        key = key.strip().lower()
        if key not in allowed:
            raise DomainError(f"{owner} does not take parameter {key!r}")
        params[key] = value.strip()
    return params


def parse_distribution(text: str) -> Distribution:
    """Parse a CLI-style selector such as ``normal,mu=0,sigma=1.8138``."""
    parts = [p.strip() for p in text.strip().split(",") if p.strip()]
    if not parts:
        raise DomainError("empty distribution selector")
    family, param_parts = parts[0].lower(), parts[1:]
    if family not in _FAMILY_KEYS:
        raise DomainError(f"unknown distribution family {family!r}")
    allowed, build = _FAMILY_KEYS[family]
    kwargs = parse_params(param_parts, allowed, f"family {family!r}")
    try:
        return build(kwargs)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad parameters for {family!r}: {exc}") from exc
