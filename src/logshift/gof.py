"""Characterization diagnostics for the logistic law.

Two exact functionals and one data-level test:

* ``w_functional`` evaluates w(x) = F'(x) / (F(x) (1 - F(x))), which is
  identically 1 exactly when the parent is logistic (any location).
* ``adjacent_functional_residual`` evaluates the integrated adjacent-rank
  relation F_k - F_{k+1} - F'_k / k - F'_{k+1} / (n-k), which vanishes
  identically for a logistic parent and is generically nonzero otherwise.
* ``gof_test`` turns the decomposition X =d X_{k,n} + sum E'_j/j - sum E''_j/j
  into a goodness-of-fit diagnostic: blocks of size n are carved out of the
  shuffled data, the k-th order statistic of each block plus freshly drawn
  exponential shifts reconstructs a sample that must look like the data
  itself exactly when the data are standard logistic. Reconstruction noise
  is averaged down by pooling several independent shuffle passes. The
  p-value is calibrated by Monte Carlo under the standard-logistic null,
  regenerating the full pipeline (including optional median centering), so
  the data/reconstruction dependence is accounted for exactly.
* ``gof_null`` is that Monte Carlo null on its own. It depends on the size
  of the data but not on their values, so it is computed once per process
  for each (size, n, k, config) and shared by every ``gof_test`` call.

The data are assumed standardized to unit scale. Location needs no
standardization: the reconstruction inherits any common location shift
from the data, and the two-sample comparison cancels it, so the statistic
is location-invariant by construction (the decomposition identity itself
is location-equivariant). ``center=True`` still subtracts the sample
median for interface explicitness, and the MC null replays the centering
so the p-value stays honest either way; scale and shape deviations are
what the test detects.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, Logistic
from .errors import DomainError, InsufficientDataError
from .hypotests import ks_statistic
from .rng import RngStream

__all__ = [
    "w_functional",
    "adjacent_functional_residual",
    "GofConfig",
    "GofResult",
    "gof_null",
    "gof_test",
]

_BOUNDARY_EPS = 1e-15
_MIN_DATA = 100
# Entries kept by gof_null's memo. Criterion 8 asks for the nulls of 200
# seeds in its calibration loop and again in its power loop, so the bound
# must exceed 200 for the second loop to hit. An entry of 199 replicates
# is 1.6 KB.
_NULL_CACHE_SIZE = 256


def w_functional(d: Distribution, x):
    """F'(x) / (F(x)(1-F(x))); identically 1 for a logistic parent."""
    F = np.asarray(d.cdf(x), dtype=float)
    if np.any(F <= _BOUNDARY_EPS) or np.any(1.0 - F <= _BOUNDARY_EPS):
        raise DomainError("w(x) is undefined where F(x) is 0 or 1")
    f = np.asarray(d.pdf(x), dtype=float)
    out = f / (F * (1.0 - F))
    if out.ndim == 0:
        return float(out)
    return out


def adjacent_functional_residual(parent: Distribution, n: int, k: int, x):
    """F_k - F_{k+1} - F'_k/k - F'_{k+1}/(n-k) for adjacent ranks k, k+1 of n."""
    from .distributions import OrderStatistic

    if not 1 <= k <= n - 1:
        raise DomainError(f"k must lie in [1, n-1] = [1, {n - 1}], got {k!r}")
    lower = OrderStatistic(parent, n, k)
    upper = OrderStatistic(parent, n, k + 1)
    out = (
        np.asarray(lower.cdf(x), dtype=float)
        - np.asarray(upper.cdf(x), dtype=float)
        - np.asarray(lower.pdf(x), dtype=float) / k
        - np.asarray(upper.pdf(x), dtype=float) / (n - k)
    )
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class GofConfig:
    """Settings for the reconstruction test."""

    null_replicates: int = 199
    passes: int = 6
    seed: int = 0
    center: bool = False

    def __post_init__(self):
        # an integral float would equal an int config in gof_null's memo
        if not isinstance(self.null_replicates, (int, np.integer)):
            raise DomainError(f"null_replicates must be an integer, got {self.null_replicates!r}")
        if self.null_replicates < 199:
            raise DomainError("null_replicates must be at least 199")
        if self.passes < 1:
            raise DomainError("passes must be at least 1")
        if not 0 <= int(self.seed) < 2**64:
            raise DomainError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class GofResult:
    statistic: float
    p_value: float
    null_replicates: int
    identity_used: str
    sample_size: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "null_replicates": self.null_replicates,
            "identity_used": self.identity_used,
            "sample_size": self.sample_size,
            "seed": self.seed,
        }

    def summary(self) -> str:
        return (
            f"gof {self.identity_used}: D={self.statistic:.5f} p={self.p_value:.4f} "
            f"N={self.sample_size} replicates={self.null_replicates} seed={self.seed}"
        )


# Largest block size n whose k-th order statistic is taken by a
# compare-exchange network. Beyond it np.partition is faster for middle k
# (measured at N=10^4: the pruned network wins for every k up to n=8 and
# loses at n=10, k=5).
_NETWORK_MAX_N = 8


def _batcher_pairs(n: int) -> list[tuple[int, int]]:
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort on n wires.

    Wires at or beyond n are dropped, which is valid because they would
    carry +inf and every comparator touching them is then a no-op.
    """
    pairs = []
    p = 1
    while p < n:
        step = p
        while step >= 1:
            for j in range(step % p, n - step, 2 * step):
                for i in range(min(step, n - j - step)):
                    if (i + j) // (2 * p) == (i + j + step) // (2 * p):
                        pairs.append((i + j, i + j + step))
            step //= 2
        p *= 2
    return pairs


def _selection_network(n: int, k: int) -> list[tuple[int, int, bool, bool]]:
    """The sorting network for n wires pruned to what wire k-1 depends on.

    Each step (i, j, lo, hi) sets wire i to min(i, j) when lo and wire j to
    max(i, j) when hi. For (3, 2) this is min(max(a, b), max(min(a, b), c)).
    """
    needed = {k - 1}
    steps = []
    for i, j in reversed(_batcher_pairs(n)):
        lo, hi = i in needed, j in needed
        if lo or hi:
            steps.append((i, j, lo, hi))
            needed.update((i, j))
    steps.reverse()
    return steps


def _block_order_statistics(work: np.ndarray, order: np.ndarray, k: int, network) -> np.ndarray:
    """k-th smallest of work[order[b]] for every row b of the (blocks, n) index array."""
    if network is None:
        return np.partition(work[order], k - 1, axis=1)[:, k - 1]
    wires = list(work[order.T])
    for i, j, lo, hi in network:
        a, b = wires[i], wires[j]
        if lo:
            wires[i] = np.minimum(a, b)
        if hi:
            wires[j] = np.maximum(a, b)
    return wires[k - 1]


def _reconstruction_statistic(
    data: np.ndarray, stream: RngStream, n: int, k: int, passes: int, center: bool
) -> float:
    """KS distance between the data ECDF and the pooled reconstruction ECDF."""
    work = data - np.median(data) if center else data
    size = work.size
    blocks = size // n
    network = _selection_network(n, k) if n <= _NETWORK_MAX_N else None
    recon = np.empty(passes * blocks)
    for p in range(passes):
        s = stream.substream(p)
        order = s.permutation(size)[: blocks * n].reshape(blocks, n)
        base = _block_order_statistics(work, order, k, network)
        shift = np.zeros(blocks)
        for j in range(1, n - k + 1):
            shift += -np.log1p(-s.uniform_open(blocks)) / j
        for j in range(1, k):
            shift -= -np.log1p(-s.uniform_open(blocks)) / j
        recon[p * blocks : (p + 1) * blocks] = base + shift
    return ks_statistic(work, recon)


@functools.lru_cache(maxsize=_NULL_CACHE_SIZE, typed=True)
def gof_null(size: int, n: int, k: int, config: GofConfig) -> np.ndarray:
    """Sorted null statistics of ``gof_test`` for data of this size, read-only.

    Replicate i (1-based) runs a fresh standard-logistic dataset drawn from
    substream (i, 0) through the pipeline with shuffles and shifts from
    substream (i, 1). Nothing here depends on the data, so the result is
    memoised process-wide per (size, n, k, config). ``typed=True`` keeps
    ``k=2.0`` from hitting the entry of ``k=2`` and skipping validation.
    """
    if size < _MIN_DATA:
        raise InsufficientDataError(f"need at least {_MIN_DATA} observations, got {size}")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= n):
        raise DomainError(f"rank k must lie in [1, {n}], got {k!r}")
    if n > size:
        raise InsufficientDataError(f"block size n={n} exceeds data size {size}")

    root = RngStream(config.seed)
    null_parent = Logistic()
    stats = np.empty(config.null_replicates)
    for i in range(1, config.null_replicates + 1):
        s = root.substream(i)
        null_data = null_parent.sample(s.substream(0), size)
        stats[i - 1] = _reconstruction_statistic(
            null_data, s.substream(1), n, k, config.passes, config.center
        )
    stats.sort()
    stats.flags.writeable = False
    return stats


def gof_test(data, n: int, k: int, config: GofConfig | None = None) -> GofResult:
    """Reconstruction-based logistic goodness-of-fit test.

    The p-value is (1 + #{null statistics >= observed}) / (null_replicates + 1),
    each null statistic coming from a fresh standard-logistic dataset of the
    same size run through the identical pipeline (see :func:`gof_null`).
    """
    config = config if config is not None else GofConfig()
    data = np.asarray(data, dtype=float).ravel()
    if data.size < _MIN_DATA:
        raise InsufficientDataError(
            f"need at least {_MIN_DATA} observations, got {data.size}"
        )
    if not np.all(np.isfinite(data)):
        raise DomainError("data must be finite")
    null = gof_null(data.size, n, k, config)

    observed = _reconstruction_statistic(
        data, RngStream(config.seed).substream(0), n, k, config.passes, config.center
    )
    exceed = int(null.size - np.searchsorted(null, observed, side="left"))
    p_value = (1.0 + exceed) / (config.null_replicates + 1.0)
    return GofResult(
        statistic=float(observed),
        p_value=float(p_value),
        null_replicates=config.null_replicates,
        identity_used=f"lemma1ii:k={k},n={n}",
        sample_size=int(data.size),
        seed=config.seed,
    )
