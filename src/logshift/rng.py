"""Splittable, counter-based random streams.

A stream is identified by a 64-bit root seed plus a path of substream
indices. The underlying bit generator is Philox (counter-based), keyed
through ``numpy.random.SeedSequence`` spawn keys, so any substream can be
reconstructed from ``(seed, path)`` alone. Substreams with distinct paths
are statistically independent, which is what lets samplers hand out
disjoint streams per variate and, if desired, fan work out across workers
without changing results.

The generator is built on the first draw, so streams that only hand out
substreams cost no Philox set-up.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_MAX_SEED = 2**64

# 53-bit lattice keeps inverse-CDF sampling away from the 0 and 1 endpoints.
_OPEN_DENOM = float(1 << 53)

# (U, V) pairs drawn per step of the bulk Beta(1, 1) sampler: small enough
# to stay in L2, large enough that the per-step overhead is negligible.
_JOHNK_PAIRS = 1 << 14


class RngStream:
    """One deterministic stream of randomness, splittable into substreams."""

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        if not (0 <= int(seed) < _MAX_SEED):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        if self.path and min(self.path) < 0:
            raise DomainError("substream indices must be nonnegative")
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
            self._generator = np.random.Generator(np.random.Philox(ss))
        return self._generator

    def substream(self, index: int) -> "RngStream":
        """Independent child stream; same (seed, path, index) always gives the same draws."""
        if index < 0:
            raise DomainError("substream index must be nonnegative")
        return RngStream(self.seed, self.path + (index,))

    def uniform_open(self, count: int) -> np.ndarray:
        """Uniform draws on the open interval (0, 1), safe to feed to quantile functions."""
        ints = self.generator.integers(1, 1 << 53, size=count)
        return ints / _OPEN_DENOM

    def uniform(self, count: int) -> np.ndarray:
        return self.generator.random(count)

    def beta(self, a: float, b: float, count: int) -> np.ndarray:
        """Beta(a, b) draws, equal bit for bit to ``Generator.beta(a, b, count)``.

        For a = b = 1 numpy runs Johnk's method: it draws (U, V) pairs, keeps
        a pair when 0 < U+V <= 1 and returns U/(U+V). Here the pairs come in
        bulk, so the values are the same but the stream may be left further
        along than ``Generator.beta`` would leave it. Draw nothing else from
        a stream after a Beta(1, 1) call.
        """
        if a != 1.0 or b != 1.0:
            return self.generator.beta(a, b, count)
        out = np.empty(count)
        filled = 0
        while filled < count:
            # about half the pairs are accepted, so ask for twice what is missing
            pairs = min(_JOHNK_PAIRS, 2 * (count - filled) + 32)
            uv = self.generator.random(2 * pairs)
            u = uv[0::2]
            s = u + uv[1::2]
            keep = (s <= 1.0) & (s > 0.0)
            accepted = u[keep] / s[keep]
            take = min(accepted.size, count - filled)
            out[filled : filled + take] = accepted[:take]
            filled += take
        return out

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"
