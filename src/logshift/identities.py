"""Distributional shift identities for order statistics, and their verification.

An identity equates two expressions of the form

    X_{k,n}  +/-  sum of independent standard exponentials over integer weights,

optionally with two-sided (Laplace) terms. The built-in catalog:

``theorem1:r=R,k1=K,n=N``
    X_{K+R,N} - sum_{j=K}^{K+R-1} E'_j / j  =d  X_{K,N} + sum_{j=K}^{K+R-1} E''_j / (N-j)
    for R in {1, 2, 3}. A characterization-level run for R >= 2 requires R
    distinct values of K; a single-K run is exploratory only.
``lemma1i:k=K,m=M,n=N``
    the same relation for an arbitrary rank pair K < M.
``lemma1ii:k=K,n=N``
    X  =d  X_{K,N} + sum_{j=1}^{N-K} E'_j / j - sum_{j=1}^{K-1} E''_j / j.
``median:k=K``
    X  =d  X_{K,2K-1} + sum_{j=1}^{K-1} La_j with La_j two-sided of index j.
``maxexp:n=N``
    max of N standard exponentials  =d  sum_{j=1}^{N} E_j / j.

Equality in distribution is checked two ways: exactly, by comparing both
sides' closed-form characteristic functions on a t-grid (available for
logistic and exponential parents), and statistically, by a two-sample test
on Monte Carlo samples of both sides. The two routes are independent: the
CF route never touches the samplers, the sampler route never touches the
CFs.

The Monte Carlo route is :func:`mc_test`. Its result depends only on the
two sides, the sample size, the seed and the statistic, so it is memoised
process-wide on exactly those: theorem1 is lemma1i with m = k + r, and an
identity the catalog lists under both names runs once per process.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (
    Distribution,
    Exponential,
    Logistic,
    OrderStatistic,
    parse_params,
)
from .errors import DomainError, UnsupportedParentError
from .hypotests import TestResult, cvm_two_sample, ks_two_sample
from .rng import RngStream
from .special import exponential_cf
from .cf import exponential_order_stat_cf, logistic_order_stat_cf

__all__ = [
    "ShiftTerm",
    "ShiftExpression",
    "IdentitySpec",
    "VerificationConfig",
    "VerificationReport",
    "theorem1",
    "lemma1i",
    "lemma1ii",
    "median",
    "maxexp",
    "catalog",
    "parse_identity",
    "combine_verdicts",
    "mc_test",
    "verify",
]

CONSISTENT = "consistent"
REJECTED = "rejected"
INCONCLUSIVE = "inconclusive"

# Entries kept by mc_test's memo. verify-all over the default catalog asks
# for 64 distinct tests per seed, criterion 3 for 320. An entry is a
# TestResult and its key, about 1.3 KB, so a full memo takes about 1.3 MB.
_MC_CACHE_SIZE = 1024


@dataclass(frozen=True)
class ShiftTerm:
    """One independent shift variate: sign * (standard variate) / weight."""

    sign: int
    weight: int
    kind: str = "exponential"

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise DomainError(f"sign must be +1 or -1, got {self.sign!r}")
        if not (isinstance(self.weight, (int, np.integer)) and self.weight >= 1):
            raise DomainError(f"weight must be a positive integer, got {self.weight!r}")
        if self.kind not in ("exponential", "laplace"):
            raise DomainError(f"unknown shift kind {self.kind!r}")
        object.__setattr__(self, "weight", int(self.weight))

    @property
    def scale(self) -> float:
        return 1.0 / self.weight


@dataclass(frozen=True)
class ShiftExpression:
    """An order-statistic base plus independent shift terms.

    A parent draw is represented as the trivial order statistic (n=1, k=1).
    Each term samples from its own substream, so all variates are mutually
    independent and independent of the base by construction.
    """

    base: OrderStatistic
    shifts: tuple[ShiftTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(self.shifts))

    @property
    def parent(self) -> Distribution:
        return self.base.parent

    def cf(self, t):
        """Exact characteristic function of the whole expression.

        Raises UnsupportedParentError when the base's parent has no
        registered closed-form order-statistic CF.
        """
        value = np.asarray(_base_cf(self.base, t), dtype=np.complex128).copy()
        t_arr = np.asarray(t, dtype=float)
        for term in self.shifts:
            if term.kind == "exponential":
                value *= exponential_cf(term.sign * t_arr, rate=term.weight)
            else:
                value *= exponential_cf(t_arr, rate=term.weight)
                value *= exponential_cf(-t_arr, rate=term.weight)
        if value.ndim == 0:
            return complex(value)
        return value

    def sample(self, rng: RngStream, count: int) -> np.ndarray:
        """Monte Carlo realization: base draw plus independent shift draws."""
        out = self.base.sample(rng.substream(0), count)
        for i, term in enumerate(self.shifts):
            stream = rng.substream(i + 1)
            if term.kind == "exponential":
                draw = Exponential(rate=term.weight).sample(stream, count)
            else:
                e1 = Exponential(rate=term.weight).sample(stream, count)
                e2 = Exponential(rate=term.weight).sample(stream, count)
                draw = e1 - e2
            out = out + term.sign * draw
        return out

    def describe(self) -> str:
        if self.base.n == 1:
            text = "X"
        else:
            text = f"X[{self.base.k},{self.base.n}]"
        for term in self.shifts:
            symbol = "E" if term.kind == "exponential" else "La"
            op = "+" if term.sign > 0 else "-"
            text += f" {op} {symbol}/{term.weight}" if term.weight > 1 else f" {op} {symbol}"
        return text


def _base_cf(base: OrderStatistic, t):
    parent = base.parent
    if isinstance(parent, Logistic):
        value = logistic_order_stat_cf(base.n, base.k, t)
        if parent.mu != 0.0:
            value = value * np.exp(1j * parent.mu * np.asarray(t, dtype=float))
        return value
    if isinstance(parent, Exponential):
        return exponential_order_stat_cf(base.n, base.k, t, rate=parent.rate)
    raise UnsupportedParentError(
        f"no closed-form order-statistic CF registered for {parent.label()!r}"
    )


@dataclass(frozen=True)
class IdentitySpec:
    """A claimed equality in distribution between two shift expressions."""

    family: str
    label: str
    lhs: ShiftExpression
    rhs: ShiftExpression
    n: int
    k: int | None = None
    m: int | None = None
    r: int | None = None

    def __post_init__(self):
        if self.lhs.parent != self.rhs.parent:
            raise DomainError("both sides must share the same parent distribution")
        if self.lhs.base.n > 1 and self.rhs.base.n > 1 and self.lhs.base.n != self.rhs.base.n:
            raise DomainError("both sides must draw order statistics from the same sample size")

    @property
    def parent(self) -> Distribution:
        return self.lhs.parent

    def describe(self) -> str:
        return f"{self.lhs.describe()}  =d  {self.rhs.describe()}"


def theorem1(r: int, k: int, n: int, parent: Distribution | None = None) -> IdentitySpec:
    """Two order statistics r ranks apart: ``lemma1i(k, k + r, n)`` under its own label."""
    if r not in (1, 2, 3):
        raise DomainError(f"spacing r must be 1, 2, or 3, got {r!r}")
    if not 1 <= k <= n - r:
        raise DomainError(f"k must lie in [1, n-r] = [1, {n - r}], got {k!r}")
    label = f"theorem1:r={r},k1={k},n={n}"
    return replace(lemma1i(k, k + r, n, parent), family="theorem1", label=label, m=None, r=r)


def lemma1i(k: int, m: int, n: int, parent: Distribution | None = None) -> IdentitySpec:
    """General rank pair k < m with one-sided exponential shifts."""
    if not 1 <= k < m <= n:
        raise DomainError(f"need 1 <= k < m <= n, got k={k!r}, m={m!r}, n={n!r}")
    parent = parent if parent is not None else Logistic()
    lhs = ShiftExpression(
        OrderStatistic(parent, n, m),
        tuple(ShiftTerm(-1, j) for j in range(k, m)),
    )
    rhs = ShiftExpression(
        OrderStatistic(parent, n, k),
        tuple(ShiftTerm(+1, n - j) for j in range(k, m)),
    )
    return IdentitySpec("lemma1i", f"lemma1i:k={k},m={m},n={n}", lhs, rhs, n=n, k=k, m=m)


def lemma1ii(k: int, n: int, parent: Distribution | None = None) -> IdentitySpec:
    """Parent draw decomposed into one order statistic plus exponential shifts."""
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k!r}, n={n!r}")
    parent = parent if parent is not None else Logistic()
    lhs = ShiftExpression(OrderStatistic(parent, 1, 1))
    rhs = ShiftExpression(
        OrderStatistic(parent, n, k),
        tuple(ShiftTerm(+1, j) for j in range(1, n - k + 1))
        + tuple(ShiftTerm(-1, j) for j in range(1, k)),
    )
    return IdentitySpec("lemma1ii", f"lemma1ii:k={k},n={n}", lhs, rhs, n=n, k=k)


def median(k: int, parent: Distribution | None = None) -> IdentitySpec:
    """Parent draw as the sample median of 2k-1 plus two-sided shifts."""
    if not (isinstance(k, (int, np.integer)) and k >= 2):
        raise DomainError(f"median identity needs k >= 2, got {k!r}")
    parent = parent if parent is not None else Logistic()
    n = 2 * k - 1
    lhs = ShiftExpression(OrderStatistic(parent, 1, 1))
    rhs = ShiftExpression(
        OrderStatistic(parent, n, k),
        tuple(ShiftTerm(+1, j, kind="laplace") for j in range(1, k)),
    )
    return IdentitySpec("median", f"median:k={k}", lhs, rhs, n=n, k=k)


def maxexp(n: int) -> IdentitySpec:
    """Max of n standard exponentials as a weighted sum of exponentials.

    This identity lives on the exponential parent; it does not take a
    parent override.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    parent = Exponential(rate=1.0)
    lhs = ShiftExpression(OrderStatistic(parent, n, n))
    rhs = ShiftExpression(
        OrderStatistic(parent, 1, 1),
        tuple(ShiftTerm(+1, j) for j in range(2, n + 1)),
    )
    return IdentitySpec("maxexp", f"maxexp:n={n}", lhs, rhs, n=n)


def catalog(max_n: int = 6, parent: Distribution | None = None) -> list[IdentitySpec]:
    """Every built-in identity instance with sample size up to ``max_n``."""
    if max_n < 1:
        raise DomainError("max_n must be >= 1")
    out: list[IdentitySpec] = []
    for r in (1, 2, 3):
        for n in range(r + 1, max_n + 1):
            for k in range(1, n - r + 1):
                out.append(theorem1(r, k, n, parent))
    for n in range(2, max_n + 1):
        for k in range(1, n):
            for m in range(k + 1, n + 1):
                out.append(lemma1i(k, m, n, parent))
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            out.append(lemma1ii(k, n, parent))
    for k in range(2, (max_n + 1) // 2 + 1):
        out.append(median(k, parent))
    for n in range(1, max_n + 1):
        out.append(maxexp(n))
    return out


_SELECTOR_PARAMS = {
    "theorem1": {"r", "n", "k1", "k2", "k3"},
    "lemma1i": {"k", "m", "n"},
    "lemma1ii": {"k", "n"},
    "median": {"k"},
    "maxexp": {"n"},
}


def parse_identity(
    selector: str, parent: Distribution | None = None
) -> tuple[list[IdentitySpec], bool]:
    """Expand a selector string into identity instances.

    Returns ``(identities, characterization_level)``. For ``theorem1`` with
    spacing r, characterization level requires r distinct k values (k1..kr);
    runs with fewer are still performed but flagged as exploratory.
    """
    text = selector.strip()
    family, _, param_text = text.partition(":")
    family = family.strip().lower()
    if family not in _SELECTOR_PARAMS:
        raise DomainError(f"unknown identity family {family!r}")
    parts = param_text.split(",") if param_text.strip() else []
    params: dict[str, int] = {}
    for key, value in parse_params(parts, _SELECTOR_PARAMS[family], f"identity {family!r}").items():
        try:
            params[key] = int(value)
        except ValueError as exc:
            raise DomainError(f"parameter {key!r} must be an integer") from exc

    def need(name: str) -> int:
        if name not in params:
            raise DomainError(f"identity {family!r} requires parameter {name!r}")
        return params[name]

    if family == "theorem1":
        r, n = need("r"), need("n")
        ks = [params[key] for key in ("k1", "k2", "k3") if key in params]
        if not ks:
            raise DomainError("theorem1 requires at least k1")
        if len(set(ks)) != len(ks):
            raise DomainError("theorem1 k values must be distinct")
        specs = [theorem1(r, k, n, parent) for k in ks]
        return specs, len(ks) == r
    if family == "lemma1i":
        return [lemma1i(need("k"), need("m"), need("n"), parent)], True
    if family == "lemma1ii":
        return [lemma1ii(need("k"), need("n"), parent)], True
    if family == "median":
        return [median(need("k"), parent)], True
    return [maxexp(need("n"))], True


@dataclass(frozen=True)
class VerificationConfig:
    """Knobs for one verification run. Defaults match the CLI defaults."""

    sample_size: int = 1_000_000
    alpha: float = 0.01
    seed: int = 0
    t_min: float = -5.0
    t_max: float = 5.0
    t_points: int = 41
    cf_threshold: float = 1e-12
    statistic: str = "ks"

    def __post_init__(self):
        # the samplers would refuse a float size with a raw numpy TypeError
        if not isinstance(self.sample_size, (int, np.integer)):
            raise DomainError(f"sample_size must be an integer, got {self.sample_size!r}")
        if self.sample_size < 10_000:
            raise DomainError("sample_size must be at least 10_000")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        if not self.t_min < self.t_max:
            raise DomainError("need t_min < t_max")
        if self.t_points < 2:
            raise DomainError("need at least 2 grid points")
        if self.cf_threshold <= 0:
            raise DomainError("cf_threshold must be positive")
        if self.statistic not in ("ks", "cvm"):
            raise DomainError(f"unknown statistic {self.statistic!r}")

    def t_grid(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.t_points)


# The letter each two-sample statistic goes by in one-line summaries.
_STATISTIC_SYMBOL = {"ks": "D", "cvm": "T"}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the exact and Monte Carlo checks for one identity."""

    identity: IdentitySpec
    cf_max_abs_diff: float | None
    cf_threshold: float
    ks_statistic: float
    ks_p_value: float
    sample_size: int
    seed: int
    verdict: str
    # The two-sample test behind ks_statistic and ks_p_value, "ks" or
    # "cvm"; reports name their keys after it.
    statistic: str = "ks"

    def to_dict(self) -> dict:
        return {
            "identity": {
                "label": self.identity.label,
                "family": self.identity.family,
                "parent": self.identity.parent.label(),
                "n": self.identity.n,
                "k": self.identity.k,
                "m": self.identity.m,
                "r": self.identity.r,
                "lhs": self.identity.lhs.describe(),
                "rhs": self.identity.rhs.describe(),
            },
            "cf_max_abs_diff": self.cf_max_abs_diff,
            "cf_threshold": self.cf_threshold,
            f"{self.statistic}_statistic": self.ks_statistic,
            f"{self.statistic}_p_value": self.ks_p_value,
            "sample_size": self.sample_size,
            "seed": self.seed,
            "verdict": self.verdict,
        }

    def summary(self) -> str:
        cf_part = (
            "cf=n/a"
            if self.cf_max_abs_diff is None
            else f"cf_diff={self.cf_max_abs_diff:.2e}"
        )
        return (
            f"{self.verdict:12s} {self.identity.label:28s} {cf_part} "
            f"{_STATISTIC_SYMBOL[self.statistic]}={self.ks_statistic:.5f} p={self.ks_p_value:.4f} "
            f"N={self.sample_size} seed={self.seed}"
        )


def combine_verdicts(exact_ok: bool | None, mc_ok: bool) -> str:
    """The verdict rule shared by one identity and a Bonferroni family.

    With both routes available, agreement on both gives ``consistent``,
    failure on both gives ``rejected``, and a split gives ``inconclusive``.
    Without an exact route (``exact_ok is None``) the Monte Carlo test
    decides alone.
    """
    if exact_ok is None or exact_ok == mc_ok:
        return CONSISTENT if mc_ok else REJECTED
    return INCONCLUSIVE


@functools.lru_cache(maxsize=_MC_CACHE_SIZE, typed=True)
def mc_test(
    lhs: ShiftExpression, rhs: ShiftExpression, sample_size: int, seed: int, statistic: str
) -> TestResult:
    """Two-sample test of ``sample_size`` draws of each side, the Monte Carlo route.

    The lhs draws from substream 0 of ``seed`` and the rhs from substream 1.
    Nothing else goes in, so the result is memoised process-wide on these
    five arguments; no draws are kept. ``typed=True`` keeps
    ``sample_size=20000.0`` from hitting the entry of ``20000``.
    """
    if not (isinstance(sample_size, (int, np.integer)) and sample_size >= 1):
        raise DomainError(f"sample_size must be a positive integer, got {sample_size!r}")
    if statistic not in _STATISTIC_SYMBOL:
        raise DomainError(f"unknown statistic {statistic!r}")
    root = RngStream(seed)
    lhs_draws = lhs.sample(root.substream(0), sample_size)
    rhs_draws = rhs.sample(root.substream(1), sample_size)
    if statistic == "ks":
        return ks_two_sample(lhs_draws, rhs_draws)
    return cvm_two_sample(lhs_draws, rhs_draws)


def verify(identity: IdentitySpec, config: VerificationConfig | None = None) -> VerificationReport:
    """Run the exact CF comparison (when available) and the Monte Carlo test.

    The two outcomes combine by :func:`combine_verdicts`. Identical
    (identity, config) inputs give bit-identical reports. The CF gap and
    the verdict are computed on every call; the test comes from
    :func:`mc_test`, which may answer from its memo.
    """
    config = config if config is not None else VerificationConfig()
    grid = config.t_grid()
    try:
        # overflow far out on the grid shows up as a non-finite gap, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            diff = np.abs(identity.lhs.cf(grid) - identity.rhs.cf(grid))
        cf_max_abs_diff: float | None = float(np.max(diff))
        exact_ok: bool | None = cf_max_abs_diff <= config.cf_threshold
    except UnsupportedParentError:
        cf_max_abs_diff = None
        exact_ok = None
    if cf_max_abs_diff is not None and not math.isfinite(cf_max_abs_diff):
        raise DomainError(
            f"the exact CF gap is not finite on t in [{config.t_min:g}, {config.t_max:g}]; "
            "narrow the t grid or check the parent's parameters"
        )

    test = mc_test(identity.lhs, identity.rhs, config.sample_size, config.seed, config.statistic)
    verdict = combine_verdicts(exact_ok, test.pvalue >= config.alpha)
    return VerificationReport(
        identity=identity,
        cf_max_abs_diff=cf_max_abs_diff,
        cf_threshold=config.cf_threshold,
        ks_statistic=test.statistic,
        ks_p_value=test.pvalue,
        sample_size=config.sample_size,
        seed=config.seed,
        verdict=verdict,
        statistic=config.statistic,
    )
