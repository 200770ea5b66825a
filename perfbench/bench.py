"""Workloads, correctness checks and per-module tracing for the logshift benchmark.

The benchmark drives logshift only through its public entry points
(``logshift.cli.main``, ``gof_test``, ``numerical_cf``, ...). Every call
goes through the module attribute at run time, so the tracer can wrap a
callable at the name its caller looks it up under.

A workload is a sequence of :class:`Op` made from a workload seed. An op
carries a key naming its input, a zero-argument ``call`` that is timed,
and a ``check`` that is not timed: it returns the SHA-256 of the op's
output and the reason the output is wrong, if it is. ``sys.path`` must
already point at the ``src`` directory holding ``logshift``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import logshift
import logshift.cf
import logshift.cli
import logshift.distributions
import logshift.gof
import logshift.hypotests
import logshift.identities
import logshift.quadrature
import logshift.rng

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

# Criterion 3's frozen seeds: every catalog identity is consistent at alpha=0.01
# under each of them at today's draw layout. Any other seed expects about 4.75
# false rejections per 475 tests, so the catalog workload draws only from these.
CATALOG_SEEDS = (1, 4, 6, 9, 15)
NEGATIVE_IDENTITY = "theorem1:r=1,k1=1,n=3"
NEGATIVE_PARENT = "normal,mu=0,sigma=1.8138"
# Each workload seed owns this many consecutive program seeds, so keys never
# repeat inside one run and seed 0 starts at criterion 4's and 8's seeds.
SEED_BLOCK = 1000
GOF_SIZE = 10_000
GOF_SIGMA = math.pi / math.sqrt(3.0)
CF_PAIRS = tuple((n, k) for n in range(1, 7) for k in range(1, n + 1))
CF_GRID = np.linspace(-5.0, 5.0, 41)
CRIT2_T = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 5.0, -5.0)
CRIT7_X = (-3.0, -1.0, 0.0, 1.0, 3.0)
CRIT2_TOL = 1e-9
CRIT7_TOL = 1e-6


@dataclass
class Op:
    key: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, str | None]]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_op(key: str, argv: list[str], workdir: str, code: int, verdict: str) -> Op:
    """One ``logshift verify`` invocation writing a canonical report.

    Each op writes to a path that does not exist yet. On ext4, renaming
    over an existing file forces the new data to disk (``auto_da_alloc``),
    which costs 90-200 ms on a virtual disk and would swamp the CPU work.
    """
    path = os.path.join(workdir, f"report-{key}.json")

    def call():
        return logshift.cli.main(argv + ["--output", path])

    def check(returned):
        with open(path, "rb") as handle:
            payload = handle.read()
        os.unlink(path)
        got = json.loads(payload)["reports"][0]["verdict"]
        problem = None
        if returned != code or got != verdict:
            problem = f"exit {returned} verdict {got!r}, expected exit {code} verdict {verdict!r}"
        return _sha(payload), problem

    return Op(key, call, check)


def verify_catalog(seed: int, workdir: str) -> Iterator[Op]:
    """``verify-all --max-n 6`` at CLI defaults, one op per identity report.

    The five frozen seeds are visited in an order drawn from ``seed``; each
    seed runs the 95 identities in catalog order, as ``verify-all`` does.
    """
    labels = [spec.label for spec in logshift.catalog(6)]
    for mc_seed in np.random.default_rng(seed).permutation(CATALOG_SEEDS):
        for label in labels:
            argv = ["verify", "--identity", label, "--seed", str(mc_seed), "--canonical"]
            yield _cli_op(f"{label}@{mc_seed}", argv, workdir, 0, "consistent")


def verify_negative(seed: int, workdir: str) -> Iterator[Op]:
    """Criterion 4's negative control: a variance-matched normal must be rejected."""
    for mc_seed in range(seed * SEED_BLOCK, (seed + 1) * SEED_BLOCK):
        argv = [
            "verify", "--identity", NEGATIVE_IDENTITY, "--parent", NEGATIVE_PARENT,
            "--seed", str(mc_seed), "--canonical",
        ]
        yield _cli_op(str(mc_seed), argv, workdir, 1, "rejected")


def _gof_check(index: int):
    def check(result):
        payload = json.dumps(result.to_dict(), sort_keys=True).encode()
        exceed = result.p_value * (result.null_replicates + 1) - 1
        problem = None
        if not (
            result.identity_used == "lemma1ii:k=2,n=3"
            and result.sample_size == GOF_SIZE
            and result.seed == index
            and result.null_replicates == 199
            and 0.0 < result.statistic <= 1.0
            and 0 <= round(exceed) <= result.null_replicates
            and abs(exceed - round(exceed)) < 1e-9
        ):
            problem = f"malformed result {result.to_dict()!r}"
        return _sha(payload), problem

    return check


def gof_null(seed: int, workdir: str) -> Iterator[Op]:
    """Criterion 8's shape: alternate logistic and variance-matched normal datasets.

    The datasets are inputs, so they are drawn before the op's clock starts.
    """
    for j in range(2 * SEED_BLOCK):
        index = seed * SEED_BLOCK + j // 2
        if j % 2 == 0:
            family, root, parent = "logistic", 2026, logshift.Logistic()
        else:
            family, root, parent = "normal", 2027, logshift.Normal(0.0, GOF_SIGMA)
        data = parent.sample(logshift.RngStream(root).substream(index), GOF_SIZE)
        config = logshift.GofConfig(seed=index)

        def call(data=data, config=config):
            return logshift.gof.gof_test(data, 3, 2, config)

        yield Op(f"{family}:{index}", call, _gof_check(index))


def _cf_op(key: str, n: int, k: int, ts: np.ndarray, xs: np.ndarray) -> Op:
    def call():
        spec = logshift.OrderStatistic(logshift.Logistic(), n, k)
        closed = logshift.cf.logistic_order_stat_cf(n, k, CF_GRID)
        quad = np.array([logshift.cf.numerical_cf(spec, t, 1e-10) for t in ts])
        grid = logshift.cf.logistic_cf_grid(n, k)
        dens = np.array([logshift.cf.cf_invert_derivative(grid, 1, x) for x in xs])
        return closed, quad, dens

    def check(result):
        closed, quad, dens = result
        spec = logshift.OrderStatistic(logshift.Logistic(), n, k)
        quad_gap = float(np.max(np.abs(quad - logshift.logistic_order_stat_cf(n, k, ts))))
        dens_gap = float(np.max(np.abs(dens - spec.pdf(xs))))
        problem = None
        if not (quad_gap <= CRIT2_TOL and dens_gap <= CRIT7_TOL):
            problem = f"quadrature gap {quad_gap:.3e}, inversion gap {dens_gap:.3e}"
        data = closed.tobytes() + quad.astype(np.complex128).tobytes() + dens.tobytes()
        return _sha(data), problem

    return Op(key, call, check)


def cf_exact(seed: int, workdir: str) -> Iterator[Op]:
    """The exact route for every (n, k) with n <= 6, 21 ops per pass.

    Pass 0 uses criterion 2's t values and criterion 7's x values; later
    passes draw fresh ones from ``seed`` so that no two passes share inputs.
    """
    for q in range(SEED_BLOCK):
        if q == 0:
            tag, ts, xs = "crit", np.array(CRIT2_T), np.array(CRIT7_X)
        else:
            rng = np.random.default_rng([seed, q])
            tag, ts, xs = f"{seed}.{q}", rng.uniform(-5.0, 5.0, 9), rng.uniform(-3.0, 3.0, 5)
        for n, k in CF_PAIRS:
            yield _cf_op(f"{n},{k}@{tag}", n, k, ts, xs)


@dataclass(frozen=True)
class Workload:
    ops: Callable[[int, str], Iterator[Op]]
    # Latency percentile reported as op_s.tail: the highest one with at
    # least ten ops beyond it at the run length BENCHMARK.json sets. For
    # cf_exact that would be p99, but its 5 ms ops put p99 at the mercy of
    # scheduler noise (5-10% between runs), so it reports p95 (3.5%).
    tail_pct: float
    # A timed run goes on past its seconds until it has this many ops, so
    # that the tail always has ten ops beyond it.
    min_ops: int
    # A traced run covers this fixed prefix, so its counts repeat exactly.
    trace_ops: int


WORKLOADS = {
    "verify_catalog": Workload(verify_catalog, 90.0, 100, 95),
    "verify_negative": Workload(verify_negative, 90.0, 100, 40),
    "gof_null": Workload(gof_null, 75.0, 40, 12),
    "cf_exact": Workload(cf_exact, 95.0, 1000, 210),
}


def load_pins() -> dict:
    with open(PINS_PATH) as handle:
        return json.load(handle)


def platform_key() -> dict:
    """What the pinned digests depend on besides the code: the libraries and the CPU.

    numpy dispatches exp and log to different SIMD kernels by CPU feature,
    which can move the last bit of a draw.
    """
    import scipy

    model, avx512 = "unknown", False
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name") and model == "unknown":
                    model = line.split(":", 1)[1].strip()
                elif line.startswith("flags"):
                    avx512 = "avx512f" in line.split()
                    break
    except OSError:
        pass
    return {"numpy": np.__version__, "scipy": scipy.__version__, "cpu": model, "avx512f": avx512}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def run_ops(
    ops: Iterator[Op],
    seconds: float,
    min_ops: int,
    max_ops: int | None,
    pins: dict | None,
    tracer: "Tracer | None" = None,
) -> dict:
    """Closed loop, one caller: each op starts when the previous one has been checked.

    Runs until ``seconds`` have passed and ``min_ops`` ops are done, or
    ``max_ops`` ops are done, or the workload has no more ops. An op fails
    if it raises, if its check finds a wrong output, or if its digest
    differs from a pin for the same key.
    """
    latencies: list[float] = []
    digests: dict[str, str] = {}
    failures: list[str] = []
    compared = 0
    start = time.perf_counter()
    for op in ops:
        if max_ops is not None and len(latencies) >= max_ops:
            break
        if max_ops is None and len(latencies) >= min_ops and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.begin_op(op.key)
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a raising op is a failed op; the run goes on
            failures.append(f"{op.key}: raised {exc!r}")
            continue
        finally:
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_op()
        try:
            digest, problem = op.check(result)
        except Exception as exc:  # an output the check cannot read is wrong
            failures.append(f"{op.key}: check raised {exc!r}")
            continue
        digests[op.key] = digest
        if problem is None and pins is not None and op.key in pins:
            compared += 1
            if pins[op.key] != digest:
                problem = f"digest {digest[:16]} differs from pin {pins[op.key][:16]}"
        if problem is not None:
            failures.append(f"{op.key}: {problem}")
    return {
        "latencies": latencies,
        "wall_s": time.perf_counter() - start,
        "digests": digests,
        "failures": failures,
        "digests_compared": compared,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(run: dict, workload: Workload) -> dict:
    """End-to-end metrics of one untraced run."""
    lat = run["latencies"]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_s.p50": statistics.median(lat),
        "op_s.tail": percentile(lat, workload.tail_pct),
    }


# ---------------------------------------------------------------- tracing


def _count_draws(tracer, args, kwargs):
    # beta(self, a, b, count); uniform_open(self, count); permutation(self, n)
    tracer.counts["rng.draws"] += int(args[-1])


def _count_ks(tracer, args, kwargs):
    tracer.counts["hypotests.ks_calls"] += 1
    tracer.counts["hypotests.ks_elements"] += len(args[0]) + len(args[1])


def _count_verify(tracer, args, kwargs):
    tracer.counts["identities.verify_calls"] += 1
    identity, config = args[0], args[1]
    tracer.keys["verify"].add((identity.lhs, identity.rhs, config))


def _count_side(tracer, args, kwargs):
    expr, rng, count = args[0], args[1], args[2]
    method = args[3] if len(args) > 3 else kwargs.get("laplace_method", "difference")
    tracer.counts["identities.sides"] += 1
    tracer.keys["side"].add((expr, rng.seed, rng.path, count, method))


def _count_report(tracer, args, kwargs):
    tracer.counts["cli.report_bytes"] += len(args[0].encode())


def _count_replicates(tracer, args, kwargs):
    config = args[3] if len(args) > 3 else kwargs["config"]
    tracer.counts["gof.replicates"] += config.null_replicates


def _count_one(metric):
    def count(tracer, args, kwargs):
        tracer.counts[metric] += 1

    return count


RngStream = logshift.rng.RngStream
Distribution = logshift.distributions.Distribution
OrderStatistic = logshift.distributions.OrderStatistic
ShiftExpression = logshift.identities.ShiftExpression

# (owner, attribute, span name or None for count-only, counter).
# Each callable is wrapped where its caller looks it up: a module-level
# function in the caller's module namespace, a method on its class.
TRACE_POINTS = (
    (logshift.cli, "main", "cli.main", None),
    (logshift.cli, "_emit", None, _count_report),
    (logshift.cli, "verify", "identities.verify", _count_verify),
    (ShiftExpression, "cf", "identities.expr_cf", None),
    (ShiftExpression, "sample", "identities.expr_sample", _count_side),
    (logshift.identities, "logistic_order_stat_cf", "cf.closed_form", None),
    (logshift.identities, "exponential_order_stat_cf", "cf.closed_form", None),
    (logshift.identities, "exponential_cf", "special.exponential_cf", None),
    (logshift.identities, "ks_two_sample", "hypotests.ks", None),
    (logshift.hypotests, "ks_statistic", "hypotests.ks", _count_ks),
    (logshift.hypotests, "kolmogorov_sf", "hypotests.kolmogorov_sf", None),
    (logshift.gof, "gof_test", "gof.gof_test", _count_replicates),
    (logshift.gof, "ks_statistic", "hypotests.ks", _count_ks),
    (OrderStatistic, "sample", "distributions.orderstat_sample", None),
    (Distribution, "sample", "distributions.parent_sample", None),
    (RngStream, "__init__", "rng.init", _count_one("rng.streams")),
    (RngStream, "beta", "rng.beta", _count_draws),
    (RngStream, "uniform_open", "rng.uniform_open", _count_draws),
    (RngStream, "permutation", "rng.permutation", _count_draws),
    (logshift.cf, "logistic_order_stat_cf", "cf.closed_form", None),
    (logshift.cf, "numerical_cf", "cf.numerical_cf", None),
    (logshift.cf, "logistic_cf_grid", "cf.grid", None),
    (logshift.cf, "cf_invert_derivative", "cf.invert", None),
    (logshift.cf, "logistic_cf", "special.logistic_cf", None),
    (logshift.cf, "adaptive_quadrature", "quadrature.adaptive", None),
    (logshift.quadrature, "gauss_kronrod_15", None, _count_one("quadrature.gk15_calls")),
)

# Per-layer metrics: self time per op of each span name, or a count per op.
SELF_TIMES = {
    "hypotests.ks_s": "hypotests.ks",
    "hypotests.kolmogorov_sf_s": "hypotests.kolmogorov_sf",
    "rng.init_s": "rng.init",
    "rng.beta_s": "rng.beta",
    "rng.uniform_open_s": "rng.uniform_open",
    "rng.permutation_s": "rng.permutation",
    "distributions.orderstat_sample_s": "distributions.orderstat_sample",
    "distributions.parent_sample_s": "distributions.parent_sample",
    "identities.verify_s": "identities.verify",
    "identities.expr_sample_s": "identities.expr_sample",
    "identities.expr_cf_s": "identities.expr_cf",
    "gof.gof_test_s": "gof.gof_test",
    "cf.closed_form_s": "cf.closed_form",
    "cf.numerical_cf_s": "cf.numerical_cf",
    "cf.grid_s": "cf.grid",
    "cf.invert_s": "cf.invert",
    "special.logistic_cf_s": "special.logistic_cf",
    "special.exponential_cf_s": "special.exponential_cf",
    "quadrature.adaptive_s": "quadrature.adaptive",
    "cli.main_s": "cli.main",
    "trace.op_self_s": "op",
}
COUNTS = (
    "hypotests.ks_calls",
    "hypotests.ks_elements",
    "rng.streams",
    "rng.draws",
    "identities.verify_calls",
    "gof.replicates",
    "quadrature.gk15_calls",
    "cli.report_bytes",
)


class Tracer:
    """In-memory spans at the boundaries of logshift's modules.

    A span is ``[name, start, end, parent index, op key]``; the op's own
    span is the root of every span it causes. Outside an op the wrappers
    call straight through and record nothing, so checks are not traced.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        # distinct input keys, for the useful-work ratios
        self.keys: defaultdict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._op: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, count in TRACE_POINTS:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self._op is None:
                return original(*args, **kwargs)
            if count is not None:
                count(self, args, kwargs)
            if name is None:
                return original(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1], self._op]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = original
        return wrapper

    def begin_op(self, key: str) -> None:
        self._op = key
        self._stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter(), 0.0, None, key])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._op = None

    def self_times(self) -> dict[str, float]:
        """Seconds per span name spent in the span itself, not in its child spans."""
        totals: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            totals[name] += end - start
            if parent is not None:
                totals[self.spans[parent][0]] -= end - start
        return dict(totals)

    def op_time(self) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name == "op")

    def per_layer(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, each per op except the two ratios."""
        selfs = self.self_times()
        out = {metric: selfs.get(span, 0.0) / ops for metric, span in SELF_TIMES.items()}
        out.update({metric: self.counts[metric] / ops for metric in COUNTS})
        calls, sides = self.counts["identities.verify_calls"], self.counts["identities.sides"]
        out["identities.useful_ratio"] = len(self.keys["verify"]) / calls if calls else 1.0
        out["identities.side_useful_ratio"] = len(self.keys["side"]) / sides if sides else 1.0
        return out

    def write(self, path: str, summary: dict) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps({"summary": summary}) + "\n")
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, start, end, parent, op]) + "\n")


PER_LAYER_UNITS = {
    **{metric: "s/op" for metric in SELF_TIMES},
    **{metric: "count/op" for metric in COUNTS},
    "cli.report_bytes": "B/op",
    "identities.useful_ratio": "ratio",
    "identities.side_useful_ratio": "ratio",
    "trace.overhead_s": "s/op",
}


def trace_ops(ops: Iterator[Op], count: int, pins: dict | None) -> tuple[dict, Tracer]:
    """Run the first ``count`` ops with every trace point wrapped."""
    with Tracer() as tracer:
        run = run_ops(itertools.islice(ops, count), 0.0, 0, count, pins, tracer)
    return run, tracer
