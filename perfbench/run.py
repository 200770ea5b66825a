#!/usr/bin/env python3
"""Run one logshift benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. It imports logshift from ``src/``
there and exits with code 2, printing no result, when ``src/logshift`` is
missing. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1``
the per-layer ones. The lines before it name each metric with its unit,
the op counts, the digests checked and a machine fingerprint. The exit code
is 1 when any op failed its check. ``--workload all`` runs every workload
in turn, each in its own process.
"""

import os

# Before numpy loads, here and in every child: one workload thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
# setup_s is the median of this many fresh processes, each importing
# logshift and building the inputs of the first SETUP_OPS ops.
SETUP_PROBES = 9
SETUP_OPS = 20
CHILD_TIMEOUT_S = 120
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help='a workload name, or "all"')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="stop after this many ops (a smoke run)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--plain-ops", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2**32)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.max_ops is not None and args.max_ops < 1:
        parser.error("--max-ops must be at least 1")
    return args


def child(args, *extra) -> str:
    """Run this script in a fresh process, wait for it and return its last stdout line."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), *extra]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} child exited {done.returncode}: {done.stderr[-2000:]}")
    return done.stdout.strip().splitlines()[-1]


def probe_setup(args) -> None:
    """Child: time ``import logshift`` plus building the first ops' inputs."""
    start = time.perf_counter()
    import bench

    ops = bench.WORKLOADS[args.workload].ops(args.seed, OUT)
    built = sum(1 for _ in itertools.islice(ops, SETUP_OPS))
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "ops": built}))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (which may look outside it)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(bench) -> dict:
    l3 = "unknown"
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as handle:
            l3 = handle.read().strip()
    except OSError:
        pass
    key = bench.platform_key()
    return {
        "nproc": os.cpu_count(),
        "cpu": key["cpu"],
        "avx512f": key["avx512f"],
        "l3": l3,
        "python": platform.python_version(),
        "numpy": key["numpy"],
        "scipy": key["scipy"],
        "commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def active_pins(bench, workload: str):
    """The workload's pinned digests, or None when they were pinned on another platform."""
    pins = bench.load_pins()
    if pins["platform"] != bench.platform_key():
        return None
    return pins["digests"].get(workload, {})


def plain_ops(args) -> None:
    """Child: the traced run's ops, untraced, for the overhead of tracing."""
    import bench

    spec = bench.WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        run = bench.run_ops(spec.ops(args.seed, workdir), 0.0, 0, args.plain_ops,
                            active_pins(bench, args.workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"op_s": sum(run["latencies"]), "ops": len(run["latencies"]),
                      "failures": run["failures"]}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "logshift", "__init__.py")):
        print(f"perfbench: no logshift package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.probe_setup:
        probe_setup(args)
        return 0
    if args.plain_ops is not None:
        plain_ops(args)
        return 0

    import bench

    if args.workload == "all":
        # Each workload in its own process, one after the other.
        status = 0
        for name in bench.WORKLOADS:
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
            if args.max_ops is not None:
                argv += ["--max-ops", str(args.max_ops)]
            sys.stdout.flush()
            status = max(status, subprocess.run(argv, cwd=ROOT).returncode)
        return status
    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = bench.WORKLOADS[args.workload]
    env = fingerprint(bench)
    pins = active_pins(bench, args.workload)
    details = {}
    failures = []
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        ops = spec.ops(args.seed, workdir)
        if args.trace:
            count = args.max_ops or spec.trace_ops
            plain = json.loads(child(args, "--plain-ops", str(count)))
            failures += plain["failures"]
            run, tracer = bench.trace_ops(ops, count, pins)
            done = len(run["latencies"])
            metrics = tracer.per_layer(done)
            traced_s = sum(run["latencies"])
            metrics["trace.overhead_s"] = (traced_s - plain["op_s"]) / done
            units = bench.PER_LAYER_UNITS
            selfs = tracer.self_times()
            details["accounting"] = {
                "traced_wall_s": run["wall_s"],
                "module_self_s": sum(selfs.values()) - selfs.get("op", 0.0),
                "op_self_s": selfs.get("op", 0.0),
                "op_loop_s": run["wall_s"] - tracer.op_time(),
                "untraced_op_s": plain["op_s"],
                "traced_op_s": traced_s,
            }
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(trace_path, {"fingerprint": env, "metrics": metrics, **details})
            details["spans_written_to"] = os.path.relpath(trace_path, ROOT)
        else:
            # One probe process at a time, never alongside the workload.
            setups = [json.loads(child(args, "--probe-setup"))["setup_s"]
                      for _ in range(SETUP_PROBES)]
            run = bench.run_ops(ops, args.seconds, spec.min_ops, args.max_ops, pins)
            metrics = bench.summarize(run, spec)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = bench.peak_rss_mb()
            units = END_TO_END_UNITS
            details["tail"] = f"p{spec.tail_pct:g} of {len(run['latencies'])} ops"
            details["setup_probes_s"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures += run["failures"]
    attempted = len(run["latencies"]) + (plain["ops"] if args.trace else 0)
    env["loadavg_end"] = os.getloadavg()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"fingerprint {json.dumps(env)}")
    for name, value in details.items():
        print(f"{name}: {json.dumps(value)}")
    print(f"ops attempted {attempted}, failed {len(failures)}, "
          f"fail_frac {len(failures) / attempted:.4g}")
    print("digests compared with pins: "
          + ("none (pinned on another platform)" if pins is None else str(run["digests_compared"])))
    for line in failures[:20]:
        print(f"FAILED {line}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
