"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q

They are not part of the repository's test suite, which collects
``tests/`` only.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import logshift  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    _SPEC = json.load(_handle)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--max-ops", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == (PER_LAYER if trace else END_TO_END)
    assert "digests compared with pins: 2" in done.stdout


def test_perturbed_sampler_counts_as_failure(monkeypatch, tmp_path):
    original = logshift.distributions.OrderStatistic.sample

    def shifted(self, rng, count):
        return original(self, rng, count) * 1.01

    monkeypatch.setattr(logshift.distributions.OrderStatistic, "sample", shifted)
    for workload in ("verify_catalog", "verify_negative"):
        pins = bench.load_pins()["digests"][workload]
        result = bench.run_ops(bench.WORKLOADS[workload].ops(0, str(tmp_path)), 0.0, 0, 2, pins)
        assert len(result["failures"]) == 2, result["failures"]


def _namespaces():
    owners = {id(owner): owner for owner, *_ in bench.TRACE_POINTS}
    modules = [m for name, m in sys.modules.items() if name.startswith("logshift")]
    for owner in list(owners.values()) + modules:
        yield owner, dict(vars(owner))


def test_tracing_restores_every_attribute(tmp_path):
    before = list(_namespaces())
    for workload in bench.WORKLOADS:
        _, tracer = bench.trace_ops(bench.WORKLOADS[workload].ops(0, str(tmp_path)), 1, None)
        assert tracer.spans
    for owner, namespace in before:
        after = dict(vars(owner))
        assert after.keys() == namespace.keys(), owner
        changed = [name for name in namespace if after[name] is not namespace[name]]
        assert not changed, (owner, changed)


def test_run_refuses_a_tree_without_logshift(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(open(os.path.join(HERE, "run.py")).read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cf_exact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
