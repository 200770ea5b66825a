"""Command-line behaviour: exit codes, report formats, determinism."""

import json
import math

import numpy as np
import pytest

from logshift import CFGrid, GofConfig, Logistic, Normal, RngStream, gof_null, logistic_order_stat_cf
from logshift.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_selectors(capsys):
    code, out, err = run_cli(capsys, "catalog", "--max-n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert "theorem1:r=1,k1=1,n=2" in lines
    assert "lemma1i:k=2,m=4,n=4" in lines
    assert "median:k=2" in lines
    assert "maxexp:n=4" in lines
    assert err == ""


def test_verify_consistent_identity(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "lemma1i:k=2,m=4,n=5",
        "--sample-size", "20000", "--seed", "42", "--canonical",
    )
    assert code == 0
    report = json.loads(out)
    assert report["reports"][0]["verdict"] == "consistent"
    assert report["reports"][0]["seed"] == 42
    assert report["characterization_level"] is True
    assert report["tool"]["name"] == "logshift"
    assert "generated_at" not in report


def test_verify_negative_control_exits_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "theorem1:r=1,k1=1,n=3",
        "--parent", "normal,mu=0,sigma=1.8138",
        "--sample-size", "100000", "--seed", "1", "--canonical",
    )
    assert code == 1
    report = json.loads(out)
    assert report["reports"][0]["verdict"] == "rejected"
    assert report["reports"][0]["cf_max_abs_diff"] is None


def test_verify_multi_k_family_verdict(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "theorem1:r=2,k1=1,k2=2,n=5",
        "--sample-size", "20000", "--seed", "3", "--canonical",
    )
    assert code == 0
    report = json.loads(out)
    assert report["characterization_level"] is True
    assert len(report["reports"]) == 2
    assert report["family"]["tests"] == 2
    assert report["family"]["verdict"] == "consistent"


def test_single_k_wide_spacing_marked_exploratory(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "theorem1:r=2,k1=1,n=5",
        "--sample-size", "20000", "--seed", "3", "--canonical",
    )
    assert code == 0
    report = json.loads(out)
    assert report["characterization_level"] is False
    assert "exploratory" in report["note"]


def test_verify_text_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "median:k=2",
        "--sample-size", "20000", "--seed", "5", "--format", "text", "--canonical",
    )
    assert code == 0
    assert "median:k=2" in out
    assert "family:" in out


def test_verify_all_small_catalog(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-all", "--max-n", "3", "--sample-size", "20000", "--canonical",
    )
    assert code == 0
    report = json.loads(out)
    assert report["family"]["tests"] == 18
    assert report["family"]["verdict"] == "consistent"


def test_verify_all_full_catalog_at_defaults(capsys):
    # the CI contract: the whole n<=6 catalog under the logistic parent,
    # default seed and sample size, exits 0
    code, out, _ = run_cli(capsys, "verify-all", "--canonical")
    assert code == 0
    report = json.loads(out)
    assert report["family"]["tests"] == 95
    assert report["family"]["verdict"] == "consistent"


def test_cf_table_round_trips(tmp_path, capsys):
    out_path = tmp_path / "cf.csv"
    code, _, _ = run_cli(
        capsys,
        "cf-table", "--n", "3", "--k", "2",
        "--t-min", "-5", "--t-max", "5", "--t-points", "41",
        "--output", str(out_path),
    )
    assert code == 0
    with open(out_path) as handle:
        grid = CFGrid.from_csv(handle)
    t = np.linspace(-5, 5, 41)
    assert np.allclose(grid.t, t)
    assert np.allclose(grid.values, logistic_order_stat_cf(3, 2, t), rtol=0, atol=0)


def test_gof_accepts_logistic_data(tmp_path, capsys):
    data = Logistic().sample(RngStream(33), 4000)
    path = tmp_path / "data.txt"
    np.savetxt(path, data)
    code, out, _ = run_cli(
        capsys,
        "gof", "--data", str(path), "--seed", "2", "--canonical",
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["sample_size"] == 4000
    assert report["reject"] is False


def test_gof_rejects_normal_data(tmp_path, capsys):
    data = Normal(0.0, math.pi / math.sqrt(3.0)).sample(RngStream(34), 10_000)
    path = tmp_path / "data.txt"
    np.savetxt(path, data)
    code, out, _ = run_cli(
        capsys,
        "gof", "--data", str(path), "--seed", "2", "--alpha", "0.05", "--canonical",
    )
    assert code == 1
    assert json.loads(out)["reject"] is True


def test_gof_reads_csv_column(tmp_path, capsys):
    data = Logistic().sample(RngStream(35), 1500)
    path = tmp_path / "data.csv"
    with open(path, "w") as handle:
        handle.write("id,value\n")
        for i, v in enumerate(data):
            handle.write(f"{i},{float(v)!r}\n")
    code, out, _ = run_cli(
        capsys, "gof", "--data", str(path), "--column", "value", "--seed", "1", "--canonical"
    )
    assert code == 0
    assert json.loads(out)["result"]["sample_size"] == 1500
    # zero-based index addressing works too, and skips the header row
    code, out, _ = run_cli(
        capsys, "gof", "--data", str(path), "--column", "1", "--seed", "1", "--canonical"
    )
    assert code == 0
    assert json.loads(out)["result"]["sample_size"] == 1500
    code, _, err = run_cli(
        capsys, "gof", "--data", str(path), "--column", "7", "--seed", "1", "--canonical"
    )
    assert code == 2
    assert "out of range" in err


def test_canonical_reports_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(
            capsys,
            "verify", "--identity", "lemma1ii:k=1,n=2",
            "--sample-size", "20000", "--seed", "9",
            "--output", str(path), "--canonical",
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_seed_env_var_is_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LOGSHIFT_SEED", "31")
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "lemma1ii:k=1,n=2", "--sample-size", "20000", "--canonical",
    )
    assert code == 0
    assert json.loads(out)["reports"][0]["seed"] == 31


def test_usage_errors_exit_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "--identity", "nonsense:k=1")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "verify", "--identity", "lemma1i:k=2,m=4,n=5", "--parent", "cauchy")
    assert code == 2
    code, _, err = run_cli(capsys, "gof", "--data", str(tmp_path / "missing.txt"))
    assert code == 2
    code, _, err = run_cli(
        capsys, "verify", "--identity", "lemma1ii:k=1,n=2", "--sample-size", "20000", "--format", "csv"
    )
    assert code == 2


def test_maxexp_rejects_parent_override(capsys):
    code, _, err = run_cli(
        capsys,
        "verify", "--identity", "maxexp:n=3", "--parent", "normal", "--sample-size", "20000",
    )
    assert code == 2
    assert "maxexp" in err


def test_argparse_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify"])  # missing --identity
    assert excinfo.value.code == 2


def test_gof_non_numeric_line_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0.5\nabc\n1.5\n")
    code, out, err = run_cli(capsys, "gof", "--data", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("logshift: error:") and err.count("\n") == 1
    assert "abc" in err


@pytest.mark.parametrize("extra", [("--t-max", "1e308"), ("--parent", "logistic,mu=nan")])
def test_non_finite_cf_gap_exits_two(capsys, extra):
    code, out, err = run_cli(
        capsys,
        "verify", "--identity", "lemma1i:k=2,m=4,n=5", "--sample-size", "10000", *extra,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("logshift: error:") and err.count("\n") == 1
    assert "not finite" in err


@pytest.mark.parametrize(
    "parent", ["normal,mu=nan,sigma=1", "normal,mu=inf,sigma=1", "logistic,mu=inf"]
)
def test_non_finite_parent_exits_two(capsys, parent):
    code, out, err = run_cli(
        capsys,
        "verify", "--identity", "theorem1:r=1,k1=1,n=3", "--parent", parent,
        "--sample-size", "10000",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("logshift: error:") and err.count("\n") == 1


def test_gof_cold_runs_match_a_warm_run(tmp_path, capsys):
    # criterion 9's gof call: its second run reuses the memoised null, so the
    # path that computes the null is checked here against a cleared memo
    data_path = tmp_path / "data.txt"
    np.savetxt(data_path, Logistic().sample(RngStream(55), 2000))
    argv = ["gof", "--data", str(data_path), "--seed", "8", "--canonical"]
    outputs = []
    for run in ("cold1", "cold2", "warm"):
        if run != "warm":
            gof_null.cache_clear()
        hits = gof_null.cache_info().hits
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        # gof_test misses on a cold run; the report's null block always hits
        assert gof_null.cache_info().hits == hits + (2 if run == "warm" else 1)
        outputs.append(out.encode())
    assert outputs[0] == outputs[1] == outputs[2]


def test_gof_report_describes_the_null(tmp_path, capsys):
    data = Logistic().sample(RngStream(56), 1500)
    path = tmp_path / "data.txt"
    np.savetxt(path, data)
    code, out, _ = run_cli(capsys, "gof", "--data", str(path), "--seed", "3", "--canonical")
    assert code == 0
    report = json.loads(out)
    null = gof_null(1500, 3, 2, GofConfig(seed=3))
    quantiles = report["null"]["quantiles"]
    assert list(quantiles) == ["0.5", "0.95", "0.99"]
    assert [quantiles[q] for q in quantiles] == list(np.quantile(null, [0.5, 0.95, 0.99]))
    p = report["result"]["p_value"]
    assert report["null"]["p_value_mc_se"] == math.sqrt(p * (1.0 - p) / 200)
    assert set(report["result"]) == {
        "statistic", "p_value", "null_replicates", "identity_used", "sample_size", "seed",
    }


def test_cvm_reports_use_cvm_keys(capsys):
    argv = ["verify", "--identity", "lemma1i:k=2,m=4,n=5", "--sample-size", "10000", "--canonical"]
    code, out, _ = run_cli(capsys, *argv, "--statistic", "cvm")
    assert code == 0
    report = json.loads(out)
    assert {"cvm_statistic", "cvm_p_value"} <= set(report["reports"][0])
    assert "min_cvm_p_value" in report["family"]
    assert "ks_" not in out
    code, out, _ = run_cli(capsys, *argv, "--statistic", "cvm", "--format", "text")
    assert " T=" in out and " D=" not in out
    code, out, _ = run_cli(capsys, *argv)
    report = json.loads(out)
    assert {"ks_statistic", "ks_p_value"} <= set(report["reports"][0])
    assert "min_ks_p_value" in report["family"]
    assert "cvm" not in out


@pytest.mark.parametrize("bounds", [("--t-max", "inf"), ("--t-min", "nan"), ("--t-max", "1e308")])
def test_cf_table_non_finite_grid_exits_two(capsys, bounds):
    code, out, err = run_cli(capsys, "cf-table", "--n", "3", "--k", "2", *bounds)
    assert code == 2
    assert out == ""
    assert err.startswith("logshift: error:") and err.count("\n") == 1
