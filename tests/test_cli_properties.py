"""Property tests of the CLI contract over generated selectors, argv and data files.

Whatever the input, ``main`` returns 0, 1 or 2, returns 2 exactly when it
writes one ``logshift: error:`` line (and nothing else) to stderr, never lets
an exception escape and never writes NaN into a report. The generated argv
is always well formed for argparse, whose own usage errors are covered in
test_cli.py.
"""

import json
import re
import warnings

import numpy as np

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logshift.cli import main

SELECTOR_KEYS = {
    "theorem1": ["r", "n", "k1", "k2", "k3"],
    "lemma1i": ["k", "m", "n"],
    "lemma1ii": ["k", "n"],
    "median": ["k"],
    "maxexp": ["n"],
}
PARENTS = [
    "logistic", "logistic,mu=1", "normal,mu=0,sigma=1.8138", "exponential,rate=2",
    "laplace,index=1", "uniform01",
]
T_BOUNDS = ["-5", "0", "5", "-1e-300", "1e308", "nan", "inf", "-inf"]

# small integers mostly, so that most selectors name a real identity
values = st.one_of(st.integers(-1, 8).map(str), st.sampled_from(["", "1.5", "nan", "x"]))


def _selector(family):
    pairs = st.tuples(st.sampled_from(SELECTOR_KEYS[family] + ["z"]), values)
    return st.lists(pairs, max_size=5).map(
        lambda kv: family + ":" + ",".join(f"{key}={value}" for key, value in kv)
    )


selectors = st.one_of(
    st.sampled_from(sorted(SELECTOR_KEYS)).flatmap(_selector),
    st.text(max_size=16),
)
verify_argv = st.tuples(selectors, st.sampled_from(PARENTS)).map(
    lambda sp: [
        "verify", f"--identity={sp[0]}", f"--parent={sp[1]}",
        "--sample-size", "10000", "--canonical",
    ]
)
catalog_argv = st.integers(-3, 12).map(lambda n: ["catalog", "--max-n", str(n)])
cf_table_argv = st.tuples(
    st.integers(-1, 12), st.integers(-1, 12),
    st.sampled_from(T_BOUNDS), st.sampled_from(T_BOUNDS), st.integers(-2, 60),
).map(
    lambda a: [
        "cf-table", "--n", str(a[0]), "--k", str(a[1]),
        f"--t-min={a[2]}", f"--t-max={a[3]}", "--t-points", str(a[4]),
    ]
)


SETTINGS = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def check_contract(code, out, err):
    assert code in (0, 1, 2)
    error_lines = [line for line in err.splitlines() if line.startswith("logshift: error:")]
    assert (code == 2) == (len(error_lines) == 1 and err.count("\n") == 1), err
    assert "Traceback" not in err
    assert "nan" not in re.split(r"[\s,]+", out.lower())


@SETTINGS
@given(st.one_of(verify_argv, verify_argv, catalog_argv, cf_table_argv))
def test_exit_code_contract(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    check_contract(code, out, err)


@st.composite
def gof_files(draw):
    """A small data file: rows of logistic values, maybe a header, maybe one bad cell.

    Returns the file's text, the --column argument (None for none) and the
    number of data rows.
    """
    rows = draw(st.sampled_from([0, 1, 99, 100, 150]))
    cols = draw(st.sampled_from([1, 2]))
    sep = draw(st.sampled_from([" ", ","]))
    values = np.random.default_rng(draw(st.integers(0, 3))).logistic(size=(rows, cols))
    cells = [[repr(float(v)) for v in row] for row in values]
    if rows and draw(st.booleans()):
        row, col = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        cells[row][col] = draw(st.sampled_from(["nan", "inf", "abc"]))
    lines = [sep.join(row) for row in cells]
    if draw(st.booleans()):
        lines.insert(0, sep.join("ab"[:cols]))
    column = draw(st.sampled_from([None, "0", "1", "2", "-1", "a", "b", "z"]))
    return "".join(line + "\n" for line in lines), column, rows


@settings(SETTINGS, max_examples=300)
@given(gof_files())
def test_gof_exit_code_contract(capsys, tmp_path, case):
    text, column, rows = case
    path = tmp_path / "data.txt"
    path.write_text(text)
    argv = ["gof", "--data", str(path), "--seed", "0", "--canonical"]
    if column is not None:
        argv += ["--column", column]
    # outside pytest a warning would reach stderr, so it counts as a failure here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    check_contract(code, out, err)
    if code != 2:
        # a report covers the values of exactly one column
        assert json.loads(out)["result"]["sample_size"] == rows
