"""Property tests of the CLI contract over generated selectors and argv.

Whatever the input, ``main`` returns 0, 1 or 2, returns 2 exactly when it
writes one ``logshift: error:`` line (and nothing else) to stderr, never lets
an exception escape and never writes NaN into a report. The generated argv
is always well formed for argparse, whose own usage errors are covered in
test_cli.py.
"""

import re

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


@settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.one_of(verify_argv, verify_argv, catalog_argv, cf_table_argv))
def test_exit_code_contract(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    error_lines = [line for line in err.splitlines() if line.startswith("logshift: error:")]
    assert (code == 2) == (len(error_lines) == 1 and err.count("\n") == 1), err
    assert "Traceback" not in err
    assert "nan" not in re.split(r"[\s,]+", out.lower())
