"""Command-line front end.

Commands:

* ``catalog``    list the built-in identity selectors.
* ``verify``     check one identity selector (exact CF grid + Monte Carlo).
* ``verify-all`` check every catalog identity up to a maximum sample size.
* ``cf-table``   emit a CSV table of an exact logistic order-statistic CF.
* ``gof``        run the reconstruction goodness-of-fit test on a data file.

Exit status: 0 when every requested verdict is consistent (or the GOF
p-value clears alpha), 1 on any rejection, 2 on usage or configuration
errors. Reports are written atomically (temp file + rename). Runs with the
same seed and configuration produce identical reports; the embedded
timestamp is suppressed by ``--canonical`` so byte-identical output can be
asserted.

Multiplicity: a run covering several identities reports one Bonferroni
family verdict (each Monte Carlo p-value compared against alpha divided by
the number of identities, exact CF checks unchanged) and gates the exit
status on it; per-identity verdicts at raw alpha stay in the report for
inspection.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .cf import CFGrid, logistic_order_stat_cf
from .distributions import Exponential, Logistic, parse_distribution
from .errors import LogshiftError, DomainError
from .gof import GofConfig, gof_test
from .identities import (
    CONSISTENT,
    VerificationConfig,
    catalog,
    combine_verdicts,
    parse_identity,
    verify,
)

SEED_ENV_VAR = "LOGSHIFT_SEED"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise DomainError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="64-bit seed (default: $LOGSHIFT_SEED or 0)")
    parser.add_argument("--output", "-o", default=None, help="write the report to this path (default: stdout)")
    parser.add_argument("--format", choices=["json", "text", "csv"], default=None)
    parser.add_argument("--canonical", action="store_true", help="omit the timestamp so reports are byte-reproducible")


def _add_verification(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--parent", default="logistic", help='parent selector, e.g. "normal,mu=0,sigma=1.8138"')
    parser.add_argument("--sample-size", type=int, default=1_000_000)
    parser.add_argument("--alpha", type=float, default=0.01)
    parser.add_argument("--t-min", type=float, default=-5.0)
    parser.add_argument("--t-max", type=float, default=5.0)
    parser.add_argument("--t-points", type=int, default=41)
    parser.add_argument("--statistic", choices=["ks", "cvm"], default="ks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logshift",
        description="Verify distributional shift identities of logistic order statistics.",
    )
    parser.add_argument("--version", action="version", version=f"logshift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="list built-in identity selectors")
    p_catalog.add_argument("--max-n", type=int, default=6)

    p_verify = sub.add_parser("verify", help="verify one identity selector")
    p_verify.add_argument("--identity", required=True, help='e.g. "lemma1i:k=2,m=4,n=5"')
    _add_verification(p_verify)
    _add_common(p_verify)

    p_all = sub.add_parser("verify-all", help="verify the whole catalog")
    p_all.add_argument("--max-n", type=int, default=6)
    _add_verification(p_all)
    _add_common(p_all)

    p_cf = sub.add_parser("cf-table", help="CSV table of an exact logistic order-statistic CF")
    p_cf.add_argument("--n", type=int, required=True)
    p_cf.add_argument("--k", type=int, required=True)
    p_cf.add_argument("--t-min", type=float, default=-5.0)
    p_cf.add_argument("--t-max", type=float, default=5.0)
    p_cf.add_argument("--t-points", type=int, default=41)
    _add_common(p_cf)

    p_gof = sub.add_parser("gof", help="reconstruction goodness-of-fit test on a data file")
    p_gof.add_argument("--data", required=True, help="one value per line, or a CSV with --column")
    p_gof.add_argument("--column", default=None, help="CSV column name or zero-based index")
    p_gof.add_argument("--n", type=int, default=3)
    p_gof.add_argument("--k", type=int, default=2)
    p_gof.add_argument("--alpha", type=float, default=0.01)
    p_gof.add_argument("--null-replicates", type=int, default=199)
    p_gof.add_argument("--passes", type=int, default=6)
    p_gof.add_argument("--center", action="store_true", help="subtract the sample median first")
    _add_common(p_gof)

    return parser


def _atomic_write(path: str, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".logshift-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _emit(payload: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
    else:
        _atomic_write(output, payload)


def _report_header(args, command: str) -> dict:
    header = {
        "tool": {"name": "logshift", "version": __version__},
        "command": command,
    }
    if not args.canonical:
        header["generated_at"] = datetime.now(timezone.utc).isoformat()
    return header


def _verification_config(args, seed: int) -> VerificationConfig:
    return VerificationConfig(
        sample_size=args.sample_size,
        alpha=args.alpha,
        seed=seed,
        t_min=args.t_min,
        t_max=args.t_max,
        t_points=args.t_points,
        statistic=args.statistic,
    )


def _family_verdict(reports, alpha: float) -> dict:
    """Bonferroni-adjusted joint verdict across several identity reports."""
    tests = len(reports)
    adjusted = alpha / tests
    with_exact = [r for r in reports if r.cf_max_abs_diff is not None]
    exact_ok = None if not with_exact else all(
        r.cf_max_abs_diff <= r.cf_threshold for r in with_exact
    )
    min_p = min(r.ks_p_value for r in reports)
    return {
        "tests": tests,
        "alpha": alpha,
        "bonferroni_alpha": adjusted,
        "min_ks_p_value": min_p,
        "verdict": combine_verdicts(exact_ok, min_p >= adjusted),
    }


def _run_verification(args, command: str, identities, characterization_level: bool) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    config = _verification_config(args, seed)
    reports = [verify(ident, config) for ident in identities]
    family = _family_verdict(reports, config.alpha)
    payload = _report_header(args, command)
    payload["config"] = {
        "identity": getattr(args, "identity", None),
        "parent": args.parent,
        "sample_size": config.sample_size,
        "alpha": config.alpha,
        "seed": config.seed,
        "t_min": config.t_min,
        "t_max": config.t_max,
        "t_points": config.t_points,
        "statistic": config.statistic,
    }
    payload["characterization_level"] = characterization_level
    if not characterization_level:
        payload["note"] = (
            "exploratory run: fewer distinct k values than the spacing r; "
            "not characterization-level evidence"
        )
    payload["reports"] = [r.to_dict() for r in reports]
    payload["family"] = family

    if len(reports) == 1:
        ok = reports[0].verdict == CONSISTENT
    else:
        ok = family["verdict"] == CONSISTENT

    fmt = args.format or "json"
    if fmt == "csv":
        raise DomainError(f"{command} does not support csv output")
    if fmt == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False), args.output)
    else:
        lines = [f"logshift {command} (seed={seed})"]
        if not characterization_level:
            lines.append("NOTE: " + payload["note"])
        lines.extend(r.summary() for r in reports)
        lines.append(
            f"family: {family['verdict']} (tests={family['tests']}, "
            f"bonferroni_alpha={family['bonferroni_alpha']:.3e}, min_p={family['min_ks_p_value']:.4f})"
        )
        _emit("\n".join(lines), args.output)
    return 0 if ok else 1


def _cmd_catalog(args) -> int:
    lines = [ident.label for ident in catalog(args.max_n)]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_verify(args) -> int:
    parent = parse_distribution(args.parent)
    identities, characterization_level = parse_identity(args.identity, parent)
    if any(ident.family == "maxexp" for ident in identities) and not isinstance(
        parent, (Logistic, Exponential)
    ):
        raise DomainError("maxexp lives on the exponential parent; --parent does not apply")
    return _run_verification(args, "verify", identities, characterization_level)


def _cmd_verify_all(args) -> int:
    parent = parse_distribution(args.parent)
    identities = catalog(args.max_n, parent)
    return _run_verification(args, "verify-all", identities, True)


def _cmd_cf_table(args) -> int:
    fmt = args.format or "csv"
    if fmt != "csv":
        raise DomainError("cf-table emits csv only")
    if args.t_points < 2 or not args.t_min < args.t_max:
        raise DomainError("need t_min < t_max and t_points >= 2")
    t = np.linspace(args.t_min, args.t_max, args.t_points)
    values = logistic_order_stat_cf(args.n, args.k, t)
    grid = CFGrid(t, values, 1e-14)
    buffer = io.StringIO()
    grid.to_csv(buffer)
    _emit(buffer.getvalue(), args.output)
    return 0


def _load_data(path: str, column: str | None) -> np.ndarray:
    if column is None:
        try:
            return np.loadtxt(path, dtype=float, ndmin=1)
        except ValueError as exc:
            raise DomainError(f"could not parse {path!r}: {exc}") from exc
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise DomainError(f"no rows in {path!r}")
    header, body = rows[0], rows[1:]
    if column.lstrip("-").isdigit():
        idx = int(column)
        # a purely numeric first row means there is no header
        try:
            float(header[idx])
            body = rows
        except ValueError:
            pass
        except IndexError as exc:
            raise DomainError(f"column index {idx} out of range for {path!r}") from exc
    else:
        if column not in header:
            raise DomainError(f"column {column!r} not found in {path!r} header {header!r}")
        idx = header.index(column)
    try:
        return np.array([float(row[idx]) for row in body if row])
    except (ValueError, IndexError) as exc:
        raise DomainError(f"could not parse column {column!r} of {path!r}: {exc}") from exc


def _cmd_gof(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    data = _load_data(args.data, args.column)
    config = GofConfig(
        null_replicates=args.null_replicates,
        passes=args.passes,
        seed=seed,
        center=args.center,
    )
    if not 0.0 < args.alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    result = gof_test(data, args.n, args.k, config)
    payload = _report_header(args, "gof")
    payload["config"] = {
        "data": args.data,
        "column": args.column,
        "n": args.n,
        "k": args.k,
        "alpha": args.alpha,
        "null_replicates": config.null_replicates,
        "passes": config.passes,
        "seed": config.seed,
        "center": config.center,
    }
    payload["result"] = result.to_dict()
    payload["reject"] = result.p_value < args.alpha

    fmt = args.format or "json"
    if fmt == "csv":
        raise DomainError("gof does not support csv output")
    if fmt == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False), args.output)
    else:
        verdict = "reject" if payload["reject"] else "no rejection"
        _emit(result.summary() + f" -> {verdict} at alpha={args.alpha}", args.output)
    return 1 if payload["reject"] else 0


_COMMANDS = {
    "catalog": _cmd_catalog,
    "verify": _cmd_verify,
    "verify-all": _cmd_verify_all,
    "cf-table": _cmd_cf_table,
    "gof": _cmd_gof,
}


def run(args: argparse.Namespace) -> int:
    return _COMMANDS[args.command](args)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except LogshiftError as exc:
        print(f"logshift: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"logshift: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
