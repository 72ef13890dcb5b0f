"""Command line front end: `test`, `simulate`, and `bench`.

Exit codes: 0 on success, 2 on usage or input errors, 3 on numerical
failure (e.g. every projection draw degenerate).

File formats
------------
Data files are CSV, one curve per row, `#` starts a comment line. The grid
comes from `--grid-file` (one abscissa per line), from the first data row
with `--header-grid`, or defaults to equidistant points on [0, 1]. The
response file holds one number per line. `--dump PATH` writes the parsed
sample back out in header-grid layout with round-trippable precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import forking
from .funspace import FunctionalSample, _adopt, make_grid
from .rptest import DegenerateProjectionError, test_flm, test_simple
from .simlab import ALPHAS, _trial_data, run_study, scenario

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_FLOAT_FORMAT = "%.17g"


class InputError(Exception):
    """Bad file contents or inconsistent shapes."""


def read_functional_sample(path, grid_file=None, header_grid=False):
    """Parse a CSV of curves into a FunctionalSample.

    Large files are parsed in line ranges by forked processes where the
    platform allows it (see `forking.loadtxt`); the rows, errors and warnings
    are those of one `np.loadtxt` call on the whole file. The sample holds
    the parsed rows themselves, not a copy.
    """
    if header_grid and grid_file is not None:
        raise InputError("the grid comes from a grid file or a header row, not both")
    try:
        rows = forking.loadtxt(path, delimiter=",", comments="#")
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from exc
    if rows.size == 0:  # comments alone parse to shape (0, 1)
        raise InputError(f"data file {path} holds no curves")
    if header_grid:
        if rows.shape[0] < 2:
            raise InputError("header-grid data needs a grid row plus curves")
        grid_points = rows[0]
        data = rows[1:]
    elif grid_file is not None:
        try:
            grid_points = np.loadtxt(grid_file, comments="#", ndmin=1, dtype=float)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read grid file {grid_file}: {exc}") from exc
        data = rows
    else:
        grid_points = np.linspace(0.0, 1.0, rows.shape[1])
        data = rows
    try:
        grid = make_grid(grid_points)
        return _adopt(FunctionalSample, grid=grid, data=data)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def read_response(path):
    try:
        values = np.loadtxt(path, comments="#", ndmin=1, dtype=float)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read response file {path}: {exc}") from exc
    if values.ndim != 1:
        raise InputError("response file must hold a single column")
    return values


def dump_functional_sample(sample, path):
    """Write a sample in header-grid layout; floats survive a round trip."""
    stacked = np.vstack([sample.grid.points, sample.data])
    np.savetxt(path, stacked, delimiter=",", fmt=_FLOAT_FORMAT)


def write_table(rows, output):
    """Print a list of row dicts to stdout as JSON or as CSV.

    JSON is indented with sorted keys. The CSV header is the keys of the
    first row; floats are written with `repr`, which round-trips them, and
    every other value with `str`.
    """
    if output == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
        return
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(
            ",".join(
                repr(float(value)) if isinstance(value, float) else str(value)
                for value in row.values()
            )
        )
    sys.stdout.write("\n".join(lines) + "\n")


def _add_common_flags(parser, bootstrap_default):
    parser.add_argument("--seed", type=int, default=0, help="master seed (integer >= 0)")
    parser.add_argument("--stat", choices=("ks", "cvm"), default="cvm")
    parser.add_argument(
        "--projections", "--K", dest="projections", type=int, default=5,
        help="number of random projections K",
    )
    parser.add_argument(
        "--bootstrap", "--B", dest="bootstrap", type=int, default=bootstrap_default,
        help="bootstrap replicates B",
    )
    parser.add_argument("--output", choices=("json", "csv"), default="json")


def _add_direction_flags(parser):
    parser.add_argument(
        "--variance-threshold", type=float, default=0.95,
        help="spectral mass ratio r for the direction sampler",
    )
    parser.add_argument("--sampler", choices=("i", "ii", "iii"), default="i")


@functools.cache
def _build_parser():
    """The argument parser, built once per process; parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="flmgof",
        description="Goodness-of-fit tests for the functional linear model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    test_p = sub.add_parser("test", help="test one dataset")
    test_p.add_argument("--data", required=True, help="CSV of curves, one per row")
    test_p.add_argument("--response", required=True, help="one response per line")
    test_p.add_argument("--grid-file", default=None)
    test_p.add_argument(
        "--header-grid", action="store_true",
        help="first row of the data file holds the grid abscissae",
    )
    test_p.add_argument(
        "--null", choices=("flm", "simple"), default="flm",
        help="composite linear-model null or the simple no-effect null",
    )
    test_p.add_argument(
        "--rank", default=None,
        help="fixed truncation rank or 'auto' (SICc, the default); --null flm only",
    )
    test_p.add_argument("--dump", default=None, help="write the parsed sample here")
    test_p.add_argument("--positive-correction", action="store_true")
    _add_common_flags(test_p, bootstrap_default=1000)
    _add_direction_flags(test_p)

    sim_p = sub.add_parser("simulate", help="Monte Carlo rejection rates")
    sim_p.add_argument(
        "--scenario", required=True,
        help="comma-separated scenario ids S1..S9 (e.g. S1,S7)",
    )
    sim_p.add_argument("--d", default="0", help="deviation levels 0/1/2, comma-separated")
    sim_p.add_argument("--n", default="50", help="sample sizes per trial, comma-separated")
    sim_p.add_argument("--M", type=int, default=500, help="Monte Carlo trials per cell")
    sim_p.add_argument(
        "--timings", action="store_true",
        help="include wall time in the table (breaks byte-identity across runs)",
    )
    sim_p.add_argument("--threads", type=int, default=1, help="worker processes")
    _add_common_flags(sim_p, bootstrap_default=500)
    _add_direction_flags(sim_p)

    bench_p = sub.add_parser("bench", help="time the composite test across n")
    bench_p.add_argument(
        "--n-list", default="4,8,16,32,64,128,256,512,1024,2048",
        help="comma-separated sample sizes",
    )
    bench_p.add_argument("--trials", type=int, default=3)
    _add_common_flags(bench_p, bootstrap_default=1000)

    return parser


def _parse_rank(text):
    if text is None or text == "auto":
        return None
    try:
        rank = int(text)
    except ValueError:
        raise InputError(f"--rank must be an integer or 'auto', got {text!r}")
    if rank < 1:
        raise InputError("--rank must be a positive integer")
    return rank


def _parse_list(text, flag, parse=int):
    """The comma-separated values of one flag, each read with `parse`."""
    try:
        values = [parse(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"{flag} must be comma-separated integers: {text!r}")
    if not values:
        raise InputError(f"{flag} needs at least one value")
    return values


def cmd_test(args):
    if args.null == "simple" and args.rank is not None:
        raise InputError("--rank applies to --null flm only")
    sample = read_functional_sample(
        args.data, grid_file=args.grid_file, header_grid=args.header_grid
    )
    response = read_response(args.response)
    if response.size != sample.n:
        raise InputError(
            f"{sample.n} curves but {response.size} responses; shapes must agree"
        )
    if args.dump:
        try:
            dump_functional_sample(sample, args.dump)
        except OSError as exc:
            raise InputError(f"cannot write dump file {args.dump}: {exc}") from exc
    common = dict(
        K=args.projections,
        B=args.bootstrap,
        kind=args.stat,
        r=args.variance_threshold,
        sampler=args.sampler,
        seed=args.seed,
        positive_correction=args.positive_correction,
    )
    try:
        if args.null == "simple":
            report = test_simple(sample, response, m0=None, **common)
        else:
            report = test_flm(sample, response, rank=_parse_rank(args.rank), **common)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.output == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        # one row per projection; the combined p-value repeats on every row
        rows = [
            {"index": rec.index, "statistic": rec.statistic, "p": rec.pvalue,
             "p_fdr": report.p_fdr}
            for rec in report.per_projection
        ]
        write_table(rows, "csv")
    return EXIT_OK


def _parse_scenario_id(text):
    token = text.strip().upper().removeprefix("S")
    if not (token.isascii() and token.isdigit()):
        raise InputError(f"scenario id must look like S1..S9, got {text!r}")
    index = int(token)
    if not 1 <= index <= 9:
        raise InputError(f"scenario id must be S1..S9, got {text!r}")
    return index


def _study_rows(results, output, timings):
    """Table rows of `run_study` results; JSON nests the rejection rates."""
    rows = []
    for result in results:
        rates = {
            f"{alpha:g}": rate for alpha, rate in zip(ALPHAS, result.rejection_rates)
        }
        row = {
            "scenario": result.scenario,
            "d": result.d,
            "n": result.n,
            "K": result.K,
            "B": result.B,
            "stat": result.kind,
            "M": result.M,
        }
        if output == "csv":
            row.update((f"reject_at_{alpha}", rate) for alpha, rate in rates.items())
        else:
            row["rejection_rates"] = rates
        row["mean_rank"] = result.mean_rank
        row["sd_rank"] = result.sd_rank
        if timings:
            row["wall_time_s"] = result.wall_time_s
        rows.append(row)
    return rows


def cmd_simulate(args):
    scenarios = _parse_list(args.scenario, "--scenario", _parse_scenario_id)
    d_values = _parse_list(args.d, "--d")
    n_values = _parse_list(args.n, "--n")
    try:
        results = run_study(
            scenarios=scenarios,
            d_values=d_values,
            n_values=n_values,
            M=args.M,
            K=args.projections,
            B=args.bootstrap,
            kind=args.stat,
            seed=args.seed,
            threads=args.threads,
            r=args.variance_threshold,
            sampler=args.sampler,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    write_table(_study_rows(results, args.output, args.timings), args.output)
    return EXIT_OK


def bench_composite_test(n_values, trials, K, B, kind, seed):
    """Mean wall time of the composite test per sample size.

    Returns (n, seconds, p_fdr) rows; p_fdr comes from the first trial and is
    reproducible for a fixed seed while the timing naturally varies.
    """
    import time

    spec = scenario(1)
    rows = []
    for n in n_values:
        elapsed = 0.0
        first_p = None
        for trial in range(trials):
            X, (y,), test_seed = _trial_data((seed, n, trial), spec, (0,), n)
            started = time.perf_counter()
            report = test_flm(X, y, K=K, B=B, kind=kind, seed=test_seed)
            elapsed += time.perf_counter() - started
            if first_p is None:
                first_p = report.p_fdr
        rows.append((n, elapsed / trials, first_p))
    return rows


def cmd_bench(args):
    n_values = _parse_list(args.n_list, "--n-list")
    if any(n < 4 for n in n_values):
        raise InputError("--n-list entries must be at least 4")
    if args.trials < 1:
        raise InputError("--trials must be positive")
    if args.seed < 0:
        raise InputError(f"seed must be an integer >= 0, got {args.seed}")
    try:
        rows = bench_composite_test(
            n_values, args.trials, args.projections, args.bootstrap, args.stat, args.seed
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    write_table(
        [{"n": n, "seconds": sec, "p_fdr": p} for n, sec, p in rows], args.output
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "test":
            return cmd_test(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_bench(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateProjectionError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
