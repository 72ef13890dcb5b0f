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
import json
import sys

import numpy as np

from .funspace import FunctionalSample, make_grid, uniform_grid
from .rptest import DegenerateProjectionError, test_flm, test_simple
from .simlab import (
    ALPHAS,
    MonteCarloResult,
    fdr_discretization_experiment,
    gen_process,
    gen_response,
    run_study,
    scenario,
)

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_FLOAT_FORMAT = "%.17g"


class InputError(Exception):
    """Bad file contents or inconsistent shapes."""


def read_functional_sample(path, grid_file=None, header_grid=False):
    """Parse a CSV of curves into a FunctionalSample."""
    try:
        rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2, dtype=float)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from exc
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
        return FunctionalSample(grid=grid, data=data, centered=False)
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


def results_to_csv(results, include_timing=False):
    """Render MonteCarloResult rows as CSV (deterministic unless timing is on)."""
    header = [
        "scenario",
        "d",
        "n",
        "K",
        "B",
        "stat",
        "M",
        *(f"reject_at_{alpha:g}" for alpha in ALPHAS),
        "mean_rank",
        "sd_rank",
    ]
    if include_timing:
        header.append("wall_time_s")
    lines = [",".join(header)]
    for row in results:
        cells = [
            row.scenario,
            str(row.d),
            str(row.n),
            str(row.K),
            str(row.B),
            row.kind,
            str(row.M),
            *(repr(rate) for rate in row.rejection_rates),
            repr(row.mean_rank),
            repr(row.sd_rank),
        ]
        if include_timing:
            cells.append(repr(row.wall_time_s))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def results_to_json(results, include_timing=False):
    payload = []
    for row in results:
        entry = {
            "scenario": row.scenario,
            "d": row.d,
            "n": row.n,
            "K": row.K,
            "B": row.B,
            "stat": row.kind,
            "M": row.M,
            "rejection_rates": {
                f"{alpha:g}": rate
                for alpha, rate in zip(ALPHAS, row.rejection_rates)
            },
            "mean_rank": row.mean_rank,
            "sd_rank": row.sd_rank,
        }
        if include_timing:
            entry["wall_time_s"] = row.wall_time_s
        payload.append(entry)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_to_csv(report):
    """One row per projection; the combined p-value repeats on every row."""
    lines = ["index,statistic,p,p_fdr"]
    for rec in report.per_projection:
        lines.append(
            f"{rec.index},{rec.statistic!r},{rec.pvalue!r},{report.p_fdr!r}"
        )
    return "\n".join(lines) + "\n"


def _fdr_rows_to_csv(rows):
    header = "K,B,M,alpha,rate,rate_positive_correction,zero_rate"
    lines = [header]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row["K"]),
                    str(row["B"]),
                    str(row["M"]),
                    repr(row["alpha"]),
                    repr(row["rate"]),
                    repr(row["rate_positive_correction"]),
                    repr(row["zero_rate"]),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _add_common_flags(parser, bootstrap_default):
    parser.add_argument("--seed", type=int, default=0, help="master seed (u64)")
    parser.add_argument("--stat", choices=("ks", "cvm"), default="cvm")
    parser.add_argument(
        "--projections", "--K", dest="projections", type=int, default=5,
        help="number of random projections K",
    )
    parser.add_argument(
        "--bootstrap", "--B", dest="bootstrap", type=int, default=bootstrap_default,
        help="bootstrap replicates B",
    )
    parser.add_argument(
        "--variance-threshold", type=float, default=0.95,
        help="spectral mass ratio r for the direction sampler",
    )
    parser.add_argument("--sampler", choices=("i", "ii", "iii"), default="i")
    parser.add_argument("--positive-correction", action="store_true")
    parser.add_argument("--output", choices=("json", "csv"), default="json")


def _build_parser():
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
        "--rank", default="auto", help="fixed truncation rank or 'auto' (SICc)"
    )
    test_p.add_argument("--dump", default=None, help="write the parsed sample here")
    _add_common_flags(test_p, bootstrap_default=1000)

    sim_p = sub.add_parser("simulate", help="Monte Carlo rejection rates")
    sim_p.add_argument(
        "--scenario", default=None, help="scenario id S1..S9 (e.g. S1)"
    )
    sim_p.add_argument("--d", type=int, default=0, help="deviation level 0/1/2")
    sim_p.add_argument("--n", type=int, default=50, help="sample size per trial")
    sim_p.add_argument("--M", type=int, default=500, help="Monte Carlo trials")
    sim_p.add_argument(
        "--experiment", choices=("fdr-discretization",), default=None,
        help="run a named experiment instead of a scenario study",
    )
    sim_p.add_argument(
        "--timings", action="store_true",
        help="include wall time in the table (breaks byte-identity across runs)",
    )
    sim_p.add_argument("--threads", type=int, default=1, help="worker processes")
    _add_common_flags(sim_p, bootstrap_default=500)

    bench_p = sub.add_parser("bench", help="time the composite test across n")
    bench_p.add_argument(
        "--n-list", default="4,8,16,32,64,128,256,512,1024,2048",
        help="comma-separated sample sizes",
    )
    bench_p.add_argument("--trials", type=int, default=3)
    _add_common_flags(bench_p, bootstrap_default=1000)

    return parser


def _parse_rank(text):
    if text == "auto":
        return None
    try:
        rank = int(text)
    except ValueError:
        raise InputError(f"--rank must be an integer or 'auto', got {text!r}")
    if rank < 1:
        raise InputError("--rank must be a positive integer")
    return rank


def cmd_test(args):
    sample = read_functional_sample(
        args.data, grid_file=args.grid_file, header_grid=args.header_grid
    )
    response = read_response(args.response)
    if response.size != sample.n:
        raise InputError(
            f"{sample.n} curves but {response.size} responses; shapes must agree"
        )
    if args.dump:
        dump_functional_sample(sample, args.dump)
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
    if args.output == "csv":
        sys.stdout.write(report_to_csv(report))
    else:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _parse_scenario_id(text):
    if text is None:
        raise InputError("simulate needs --scenario or --experiment")
    token = text.upper().lstrip("S")
    try:
        index = int(token)
    except ValueError:
        raise InputError(f"scenario id must look like S1..S9, got {text!r}")
    if not 1 <= index <= 9:
        raise InputError(f"scenario id must be S1..S9, got {text!r}")
    return index


def cmd_simulate(args):
    if args.experiment == "fdr-discretization":
        rows = fdr_discretization_experiment(
            k_values=[args.projections],
            b_values=[args.bootstrap],
            M=args.M,
            seed=args.seed,
        )
        if args.output == "csv":
            sys.stdout.write(_fdr_rows_to_csv(rows))
        else:
            print(json.dumps(rows, indent=2, sort_keys=True))
        return EXIT_OK

    index = _parse_scenario_id(args.scenario)
    if args.d not in (0, 1, 2):
        raise InputError("--d must be 0, 1 or 2")
    try:
        results = run_study(
            scenarios=[index],
            d_values=[args.d],
            n_values=[args.n],
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
    if args.output == "csv":
        sys.stdout.write(results_to_csv(results, include_timing=args.timings))
    else:
        sys.stdout.write(results_to_json(results, include_timing=args.timings))
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
            root = np.random.SeedSequence((seed, n, trial))
            data_seed, test_seed = root.spawn(2)
            rng = np.random.Generator(np.random.Philox(data_seed))
            X = gen_process(spec.process, n, spec.grid, rng)
            y = gen_response(spec, X, 0, rng)
            started = time.perf_counter()
            report = test_flm(X, y, K=K, B=B, kind=kind, seed=test_seed)
            elapsed += time.perf_counter() - started
            if first_p is None:
                first_p = report.p_fdr
        rows.append((n, elapsed / trials, first_p))
    return rows


def cmd_bench(args):
    try:
        n_values = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"--n-list must be comma-separated integers: {args.n_list!r}")
    if not n_values or any(n < 4 for n in n_values):
        raise InputError("--n-list entries must be at least 4")
    if args.trials < 1:
        raise InputError("--trials must be positive")
    rows = bench_composite_test(
        n_values, args.trials, args.projections, args.bootstrap, args.stat, args.seed
    )
    if args.output == "csv":
        lines = ["n,seconds,p_fdr"]
        lines += [f"{n},{sec!r},{p!r}" for n, sec, p in rows]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        payload = [{"n": n, "seconds": sec, "p_fdr": p} for n, sec, p in rows]
        print(json.dumps(payload, indent=2, sort_keys=True))
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
