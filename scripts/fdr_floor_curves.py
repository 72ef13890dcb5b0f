#!/usr/bin/env python3
"""Exact null rejection rates of the FDR combination across (K, B) settings.

The combined p-value min_k (K/k) p_(k) of K bootstrap p-values is discrete:
with B replicates each, it equals zero whenever any single p-value does,
which happens with probability 1 - (B/(B+1))^K under the null. This script
tabulates that floor (zero_rate) and the exact rejection rate at each alpha
of K i.i.d. null p-values, with and without the (count+1)/(B+1) correction,
from `fdr_null_rejection_rate` in the test oracles (tests/oracles.py), which
the script reads from the tests/ directory of its checkout. No simulation is
involved, so the table takes no seed or trial count.

Example:
    python3 scripts/fdr_floor_curves.py --K 1,5,10,25,50 --B 200,500,1000
"""

import argparse
import sys
from pathlib import Path

from flmgof.cli import write_table

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import fdr_null_rejection_rate  # noqa: E402


def read_list(parser, text, flag, parse, valid, what):
    """The comma-separated values of one flag; a usage error unless each is `what`."""
    try:
        values = [parse(part) for part in text.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values or not all(valid(value) for value in values):
        parser.error(f"{flag} must be a comma-separated list of {what}, got {text!r}")
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--K", default="1,5,10,25,50", help="projection counts")
    parser.add_argument("--B", default="500,1000", help="bootstrap sizes")
    parser.add_argument(
        "--alphas", default="0.01,0.05,0.1", help="nominal levels in (0, 1]"
    )
    args = parser.parse_args(argv)
    k_values = read_list(parser, args.K, "--K", int, lambda v: v >= 1, "positive integers")
    b_values = read_list(parser, args.B, "--B", int, lambda v: v >= 1, "positive integers")
    alphas = read_list(
        parser, args.alphas, "--alphas", float, lambda a: 0.0 < a <= 1.0, "levels in (0, 1]"
    )

    rows = [
        {
            "K": K,
            "B": B,
            "alpha": alpha,
            "rate": fdr_null_rejection_rate(K, B, alpha),
            "rate_positive_correction": fdr_null_rejection_rate(K, B, alpha, True),
            "zero_rate": 1.0 - (B / (B + 1.0)) ** K,
        }
        for K in k_values
        for B in b_values
        for alpha in alphas
    ]
    write_table(rows, "csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
