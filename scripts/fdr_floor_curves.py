#!/usr/bin/env python3
"""Null rejection rates of the FDR combination across (K, B) settings.

The combined p-value min_k (K/k) p_(k) of K bootstrap p-values is discrete:
with B replicates each, it equals zero whenever any single p-value does,
which happens with probability 1 - (B/(B+1))^K under the null. This script
tabulates that floor and the resulting size distortion on i.i.d. discrete
uniform p-values, with and without the (count+1)/(B+1) correction.

Example:
    python3 scripts/fdr_floor_curves.py --K 1,5,10,25,50 --B 200,500,1000
"""

import argparse
import sys

from flmgof.cli import write_table
from flmgof.simlab import fdr_discretization_experiment


def parse_int_list(text):
    return [int(part) for part in text.split(",") if part.strip()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--K", default="1,5,10,25,50", help="projection counts")
    parser.add_argument("--B", default="500,1000", help="bootstrap sizes")
    parser.add_argument("--M", type=int, default=20000, help="trials per pair")
    parser.add_argument(
        "--alphas", default="0.01,0.05,0.1", help="nominal levels"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rows = fdr_discretization_experiment(
        parse_int_list(args.K),
        parse_int_list(args.B),
        M=args.M,
        alphas=tuple(float(a) for a in args.alphas.split(",")),
        seed=args.seed,
    )
    write_table(rows, "csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
