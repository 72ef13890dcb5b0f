"""Before/after runner shared by the `scripts/bench_*.py` scripts.

A bench script defines `measure(src, *args)`, which times one round in the
running interpreter against the package source tree `src` and returns
JSON-ready data, and `report(sources, run)`, which gets the trees as
{label: absolute path} and a `run(src, *args)` that calls `measure` in a
fresh interpreter and returns its parsed JSON. Its `main` is one call to
`main` here, which prints the report with a `machine` block second.

Each `--src [LABEL=]DIR` names a package source tree (default: this
checkout's `src`). With several, every round runs each tree in turn, so two
versions are measured on the same machine, inputs and seeds: in `--src`
order in even rounds and in reverse order in odd ones (`in_turn`), since the
tree that runs first can read faster. Results are keyed by LABEL (default
DIR), as in

    python3 scripts/bench_trial.py --src before=../old/src --src after=src
"""

import argparse
import json
import os
import platform
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(script, doc, measure, report, argv=None, env=None):
    """Run `script` as lead (`--src`) or, with `--worker SRC ARGS...`, as a worker.

    `env` is the workers' environment (default: this process's).
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--src", action="append", help="[LABEL=]DIR of a package tree")
    parser.add_argument("--worker", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(measure(*args.worker), sys.stdout)
        return 0

    sources = {}
    for spec in args.src or [os.path.join(REPO, "src")]:
        label, _, src = spec.rpartition("=")
        sources[label or src] = os.path.abspath(src)

    def run(src, *worker_args):
        command = [sys.executable, script, "--worker", src, *map(str, worker_args)]
        result = subprocess.run(
            command, check=True, capture_output=True, text=True, env=env
        )
        return json.loads(result.stdout)

    import numpy as np  # here, so a worker whose measure needs no numpy starts faster

    first, *rest = report(sources, run).items()
    machine = {"nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
               "python": platform.python_version(), "numpy": np.__version__}
    json.dump(dict([first, ("machine", machine), *rest]), sys.stdout, indent=1)
    print()
    return 0


def in_turn(sources, index):
    """The (label, tree) pairs of `sources` for round `index`: in `--src`
    order when it is even, reversed when it is odd."""
    turns = list(sources.items())
    return turns[::-1] if index % 2 else turns


def rounds(sources, run, count):
    """{label: [`measure`'s result per round]}, the trees taking turns in each round."""
    runs = {label: [] for label in sources}
    for index in range(count):
        for label, src in in_turn(sources, index):
            runs[label].append(run(src))
    return runs
