#!/usr/bin/env python3
"""Report sweep: do two package trees give the same test reports?

Runs `test_flm` and `test_simple` (K=5, B=200, seed 0) over a grid of
inputs in one fresh interpreter per tree, with OpenBLAS on one thread: grid
sizes G in GRIDS, sample sizes n in SIZES, Brownian-motion ("bm"),
Ornstein-Uhlenbeck ("ou") and cosine-series ("hhn1") curves from the tree's
`gen_process`, untied samples and duplicated ones (the first n/2 curves each
twice, rows stacked), a null and an alternative response, both statistics
and samplers "i", "ii" and "iii". The null response is y = <X, rho> + noise
with rho(t) = sin(2 pi t) + t; the alternative adds <X, rho>^2. `test_simple`
takes m0 = <X, rho> for both. Per cell, statistic and sampler, one more
call takes both responses at once and may stop early above p_fdr 0.1, as a
study trial does ("test_flm_stopped", one report per response): its blocks
run the multi-response, early-stopping kernel. It calls the private entry
`rptest._flm_reports` with a `_Settings` record.

Every tree is compared with the first. For each test and for untied and
duplicated samples apart, the report gives the number of reports, how many
are byte-identical (sorted-key JSON), how many have equal rank, p-values and
p_fdr, the largest relative change of a statistic, overall and per n, and
the sample sizes at which a rank, a p-value or p_fdr moved. A digest of
every input is compared too (`inputs_equal`), so a tree whose `gen_process`
draws other curves shows.

Before/after runs over `--src [LABEL=]DIR` trees: see `_harness.py`, e.g.

    python3 scripts/report_sweep.py --src before=../old/src --src after=src
"""

import hashlib
import itertools
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import _harness  # noqa: E402

GRIDS = (51, 201)
SIZES = (30, 50, 102, 200, 250, 500, 1030, 2048)
PROCESSES = ("bm", "ou", "hhn1")
SAMPLES = ("untied", "tied")
RESPONSES = ("null", "alternative")
KINDS = ("ks", "cvm")
SAMPLERS = ("i", "ii", "iii")
TESTS = ("test_flm", "test_simple")
STOPPED, STOP_ABOVE = "test_flm_stopped", 0.1
K, B, SEED = 5, 200, 0


def inputs(flmgof, num_points, n, process, sample_kind):
    """(sample, y_null, y_alternative, m0) of one grid cell."""
    key = (num_points, n, PROCESSES.index(process), SAMPLES.index(sample_kind))
    rng = np.random.Generator(np.random.Philox(key))
    grid = flmgof.uniform_grid(num_points)
    count = n if sample_kind == "untied" else n // 2
    curves = flmgof.gen_process(process, count, grid, rng).data
    if sample_kind == "tied":
        curves = np.vstack([curves, curves])
    rho = np.sin(2.0 * np.pi * grid.points) + grid.points
    m0 = curves @ (grid.weights * rho)
    noise = 0.5 * rng.standard_normal(n)
    sample = flmgof.FunctionalSample(grid=grid, data=curves)
    return sample, m0 + noise, m0 + m0**2 + noise, m0


def measure(src):
    """All reports of one tree: {"reports": {case: json}, "inputs": {cell: sha}}."""
    sys.path.insert(0, src)
    import flmgof

    reports, digests = {}, {}
    for num_points, n, process, sample_kind in itertools.product(
        GRIDS, SIZES, PROCESSES, SAMPLES
    ):
        cell = (num_points, n, process, sample_kind)
        sample, y_null, y_alternative, m0 = inputs(flmgof, *cell)
        digest = hashlib.sha256(sample.data.tobytes())
        for array in (y_null, y_alternative, m0):
            digest.update(array.tobytes())
        digests["/".join(map(str, cell))] = digest.hexdigest()[:16]
        for response, kind, sampler, test in itertools.product(
            RESPONSES, KINDS, SAMPLERS, TESTS
        ):
            y = y_null if response == "null" else y_alternative
            common = dict(K=K, B=B, kind=kind, sampler=sampler, seed=SEED)
            if test == "test_flm":
                report = flmgof.test_flm(sample, y, **common)
            else:
                report = flmgof.test_simple(sample, y, m0=m0, **common)
            case = "/".join(map(str, (*cell, response, kind, sampler, test)))
            reports[case] = json.dumps(report.to_dict(), sort_keys=True)
        for kind, sampler in itertools.product(KINDS, SAMPLERS):
            settings = flmgof.rptest._Settings(K, B, kind, sampler=sampler, seed=SEED)
            stopped = flmgof.rptest._flm_reports(sample, [y_null, y_alternative], settings,
                                                 stop_above=STOP_ABOVE)
            for response, report in zip(RESPONSES, stopped):
                case = "/".join(map(str, (*cell, response, kind, sampler, STOPPED)))
                reports[case] = json.dumps(report.to_dict(), sort_keys=True)
    return {"reports": reports, "inputs": digests}


def compare(reference, other):
    """Counts per test and sample kind of how `other`'s reports match."""
    summary = {}
    for test, sample_kind in itertools.product((*TESTS, STOPPED), SAMPLES):
        cases = [
            case for case in reference
            if case.endswith("/" + test) and case.split("/")[3] == sample_kind
        ]
        identical = decisions = 0
        changes, decisions_moved = dict.fromkeys(SIZES, 0.0), set()
        for case in cases:
            if reference[case] == other[case]:
                identical += 1
                decisions += 1
                continue
            n = int(case.split("/")[1])
            old, new = json.loads(reference[case]), json.loads(other[case])
            old_rows, new_rows = old["per_projection"], new["per_projection"]
            same = (
                old["settings"]["rank"] == new["settings"]["rank"]
                and old["p_fdr"] == new["p_fdr"]
                and [row["p"] for row in old_rows] == [row["p"] for row in new_rows]
            )
            decisions += same
            if not same:
                decisions_moved.add(n)
            for a, b in zip(old_rows, new_rows):
                change = abs(b["statistic"] - a["statistic"]) / abs(a["statistic"])
                changes[n] = max(changes[n], change)
        summary[f"{test}/{sample_kind}"] = {
            "reports": len(cases),
            "byte_identical": identical,
            "equal_rank_pvalues_p_fdr": decisions,
            "largest_relative_statistic_change": max(changes.values()),
            "largest_relative_statistic_change_by_n": changes,
            "rank_pvalues_or_p_fdr_moved_at_n": sorted(decisions_moved),
        }
    return summary


def report(sources, run):
    runs = {label: run(src) for label, src in sources.items()}
    (first, reference), *others = runs.items()
    return {
        "settings": {"grids": GRIDS, "sizes": SIZES, "processes": PROCESSES,
                     "samples": SAMPLES, "responses": RESPONSES, "kinds": KINDS,
                     "samplers": SAMPLERS, "tests": (*TESTS, STOPPED), "K": K, "B": B,
                     "seed": SEED, "stop_above": STOP_ABOVE},
        "note": f"every tree compared with {first!r}; one fresh interpreter per"
                " tree with OpenBLAS on one thread; 'tied' samples hold every"
                " curve twice",
        "results": {
            label: {
                "inputs_equal": result["inputs"] == reference["inputs"],
                **compare(reference["reports"], result["reports"]),
            }
            for label, result in others
        },
    }


def main(argv=None):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    return _harness.main(__file__, __doc__, measure, report, argv, env=env)


if __name__ == "__main__":
    sys.exit(main())
