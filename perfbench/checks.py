"""Output checks. Each returns a list of problems; an empty list means correct."""

from __future__ import annotations

import json
import math

from workloads import PROJECTIONS, SRC, STUDY, TEST_BOOTSTRAP

# p-values are counts over B, so the recomputed FDR value agrees to rounding.
FDR_TOLERANCE = 1e-12


def load_schema_validator():
    import jsonschema

    schema = json.loads((SRC / "flmgof" / "report_schema.json").read_text())
    return jsonschema.Draft7Validator(schema)


def fdr_rule(pvalues):
    """min_k (K/k) p_(k), clamped to 1, recomputed independently."""
    ordered = sorted(pvalues)
    k = len(ordered)
    return min(min(p * k / (rank + 1) for rank, p in enumerate(ordered)), 1.0)


def check_report(stdout, case, direct, validator):
    """Checks on the first `flmgof test` output of one case."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    problems = [f"schema: {err.message}" for err in validator.iter_errors(report)]
    if problems:
        return problems
    pvalues = [rec["p"] for rec in report["per_projection"]]
    if len(pvalues) != PROJECTIONS:
        problems.append(f"{len(pvalues)} projections, asked for {PROJECTIONS}")
    settings = report["settings"]
    asked = {"K": PROJECTIONS, "B": TEST_BOOTSTRAP, "stat": case.stat}
    for key, value in asked.items():
        if settings[key] != value:
            problems.append(f"settings[{key!r}] is {settings[key]!r}, asked {value!r}")
    if abs(report["p_fdr"] - fdr_rule(pvalues)) > FDR_TOLERANCE:
        problems.append(
            f"p_fdr {report['p_fdr']!r} differs from the FDR rule {fdr_rule(pvalues)!r}"
        )
    if report != json.loads(json.dumps(direct)):
        problems.append("output differs from the direct library call")
    return problems


def check_table(table):
    """Sanity of the rendered `run_study` rows (see workloads.render_table)."""
    rows = [line.split(",") for line in table.splitlines()]
    cells = len(STUDY.scenarios) * len(STUDY.d_values)
    if len(rows) != cells:
        return [f"{len(rows)} table rows, expected {cells}"]
    problems = []
    for row in rows:
        rates = [float(x) for x in row[7:10]]
        mean_rank = float(row[10])
        if int(row[6]) != STUDY.M:
            problems.append(f"row {row[0]} reports M={row[6]}")
        if not all(0.0 <= r <= 1.0 for r in rates) or rates != sorted(rates):
            problems.append(f"row {row[0]} has rejection rates {rates}")
        if not math.isfinite(mean_rank) or mean_rank < 1.0:
            problems.append(f"row {row[0]} has mean rank {mean_rank}")
    return problems
