"""Spans around the calls into each flmgof layer, recorded from outside.

`Tracer.active()` rebinds the module attributes that the pipeline looks up at
call time with timing wrappers and restores them on exit. Spans (name,
parent, start, end) are kept in memory; a layer's self time is its span minus
the spans of its children. Counts noted at the same boundaries are computed
from the arguments, not measured, and repeat exactly for a fixed mix.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter

import numpy as np


def _fpc_note(tracer, args, result):
    n, grid_points = args[0].data.shape
    gram = n <= grid_points
    tracer.counts["fpc.calls"] += 1
    tracer.counts["fpc.gram_calls"] += gram
    # Gram path: n x n product plus its eigendecomposition; kernel path: G x G
    tracer.counts["fpc.flops"] += (
        n * n * grid_points + n**3 if gram else n * grid_points**2 + grid_points**3
    )


def _sicc_note(tracer, args, result):
    tracer.counts["flm.rank_sum"] += result[0]
    tracer.counts["flm.rank_calls"] += 1


def _attempt_note(tracer, args, result):
    tracer.counts["rptest.direction_attempts"] += 1


def _norms_note(tracer, args, result):
    # one pass over the (B, n) or (n,) mark matrix in float64
    tracer.counts["rptest.norms_bytes"] += np.asarray(args[1]).size * 8


# (module, attribute holder, attribute, span name or None for a count only, note)
HOOKS = (
    ("flmgof.cli", None, "_build_parser", "cli.args", None),
    ("flmgof.cli", None, "read_functional_sample", "cli.parse", None),
    ("flmgof.cli", None, "read_response", "cli.parse", None),
    ("flmgof.cli", None, "test_flm", "rptest.test", None),
    ("flmgof.cli", None, "test_simple", "rptest.test", None),
    ("flmgof.simlab", None, "_signal_variance", "simlab.signal_variance", None),
    ("flmgof.simlab", None, "_study_trial", "simlab.trial", None),
    ("flmgof.simlab", None, "gen_process", "simlab.gen_process", None),
    ("flmgof.simlab", None, "gen_response", "simlab.gen_response", None),
    ("flmgof.simlab", None, "test_flm", "rptest.test", None),
    ("flmgof.rptest", None, "center", "funspace.center", None),
    ("flmgof.rptest", None, "compute_fpc", "fpc.compute", _fpc_note),
    ("flmgof.rptest", None, "select_rank_sicc", "flm.sicc", _sicc_note),
    ("flmgof.rptest", None, "estimate_rho", "flm.fit", None),
    ("flmgof.rptest", None, "_draw_nondegenerate_direction", "rptest.directions", None),
    ("flmgof.rptest", None, "sample_direction_datadriven", None, _attempt_note),
    ("flmgof.rptest", None, "golden_multipliers", "rptest.multipliers", None),
    ("flmgof.rptest", None, "_replay_residuals", "rptest.replay", None),
    ("flmgof.rptest", "_SortedProjections", "norms", "rptest.norms", _norms_note),
    ("flmgof.rptest", None, "fdr_combine", "rptest.fdr", None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end]
        self.counts = Counter()
        self.missing = set()
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][3] = time.perf_counter()

    def _wrap(self, func, name, note):
        def traced(*args, **kwargs):
            if name is None:
                result = func(*args, **kwargs)
            else:
                with self.span(name):
                    result = func(*args, **kwargs)
            if note is not None:
                note(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        """Rebind every hook that exists in this version of the program."""
        saved = []
        try:
            for module_name, holder_name, attribute, name, note in HOOKS:
                holder = importlib.import_module(module_name)
                if holder_name is not None:
                    holder = getattr(holder, holder_name, None)
                original = getattr(holder, attribute, None)
                if original is None:
                    path = [module_name, holder_name, attribute]
                    self.missing.add(".".join(part for part in path if part))
                    continue
                saved.append((holder, attribute, original))
                setattr(holder, attribute, self._wrap(original, name, note))
            yield self
        finally:
            for holder, attribute, original in reversed(saved):
                setattr(holder, attribute, original)

    def self_times(self, root):
        """Total self time in seconds per span name, within `root` spans only."""
        child_time = [0.0] * len(self.spans)
        top = list(range(len(self.spans)))
        for index, (name, parent, start, end) in enumerate(self.spans):
            if parent is not None:
                child_time[parent] += end - start
                top[index] = top[parent]  # a parent is recorded before its children
        totals = Counter()
        for (name, _, start, end), children, first in zip(self.spans, child_time, top):
            if self.spans[first][0] == root:
                totals[name] += end - start - children
        return totals

    def wall(self, name):
        """Count and total wall time of the outermost spans called `name`."""
        walls = [
            end - start
            for span_name, parent, start, end in self.spans
            if span_name == name and parent is None
        ]
        return len(walls), sum(walls)


# `_ms` per-layer values are mean self time per operation (one `flmgof test`
# call, or one Monte Carlo trial); a layer the workload does not reach reads 0.
_SELF_TIME_METRICS = {
    "cli.args_ms": "cli.args",
    "cli.parse_ms": "cli.parse",
    "funspace.center_ms": "funspace.center",
    "fpc.compute_ms": "fpc.compute",
    "flm.sicc_ms": "flm.sicc",
    "flm.fit_ms": "flm.fit",
    "rptest.directions_ms": "rptest.directions",
    "rptest.multipliers_ms": "rptest.multipliers",
    "rptest.replay_ms": "rptest.replay",
    "rptest.norms_ms": "rptest.norms",
    "rptest.fdr_ms": "rptest.fdr",
    "rptest.other_ms": "rptest.test",
    "simlab.gen_process_ms": "simlab.gen_process",
    "simlab.gen_response_ms": "simlab.gen_response",
}


def layer_metrics(tracer, root):
    """Per-layer values over every `root` span the tracer recorded."""
    operations, wall = tracer.wall(root)
    self_times = tracer.self_times(root)
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        metric: 1000.0 * self_times[span] / operations
        for metric, span in _SELF_TIME_METRICS.items()
    }
    values.update(
        {
            "cli.parse_share": ratio(self_times["cli.parse"], wall),
            "fpc.gram_path_frac": ratio(counts["fpc.gram_calls"], counts["fpc.calls"]),
            "fpc.flops_computed": counts["fpc.flops"] / operations,
            "flm.rank_mean": ratio(counts["flm.rank_sum"], counts["flm.rank_calls"]),
            "rptest.direction_attempts_per_draw": ratio(
                counts["rptest.direction_attempts"],
                sum(1 for span in tracer.spans if span[0] == "rptest.directions"),
            ),
            "rptest.norms_share": ratio(self_times["rptest.norms"], wall),
            "rptest.norms_bytes_computed": counts["rptest.norms_bytes"] / operations,
            "simlab.signal_variance_s": tracer.wall("simlab.signal_variance")[1],
            "simlab.trial_ms": 1000.0 * wall / operations if root == "simlab.trial" else 0.0,
            "trace.coverage": ratio(wall - self_times[root], wall),
        }
    )
    return values
