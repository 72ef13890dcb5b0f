"""The benchmark's span tracer finds every package attribute it rebinds, and
its spans and notes work on real calls.

A trim that renames or drops a traced stage, or changes the arguments a note
reads, would otherwise show only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from conftest import study_payload
from flmgof import cli, gen_process, scenario, simlab, uniform_grid

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves():
    spans = load_spans()
    assert spans.HOOKS
    tracer = spans.Tracer()
    with tracer.active():
        pass
    assert tracer.missing == set()


# Spans every traced call reaches, by its entry point
TEST_SPANS = {
    "rptest.test",
    "funspace.center",
    "fpc.compute",
    "rptest.directions",
    "rptest.multipliers",
    "rptest.norms",
    "rptest.fdr",
}
FIT_SPANS = {"flm.sicc", "flm.fit", "rptest.replay"}
TRIAL_SPANS = {"simlab.trial", "simlab.gen_process", "simlab.gen_response"}
NOTE_COUNTS = {
    "fpc.calls",
    "fpc.gram_calls",
    "fpc.flops",
    "rptest.direction_attempts",
    "rptest.norms_bytes",
}
FIT_COUNTS = {"flm.rank_sum", "flm.rank_calls"}


def test_traced_calls_record_every_span_they_reach():
    spans = load_spans()
    spec = scenario(1)
    rng = np.random.Generator(np.random.Philox(3))
    sample = gen_process("bm", 30, uniform_grid(31), rng)
    y = sample.data[:, 15] + rng.standard_normal(sample.n)
    calls = (
        (lambda: cli.test_flm(sample, y, K=2, B=50, seed=0).to_dict(),
         TEST_SPANS | FIT_SPANS, FIT_COUNTS),
        (lambda: cli.test_simple(sample, y, K=2, B=50, seed=0).to_dict(),
         TEST_SPANS, set()),
        (lambda: simlab._study_trial(study_payload(spec, 0, 30, 0, K=2, B=50)),
         TEST_SPANS | FIT_SPANS | TRIAL_SPANS, FIT_COUNTS),
    )
    for call, expected_spans, fit_counts in calls:
        untraced = call()  # also fills the scenario's signal-variance cache
        tracer = spans.Tracer()
        with tracer.active():
            traced = call()  # a note that raised would propagate here
        assert traced == untraced
        assert {name for name, *_ in tracer.spans} == expected_spans
        assert set(tracer.counts) == NOTE_COUNTS | fit_counts
