"""What the benchmark (perfbench/) requires of the package, checked in tier-1.

perfbench/tracing.py wraps agvm functions by the names their callers look
them up by, perfbench/selfcheck.py expects 52 tape ops per forward of the
default model, and perfbench/workloads.py lists the spans each workload must
record. A change that renames or deletes one of those names, changes the
graph, or takes a shortcut past a required span fails here instead of only
in a benchmark run. The perfbench modules are loaded by their file paths;
perfbench/ is not a package.
"""

import importlib.util
import os
import sys

import pytest

import agvm.models
from agvm import harness
from agvm.harness import ExperimentConfig
from agvm.models import ModelConfig, SyntheticModel, make_dataset

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the module runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_traced_name_resolves(tracing):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracing._targets()
               if not tracing._has_static(owner, attr)]
    assert missing == []


def test_every_traced_primitive_is_a_model_attribute(tracing):
    assert [p for p in tracing.PRIMS if not hasattr(agvm.models, p)] == []


def test_default_forward_records_52_ops_through_the_traced_names(tracing):
    model = SyntheticModel(ModelConfig(), seed=0)
    x, y = make_dataset(8, 32, 4, 0.1, 1)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert len(model.loss(x, y, mask_seed=0).tape) == 52
    metrics = tracer.metrics(iterations=1)
    assert metrics["tensor.ops_per_forward"] == 52
    assert metrics["tensor.multiply.calls"] > 0


def test_oracle_check_records_every_required_span(tracing, workloads):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        harness.oracle_check(seed=0, n=64, b=16, resamples=100)
    assert tracing.silent_spans(tracer, workloads.SPANS["oracle"]) == []
    # the per-sample gradients are computed once per check
    assert tracer.counts["variance.per_sample.rows"] == 64


# Shortened workload configs: the same code paths as the benchmark's units.
SHORT = dict(total_iterations=20, warmup_iters=5)


@pytest.mark.parametrize("workload,overrides", [
    ("train-b256-sgd", {}),
    # AdamW with AGVM on, at a batch small enough for tier-1
    ("train-b2048-adamw", dict(batch_size=256, n_samples=2048)),
    # at the workload's own batch, whose steps are two half passes, group 2's
    # in a replica process: the run's process still records every span
    ("train-b2048-adamw", {}),
])
def test_training_run_records_every_required_span(tracing, workloads, workload, overrides):
    base = {"train-b256-sgd": workloads.MISALIGNMENT,
            "train-b2048-adamw": workloads.LARGE_BATCH}[workload]
    config = ExperimentConfig(**dict(base, **SHORT, **overrides))
    assert config.agvm_enabled
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        result = harness.run_experiment(config)
    assert result.summary["status"] == "ok"
    assert tracing.silent_spans(tracer, workloads.SPANS[workload]) == []


def test_ablation_battery_records_every_required_span(tracing, workloads):
    config = ExperimentConfig(**dict(workloads.ABLATION_BASE, **SHORT))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        harness.ablation_suite(config)
    assert tracing.silent_spans(tracer, workloads.SPANS["ablate-b256"]) == []
