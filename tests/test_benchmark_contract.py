"""What the benchmark (perfbench/) requires of the package, checked in tier-1.

perfbench/tracing.py wraps agvm functions by the names their callers look
them up by, and perfbench/selfcheck.py expects 52 tape ops per forward of
the default model. A change that renames or deletes one of those names, or
changes the graph, fails here instead of only in a benchmark run. The
tracing module is loaded by its file path; perfbench/ is not a package.
"""

import importlib.util
import os

import pytest

import agvm.models
from agvm.models import ModelConfig, SyntheticModel, make_dataset

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
