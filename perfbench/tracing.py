"""Spans around agvm's public functions, for the traced run only.

``installed(tracer)`` replaces each traced function with a wrapper under the
name its caller looks it up by (``agvm.models.matmul`` for the model's
primitives, ``agvm.harness.gradients`` and ``agvm.variance.gradients`` for
the reverse pass, and so on), and puts the originals back on exit. The
untraced runs never install a wrapper. A traced name that no longer exists,
or a span the workload must record that records no call (worker.py), fails
the traced run instead of reading zero.

A span is (name, start, end, parent). Spans stay in memory; a layer's self
time is its spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import time

PRIMS = ("matmul", "add", "multiply", "relu", "squared_error", "masked_select")

# Every per-layer metric with its unit, per unit of work (one training run,
# one ablation battery, one oracle check). Counts are exact; self_ms is
# unscaled wall-clock time; trace.* are in worker.py's reference seconds.
PER_LAYER = (
    [("tensor.ops_per_forward", "count")]
    + [(f"tensor.{p}.{k}", u) for p in PRIMS for k, u in (("calls", "count"), ("self_ms", "ms"))]
    + [
        ("tensor.backward.calls", "count"),
        ("tensor.backward.self_ms", "ms"),
        ("tensor.backward_per_iter", "count"),
        ("models.forward.self_ms", "ms"),
        ("models.head_evals_per_forward", "count"),
        ("models.draw_noise.self_ms", "ms"),
        ("variance.group.self_ms", "ms"),
        ("variance.phi.self_ms", "ms"),
        ("variance.per_sample.self_ms", "ms"),
        ("variance.per_sample.rows", "count"),
        ("variance.split_groups.self_ms", "ms"),
        ("variance.full_estimate.self_ms", "ms"),
        ("variance.oracle.self_ms", "ms"),
        ("optim.step.calls", "count"),
        ("optim.step.self_ms", "ms"),
        ("optim.modulation.self_ms", "ms"),
        ("optim.modulation_events", "count"),
        ("optim.errors", "count"),
        ("harness.self_ms", "ms"),
        ("harness.draw_batch.self_ms", "ms"),
        ("harness.trace_rows.self_ms", "ms"),
        ("harness.load_params.self_ms", "ms"),
        ("trace.run_s", "s"),
        ("trace.untraced_run_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)
COUNT_METRICS = tuple(name for name, unit in PER_LAYER if unit == "count")


class Tracer:
    """Collects spans and event counts for one unit of work."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counts = collections.Counter()
        self._stack: list = []

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a span per call; ``before(tracer, args)`` and
        ``after(tracer, result)`` update event counts."""
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return traced

    def layer_totals(self):
        """(calls per span name, self time in ns per span name)."""
        covered = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        calls = collections.Counter(self.names)
        self_ns = collections.Counter()
        for i, name in enumerate(self.names):
            self_ns[name] += self.ends[i] - self.starts[i] - covered[i]
        return calls, self_ns

    def metrics(self, iterations: int) -> dict:
        """The per-layer metrics of this unit (all but the trace.* ones)."""
        calls, self_ns = self.layer_totals()
        forwards = calls["models.forward"]
        out = {
            "tensor.ops_per_forward": self.counts["tensor.ops"] / forwards if forwards else 0.0,
            "tensor.backward_per_iter": calls["tensor.backward"] / max(1, iterations),
            "models.head_evals_per_forward":
                calls["tensor.squared_error"] / forwards if forwards else 0.0,
            "variance.per_sample.rows": self.counts["variance.per_sample.rows"],
            "optim.modulation_events": self.counts["optim.modulation_events"],
            "optim.errors": self.counts["optim.step.errors"],
        }
        for name, unit in PER_LAYER:
            if name in out or name.startswith("trace."):
                continue
            span, kind = name.rsplit(".", 1)
            out[name] = calls[span] if kind == "calls" else self_ns[span] / 1e6
        return out

    def write(self, path: str):
        """Write the spans as CSV: index, name, start_ns, end_ns, parent index."""
        with open(path, "w", newline="\n") as fh:
            fh.write("span,name,start_ns,end_ns,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]},{self.ends[i]},{self.parents[i]}\n")


def silent_spans(tracer: Tracer, required) -> list:
    """The spans in ``required`` that ``tracer`` recorded no call of."""
    calls = collections.Counter(tracer.names)
    return [name for name in required if not calls[name]]


def _count_ops(tracer, loss):
    if loss.tape is not None:
        tracer.counts["tensor.ops"] += len(loss.tape)


def _count_rows(tracer, per_sample):
    tracer.counts["variance.per_sample.rows"] += len(per_sample)


def _count_modulation(tracer, args):
    if not args[0].pinned:
        tracer.counts["optim.modulation_events"] += 1


def _has_static(owner, attr) -> bool:
    try:
        inspect.getattr_static(owner, attr)
    except AttributeError:
        return False
    return True


def _targets():
    """(owner, attribute, span name, before, after) for every traced name."""
    from agvm import harness, models, optim, variance

    targets = [(models, p, f"tensor.{p}", None, None) for p in PRIMS]
    targets += [
        (harness, "gradients", "tensor.backward", None, None),
        (variance, "gradients", "tensor.backward", None, None),
        (models.SyntheticModel, "loss_given_noise", "models.forward", None, _count_ops),
        (models.TwoBlockLinearModel, "loss_given_noise", "models.forward", None, _count_ops),
        (models.SyntheticModel, "draw_noise", "models.draw_noise", None, None),
        (models.TwoBlockLinearModel, "draw_noise", "models.draw_noise", None, None),
        (variance.GroupedGradients, "from_half_means", "variance.group", None, None),
        (harness, "phi_estimate", "variance.phi", None, None),
        (variance, "phi_estimate", "variance.phi", None, None),
        (optim, "cosine_similarity", "variance.phi", None, None),
        (harness, "per_sample_gradients", "variance.per_sample", None, _count_rows),
        (variance, "per_sample_gradients", "variance.per_sample", None, _count_rows),
        (harness, "split_groups", "variance.split_groups", None, None),
        (harness, "full_variance_estimate", "variance.full_estimate", None, None),
        (harness, "brute_force_variance_oracle", "variance.oracle", None, None),
        (optim.AgvmSgd, "step", "optim.step", None, None),
        (optim.AgvmAdamW, "step", "optim.step", None, None),
        (optim.Modulator, "update", "optim.modulation", _count_modulation, None),
        (harness, "run_experiment", "harness", None, None),
        (harness, "variance_trace", "harness", None, None),
        (harness, "ablation_suite", "harness", None, None),
        (harness, "oracle_check", "harness", None, None),
        (harness, "load_params", "harness.load_params", None, None),
        (harness._Runner, "draw_batch", "harness.draw_batch", None, None),
        (harness._Runner, "trace_rows", "harness.trace_rows", None, None),
    ]
    return targets


class MissingTarget(RuntimeError):
    """A traced name no longer exists where its caller looks it up."""


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced name through ``tracer`` until the block exits.

    Raises MissingTarget, before wrapping anything, if a traced name is
    gone: its span would read zero, which looks like a gain.
    """
    targets = _targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, *_ in targets
               if not _has_static(owner, attr)]
    if missing:
        raise MissingTarget(f"traced names not found: {', '.join(missing)}")
    undo = []
    try:
        for owner, attr, name, before, after in targets:
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(tracer.wrap(name, raw.__func__, before, after))
            else:
                new = tracer.wrap(name, raw, before, after)
            undo.append((owner, attr, raw, attr in vars(owner)))
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, raw, own in reversed(undo):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
