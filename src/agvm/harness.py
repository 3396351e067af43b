"""Experiment runner: simulated data-parallel batching, learning-rate
schedules, variance tracing, ablation arms, and CSV emission.

One loop (``_Runner.run``) draws even-sized mini-batches from a synthetic
dataset and, every tau iterations (aligned with modulation), records
per-module rows of the learning-rate-free variance proxy, the current
multiplier, the effective learning rate, the loss, and the squared gradient
norm. Training updates a multi-module model with one of the modulated
optimizers at every step; an update-free variance trace runs only the traced
steps, at the initial parameters. Below ``REPLICA_MIN_BATCH`` rows, the two
half-batch gradients feeding the proxy come from the same single whole-batch
backward pass as the step gradient: the pass splits each parameter gradient
into the odd and even batch rows (``gradients(..., row_groups=2)``), and
twice each part is the mean of that half's per-sample gradients.

From ``REPLICA_MIN_BATCH`` rows on, a step is two half-batch passes, as the
paper's two groups of data-parallel workers compute it: group 1's over the
rows ``idx[0::2]`` in the run's process, and group 2's over ``idx[1::2]`` at
the same time in a replica process (``_Replica``). G1 and G2 are the two
passes' gradients, the step's gradient is their mean, and its loss the mean
of their losses. The replica is forked once when the run starts, before the
run starts any thread, and moves off the run's CPU (``_leave_cpu``). Each
step it loads the weights from a buffer shared with the run, draws the
step's masks and noise itself from the step's seed, keeping its own rows
(``draw_noise`` gives batch position j row j of its arrays), and writes back
its loss and packed gradient; the optimizer runs only in the run's process.
Each side polls its pipe for a moment (``REPLICA_POLL_S``) before it sleeps
waiting for the other. With one usable CPU, without ``os.fork``, or while
the process has another thread, the run computes both half passes itself, in
the same arithmetic, so every output depends on the config alone. The
replica exits when its command pipe closes, which happens on every exit from
``run()`` and when the run's process dies, and ``run()`` reaps it; a replica
that fails is raised from ``run()`` as a ReplicaError.

Two pieces of work run on a second thread, each on a thread started for that
one call (``_InThread``) and joined before its caller returns. When a step's
proposal-noise array is large (at least ``DRAW_AHEAD_MIN_ELEMENTS``
elements, a count fixed by the model config and the batch size), the loop
draws each step's noise one step ahead: at the start of a step it starts a
thread that calls ``draw_noise`` for the next step, and joins it when that
step begins. Below the gate, or when the model draws nothing, the loop draws
inline: starting and joining a thread costs more than a small draw. The
batch draw stays on the main thread, so the batch RNG is used by one thread
only. ``oracle_check`` runs the brute-force oracle on a thread while the
main thread resamples the estimate. Both pieces spend their time in numpy
calls that release the GIL (the noise fill, the oracle's BLAS products), so
they run on a second core. Each draws from a generator of its own (a draw's
seed depends only on its step) and reads only arrays that nothing writes
while it runs, so every output is the same bit for bit as running it inline.
A worker's exception is raised from ``run()`` or ``oracle_check``, and no
thread outlives either.

A new thread can start on its creator's CPU and stay there. On a 2-core VM
whose cpusets turn the kernel's load balancing off, that held for whole
processes: in one, 14 of 15 oracle workers started on the main thread's CPU,
and each check took as long as running its halves in turn. So each worker
first restricts itself to the CPUs its process may use other than the one
its creator ran on when it was started (``_leave_cpu``); with a single
usable CPU it runs where it is. A thread is started fresh for each use
rather than kept in a pool: a persistent worker thread woken every step,
tried before workers left their creator's CPU, stayed on the main thread's
core for whole processes. The replica is persistent, but it is a process
whose CPUs are set once, when it is forked, so it keeps off the run's core
for the whole run.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
import time
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .models import (ConfigError, ModelConfig, SyntheticModel,
                     TwoBlockLinearModel, make_dataset)
from .optim import AgvmAdamW, AgvmSgd, DivergenceError, Modulator, force_unit_mu
from .tensor import gradients, load_params, pack_params
from .variance import (GroupedGradients, brute_force_variance_oracle,
                       full_variance_estimate, per_sample_gradients,
                       phi_estimate, split_groups)

PHI_EPS = 1e-12


@dataclass(frozen=True)
class LrSchedule:
    base_lr: float = 0.04
    base_batch: int = 32
    warmup_iters: int = 0
    scaling: str = "linear-then-sqrt"
    decay: str = "multistep"
    milestones: tuple = ()
    decay_factor: float = 0.1
    poly_power: float = 0.9
    total_iterations: int = 1

    def peak(self, b: int) -> float:
        """Peak learning rate after batch-size scaling: linear up to batch
        128, square-root growth beyond it (in linear-then-sqrt mode)."""
        if self.scaling == "linear":
            return self.base_lr * (b / self.base_batch)
        if self.scaling == "linear-then-sqrt":
            if b <= 128:
                return self.base_lr * (b / self.base_batch)
            return self.base_lr * (128 / self.base_batch) * math.sqrt(b / 128)
        raise ConfigError(f"unknown lr scaling mode {self.scaling!r}")


def lr_at(schedule: LrSchedule, t: int, b: int) -> float:
    """Learning rate after t completed iterations at batch size b.

    Linear warmup from peak/warmup_iters to the peak, then multistep or
    polynomial decay.
    """
    if t < 0 or t > schedule.total_iterations:
        raise ConfigError(f"iteration {t} outside [0, {schedule.total_iterations}]")
    peak = schedule.peak(b)
    if schedule.warmup_iters > 0 and t < schedule.warmup_iters:
        return peak * (t + 1) / schedule.warmup_iters
    if schedule.decay == "multistep":
        drops = sum(1 for m in schedule.milestones if t >= m)
        return peak * schedule.decay_factor ** drops
    if schedule.decay == "poly":
        frac = t / max(1, schedule.total_iterations)
        return peak * (1.0 - frac) ** schedule.poly_power
    raise ConfigError(f"unknown lr decay mode {schedule.decay!r}")


# Ablation arms in report order: arm name -> model-field overrides applied on
# top of the base config. ``ablation`` is "none" or one of these names.
ABLATION_ARMS = {
    "shared": {},
    "independent_heads": {"head_mode": "independent"},
    "no_pyramid": {"pyramid": False, "levels": 1},
    "mask_75": {"mask_fraction": 0.75},
    "proposals_1": {"proposals": 1},
    "proposals_8": {"proposals": 8},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat run configuration; every field is a config-file / CLI key."""

    # model
    input_dim: int = 32
    trunk_widths: tuple = (32,)
    levels: int = 4
    head_width: int = 16
    output_dim: int = 4
    head_mode: str = "shared"
    pyramid: bool = True
    mask_fraction: float = 0.0
    proposals: int = 1
    proposal_noise_std: float = 0.0
    # dataset
    n_samples: int = 2048
    noise_std: float = 0.1
    dataset_seed: int = 7
    # optimizer
    optimizer: str = "sgd"
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    weight_decay: float = 1e-4
    # schedule
    base_lr: float = 0.04
    base_batch: int = 32
    warmup_iters: int = 50
    lr_scaling: str = "linear-then-sqrt"
    lr_decay: str = "multistep"
    milestones: tuple = ()
    decay_factor: float = 0.1
    poly_power: float = 0.9
    # run
    batch_size: int = 256
    total_iterations: int = 2000
    seed: int = 1
    # accepted and validated (>= 1) so existing config files and flags keep
    # working, but a run does not use it: below REPLICA_MIN_BATCH a step is
    # one reverse pass, and from it on two half passes, one of them in a
    # replica process wherever the machine allows (_Runner.run)
    workers: int = 1
    # modulation (tau=0 picks the default: 10, or 5 above batch 1024)
    agvm_enabled: bool = True
    tau: int = 0
    alpha: float = 0.97
    clip_lo: float = 0.1
    clip_hi: float = 10.0
    eps_ratio: float = 1e-12
    anchor: int = 0
    # ablation arm applied on top of the model fields
    ablation: str = "none"

    def validate(self):
        """Raise ConfigError naming every violated constraint, so that no
        field value can fail later with another exception type."""
        bad = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                bad.append(f"{f.name} must be finite, got {value}")
        if self.batch_size < 2 or self.batch_size % 2 != 0:
            bad.append(f"batch_size must be even and >= 2, got {self.batch_size}")
        if self.batch_size > self.n_samples:
            bad.append(f"batch_size {self.batch_size} exceeds n_samples {self.n_samples}")
        if self.noise_std < 0:
            bad.append(f"noise_std must be >= 0, got {self.noise_std}")
        if self.seed < 0 or self.dataset_seed < 0:
            bad.append(f"seed and dataset_seed must be >= 0, got {self.seed} and "
                       f"{self.dataset_seed}")
        if self.total_iterations < 0:
            bad.append(f"total_iterations must be >= 0, got {self.total_iterations}")
        if self.warmup_iters < 0:
            bad.append(f"warmup_iters must be >= 0, got {self.warmup_iters}")
        if self.warmup_iters >= max(1, self.total_iterations) and self.warmup_iters > 0:
            bad.append(f"warmup_iters {self.warmup_iters} must be < total_iterations "
                       f"{self.total_iterations}")
        if self.base_lr < 0:
            bad.append(f"base_lr must be >= 0, got {self.base_lr}")
        if self.base_batch < 1:
            bad.append(f"base_batch must be >= 1, got {self.base_batch}")
        if self.lr_scaling not in ("linear", "linear-then-sqrt"):
            bad.append(f"lr_scaling must be 'linear' or 'linear-then-sqrt', got {self.lr_scaling!r}")
        if self.lr_decay not in ("multistep", "poly"):
            bad.append(f"lr_decay must be 'multistep' or 'poly', got {self.lr_decay!r}")
        for name in ("decay_factor", "poly_power", "weight_decay"):
            if getattr(self, name) < 0:
                bad.append(f"{name} must be >= 0, got {getattr(self, name)}")
        if any(m < 0 for m in self.milestones):
            bad.append(f"milestones must be >= 0, got {self.milestones}")
        if self.optimizer not in ("sgd", "adamw"):
            bad.append(f"optimizer must be 'sgd' or 'adamw', got {self.optimizer!r}")
        for name in ("alpha", "beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                bad.append(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        for name in ("eps_ratio", "eps_adam"):
            if not getattr(self, name) > 0:
                bad.append(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 < self.clip_lo <= 1.0 <= self.clip_hi:
            bad.append(f"clip range [{self.clip_lo}, {self.clip_hi}] must satisfy "
                       "0 < clip_lo <= 1 <= clip_hi")
        if self.tau < 0:
            bad.append(f"tau must be >= 0 (0 = default), got {self.tau}")
        if self.workers < 1:
            bad.append(f"workers must be >= 1, got {self.workers}")
        model = None
        try:
            model = self.model_config()
            model.validate()
            bad.extend(self._oversized(model))
        except ConfigError as exc:
            bad.append(str(exc))
        if model is not None and not 0 <= self.anchor < model.module_count:
            bad.append(f"anchor {self.anchor} out of range for the model's "
                       f"{model.module_count} modules")
        if not bad:
            # the rate is largest at warmup's last step (its peak * (t + 1) is formed
            # before the division) or at step T-1, after every milestone decay reached
            try:
                lrs = [lr_at(self.schedule(), t, self.batch_size)
                       for t in (max(0, self.warmup_iters - 1), max(0, self.total_iterations - 1))]
            except OverflowError:
                lrs = [math.inf]
            if not all(map(math.isfinite, lrs)):
                bad.append(f"the learning rate overflows: base_lr {self.base_lr}, decay_factor "
                           f"{self.decay_factor}, milestones {self.milestones}")
        if bad:
            raise ConfigError("invalid experiment config: " + "; ".join(bad))

    def _oversized(self, model: ModelConfig) -> list:
        """A violation naming each dataset, parameter or per-step noise array
        of the (valid) model that would hold more elements than numpy can
        index, by the keys that size it. The counts are Python integers, so
        the config is rejected before anything is allocated."""
        widths = (model.input_dim,) + tuple(model.trunk_widths)
        rows = model.levels * model.proposals * self.batch_size     # noise rows per step
        arrays = {
            "n_samples x input_dim": self.n_samples * model.input_dim,
            "n_samples x output_dim": self.n_samples * model.output_dim,
            "input_dim x output_dim": model.input_dim * model.output_dim,
            "input_dim x trunk_widths": max(a * b for a, b in zip(widths, widths[1:])),
            "trunk_widths x head_width": widths[-1] * model.head_width,
            "head_width x head_width": model.head_width ** 2 if model.pyramid else 0,
            "head_width x output_dim": model.head_width * model.output_dim,
            "levels x proposals x batch_size x head input": rows * model.head_in,
            "levels x proposals x batch_size x output_dim": rows * model.output_dim,
        }
        limit = np.iinfo(np.intp).max
        over = [f"{keys} = {count}" for keys, count in arrays.items() if count > limit]
        return [f"arrays would exceed numpy's {limit} elements: " + ", ".join(over)] if over else []

    def _ablation_fields(self) -> dict:
        """Model-field overrides implied by the ablation arm."""
        if self.ablation == "none":
            return {}
        if self.ablation not in ABLATION_ARMS:
            raise ConfigError(f"unknown ablation {self.ablation!r}; expected 'none' or one "
                              f"of {', '.join(ABLATION_ARMS)}")
        out = dict(ABLATION_ARMS[self.ablation])
        if "proposals" in out and self.proposal_noise_std <= 0:
            # replica evaluations only matter through the feature jitter they
            # average, so the proposal arms always run with it enabled
            out["proposal_noise_std"] = 0.25
        return out

    def model_config(self) -> ModelConfig:
        base = dict(
            input_dim=self.input_dim, trunk_widths=tuple(self.trunk_widths),
            levels=self.levels, head_width=self.head_width, output_dim=self.output_dim,
            head_mode=self.head_mode, pyramid=self.pyramid,
            mask_fraction=self.mask_fraction, proposals=self.proposals,
            proposal_noise_std=self.proposal_noise_std,
        )
        base.update(self._ablation_fields())
        return ModelConfig(**base)

    def schedule(self) -> LrSchedule:
        return LrSchedule(
            base_lr=self.base_lr, base_batch=self.base_batch,
            warmup_iters=self.warmup_iters, scaling=self.lr_scaling,
            decay=self.lr_decay, milestones=tuple(self.milestones),
            decay_factor=self.decay_factor, poly_power=self.poly_power,
            total_iterations=max(1, self.total_iterations),
        )

    def effective_tau(self) -> int:
        if self.tau > 0:
            return self.tau
        return 5 if self.batch_size > 1024 else 10


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


_KIND_WORDS = {int: "an integer", float: "a number",
               tuple: "comma-separated integers"}


def _coerce(name: str, kind, raw: str):
    raw = raw.strip()
    if kind is bool:
        word = raw.lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"key {name}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[word]
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is tuple:
            return tuple(int(part) for part in raw.split(",")) if raw else ()
    except ValueError:
        raise ConfigError(f"key {name}: expected {_KIND_WORDS[kind]}, got {raw!r}") from None
    return raw


# each key is coerced to the type of its default
_FIELD_KINDS = {f.name: type(f.default) for f in fields(ExperimentConfig)}


def config_from_pairs(pairs: dict, base: Optional[ExperimentConfig] = None) -> ExperimentConfig:
    """Apply key=value overrides to a config; unknown keys are a hard error."""
    cfg = base or ExperimentConfig()
    updates = {}
    for key, raw in pairs.items():
        if key not in _FIELD_KINDS:
            raise ConfigError(f"unknown config key {key!r}")
        updates[key] = _coerce(key, _FIELD_KINDS[key], str(raw))
    return replace(cfg, **updates)


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None,
                env: Optional[dict] = None) -> ExperimentConfig:
    """Config resolution order: defaults < file < AGVM_SEED env < CLI overrides."""
    pairs = {}
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not a text config file ({exc})") from None
        for lineno, line in enumerate(lines, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line.strip()!r}")
            key, raw = text.split("=", 1)
            pairs[key.strip()] = raw.strip()
    cfg = config_from_pairs(pairs)
    env = os.environ if env is None else env
    if env.get("AGVM_SEED"):
        cfg = config_from_pairs({"seed": env["AGVM_SEED"]}, cfg)
    if overrides:
        cfg = config_from_pairs(overrides, cfg)
    cfg.validate()
    return cfg


@dataclass(frozen=True)
class TraceRow:
    iter: int
    module: str
    phi: float          # learning-rate-free proxy, 1 - cos(G1, G2)
    mu: float
    eff_lr: float
    loss: float
    grad_norm_sq: float


@dataclass
class RunResult:
    final_loss: float
    trace: list
    summary: dict


# A step's noise is drawn one step ahead, on a thread started for that one
# draw, only when its array holds at least this many elements. numpy fills
# the array without holding the GIL, so the draw overlaps the current step's
# forward and backward pass, but each thread costs about 0.3 ms of CPU to
# start and join. MISALIGNMENT with proposal_noise_std 0.25, 2000 steps,
# 2-core VM, BLAS 1 thread, 6 alternating pairs, median wall time inline ->
# ahead: 16,384 elements (K=1) 3.62 -> 3.82 s, 3 of 6 pairs faster;
# 32,768 (K=2) 4.38 -> 4.13 s, 4 of 6 faster, within the 3.3-5.5 s spread;
# 65,536 (K=4) 6.30 -> 5.22 s, 6 of 6 faster.
DRAW_AHEAD_MIN_ELEMENTS = 1 << 16

# From this batch size on, every step is two half-batch passes, group 2's in a
# replica process (``_Replica``) while the run computes group 1's. The
# replica's per-step cost (a pipe round trip, copying the weights, the batch
# rows and its gradient, drawing the whole step's masks and noise) is about
# fixed, and the work it takes off the run's process grows with the batch.
# The benchmark's AdamW large-batch model (200 steps, BLAS 1 thread, 2-core
# VM), alternating pairs of processes, median wall time per run, all in
# process -> with the replica, pairs it won; three sessions before the pipe
# polling below, then one with it:
#   batch 512:  0.329 -> 0.321 s, 3 of 8; 0.359 -> 0.350 s, 4 of 8;
#               0.400 -> 0.372 s, 4 of 6
#   batch 1024: 0.570 -> 0.465 s, 7 of 8; 0.500 -> 0.453 s, 6 of 8;
#               0.559 -> 0.452 s, 8 of 8; 0.614 -> 0.473 s, 6 of 6
#   batch 2048: 1.065 -> 0.699 s, 8 of 8; 1.093 -> 0.716 s, 8 of 8;
#               1.112 -> 0.722 s, 6 of 6
REPLICA_MIN_BATCH = 1024

# A side that waits for the other (the run for a reply, the replica for its
# next command) polls its pipe for up to this long before it sleeps. On a
# shared 2-core VM, a vCPU that went idle between steps was slow to wake: 4
# alternating pairs of in-process loops of 8 large-batch runs, median wall
# time per run sleeping -> polling: 0.835 -> 0.702, 1.046 -> 0.886,
# 1.116 -> 0.760 and 1.088 -> 0.751 s, with the two vCPUs' steal time over
# each loop at 101-385 jiffies sleeping and 2-182 polling.
REPLICA_POLL_S = 2e-3


def _mask_seed(seed: int, t: int) -> int:
    return int(np.random.SeedSequence([seed & 0xFFFFFFFF, t]).generate_state(1)[0])


_SCHED_GETCPU = getattr(ctypes.CDLL(None), "sched_getcpu", None)


def _current_cpu() -> Optional[int]:
    """The CPU the calling thread runs on, or None where the C library
    cannot say."""
    cpu = _SCHED_GETCPU() if _SCHED_GETCPU is not None else -1
    return cpu if cpu >= 0 else None


def _leave_cpu(cpu: Optional[int]):
    """Restrict the calling thread to the CPUs it may use other than
    ``cpu``; leave it alone where there are none, or where the platform
    cannot set a thread's CPUs."""
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except OSError:         # not permitted: the thread runs where it was placed
        pass


class _InThread(threading.Thread):
    """``fn(*args, **kwargs)`` on a thread of its own, started at once, off
    the CPU its creator runs on. ``result()`` joins the thread and returns
    what ``fn`` returned, or raises what it raised."""

    def __init__(self, fn, *args, **kwargs):
        super().__init__(name="agvm-in-thread")
        self._call = (fn, args, kwargs)
        self._out = self._error = None
        self.creator_cpu = _current_cpu()
        self.start()

    def run(self):
        fn, args, kwargs = self._call
        try:
            _leave_cpu(self.creator_cpu)
            self._out = fn(*args, **kwargs)
        except BaseException as exc:        # re-raised by result() on the caller's thread
            self._error = exc

    def result(self):
        self.join()
        if self._error is not None:
            raise self._error
        return self._out


class ReplicaError(RuntimeError):
    """The replica process failed or exited during a step."""


class _Replica:
    """A forked copy of a run that computes group 2's half of each step,
    ``half_loss_and_grad(idx, t, 1)``, while the run computes group 1's.

    Per step the run writes its weights and the batch rows into a shared
    buffer (``start``) and sends t down a command pipe; the replica loads
    the weights, draws the step's masks and noise itself from t, and writes
    back its loss and packed gradient, which ``result`` returns. The
    optimizer runs only in the run's process. The replica ignores SIGINT
    and exits on EOF of the command pipe, which ``close`` causes and the
    run's death causes too, so it never outlives the run; ``close`` reaps
    it. A replica that fails or exits is raised from ``result`` or
    ``start`` as a ReplicaError.
    """

    def __init__(self, runner: "_Runner"):
        # mmap, select, signal and traceback are imported only where a
        # replica needs them: imported with the module, they added about
        # 3 ms to every process that imports agvm
        import mmap

        n, b = runner.w.size, runner.config.batch_size
        # an anonymous mapping is shared with the forked child
        self._shared = mmap.mmap(-1, 8 * (2 * n + 1 + b))
        floats = np.frombuffer(self._shared, np.float64, 2 * n + 1)
        self.w, self.grad, self.loss = floats[:n], floats[n:2 * n], floats[2 * n:]
        self.idx = np.frombuffer(self._shared, np.int64, b, offset=8 * (2 * n + 1))
        self.t = None
        creator_cpu = _current_cpu()
        commands, self._commands = os.pipe()
        self._replies, replies = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (commands, self._commands, self._replies, replies):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                self._serve(runner, commands, replies, creator_cpu)
                status = 0
            finally:
                os._exit(status)        # never return into the run's code
        os.close(commands)
        os.close(replies)
        os.set_blocking(self._replies, False)

    def _serve(self, runner: "_Runner", commands: int, replies: int, creator_cpu: Optional[int]):
        """The replica's life: one half pass per command, until EOF."""
        import signal
        import traceback

        os.close(self._commands)
        os.close(self._replies)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        _leave_cpu(creator_cpu)
        os.set_blocking(commands, False)
        while True:
            word = _await(commands, 8)
            if not word:
                return
            t = int.from_bytes(word, "little")
            try:
                load_params(runner.model.params, self.w)
                loss, grad = runner.half_loss_and_grad(self.idx, t, 1)
            except Exception:
                os.write(replies, traceback.format_exc().encode())
                return
            self.grad[...] = grad
            self.loss[0] = loss
            os.write(replies, b"\0")

    def start(self, t: int, idx: np.ndarray, w: np.ndarray):
        """Start group 2's half of step t on the batch ``idx`` at weights ``w``."""
        self.t = t
        self.idx[...] = idx
        self.w[...] = w
        try:
            os.write(self._commands, t.to_bytes(8, "little"))
        except BrokenPipeError:
            raise self._failure(b"") from None

    def result(self) -> tuple:
        """(loss, flat grad) of the step started last."""
        reply = _await(self._replies, 1 << 16)
        if reply != b"\0":
            raise self._failure(reply)
        return float(self.loss[0]), self.grad.copy()

    def _failure(self, reply: bytes) -> ReplicaError:
        """The error for a replica that replied ``reply`` (its traceback, or
        nothing when it exited); reaps it."""
        chunks = [reply]
        while chunks[-1]:
            chunks.append(_await(self._replies, 1 << 16))
        code = self.close()
        text = b"".join(chunks).decode(errors="replace").strip()
        return ReplicaError(f"the replica process failed at step {self.t}: "
                            + (text or f"it exited with code {code}"))

    def close(self) -> Optional[int]:
        """Close the pipes, so the replica exits, and reap it; its exit code
        (negative: killed by that signal), or None once closed."""
        if self.pid is None:
            return None
        os.close(self._commands)
        os.close(self._replies)
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)


def _await(fd: int, n: int) -> bytes:
    """``os.read(fd, n)`` of a non-blocking pipe: polled for up to
    REPLICA_POLL_S, then waited for asleep."""
    end = time.perf_counter() + REPLICA_POLL_S
    while True:
        try:
            return os.read(fd, n)
        except BlockingIOError:
            if time.perf_counter() >= end:
                import select
                select.select([fd], [], [])


def _usable_cpus() -> int:
    """The number of CPUs the calling thread may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Runner:
    """Shared machinery for training runs and update-free variance traces."""

    def __init__(self, config: ExperimentConfig):
        config.validate()
        self.config = config
        self.inputs, self.targets = make_dataset(
            config.n_samples, config.input_dim, config.output_dim,
            config.noise_std, config.dataset_seed)
        self.model = SyntheticModel(config.model_config(), seed=config.seed)
        self.partition = self.model.partition
        self.schedule = config.schedule()
        self.tau = config.effective_tau()
        self.batch_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed & 0xFFFFFFFF, 0x5EED]))
        self.w = pack_params(self.model.params)
        mod = Modulator(self.partition.h, anchor=config.anchor, tau=self.tau,
                        alpha=config.alpha, clip_lo=config.clip_lo,
                        clip_hi=config.clip_hi, eps_ratio=config.eps_ratio)
        if not config.agvm_enabled:
            force_unit_mu(mod)
        if config.optimizer == "adamw":
            self.opt = AgvmAdamW(self.partition, beta1=config.beta1, beta2=config.beta2,
                                 eps=config.eps_adam, weight_decay=config.weight_decay,
                                 modulator=mod)
        else:
            self.opt = AgvmSgd(self.partition, beta1=config.beta1,
                               weight_decay=config.weight_decay, modulator=mod)

    def draw_batch(self) -> np.ndarray:
        return self.batch_rng.choice(self.config.n_samples, size=self.config.batch_size,
                                     replace=False)

    def draw(self, t: int, batch: int) -> tuple:
        """Step t's ``(masks, noise)`` for a batch of ``batch`` rows. The
        step's mask seed is derived only when the model draws randomness
        with it."""
        seed = _mask_seed(self.config.seed, t) if self.model.draws_noise() else None
        return self.model.draw_noise(seed, batch)

    def forward(self, idx: np.ndarray, t: int, drawn: Optional[tuple] = None):
        """The loss of the rows ``idx`` at step t, given the step's
        ``(masks, noise)`` already drawn, or drawing them here."""
        masks, noise = self.draw(t, len(idx)) if drawn is None else drawn
        # np.take copies the same rows as fancy indexing, several times
        # faster when the rows are random and out of cache
        return self.model.loss_given_noise(np.take(self.inputs, idx, axis=0),
                                           np.take(self.targets, idx, axis=0), masks, noise)

    def batch_loss_and_grad(self, idx: np.ndarray, t: int, drawn: Optional[tuple] = None):
        """One forward/backward over the whole mini-batch; (loss, flat grad)."""
        loss = self.forward(idx, t, drawn)
        return float(loss.data), gradients(loss, self.model.params).packed

    def grouped_loss_and_grad(self, idx: np.ndarray, t: int, drawn: Optional[tuple] = None):
        """One whole-batch backward split by odd/even rows; (loss, flat grad,
        GroupedGradients).

        Every sample keeps equally many loss elements, so twice the odd
        (even) rows' share of the gradient is the mean of that half's
        per-sample gradients: exactly the odd/even split of the batch.
        """
        loss = self.forward(idx, t, drawn)
        halves = gradients(loss, self.model.params, row_groups=2).packed
        halves *= 2.0
        g1, g2 = halves
        grad = (g1 + g2) / 2.0
        groups = GroupedGradients.from_half_means(g1, g2, grad, self.partition, len(idx))
        return float(loss.data), grad, groups

    def half_loss_and_grad(self, idx: np.ndarray, t: int, part: int,
                           drawn: Optional[tuple] = None):
        """Group ``part + 1``'s half of step t: one forward/backward over the
        rows ``idx[part::2]``; (loss, flat grad), each the mean over that
        half. ``drawn`` is the whole batch's ``(masks, noise)``, drawn here
        when None; draw_noise gives batch position j row j of its arrays, so
        the half takes its own rows of the step's draw.

        Every sample keeps equally many loss elements, so the two halves'
        gradients are G1 and G2, and their mean and the mean of their losses
        are the whole batch's gradient and loss."""
        masks, noise = self.draw(t, len(idx)) if drawn is None else drawn
        half = (None if masks is None else masks[part::2],
                None if noise is None else noise[:, :, part::2])
        return self.batch_loss_and_grad(idx[part::2], t, half)

    def trace_rows(self, t: int, loss: float, groups: GroupedGradients,
                   mu: np.ndarray, eta: float) -> list:
        est = phi_estimate(groups, eta=1.0)
        rows = []
        for i, name in enumerate(self.partition.names):
            g = groups.g[name]
            rows.append(TraceRow(iter=t, module=name, phi=float(est.phi[i]),
                                 mu=float(mu[i]), eff_lr=eta * float(mu[i]),
                                 loss=loss, grad_norm_sq=float(np.dot(g, g))))
        return rows

    def draws_ahead(self) -> bool:
        """Whether run() draws each step's noise one step ahead on a worker
        thread: the model draws randomness, and its noise array holds at
        least DRAW_AHEAD_MIN_ELEMENTS elements."""
        c = self.model.config
        elements = (c.levels * c.proposals * self.config.batch_size * c.head_in
                    if c.proposal_noise_std > 0.0 else 0)
        return self.model.draws_noise() and elements >= DRAW_AHEAD_MIN_ELEMENTS

    def run(self, train: bool) -> RunResult:
        """The batch-and-trace loop: steps 0..T with updates, or without
        ``train`` only the traced steps 0, tau, ... <= T. A non-finite loss at
        a step t >= 1 halts the run before that step's rows."""
        cfg = self.config
        stride = 1 if train else self.tau
        ahead = self.draws_ahead()
        halves = cfg.batch_size >= REPLICA_MIN_BATCH
        trace = []
        diverged_at, reason = -1, None
        pending = None      # the worker drawing this step's noise, if any
        # forked before this run starts a thread, and only from a process
        # that has no other: a fork copies one thread, and any lock another
        # one holds stays held in the child
        replica = (_Replica(self) if halves and hasattr(os, "fork") and _usable_cpus() > 1
                   and threading.active_count() == 1 else None)
        try:
            for t in range(0, cfg.total_iterations + 1, stride):
                drawn = None if pending is None else pending.result()
                pending = (_InThread(self.model.draw_noise, _mask_seed(cfg.seed, t + stride),
                                     cfg.batch_size)
                           if ahead and t + stride <= cfg.total_iterations else None)
                idx = self.draw_batch()
                eta = lr_at(self.schedule, max(0, t - 1), cfg.batch_size)
                groups = None
                if halves:
                    if drawn is None:
                        drawn = self.draw(t, cfg.batch_size)
                    if replica is not None:
                        replica.start(t, idx, self.w)
                    l1, g1 = self.half_loss_and_grad(idx, t, 0, drawn)
                    l2, g2 = (replica.result() if replica is not None
                              else self.half_loss_and_grad(idx, t, 1, drawn))
                    loss, grad = (l1 + l2) / 2.0, (g1 + g2) / 2.0
                    if t % self.tau == 0:
                        groups = GroupedGradients.from_half_means(g1, g2, grad, self.partition,
                                                                  cfg.batch_size)
                elif t % self.tau == 0:
                    loss, grad, groups = self.grouped_loss_and_grad(idx, t, drawn)
                else:
                    loss, grad = self.batch_loss_and_grad(idx, t, drawn)
                if t >= 1 and not math.isfinite(loss):
                    diverged_at, reason = t, f"non-finite loss {loss} at step {t}"
                    break
                final_loss = loss
                if train and t >= 1:
                    try:
                        self.opt.step(self.w, grad, eta, groups=groups)
                    except DivergenceError as exc:
                        diverged_at, reason = t, str(exc)
                        break
                    load_params(self.model.params, self.w)
                if groups is not None:
                    trace.extend(self.trace_rows(t, loss, groups, self.opt.modulator.mu, eta))
        finally:
            # a draw for a step the run never reaches is dropped, error and all
            if pending is not None:
                pending.join()
            if replica is not None:
                replica.close()

        summary = summarize(trace, self.partition.names, self.partition.anchor_name)
        summary.update(status="ok" if reason is None else "NaN", final_loss=final_loss)
        if reason is not None:
            summary.update(diverged_at=diverged_at, diverged_reason=reason)
        if train:
            # the step that diverged never completed
            run = cfg.total_iterations if reason is None else diverged_at - 1
            summary.update(diverged_at=diverged_at, iterations_run=run)
        return RunResult(final_loss=final_loss, trace=trace, summary=summary)


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Train per the config; deterministic in (config, seed).

    The trace has per-module rows at iteration 0 and every tau iterations
    thereafter, aligned with modulation events. A non-finite loss, gradient
    or update halts the run, flags the summary with status=NaN and adds
    ``diverged_reason``; any other OptimizerError propagates.
    """
    return _Runner(config).run(train=True)


def variance_trace(config: ExperimentConfig) -> RunResult:
    """Observe per-module variance without updating, at the traced steps only."""
    return _Runner(config).run(train=False)


def summarize(trace: list, names: tuple, anchor_name: str) -> dict:
    """Per-module time averages over the post-warmstart trace (iter >= 1)."""
    rows = [row for row in trace if row.iter >= 1]
    out = {}
    by_module = {n: [row for row in rows if row.module == n] for n in names}
    for n in names:
        series = by_module[n]
        if not series:
            continue
        phis = np.array([row.phi for row in series])
        mus = np.array([row.mu for row in series])
        out[f"phi_avg_{n}"] = float(phis.mean())
        out[f"mean_abs_log_mu_{n}"] = float(np.abs(np.log(mus)).mean())
        half = len(phis) // 2
        if half >= 1:
            first = max(phis[:half].mean(), PHI_EPS)
            out[f"phi_late_ratio_{n}"] = float(phis[half:].mean() / first)
    gap = phi_gap(trace, anchor_name)
    if gap is not None:
        out["phi_gap"] = gap
    return out


def phi_gap(trace: list, anchor_name: str = "trunk") -> Optional[float]:
    """Time-averaged log(phi_anchor / phi_head) over iterations >= 1.

    Head phi is the mean over the modules named head*; positive gaps mean
    the heads see less gradient noise than the anchor.
    """
    per_iter = {}
    for row in trace:
        if row.iter >= 1:
            per_iter.setdefault(row.iter, {})[row.module] = row.phi
    logs = []
    for t, mods in sorted(per_iter.items()):
        heads = [v for k, v in mods.items() if k.startswith("head")]
        if not heads or anchor_name not in mods:
            continue
        logs.append(math.log((mods[anchor_name] + PHI_EPS) / (float(np.mean(heads)) + PHI_EPS)))
    return float(np.mean(logs)) if logs else None


def ablation_suite(base_config: ExperimentConfig) -> dict:
    """Run every ablation arm with identical seeds; per-arm summaries.

    The base config must be the shared-head pyramid baseline so the arms
    isolate one mechanism each. The arms are compared as update-free
    variance traces at their (seed-matched) initial parameters: arms train
    at different speeds, and over a trained trajectory that speed difference
    swamps the architectural effect the phi-gap is meant to expose.

    Arms differ only in their model config, so arms that resolve to equal
    ones (proposals_1 on a jittered base is the shared arm) are run once;
    each arm still gets its own summary dict.
    """
    if base_config.head_mode != "shared" or not base_config.pyramid:
        raise ConfigError("ablation_suite needs a shared-head pyramid base config")
    if base_config.ablation != "none":
        raise ConfigError("ablation_suite applies its own arms; set ablation=none")
    runs = {}
    results = {}
    for arm in ABLATION_ARMS:
        cfg = replace(base_config, ablation=arm)
        key = cfg.model_config()
        if key not in runs:
            runs[key] = variance_trace(cfg).summary
        results[arm] = dict(runs[key])
    return results


def emit_csv(trace: list, path: str):
    """Write trace rows with 17-significant-digit reals and LF endings."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("iter,module,phi,mu,eff_lr,loss,grad_norm_sq\n")
            for row in trace:
                fh.write(f"{row.iter},{row.module},{row.phi:.17g},{row.mu:.17g},"
                         f"{row.eff_lr:.17g},{row.loss:.17g},{row.grad_norm_sq:.17g}\n")
    except OSError as exc:
        raise OSError(f"cannot write trace CSV to {path}: {exc}") from exc


def read_csv(path: str) -> list:
    """Parse a trace CSV back into rows (inverse of emit_csv)."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "iter,module,phi,mu,eff_lr,loss,grad_norm_sq":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in fh:
            it, module, phi, mu, eff_lr, loss, gns = line.rstrip("\n").split(",")
            rows.append(TraceRow(int(it), module, float(phi), float(mu),
                                 float(eff_lr), float(loss), float(gns)))
    return rows


def summary_text(summary: dict) -> str:
    """Flat key=value block, one pair per line."""
    lines = []
    for key in sorted(summary):
        val = summary[key]
        if isinstance(val, float):
            lines.append(f"{key}={val:.17g}")
        else:
            lines.append(f"{key}={val}")
    return "\n".join(lines)


# The estimator is derived under near-isotropic per-sample gradient
# fluctuations with a dominant common component; wide layers and inputs
# concentrated around a nonzero mean put the benchmark in that regime.
BENCHMARK = dict(n=512, b=32, input_dim=64, hidden_dim=48, output_dim=64,
                 input_mean=1.0, input_std=0.3, noise_std=0.2, resamples=200)


def oracle_check(seed: int = 0, n: Optional[int] = None, b: Optional[int] = None,
                 resamples: Optional[int] = None) -> dict:
    """Compare the analytic variance estimate against the brute-force oracle
    on the two-block linear regression benchmark.

    Returns per-module estimates, oracle values and relative errors. Raises
    ConfigError, naming every violated constraint, for a negative seed,
    fewer than 100 resamples, or a b that is odd or outside [2, n].

    After one per-sample pass the check has two independent halves, run at
    once: a worker thread computes the brute-force oracle (generator
    ``seed + 4``) while this thread averages the estimate over resampled
    mini-batches (generator ``seed + 3``). Each half reads only the per-sample
    matrix and the partition's slices, which neither writes, and draws from
    its own generator, so every value is the same bit for bit as running the
    halves one after the other. The oracle's time is almost all in BLAS
    products that release the GIL, so it runs on a second core. The worker is
    joined on every exit: its exception is raised from here, and one raised
    by the estimate propagates after the join.
    """
    p = dict(BENCHMARK)
    if n is not None:
        p["n"] = n
    if b is not None:
        p["b"] = b
    if resamples is not None:
        p["resamples"] = resamples
    bad = []
    if seed < 0:
        bad.append(f"seed must be >= 0, got {seed}")
    if p["resamples"] < 100:
        bad.append(f"resamples must be >= 100, got {p['resamples']}")
    if not (2 <= p["b"] <= p["n"] and p["b"] % 2 == 0):
        bad.append(f"b must be even with 2 <= b <= n={p['n']}, got b={p['b']}")
    if bad:
        raise ConfigError("invalid oracle check: " + "; ".join(bad))
    model = TwoBlockLinearModel(p["input_dim"], p["hidden_dim"], p["output_dim"],
                                seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    inputs = rng.normal(p["input_mean"], p["input_std"], (p["n"], p["input_dim"]))
    mapping = rng.normal(0.0, 1.0 / np.sqrt(p["input_dim"]),
                         (p["input_dim"], p["output_dim"]))
    targets = inputs @ mapping + rng.normal(0.0, p["noise_std"],
                                            (p["n"], p["output_dim"]))

    per_sample = per_sample_gradients(model, inputs, targets, mask_seed=0)
    partition = model.partition
    partition.slices        # built once here, before both threads read it
    worker = _InThread(brute_force_variance_oracle, per_sample, partition, b=p["b"],
                       resamples=p["resamples"], seed=seed + 4)
    try:
        rng = np.random.default_rng(seed + 3)
        estimates = np.zeros(partition.h)
        for _ in range(p["resamples"]):
            pick = rng.integers(0, p["n"], size=p["b"])
            groups = split_groups(per_sample, partition, rows=pick)
            estimates += full_variance_estimate(groups, n=p["n"], eta=1.0)
        estimates /= p["resamples"]
    finally:
        worker.join()
    oracle = worker.result()
    rel = np.abs(estimates - oracle) / oracle
    out = {}
    for i, name in enumerate(partition.names):
        out[f"estimate_{name}"] = float(estimates[i])
        out[f"oracle_{name}"] = float(oracle[i])
        out[f"rel_err_{name}"] = float(rel[i])
    out["max_rel_err"] = float(rel.max())
    return out
