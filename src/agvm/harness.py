"""Experiment runner: simulated data-parallel batching, learning-rate
schedules, variance tracing, ablation arms, and CSV emission.

One loop (``_Runner.run``) draws even-sized mini-batches from a synthetic
dataset and, every tau iterations (aligned with modulation), records
per-module rows of the learning-rate-free variance proxy, the current
multiplier, the effective learning rate, the loss, and the squared gradient
norm. Training updates the model at every step; an update-free variance
trace runs only the traced steps, at the initial parameters. Below
``REPLICA_MIN_BATCH`` rows, G1 and G2 come from the step's own reverse pass
(``grouped_loss_and_grad``); from it on, a step is two half-batch passes, as
the paper's two groups of data-parallel workers compute it, group 2's in a
replica process (``half_loss_and_grad``, ``_Replica``).

Concurrency contract; every output stays a function of the config alone:

- In-run: ``oracle_check`` runs the brute-force oracle beside the estimate
  on a thread started for that check (``_InThread``), and a large-batch run
  forks one replica, keeping its own OpenBLAS on one thread while the
  replica lives. Each reads only what nothing writes meanwhile and draws
  from a generator of its own, so its bits equal the inline computation's.
  A failure is raised from the caller; nothing outlives the run or check.
- Across runs: ``run_battery`` runs independent runs side by side on the
  caller and forked children, assigned by a rule on the configs alone
  (``_plan``); ``ablation_suite`` runs its arms so.
- Core budget: while a battery runs, each worker, the caller too, has one
  core (``_one_core``): no replica, and OpenBLAS on one thread. Long dots
  sum in fixed blocks (``tensor.blocked_dot``), so no BLAS call's bits
  depend on its thread count, and every path gives the same bytes.
- A process forks (``_fork``) only outside a battery's workers, where
  ``os.fork`` exists, a second CPU is usable and no other thread is alive
  (``_can_fork``): a fork copies one thread, and a lock another holds
  stays held; otherwise the work runs in-process. A forked child ignores
  SIGINT, and it and every worker thread leave their creator's CPU
  (``_leave_cpu``): on a 2-core VM whose cpusets turn load balancing off,
  they often stayed.

Measurements behind each choice: BENCH_replica.json, BENCH_oracle_overlap.json,
BENCH_battery_fanout.json and BENCH_in_run_mechanisms.json.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import pickle
import tempfile
import threading
import time
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .models import (ConfigError, ModelConfig, SyntheticModel,
                     TwoBlockLinearModel, make_dataset)
from .optim import AgvmAdamW, AgvmSgd, DivergenceError, Modulator, force_unit_mu
from .tensor import blocked_dot, gradients, load_params, pack_params
from .variance import (GroupedGradients, brute_force_variance_oracle,
                       full_variance_estimate, per_sample_gradients,
                       phi_estimate, split_groups)

PHI_EPS = 1e-12


def lr_at(config: ExperimentConfig, t: int) -> float:
    """Learning rate after t completed iterations of a run of ``config``.

    Linear warmup from ``peak_lr()/warmup_iters`` to ``peak_lr()``, then
    multistep or polynomial decay; t lies in [0, max(1, total_iterations)].
    """
    total = max(1, config.total_iterations)
    if t < 0 or t > total:
        raise ConfigError(f"iteration {t} outside [0, {total}]")
    peak = config.peak_lr()
    if config.warmup_iters > 0 and t < config.warmup_iters:
        return peak * (t + 1) / config.warmup_iters
    if config.lr_decay == "multistep":
        drops = sum(1 for m in config.milestones if t >= m)
        return peak * config.decay_factor ** drops
    if config.lr_decay == "poly":
        frac = t / total
        return peak * (1.0 - frac) ** config.poly_power
    raise ConfigError(f"unknown lr decay mode {config.lr_decay!r}")


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
                lrs = [lr_at(self, t) for t in (max(0, self.warmup_iters - 1),
                                                max(0, self.total_iterations - 1))]
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

    def peak_lr(self) -> float:
        """The peak learning rate, base_lr scaled from base_batch to
        batch_size: linearly, or (linear-then-sqrt) linearly up to batch 128
        and by the square root of the batch beyond it."""
        b = self.batch_size
        if self.lr_scaling == "linear":
            return self.base_lr * (b / self.base_batch)
        if self.lr_scaling == "linear-then-sqrt":
            if b <= 128:
                return self.base_lr * (b / self.base_batch)
            return self.base_lr * (128 / self.base_batch) * math.sqrt(b / 128)
        raise ConfigError(f"unknown lr scaling mode {self.lr_scaling!r}")

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


# From this batch size on, every step is two half-batch passes, group 2's in a
# replica process: the replica's per-step cost is about fixed, and the work it
# takes off the run's process grows with the batch (BENCH_replica.json "gate").
REPLICA_MIN_BATCH = 1024

# A side that waits for the other polls its pipe for up to this long before it
# sleeps: an idle vCPU was slow to wake (BENCH_replica.json "processes").
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
    """A forked copy of a run (``_fork``) that computes group 2's half of
    each step, ``half_loss_and_grad(idx, t, 1)``, while the run computes
    group 1's. Per step ``start`` writes the weights and the batch rows into
    a shared buffer and sends t down a command pipe; ``result`` returns the
    loss and packed gradient the replica wrote back. The replica exits on
    EOF of the command pipe, which ``close`` (or the run's death) causes;
    ``close`` reaps it. A replica that fails or exits is raised from
    ``result`` or ``start`` as a ReplicaError.
    """

    def __init__(self, runner: "_Runner"):
        # imported here, where a replica needs it, to keep agvm's import fast
        import mmap

        n, b = runner.w.size, runner.config.batch_size
        # an anonymous mapping is shared with the forked child
        self._shared = mmap.mmap(-1, 8 * (2 * n + 1 + b))
        floats = np.frombuffer(self._shared, np.float64, 2 * n + 1)
        self.w, self.grad, self.loss = floats[:n], floats[n:2 * n], floats[2 * n:]
        self.idx = np.frombuffer(self._shared, np.int64, b, offset=8 * (2 * n + 1))
        self.t = None
        commands, self._commands = os.pipe()
        self._replies, replies = os.pipe()
        try:
            self.pid = _fork(lambda: self._serve(runner, commands, replies))
        except OSError:
            for fd in (commands, self._commands, self._replies, replies):
                os.close(fd)
            raise
        os.close(commands)
        os.close(replies)
        os.set_blocking(self._replies, False)

    def _serve(self, runner: "_Runner", commands: int, replies: int):
        """The replica's life: one half pass per command, until EOF."""
        import traceback

        os.close(self._commands)
        os.close(self._replies)
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


# True while run_battery's workers run: each has one core, so none forks
_one_core = False


def _can_fork() -> bool:
    """Whether this process may fork a worker: it is not one of a battery's
    workers, ``os.fork`` exists, a second CPU is usable, and no other
    thread is alive."""
    return (not _one_core and hasattr(os, "fork") and _usable_cpus() > 1
            and threading.active_count() == 1)


@functools.lru_cache(maxsize=None)
def _openblas() -> tuple:
    """The (get, set) thread-count functions of each OpenBLAS this process
    has loaded, found by path in /proc/self/maps; none without /proc."""
    found = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                         "openblas_{}_num_threads"):
                if hasattr(lib, name.format("set")):
                    get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                    get.argtypes, get.restype = (), ctypes.c_int
                    put.argtypes, put.restype = (ctypes.c_int,), None
                    found.append((get, put))
                    break
    except OSError:
        pass
    return tuple(found)


def _blas_threads(counts) -> list:
    """Set each OpenBLAS's thread count to ``counts`` (one int for all, or
    a list as this returns) and return the counts they had."""
    old = [get() for get, _ in _openblas()]
    for i, (_, set_threads) in enumerate(_openblas()):
        set_threads(counts if isinstance(counts, int) else counts[i])
    return old


def _fork(serve) -> int:
    """Fork a worker process; its pid. The worker ignores SIGINT (a Ctrl-C
    is its creator's to handle), leaves its creator's CPU, runs BLAS on one
    thread, calls ``serve()`` and exits by ``os._exit``: 0, or 1 when
    ``serve`` raised."""
    import signal

    creator_cpu = _current_cpu()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            _leave_cpu(creator_cpu)
            _blas_threads(1)
            serve()
            status = 0
        finally:
            os._exit(status)        # never return into the creator's code
    return pid


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
        # take copies the same rows as fancy indexing, several times faster
        # when the rows are random and out of cache
        return self.model.loss_given_noise(self.inputs.take(idx, axis=0),
                                           self.targets.take(idx, axis=0), masks, noise)

    def batch_loss_and_grad(self, idx: np.ndarray, t: int, drawn: Optional[tuple] = None):
        """One forward/backward over the whole mini-batch; (loss, flat grad)."""
        loss = self.forward(idx, t, drawn)
        return float(loss.data), gradients(loss, self.model.params).packed

    def grouped_loss_and_grad(self, idx: np.ndarray, t: int):
        """One whole-batch backward split by odd/even rows; (loss, flat grad,
        GroupedGradients). Every sample keeps equally many loss elements, so
        twice the odd (even) rows' share of the gradient is the mean of that
        half's per-sample gradients."""
        loss = self.forward(idx, t)
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
        the half takes its own rows of the step's draw. The two halves'
        gradients are G1 and G2, and their means are the whole batch's."""
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
                                 loss=loss, grad_norm_sq=float(blocked_dot(g, g))))
        return rows

    def run(self, train: bool) -> RunResult:
        """The batch-and-trace loop: steps 0..T with updates, or without
        ``train`` only the traced steps 0, tau, ... <= T. A non-finite loss at
        a step t >= 1 halts the run before that step's rows."""
        cfg = self.config
        stride = 1 if train else self.tau
        halves = cfg.batch_size >= REPLICA_MIN_BATCH
        trace = []
        diverged_at, reason = -1, None
        replica = _Replica(self) if halves and _can_fork() else None
        # the run's own OpenBLAS threads would contend with the replica's core
        threads = _blas_threads(1) if replica is not None else None
        try:
            for t in range(0, cfg.total_iterations + 1, stride):
                idx = self.draw_batch()
                eta = lr_at(cfg, max(0, t - 1))
                groups = None
                if halves:
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
                    loss, grad, groups = self.grouped_loss_and_grad(idx, t)
                else:
                    loss, grad = self.batch_loss_and_grad(idx, t)
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
            if replica is not None:
                _blas_threads(threads)
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


class BatteryError(RuntimeError):
    """A battery's worker process exited before it reported one of its runs."""


def _cost(config: ExperimentConfig, train: bool) -> int:
    """A run's cost, from its config alone: levels x proposals x batch size x
    evaluated steps."""
    model = config.model_config()
    steps = config.total_iterations // (1 if train else config.effective_tau()) + 1
    return model.levels * model.proposals * config.batch_size * steps


def _plan(configs: list, train: bool, workers: int) -> list:
    """The config indices each worker runs, worker 0 being the calling
    process: costliest first, each to the least-loaded worker, children
    before the caller on ties."""
    costs = [_cost(config, train) for config in configs]
    loads, plan = [0] * workers, [[] for _ in range(workers)]
    for i in sorted(range(len(configs)), key=lambda i: -costs[i]):
        w = min(range(workers), key=lambda w: (loads[w], w == 0, w))
        loads[w] += costs[i]
        plan[w].append(i)
    return [sorted(runs) for runs in plan]


class _BatteryChild:
    """A forked worker (``_fork``) that runs ``configs[i]`` for each i in
    ``runs`` and reports each run to a temporary file as one pickle,
    ``(i, raised, result or exception)``, up to the first run that raises."""

    def __init__(self, run, configs: list, runs: list):
        self.configs, self.runs = configs, runs
        self.reports = tempfile.TemporaryFile()
        try:
            self.pid = _fork(lambda: self._serve(run))
        except OSError:
            self.reports.close()
            raise

    def _serve(self, run):
        import traceback

        for i in self.runs:
            try:
                report = (i, False, run(self.configs[i]))
            except Exception as exc:
                try:
                    report = (i, True, pickle.loads(pickle.dumps(exc)))
                except Exception:       # an exception that does not survive pickling
                    report = (i, True, RuntimeError(traceback.format_exc()))
            os.write(self.reports.fileno(), pickle.dumps(report))
            if report[1]:
                return

    def collect(self, results: list):
        """Wait for the child to exit and put its results into ``results``;
        raise what one of its runs raised, or BatteryError for the first run
        it never reported."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        self.reports.seek(0)
        lost = list(self.runs)
        while lost:
            try:
                i, raised, value = pickle.load(self.reports)
            except (EOFError, pickle.UnpicklingError):   # the end, or cut short by its death
                config = self.configs[lost[0]]
                raise BatteryError(
                    f"run {lost[0]} of the battery (seed {config.seed}, ablation "
                    f"{config.ablation}) was lost: its worker process exited with code "
                    f"{os.waitstatus_to_exitcode(status)}") from None
            if raised:
                raise value
            results[i] = value
            lost.remove(i)

    def close(self):
        """Kill the child unless it was collected, reap it, and drop its reports."""
        if self.pid is not None:
            os.kill(self.pid, 9)        # SIGKILL
            os.waitpid(self.pid, 0)
        self.reports.close()


def run_battery(configs, train: bool = True) -> list:
    """Each config's ``run_experiment`` result (``variance_trace`` without
    ``train``), in config order, the runs side by side on the calling
    process and forked children, one core each (the module docstring's
    concurrency contract). Every config is validated before any run starts.
    A child's exception is raised here, and the children are killed and
    reaped on every exit. With one usable CPU, without ``os.fork`` or while
    another thread is alive, the runs go in order in the calling process."""
    global _one_core
    configs = list(configs)
    for config in configs:
        config.validate()
    run = run_experiment if train else variance_trace
    workers = min(len(configs), _usable_cpus())
    if workers < 2 or not _can_fork():
        return [run(config) for config in configs]
    plan = _plan(configs, train, workers)
    results, children = [None] * len(configs), []
    _one_core = True
    threads = _blas_threads(1)
    try:
        for runs in plan[1:]:
            children.append(_BatteryChild(run, configs, runs))
        for i in plan[0]:
            results[i] = run(configs[i])
        for child in children:
            child.collect(results)
    finally:
        _one_core = False
        _blas_threads(threads)
        for child in children:
            child.close()
    return results


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
    ones (proposals_1 on a jittered base is the shared arm) are run once,
    the distinct ones side by side (``run_battery``); each arm still gets
    its own summary dict.
    """
    if base_config.head_mode != "shared" or not base_config.pyramid:
        raise ConfigError("ablation_suite needs a shared-head pyramid base config")
    if base_config.ablation != "none":
        raise ConfigError("ablation_suite applies its own arms; set ablation=none")
    keys, distinct = {}, {}
    for arm in ABLATION_ARMS:
        cfg = replace(base_config, ablation=arm)
        keys[arm] = cfg.model_config()
        distinct.setdefault(keys[arm], cfg)
    results = run_battery(distinct.values(), train=False)
    summaries = {key: res.summary for key, res in zip(distinct, results)}
    return {arm: dict(summaries[key]) for arm, key in keys.items()}


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

    After one per-sample pass, a worker thread computes the brute-force
    oracle (generator ``seed + 4``) while this thread averages the estimate
    over resampled mini-batches (generator ``seed + 3``). The worker is
    joined on every exit: its exception is raised from here, and one raised
    by the estimate propagates after the join.
    """
    given = dict(n=n, b=b, resamples=resamples)
    p = dict(BENCHMARK, **{key: value for key, value in given.items() if value is not None})
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
