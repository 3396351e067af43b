import contextlib
import functools
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agvm import harness
from agvm.harness import (ExperimentConfig, ReplicaError, TraceRow,
                          ablation_suite, config_from_pairs, emit_csv, load_config, lr_at,
                          phi_gap, read_csv, run_experiment, summary_text,
                          variance_trace)
from agvm.models import ConfigError
from agvm.optim import AgvmAdamW, AgvmSgd, OptimizerError
from agvm.tensor import gradients
from test_benchmark_contract import _load

FAST = dict(total_iterations=40, batch_size=16, n_samples=128, trunk_widths=(16,),
            levels=2, input_dim=8, head_width=8, warmup_iters=5, tau=10)

# The benchmark's large-batch run.
LARGE_BATCH = _load("workloads").LARGE_BATCH


class TestLrSchedule:
    def sched(self, **kw):
        base = dict(base_lr=0.04, base_batch=32, warmup_iters=0,
                    lr_scaling="linear-then-sqrt", total_iterations=1000, batch_size=32)
        base.update(kw)
        return ExperimentConfig(**base)

    @pytest.mark.parametrize("batch,peak", [
        (32, 0.04), (256, 0.226), (512, 0.32), (1024, 0.452),
    ])
    def test_reference_peaks_within_half_percent(self, batch, peak):
        got = self.sched(batch_size=batch).peak_lr()
        assert abs(got - peak) / peak < 0.005

    def test_linear_mode(self):
        assert self.sched(lr_scaling="linear", batch_size=256).peak_lr() == pytest.approx(0.32)

    def test_linear_below_threshold(self):
        assert self.sched(batch_size=64).peak_lr() == pytest.approx(0.08)

    def test_warmup_starts_at_peak_over_warmup(self):
        s = self.sched(warmup_iters=10)
        assert lr_at(s, 0) == pytest.approx(0.004)
        assert lr_at(s, 9) == pytest.approx(0.04)

    def test_warmup_monotone_then_multistep_decay(self):
        s = self.sched(warmup_iters=50, lr_decay="multistep", milestones=(200, 400),
                       decay_factor=0.1)
        lrs = [lr_at(s, t) for t in range(0, 500)]
        assert all(b >= a for a, b in zip(lrs[:50], lrs[1:50]))
        assert all(b <= a for a, b in zip(lrs[50:], lrs[51:]))
        assert lrs[250] == pytest.approx(0.004)
        assert lrs[450] == pytest.approx(0.0004)

    def test_poly_decay(self):
        s = self.sched(lr_decay="poly", poly_power=0.9, total_iterations=100)
        assert lr_at(s, 0) == pytest.approx(0.04)
        assert lr_at(s, 50) == pytest.approx(0.04 * 0.5 ** 0.9)

    def test_out_of_range_iteration(self):
        with pytest.raises(ConfigError):
            lr_at(self.sched(), 2000)


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_unknown_key_is_hard_error(self):
        # the removed workers key is as unknown as a typo
        for key in ("typo_key", "workers"):
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                config_from_pairs({key: "1"})

    def test_coercions(self):
        cfg = config_from_pairs({
            "batch_size": "64", "noise_std": "0.25", "pyramid": "false",
            "trunk_widths": "16,8", "milestones": "100,200", "head_mode": "independent",
        })
        assert cfg.batch_size == 64
        assert cfg.noise_std == 0.25
        assert cfg.pyramid is False
        assert cfg.trunk_widths == (16, 8)
        assert cfg.milestones == (100, 200)

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="boolean"):
            config_from_pairs({"pyramid": "maybe"})

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nbatch_size = 32\nseed = 5  # inline comment\n\n"
                        "optimizer = adamw\n")
        cfg = load_config(str(path), env={})
        assert cfg.batch_size == 32 and cfg.seed == 5 and cfg.optimizer == "adamw"

    def test_file_syntax_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("batch_size 32\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(str(path), env={})

    def test_env_seed_override(self):
        cfg = load_config(None, env={"AGVM_SEED": "777"})
        assert cfg.seed == 777

    def test_cli_override_beats_env(self):
        cfg = load_config(None, overrides={"seed": "9"}, env={"AGVM_SEED": "777"})
        assert cfg.seed == 9

    def test_validation_failures(self):
        with pytest.raises(ConfigError, match="even"):
            ExperimentConfig(batch_size=7).validate()
        with pytest.raises(ConfigError, match="exceeds"):
            ExperimentConfig(batch_size=512, n_samples=128).validate()
        with pytest.raises(ConfigError, match="optimizer"):
            ExperimentConfig(optimizer="lion").validate()
        with pytest.raises(ConfigError, match="ablation"):
            ExperimentConfig(ablation="sideways").validate()

    @pytest.mark.parametrize("fields,needles", [
        (dict(levels=0, base_lr=-1), ["levels", "base_lr"]),
        (dict(head_mode="both", alpha=2.0, mask_fraction=1.0),
         ["head_mode", "alpha", "mask_fraction"]),
        (dict(trunk_widths=(6,), seed=-1), ["divisible", "seed"]),
    ])
    def test_model_violations_listed_with_the_others(self, fields, needles):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(**fields).validate()
        message = str(info.value)
        assert message.startswith("invalid experiment config: ")
        assert [n for n in needles if n not in message] == []

    def test_tau_default_rule(self):
        assert ExperimentConfig(tau=0, batch_size=256).effective_tau() == 10
        assert ExperimentConfig(tau=0, batch_size=2048, n_samples=4096).effective_tau() == 5
        assert ExperimentConfig(tau=7).effective_tau() == 7

    def test_ablation_field_spellings(self):
        assert ExperimentConfig(ablation="mask_75").model_config().mask_fraction == 0.75
        assert ExperimentConfig(ablation="no_pyramid").model_config().pyramid is False
        assert ExperimentConfig(ablation="shared").model_config() == \
            ExperimentConfig().model_config()
        # the proposal arms always jitter: the base std, or 0.25 without one
        eight = ExperimentConfig(ablation="proposals_8").model_config()
        assert (eight.proposals, eight.proposal_noise_std) == (8, 0.25)
        one = ExperimentConfig(ablation="proposals_1", proposal_noise_std=2.0).model_config()
        assert (one.proposals, one.proposal_noise_std) == (1, 2.0)
        # the fields themselves are keys; "mask" and "mask:<f>" are not arms
        for spelling in ("mask", "proposals", "mask:0.5", "proposals:4"):
            with pytest.raises(ConfigError, match="expected 'none' or one of shared"):
                ExperimentConfig(ablation=spelling).validate()


# (key, value, text the ConfigError must contain); each value once ended in
# a traceback, a fake divergence or a silent run
INVALID_VALUES = [
    ("anchor", "5", "anchor"), ("anchor", "-1", "anchor"), ("clip_lo", "2", "clip_lo"),
    ("clip_lo", "0", "clip_lo"), ("clip_hi", "0.5", "clip_hi"), ("alpha", "1.0", "alpha"),
    ("beta1", "-0.1", "beta1"), ("beta2", "1.0", "beta2"), ("eps_ratio", "0", "eps_ratio"),
    ("eps_adam", "-1e-8", "eps_adam"), ("batch_size", "abc", "batch_size"),
    ("n_samples", "1e3", "n_samples"), ("trunk_widths", "32,x", "trunk_widths"),
    ("milestones", "1,,2", "milestones"), ("base_lr", "-1", "base_lr"),
    ("base_lr", "inf", "base_lr"), ("noise_std", "nan", "noise_std"),
    ("noise_std", "-0.1", "noise_std"), ("decay_factor", "nan", "decay_factor"),
    ("decay_factor", "-0.3", "decay_factor"), ("weight_decay", "inf", "weight_decay"),
    ("seed", "-1", "seed"), ("dataset_seed", "-1", "dataset_seed"),
    ("base_batch", "0", "base_batch"), ("warmup_iters", "-1", "warmup_iters"),
    ("lr_decay", "step", "lr_decay"), ("lr_scaling", "sqrt", "lr_scaling"),
    ("ablation", "mask:abc", "mask:abc"), ("ablation", "proposals:1e3", "proposals:1e3"),
    ("proposal_noise_std", "nan", "proposal_noise_std"),
    ("levels", "100000000000", "levels"),
    ("poly_power", "-2", "poly_power"), ("weight_decay", "-1e-4", "weight_decay"),
    ("milestones", "100,-5", "milestones"), ("ablation", "mask", "proposals_8"),
]


class TestConfigSurface:
    @pytest.mark.parametrize("key,value,needle", INVALID_VALUES)
    def test_invalid_value_is_a_config_error(self, key, value, needle):
        overrides = {"total_iterations": "20", "warmup_iters": "5", key: value}
        with pytest.raises(ConfigError, match=re.escape(needle)):
            load_config(None, overrides=overrides, env={})

    @settings(max_examples=300, deadline=None)
    @given(base_lr=st.sampled_from([0.0, 0.04, 1e300, 2e307, 1e308]),
           decay_factor=st.sampled_from([0.0, 0.1, 1.0, 1e10, 1e200, 1e308]),
           milestones=st.lists(st.integers(0, 12), max_size=3).map(tuple),
           total=st.integers(0, 10), warmup=st.integers(0, 3),
           scaling=st.sampled_from(["linear", "linear-then-sqrt"]),
           decay=st.sampled_from(["multistep", "poly"]), batch=st.sampled_from([16, 512]))
    def test_a_config_validates_iff_every_evaluated_lr_is_finite(
            self, base_lr, decay_factor, milestones, total, warmup, scaling, decay, batch):
        cfg = ExperimentConfig(base_lr=base_lr, decay_factor=decay_factor,
                               milestones=milestones, total_iterations=total,
                               warmup_iters=warmup if warmup < total else 0,
                               lr_scaling=scaling, lr_decay=decay, batch_size=batch)

        def finite(t):
            try:
                return math.isfinite(lr_at(cfg, t))
            except OverflowError:
                return False

        every_lr_finite = all(finite(t) for t in range(max(1, total)))
        try:
            cfg.validate()
        except ConfigError as exc:
            assert not every_lr_finite
            for key in ("base_lr", "decay_factor", "milestones"):
                assert key in str(exc)
        else:
            assert every_lr_finite

    def test_anchor_may_be_any_module(self):
        assert ExperimentConfig(anchor=2).model_config().module_count == 3
        ExperimentConfig(anchor=2).validate()
        ExperimentConfig(anchor=5, ablation="independent_heads").validate()
        with pytest.raises(ConfigError, match="anchor"):
            ExperimentConfig(anchor=2, ablation="no_pyramid").validate()

    @settings(max_examples=500, deadline=None)
    @given(pairs=st.dictionaries(st.sampled_from([f.name for f in fields(ExperimentConfig)]),
                                 st.one_of(
                                     st.text(),
                                     st.integers().map(str),
                                     st.floats().map(repr),
                                     st.lists(st.integers(-2, 70), max_size=3).map(
                                         lambda v: ",".join(map(str, v))),
                                     st.sampled_from(["true", "no", "adamw", "poly", "linear",
                                                      "independent", "mask:0.5", "proposals:0",
                                                      "proposals:3", "no_pyramid"])),
                                 max_size=3))
    def test_any_text_for_any_key_validates_or_is_a_config_error(self, pairs):
        # validate() only: a config that validates may still be too big to build
        try:
            config_from_pairs(pairs).validate()
        except ConfigError:
            pass


class TestRunExperiment:
    def test_zero_iterations_traces_only_init(self):
        cfg = ExperimentConfig(total_iterations=0, warmup_iters=0, batch_size=16,
                               n_samples=64, trunk_widths=(16,), levels=2,
                               input_dim=8, head_width=8)
        res = run_experiment(cfg)
        assert [row.iter for row in res.trace] == [0, 0, 0]
        assert res.summary["status"] == "ok"

    def test_deterministic_trace(self):
        cfg = ExperimentConfig(**FAST)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.trace == b.trace
        assert a.final_loss == b.final_loss

    def test_trace_row_count(self):
        cfg = ExperimentConfig(**FAST)
        res = run_experiment(cfg)
        h = 3  # trunk, pyramid, head
        assert len(res.trace) == (cfg.total_iterations // 10 + 1) * h

    def test_divergence_flags_nan_summary(self):
        cfg = ExperimentConfig(**{**FAST, "base_lr": 1e9, "warmup_iters": 0})
        res = run_experiment(cfg)
        assert res.summary["status"] == "NaN"
        assert res.summary["diverged_at"] >= 1
        assert res.summary["diverged_reason"].startswith("non-finite loss")

    def test_divergence_reason_names_the_module(self):
        # the first AdamW update, lr * decay * w, overflows
        cfg = ExperimentConfig(**{**FAST, "optimizer": "adamw", "base_lr": 1e300,
                                  "weight_decay": 1e10, "warmup_iters": 0})
        res = run_experiment(cfg)
        assert res.summary["status"] == "NaN"
        assert res.summary["diverged_at"] == 1
        assert res.summary["diverged_reason"] == "non-finite update in module 'trunk' at step 1"

    def test_ok_summary_has_no_divergence_reason(self):
        res = run_experiment(ExperimentConfig(**FAST))
        assert res.summary["status"] == "ok"
        assert "diverged_reason" not in res.summary

    def test_other_optimizer_errors_propagate(self, monkeypatch):
        def failing_step(self, *args, **kwargs):
            raise OptimizerError("step 1 is a modulation step but no grouped gradients were given")

        monkeypatch.setattr(AgvmSgd, "step", failing_step)
        with pytest.raises(OptimizerError, match="grouped"):
            run_experiment(ExperimentConfig(**FAST))

    def test_diverged_step_is_not_counted_as_run(self, monkeypatch):
        completed = []
        step = AgvmSgd.step

        def counting_step(self, *args, **kwargs):
            out = step(self, *args, **kwargs)
            completed.append(1)
            return out

        monkeypatch.setattr(AgvmSgd, "step", counting_step)
        cfg = ExperimentConfig(**{**FAST, "base_lr": 1e9, "warmup_iters": 0})
        res = run_experiment(cfg)
        assert res.summary["status"] == "NaN"
        assert res.summary["iterations_run"] == res.summary["diverged_at"] - 1 == len(completed)
        assert all(row.iter < res.summary["diverged_at"] for row in res.trace)

    def test_modulated_run_keeps_mu_in_clip_range(self):
        cfg = ExperimentConfig(**FAST, agvm_enabled=True)
        res = run_experiment(cfg)
        mus = [row.mu for row in res.trace]
        assert all(0.1 <= m <= 10.0 for m in mus)
        anchor_mus = [row.mu for row in res.trace if row.module == "trunk"]
        assert all(m == 1.0 for m in anchor_mus)

    def test_adamw_runs(self):
        cfg = ExperimentConfig(**FAST, optimizer="adamw", base_lr=0.001)
        res = run_experiment(cfg)
        assert res.summary["status"] == "ok"

    def test_summary_has_per_module_stats(self):
        res = run_experiment(ExperimentConfig(**FAST))
        for name in ("trunk", "pyramid", "head"):
            assert f"phi_avg_{name}" in res.summary
            assert f"mean_abs_log_mu_{name}" in res.summary
        assert "phi_gap" in res.summary
        assert "final_loss" in res.summary


class TestVarianceTrace:
    def test_rows_and_no_updates(self):
        cfg = ExperimentConfig(**FAST)
        res = variance_trace(cfg)
        assert all(row.mu == 1.0 for row in res.trace)
        iters = sorted({row.iter for row in res.trace})
        assert iters == [0, 10, 20, 30, 40]


class TestRunLoop:
    """Training and update-free traces share one loop; the update-free mode
    draws one batch per traced step and never updates."""

    @settings(max_examples=25, deadline=None)
    @given(optimizer=st.sampled_from(["sgd", "adamw"]), agvm=st.booleans(),
           tau=st.integers(1, 4), total=st.integers(0, 9), seed=st.integers(0, 2 ** 31),
           arm=st.sampled_from([{}, dict(mask_fraction=0.5),
                                dict(proposals=3, proposal_noise_std=0.25),
                                dict(mask_fraction=0.75, proposals=2, proposal_noise_std=0.5)]))
    def test_update_free_rows_are_fresh_batches_at_the_initial_parameters(
            self, optimizer, agvm, tau, total, seed, arm):
        cfg = ExperimentConfig(**{**FAST, "warmup_iters": 0, "optimizer": optimizer,
                                  "agvm_enabled": agvm, "tau": tau,
                                  "total_iterations": total, "seed": seed, **arm})
        traced = list(range(0, total + 1, tau))
        free, trained = variance_trace(cfg), run_experiment(cfg)
        assert trained.summary["status"] == "ok"
        for res in (free, trained):
            assert sorted({row.iter for row in res.trace}) == traced
        for k, t in enumerate(traced):
            fresh = harness._Runner(cfg)
            for _ in range(k + 1):
                idx = fresh.draw_batch()
            loss, _, groups = fresh.grouped_loss_and_grad(idx, t)
            eta = lr_at(cfg, max(0, t - 1))
            want = fresh.trace_rows(t, loss, groups, fresh.opt.modulator.mu, eta)
            assert [row for row in free.trace if row.iter == t] == want
        # step 0 is the same batch at the same parameters in both modes
        assert [row for row in trained.trace if row.iter == 0] == \
            [row for row in free.trace if row.iter == 0]

    def test_finished_run_summary_keys(self):
        cfg = ExperimentConfig(**FAST)
        stats = {f"{stat}_{name}" for stat in ("phi_avg", "mean_abs_log_mu", "phi_late_ratio")
                 for name in ("trunk", "pyramid", "head")} | {"phi_gap"}
        assert set(run_experiment(cfg).summary) == stats | {
            "status", "diverged_at", "final_loss", "iterations_run"}
        assert set(variance_trace(cfg).summary) == stats | {"status", "final_loss"}

    def test_non_finite_loss_halts_an_update_free_run(self):
        # step 0's loss is not checked, in either mode
        cfg = ExperimentConfig(**{**FAST, "noise_std": 1e300, "warmup_iters": 0})
        res = variance_trace(cfg)
        assert res.summary["status"] == "NaN"
        assert res.summary["diverged_at"] == 10
        assert res.summary["diverged_reason"] == "non-finite loss inf at step 10"
        assert {row.iter for row in res.trace} == {0}
        for arm, summary in ablation_suite(cfg).items():
            assert summary["status"] == "NaN", arm


def record_in_threads(monkeypatch) -> list:
    """Route the harness's worker threads (``_InThread``) through a subclass
    that keeps every thread it starts in the returned list."""
    threads = []

    class Recorded(harness._InThread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(harness, "_InThread", Recorded)
    return threads


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no thread CPU affinity")
class TestInThread:
    """A worker restricts itself to its process's CPUs other than the one its
    creator ran on."""

    def test_the_worker_runs_off_its_creators_cpu(self):
        allowed = os.sched_getaffinity(0)
        worker = harness._InThread(os.sched_getaffinity, 0)
        cpus = worker.result()
        if worker.creator_cpu is None or allowed == {worker.creator_cpu}:
            assert cpus == allowed
        else:
            assert cpus == allowed - {worker.creator_cpu}
        assert os.sched_getaffinity(0) == allowed

    @pytest.mark.parametrize("cpu,allowed,made", [
        (None, {0, 1}, []), (1, {1}, []), (1, {0, 1}, [{0}]), (2, {0, 1, 2, 3}, [{0, 1, 3}]),
    ])
    def test_leave_cpu(self, monkeypatch, cpu, allowed, made):
        calls = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(allowed))
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append(set(cpus)))
        harness._leave_cpu(cpu)
        assert calls == made

    def test_a_refused_affinity_still_runs_the_call(self, monkeypatch):
        def refuse(pid, cpus):
            raise PermissionError("not permitted")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        monkeypatch.setattr(harness, "_current_cpu", lambda: 0)
        assert harness._InThread(divmod, 7, 2).result() == (3, 1)


class TestInlineDraw:
    """Every step draws its masks and noise inline, through _Runner.draw: no
    run starts a worker thread, and a failing draw is raised from run()."""

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_a_failing_draw_is_raised_from_run(self, monkeypatch, k):
        runner = harness._Runner(ExperimentConfig(**FAST, proposals=2, proposal_noise_std=0.5))
        seed_of = functools.partial(harness._mask_seed, runner.config.seed)
        real, calls = runner.model.draw_noise, []
        err = MemoryError("no room for the noise")

        def failing(seed, batch):
            calls.append(seed)
            if seed == seed_of(k):
                raise err
            return real(seed, batch)

        monkeypatch.setattr(runner.model, "draw_noise", failing)
        with pytest.raises(MemoryError) as raised:
            runner.run(train=True)
        assert raised.value is err
        # steps 0 .. k, each drawn once, in order
        assert calls == [seed_of(t) for t in range(k + 1)]

    @pytest.mark.parametrize("arm", [
        # levels x proposals x batch x head input = 4 x 4 x 256 x 16 = 2**16
        pytest.param(dict(proposals=4, proposal_noise_std=0.25, total_iterations=20,
                          warmup_iters=0, tau=5), id="large-noise"),
        pytest.param(dict(FAST, proposals=3, proposal_noise_std=0.25), id="small-noise"),
        pytest.param(FAST, id="no-noise"),
    ])
    def test_no_run_starts_a_thread(self, monkeypatch, arm):
        threads = record_in_threads(monkeypatch)
        run_experiment(ExperimentConfig(**arm))
        variance_trace(ExperimentConfig(**arm))
        assert threads == []


needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2, reason="needs fork and two usable CPUs")


def record_replicas(monkeypatch) -> list:
    """Route the harness's replicas (``_Replica``) through a subclass that
    keeps the pid of every replica it forks in the returned list."""
    pids = []

    class Recorded(harness._Replica):
        def __init__(self, runner):
            super().__init__(runner)        # returns only in the run's process
            pids.append(self.pid)

    monkeypatch.setattr(harness, "_Replica", Recorded)
    return pids


@contextlib.contextmanager
def one_usable_cpu():
    """Restrict the calling thread to one CPU for the block."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def in_replica(parent: int, k: int, t: int) -> bool:
    """Whether this call is the replica's half pass of step k."""
    return os.getpid() != parent and t == k


@needs_fork
class TestReplica:
    """From REPLICA_MIN_BATCH on, a step is two half passes, group 2's in a
    forked replica; every output equals the in-process run's, and the
    replica is reaped on every exit from run()."""

    @staticmethod
    def outputs(cfg, train: bool, path) -> tuple:
        res = harness._Runner(cfg).run(train)
        emit_csv(res.trace, str(path))
        return path.read_bytes(), summary_text(res.summary), repr(res.final_loss)

    @settings(max_examples=30, deadline=None)
    @given(optimizer=st.sampled_from(["sgd", "adamw"]), agvm=st.booleans(), train=st.booleans(),
           proposals=st.integers(1, 4), std=st.sampled_from([0.0, 0.5]),
           mask=st.sampled_from([0.0, 0.5, 0.75]), tau=st.integers(1, 4),
           total=st.integers(0, 9), base_lr=st.sampled_from([0.04, 1e9]),
           seed=st.integers(0, 2 ** 31))
    def test_the_replica_changes_no_output(self, tmp_path_factory, optimizer, agvm, train,
                                           proposals, std, mask, tau, total, base_lr, seed):
        cfg = ExperimentConfig(**{**FAST, "warmup_iters": 0, "optimizer": optimizer,
                                  "agvm_enabled": agvm, "proposals": proposals,
                                  "proposal_noise_std": std, "mask_fraction": mask,
                                  "tau": tau, "total_iterations": total,
                                  "base_lr": base_lr, "seed": seed})
        path = tmp_path_factory.mktemp("replica") / "trace.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "REPLICA_MIN_BATCH", 2)
            pids = record_replicas(mp)
            forked = self.outputs(cfg, train, path)
            assert len(pids) == 1 and reaped(pids[0])
            with one_usable_cpu():
                alone = self.outputs(cfg, train, path)
            assert len(pids) == 1
        assert forked == alone

    @pytest.mark.parametrize("arm", [
        pytest.param({}, id="none"),
        pytest.param(dict(mask_fraction=0.75), id="mask:0.75"),
        pytest.param(dict(proposals=4, proposal_noise_std=0.25), id="proposals:4"),
        pytest.param(dict(head_mode="independent"), id="independent_heads"),
    ])
    def test_half_passes_are_twice_the_row_group_halves(self, arm):
        runner = harness._Runner(ExperimentConfig(**LARGE_BATCH, **arm))
        for t in (0, 5):
            idx = runner.draw_batch()
            loss, grad, groups = runner.grouped_loss_and_grad(idx, t)
            (l1, g1), (l2, g2) = (runner.half_loss_and_grad(idx, t, part) for part in (0, 1))
            for name, sl in runner.partition.slices.items():
                # the half passes sum each half's rows in their own order
                scale = np.abs(groups.g1[name]).max() + np.abs(groups.g2[name]).max()
                np.testing.assert_allclose(g1[sl], groups.g1[name], rtol=0, atol=1e-13 * scale)
                np.testing.assert_allclose(g2[sl], groups.g2[name], rtol=0, atol=1e-13 * scale)
            np.testing.assert_allclose((g1 + g2) / 2.0, grad, rtol=0,
                                       atol=1e-13 * np.abs(grad).max())
            assert (l1 + l2) / 2.0 == pytest.approx(loss, rel=1e-13, abs=0)

    def test_the_gate_is_the_batch_size(self, monkeypatch):
        # the benchmark's batch-256 workloads stay below it, batch 2048 above
        assert 256 < harness.REPLICA_MIN_BATCH <= 2048
        pids = record_replicas(monkeypatch)
        at = ExperimentConfig(**{**LARGE_BATCH, "batch_size": harness.REPLICA_MIN_BATCH,
                                 "total_iterations": 0, "warmup_iters": 0})
        run_experiment(replace(at, batch_size=harness.REPLICA_MIN_BATCH - 2))
        assert pids == []
        run_experiment(at)
        variance_trace(at)
        assert len(pids) == 2 and all(map(reaped, pids))

    def test_a_process_with_another_thread_runs_both_halves_itself(self, monkeypatch,
                                                                   tmp_path):
        monkeypatch.setattr(harness, "REPLICA_MIN_BATCH", 2)
        pids = record_replicas(monkeypatch)
        cfg = ExperimentConfig(**FAST, mask_fraction=0.5)
        forked = self.outputs(cfg, True, tmp_path / "a.csv")
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            alone = self.outputs(cfg, True, tmp_path / "b.csv")
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()
        assert len(pids) == 1
        assert forked == alone

    def test_the_replica_runs_off_the_runs_cpu(self, monkeypatch):
        # the replica reports its CPUs through the one channel back: a failure
        monkeypatch.setattr(harness, "REPLICA_MIN_BATCH", 2)
        monkeypatch.setattr(harness, "_current_cpu", lambda: min(os.sched_getaffinity(0)))
        parent, real = os.getpid(), harness._Runner.half_loss_and_grad

        def report(self, idx, t, part, drawn=None):
            if os.getpid() != parent:
                raise RuntimeError(f"cpus={sorted(os.sched_getaffinity(0))}")
            return real(self, idx, t, part, drawn)

        monkeypatch.setattr(harness._Runner, "half_loss_and_grad", report)
        allowed = os.sched_getaffinity(0)
        with pytest.raises(ReplicaError, match=re.escape(
                f"cpus={sorted(allowed - {min(allowed)})}")):
            run_experiment(ExperimentConfig(**FAST))
        assert os.sched_getaffinity(0) == allowed

    @pytest.mark.parametrize("fails", [False, True], ids=["ok", "replica-error"])
    def test_the_run_keeps_one_blas_thread_while_its_replica_lives(self, monkeypatch, fails):
        monkeypatch.setattr(harness, "REPLICA_MIN_BATCH", 2)
        real_set, real_half = harness._blas_threads, harness._Runner.half_loss_and_grad
        parent, calls, seen = os.getpid(), [], []

        def recorded(counts):
            calls.append(counts)
            return real_set(counts)

        def probe(self, idx, t, part, drawn=None):
            if os.getpid() == parent:
                seen.append([get() for get, _ in harness._openblas()])
            elif fails and t == 2:
                raise MemoryError("no room for the half pass")
            return real_half(self, idx, t, part, drawn)

        monkeypatch.setattr(harness, "_blas_threads", recorded)
        monkeypatch.setattr(harness._Runner, "half_loss_and_grad", probe)
        before = real_set(2)
        try:
            with pytest.raises(ReplicaError) if fails else contextlib.nullcontext():
                variance_trace(ExperimentConfig(**{**FAST, "tau": 1}))
            after = [get() for get, _ in harness._openblas()]
        finally:
            real_set(before)
        blas = len(harness._openblas())
        assert calls == [1, [2] * blas]
        assert seen and all(counts == [1] * blas for counts in seen)
        assert after == [2] * blas

    @pytest.mark.parametrize("train", [True, False])
    def test_a_diverging_run_reaps_its_replica(self, monkeypatch, train):
        monkeypatch.setattr(harness, "REPLICA_MIN_BATCH", 2)
        pids = record_replicas(monkeypatch)
        cfg = ExperimentConfig(**{**FAST, "warmup_iters": 0, "base_lr": 1e9, "tau": 1})
        summary = harness._Runner(cfg).run(train).summary
        assert summary["status"] == ("NaN" if train else "ok")
        assert len(pids) == 1 and reaped(pids[0])

    @pytest.mark.parametrize("optimizer", [AgvmSgd, AgvmAdamW])
    def test_an_error_in_the_run_reaps_its_replica(self, monkeypatch, optimizer):
        monkeypatch.setattr(harness, "REPLICA_MIN_BATCH", 2)
        pids = record_replicas(monkeypatch)
        err = OptimizerError("the step failed")
        steps = []

        def failing(self, *args, **kwargs):
            steps.append(1)
            if len(steps) == 3:
                raise err

        monkeypatch.setattr(optimizer, "step", failing)
        cfg = ExperimentConfig(**FAST, optimizer="sgd" if optimizer is AgvmSgd else "adamw")
        with pytest.raises(OptimizerError) as raised:
            run_experiment(cfg)
        assert raised.value is err
        assert len(pids) == 1 and reaped(pids[0])

    @pytest.mark.parametrize("k", [0, 3])
    def test_a_failing_replica_is_raised_from_run(self, monkeypatch, k):
        monkeypatch.setattr(harness, "REPLICA_MIN_BATCH", 2)
        pids = record_replicas(monkeypatch)
        parent, real = os.getpid(), harness._Runner.half_loss_and_grad

        def failing(self, idx, t, part, drawn=None):
            if in_replica(parent, k, t):
                raise MemoryError("no room for the half pass")
            return real(self, idx, t, part, drawn)

        monkeypatch.setattr(harness._Runner, "half_loss_and_grad", failing)
        with pytest.raises(ReplicaError, match=f"at step {k}: Traceback(.|\n)*"
                                               "MemoryError: no room for the half pass"):
            run_experiment(ExperimentConfig(**FAST))
        assert len(pids) == 1 and reaped(pids[0])

    @pytest.mark.parametrize("how,code", [("exit", 3), ("kill", -signal.SIGKILL)])
    def test_a_replica_that_dies_is_raised_from_run(self, monkeypatch, how, code):
        monkeypatch.setattr(harness, "REPLICA_MIN_BATCH", 2)
        pids = record_replicas(monkeypatch)
        parent, real = os.getpid(), harness._Runner.half_loss_and_grad

        def dying(self, idx, t, part, drawn=None):
            if in_replica(parent, 2, t):
                if how == "exit":
                    os._exit(3)
                os.kill(os.getpid(), signal.SIGKILL)
            return real(self, idx, t, part, drawn)

        monkeypatch.setattr(harness._Runner, "half_loss_and_grad", dying)
        with pytest.raises(ReplicaError, match=f"at step 2: it exited with code {code}$"):
            variance_trace(ExperimentConfig(**{**FAST, "tau": 1}))
        assert len(pids) == 1 and reaped(pids[0])

    def test_the_replica_ignores_an_interrupt(self, monkeypatch):
        # a Ctrl-C reaches the whole process group; handling it is the run's
        monkeypatch.setattr(harness, "REPLICA_MIN_BATCH", 2)
        cfg = ExperimentConfig(**FAST)
        want = run_experiment(cfg).trace
        parent, real = os.getpid(), harness._Runner.half_loss_and_grad

        def interrupted(self, idx, t, part, drawn=None):
            if in_replica(parent, 2, t):
                os.kill(os.getpid(), signal.SIGINT)
            return real(self, idx, t, part, drawn)

        monkeypatch.setattr(harness._Runner, "half_loss_and_grad", interrupted)
        assert run_experiment(cfg).trace == want

    def test_a_killed_run_leaves_no_replica(self):
        from conftest import child_pids

        script = ("import sys\n"
                  "from agvm import harness\n"
                  "harness.REPLICA_MIN_BATCH = 2\n"
                  "cfg = harness.ExperimentConfig(batch_size=16, n_samples=128,\n"
                  "                               total_iterations=10 ** 9)\n"
                  "print('started', flush=True)\n"
                  "harness.run_experiment(cfg)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.Popen([sys.executable, "-c", script], env=env,
                               stdout=subprocess.PIPE, text=True)
        try:
            assert run.stdout.readline() == "started\n"
            deadline = time.monotonic() + 30
            while not child_pids(run.pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            replicas = child_pids(run.pid)
            assert len(replicas) == 1
            time.sleep(0.2)             # mid-run
            assert run.poll() is None
        finally:
            run.kill()
            run.wait(30)
            run.stdout.close()
        replica, = replicas
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                with open(f"/proc/{replica}/stat", "rb") as fh:
                    state = fh.read().rsplit(b")", 1)[1].split()[0]
            except FileNotFoundError:
                break
            if state == b"Z":           # exited; its new parent has not reaped it yet
                break
            time.sleep(0.01)
        else:
            pytest.fail(f"replica {replica} outlived its killed run by 30 s")


def record_battery_children(monkeypatch) -> list:
    """Route run_battery's children (``_BatteryChild``) through a subclass
    that keeps the pid of every child it forks in the returned list."""
    pids = []

    class Recorded(harness._BatteryChild):
        def __init__(self, *args):
            super().__init__(*args)         # returns only in the caller
            pids.append(self.pid)

    monkeypatch.setattr(harness, "_BatteryChild", Recorded)
    return pids


def no_in_run_concurrency(monkeypatch):
    """Make any worker that starts a worker thread or forks a replica fail
    its run."""
    def refused(*args, **kwargs):
        raise AssertionError("a battery worker started in-run concurrency")

    monkeypatch.setattr(harness, "_InThread", refused)
    monkeypatch.setattr(harness, "_Replica", refused)


def in_child(parent: int, cfg, seed: int) -> bool:
    """Whether this is a battery child running the config of ``seed``."""
    return os.getpid() != parent and cfg.seed == seed


# update-free traces of five seeds: with two workers, the run of seed 0
# (costliest: 4 proposals) goes to the child, seeds 1-4 stay in the caller
BATTERY = [ExperimentConfig(**{**FAST, "tau": 1, "seed": seed, "proposals": 4 if seed == 0 else 1,
                               "proposal_noise_std": 0.5})
           for seed in range(5)]


@needs_fork
class TestBattery:
    """run_battery runs independent runs in the caller and forked children,
    one core each; every output equals the in-process loop's, errors come
    back as raised, and no child outlives it."""

    @staticmethod
    def outputs(results, tmp_path) -> list:
        out = []
        for res in results:
            emit_csv(res.trace, str(tmp_path / "trace.csv"))
            out.append(((tmp_path / "trace.csv").read_bytes(), summary_text(res.summary)))
        return out

    @settings(max_examples=12, deadline=None)
    @given(train=st.booleans(), seeds=st.lists(st.integers(0, 2 ** 31), min_size=1, max_size=3),
           mask=st.sampled_from([0.0, 0.5]), tau=st.integers(1, 3), total=st.integers(0, 6),
           base_lr=st.sampled_from([0.04, 1e9]))
    def test_the_fan_out_changes_no_output(self, tmp_path_factory, train, seeds, mask, tau,
                                           total, base_lr):
        small = dict(FAST, warmup_iters=0, mask_fraction=mask, tau=tau, total_iterations=total,
                     base_lr=base_lr)
        configs = [ExperimentConfig(**small, seed=seed) for seed in seeds]
        configs += [
            # two half passes per step, one of them in a replica out of a battery
            ExperimentConfig(**{**small, "batch_size": harness.REPLICA_MIN_BATCH,
                                "n_samples": harness.REPLICA_MIN_BATCH, "seed": seeds[0]}),
            # large noise: 2 levels x 8 proposals x 256 rows x 16 head inputs
            ExperimentConfig(**{**small, "batch_size": 256, "n_samples": 256, "head_width": 16,
                                "proposals": 8, "proposal_noise_std": 0.5, "seed": seeds[-1]}),
        ]
        tmp_path = tmp_path_factory.mktemp("battery")
        with pytest.MonkeyPatch.context() as mp:
            pids = record_battery_children(mp)
            no_in_run_concurrency(mp)
            forked = self.outputs(harness.run_battery(configs, train), tmp_path)
        assert len(pids) == min(len(configs), len(os.sched_getaffinity(0))) - 1
        assert all(map(reaped, pids))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_usable_cpus", lambda: 1)
            alone = self.outputs(harness.run_battery(configs, train), tmp_path)
        assert forked == alone

    def test_the_costliest_run_goes_to_a_child(self):
        base = ExperimentConfig(**_load("workloads").ABLATION_BASE)
        arms = [replace(base, ablation=arm) for arm in
                ("shared", "independent_heads", "no_pyramid", "mask_75", "proposals_8")]
        assert harness._plan(arms, False, 2) == [[0, 1, 2, 3], [4]]
        assert harness._plan(arms, False, 1) == [[0, 1, 2, 3, 4]]
        # equal costs: children first, then the least-loaded worker
        assert harness._plan(BATTERY[1:], True, 3) == [[2], [0, 3], [1]]

    def test_the_budget_and_blas_threads_are_restored(self, monkeypatch):
        threads = harness._blas_threads(1)
        harness._blas_threads(threads)
        seen = []

        def probe(cfg):
            seen.append((harness._one_core, harness._can_fork(), harness._blas_threads(1)))
            return variance_trace(cfg)

        monkeypatch.setattr(harness, "variance_trace", probe)
        harness.run_battery(BATTERY[:2], train=False)
        assert seen == [(True, False, [1] * len(threads))]      # the caller's share
        assert harness._one_core is False
        assert harness._blas_threads(threads) == threads

    def test_a_config_error_in_a_child_is_raised_as_one(self, monkeypatch):
        pids = record_battery_children(monkeypatch)
        parent = os.getpid()

        def failing(cfg):
            if in_child(parent, cfg, 0):
                raise ConfigError("no such arm in the child")
            return variance_trace(cfg)

        monkeypatch.setattr(harness, "variance_trace", failing)
        with pytest.raises(ConfigError, match="^no such arm in the child$"):
            harness.run_battery(BATTERY, train=False)
        assert len(pids) == 1 and reaped(pids[0])

    def test_an_invalid_config_fails_before_any_run(self, monkeypatch):
        pids = record_battery_children(monkeypatch)
        with pytest.raises(ConfigError, match="batch_size must be even"):
            harness.run_battery(BATTERY + [replace(BATTERY[0], batch_size=3)])
        assert pids == []

    def test_a_killed_child_names_its_run(self, monkeypatch):
        pids = record_battery_children(monkeypatch)
        parent = os.getpid()

        def killed(cfg):
            if in_child(parent, cfg, 0):
                os.kill(os.getpid(), signal.SIGKILL)
            return variance_trace(cfg)

        monkeypatch.setattr(harness, "variance_trace", killed)
        with pytest.raises(harness.BatteryError, match=re.escape(
                "run 0 of the battery (seed 0, ablation none) was lost: its worker process "
                f"exited with code {-signal.SIGKILL}")):
            harness.run_battery(BATTERY, train=False)
        assert len(pids) == 1 and reaped(pids[0])

    @pytest.mark.parametrize("error", [KeyboardInterrupt, OptimizerError])
    def test_the_callers_exit_kills_its_children(self, monkeypatch, error):
        pids = record_battery_children(monkeypatch)
        parent = os.getpid()

        def stuck_or_failing(cfg):
            if in_child(parent, cfg, 0):
                time.sleep(60)
            if os.getpid() == parent:
                raise error("stop")
            return variance_trace(cfg)

        monkeypatch.setattr(harness, "variance_trace", stuck_or_failing)
        start = time.monotonic()
        with pytest.raises(error):
            harness.run_battery(BATTERY, train=False)
        assert time.monotonic() - start < 30
        assert len(pids) == 1 and reaped(pids[0])

    def test_a_child_ignores_an_interrupt_and_leaves_the_callers_cpu(self, monkeypatch):
        monkeypatch.setattr(harness, "_current_cpu", lambda: min(os.sched_getaffinity(0)))
        parent = os.getpid()

        def interrupted(cfg):
            res = variance_trace(cfg)
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGINT)
                res.summary["cpus"] = sorted(os.sched_getaffinity(0))
            return res

        want = [variance_trace(cfg).summary for cfg in BATTERY]
        monkeypatch.setattr(harness, "variance_trace", interrupted)
        got = [res.summary for res in harness.run_battery(BATTERY, train=False)]
        allowed = os.sched_getaffinity(0)
        assert got[0].pop("cpus") == sorted(allowed - {min(allowed)})
        assert got == want
        assert os.sched_getaffinity(0) == allowed

    def test_a_process_with_another_thread_runs_in_order_in_process(self, monkeypatch):
        pids = record_battery_children(monkeypatch)
        order = []

        def counted(cfg):
            order.append(cfg.seed)
            return variance_trace(cfg)

        monkeypatch.setattr(harness, "variance_trace", counted)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            harness.run_battery(BATTERY, train=False)
        finally:
            release.set()
            other.join(10)
        assert pids == [] and order == [0, 1, 2, 3, 4]


class TestCsv:
    def rows(self):
        return [TraceRow(0, "trunk", 0.1 + 1e-17, 1.0, 0.32, 1.5, 2.0),
                TraceRow(10, "head", 1.0 / 3.0, 0.5, 0.16, 0.75, np.pi)]

    def test_header_only_for_empty_trace(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv([], str(path))
        assert path.read_text() == "iter,module,phi,mu,eff_lr,loss,grad_norm_sq\n"

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv(self.rows(), str(path))
        back = read_csv(str(path))
        assert back == self.rows()

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv(self.rows(), str(path))
        assert b"\r" not in path.read_bytes()

    def test_unwritable_path_errors_with_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv([], str(tmp_path / "no" / "such" / "dir" / "t.csv"))

    def test_run_to_csv_determinism(self, tmp_path):
        cfg = ExperimentConfig(**FAST)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(cfg).trace, str(p1))
        emit_csv(run_experiment(cfg).trace, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestAblationSuite:
    def test_arms_and_phi_gap_present(self):
        base = ExperimentConfig(**FAST)
        results = ablation_suite(base)
        assert set(results) == {"shared", "independent_heads", "no_pyramid",
                                "mask_75", "proposals_1", "proposals_8"}
        for arm, summary in results.items():
            assert "phi_gap" in summary, arm
            assert summary["status"] == "ok", arm

    def test_requires_shared_pyramid_base(self):
        with pytest.raises(ConfigError, match="shared-head pyramid"):
            ablation_suite(ExperimentConfig(**{**FAST, "pyramid": False, "levels": 1}))
        with pytest.raises(ConfigError, match="ablation=none"):
            ablation_suite(ExperimentConfig(**FAST, ablation="mask_75"))

    def test_shared_arm_is_the_observed_baseline(self):
        # the default suite observes frozen parameters, so the shared arm
        # reproduces a plain variance trace of the base config exactly
        base = ExperimentConfig(**FAST)
        results = ablation_suite(base)
        assert results["shared"]["phi_gap"] == variance_trace(base).summary["phi_gap"]

    @pytest.mark.parametrize("std,runs", [(2.0, 5), (0.0, 6)])
    def test_equal_arms_run_once(self, monkeypatch, std, runs):
        # on a jittered base proposals_1 resolves to the shared arm's model;
        # one usable CPU keeps every run in this process, where calls lands
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        calls = []

        def counted(cfg):
            calls.append(cfg.ablation)
            return variance_trace(cfg)

        monkeypatch.setattr(harness, "variance_trace", counted)
        results = ablation_suite(ExperimentConfig(**FAST, proposal_noise_std=std))
        assert len(calls) == runs
        assert len(results) == 6
        assert len({id(summary) for summary in results.values()}) == 6
        if runs == 5:
            assert results["proposals_1"] == results["shared"]

    @needs_fork
    @pytest.mark.parametrize("std,runs", [(2.0, 5), (0.0, 6)])
    def test_equal_arms_run_once_across_workers(self, monkeypatch, std, runs):
        # each worker stamps the runs it does into their summaries
        counter = iter(range(100))

        def stamped(cfg):
            res = variance_trace(cfg)
            res.summary["ran"] = (os.getpid(), next(counter))
            return res

        monkeypatch.setattr(harness, "variance_trace", stamped)
        results = ablation_suite(ExperimentConfig(**FAST, proposal_noise_std=std))
        ran = {summary["ran"] for summary in results.values()}
        assert len(ran) == runs
        assert len({pid for pid, _ in ran}) == 2
        assert len({id(summary) for summary in results.values()}) == 6
        if runs == 5:
            assert results["proposals_1"] == results["shared"]


class TestSummaryText:
    def test_flat_key_value_block(self):
        text = summary_text({"b": 1.5, "a": "ok", "c": 2})
        assert text.splitlines() == ["a=ok", "b=1.5", "c=2"]


class TestPhiGap:
    def test_positive_when_heads_are_quieter(self):
        trace = [TraceRow(5, "trunk", 0.4, 1, 0.1, 1, 1),
                 TraceRow(5, "head", 0.1, 1, 0.1, 1, 1)]
        assert phi_gap(trace) == pytest.approx(math.log(0.4 / 0.1), rel=1e-9)

    def test_multiple_heads_averaged(self):
        trace = [TraceRow(5, "trunk", 0.4, 1, 0.1, 1, 1),
                 TraceRow(5, "head_1", 0.1, 1, 0.1, 1, 1),
                 TraceRow(5, "head_2", 0.3, 1, 0.1, 1, 1)]
        assert phi_gap(trace) == pytest.approx(math.log(0.4 / 0.2), rel=1e-9)

    def test_none_without_usable_rows(self):
        assert phi_gap([TraceRow(0, "trunk", 0.4, 1, 0.1, 1, 1)]) is None


def two_half_passes(runner, idx, t):
    """The odd/even half-batch gradients from one backward pass per half."""
    x, y = runner.inputs[idx], runner.targets[idx]
    masks, noise = runner.model.draw_noise(harness._mask_seed(runner.config.seed, t), len(idx))
    halves = []
    for offset in (0, 1):
        m = None if masks is None else masks[offset::2]
        nz = None if noise is None else noise[:, :, offset::2, :]
        loss = runner.model.loss_given_noise(x[offset::2], y[offset::2], m, nz)
        halves.append((float(loss.data), gradients(loss, runner.model.params).packed))
    return halves


class TestMaskSeed:
    def test_not_derived_when_nothing_is_drawn(self, monkeypatch):
        calls = []

        def counted(seed, t):
            calls.append(t)
            return 0

        monkeypatch.setattr(harness, "_mask_seed", counted)
        run_experiment(ExperimentConfig(**FAST))
        assert calls == []

    @pytest.mark.parametrize("arm", [
        pytest.param(dict(mask_fraction=0.5), id="mask:0.5"),
        pytest.param(dict(proposals=3, proposal_noise_std=0.25), id="proposals:3"),
    ])
    def test_drawn_randomness_is_unchanged(self, monkeypatch, arm):
        calls = []
        real = harness._mask_seed

        def counted(seed, t):
            calls.append(t)
            return real(seed, t)

        monkeypatch.setattr(harness, "_mask_seed", counted)
        runner = harness._Runner(ExperimentConfig(**FAST, **arm))
        for t in (0, 3):
            idx = runner.draw_batch()
            got = runner.forward(idx, t).data
            drawn = runner.model.draw_noise(real(runner.config.seed, t), len(idx))
            want = runner.model.loss_given_noise(runner.inputs[idx], runner.targets[idx],
                                                 *drawn).data
            assert got == want
        assert calls == [0, 3]


def test_forward_gathers_the_batch_rows_bit_for_bit(monkeypatch):
    runner = harness._Runner(ExperimentConfig(**FAST))
    seen = []
    monkeypatch.setattr(runner.model, "loss_given_noise",
                        lambda x, y, masks, noise: seen.append((x, y)))
    idx = runner.draw_batch()
    runner.forward(idx, 0)
    (x, y), = seen
    for got, full in ((x, runner.inputs), (y, runner.targets)):
        want = full[idx]
        assert got.shape == want.shape and got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestGroupedPass:
    @pytest.mark.parametrize("arm", [
        pytest.param({}, id="none"),
        pytest.param(dict(mask_fraction=0.75), id="mask:0.75"),
        pytest.param(dict(proposals=8, proposal_noise_std=0.25), id="proposals:8"),
        pytest.param(dict(head_mode="independent"), id="independent_heads"),
    ])
    def test_pair_groups_equal_two_half_passes(self, arm):
        # bit-exact at the default model sizes, where OpenBLAS rounds each
        # row of a product alike whatever the row count; at some widths
        # ([256, 32] @ [32, 8]) it does not, and the halves then differ from
        # the whole batch in the last bit
        runner = harness._Runner(ExperimentConfig(batch_size=64, n_samples=256, **arm))
        for t in (0, 5):
            batch = runner.draw_batch()
            loss, grad, groups = runner.grouped_loss_and_grad(batch, t)
            (l1, g1), (l2, g2) = two_half_passes(runner, batch, t)
            for name, sl in runner.partition.slices.items():
                np.testing.assert_array_equal(groups.g1[name], g1[sl])
                np.testing.assert_array_equal(groups.g2[name], g2[sl])
            np.testing.assert_array_equal(grad, (g1 + g2) / 2.0)
            # the loss is the whole-batch mean, the half means' average re-associated
            assert loss == pytest.approx(0.5 * (l1 + l2), rel=1e-15, abs=0)
