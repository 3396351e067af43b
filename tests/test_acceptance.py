"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavier directional criteria (6, 7) take a few minutes combined.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from agvm import harness
from agvm.harness import (ExperimentConfig, ablation_suite,
                          emit_csv, oracle_check, run_battery, run_experiment)
from agvm.models import (ModelConfig, ModulePartition, SyntheticModel,
                         make_dataset)
from agvm.optim import AgvmAdamW, AgvmSgd, Modulator, force_unit_mu
from agvm.tensor import (Tensor, add, grad_check, gradients, matmul, relu,
                         squared_error)
from agvm.variance import (GroupedGradients, phi_estimate, split_groups)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {label}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {label}")


def test_01_gradient_correctness():
    with criterion(1, "analytic gradients match central finite differences < 1e-5"):
        start = time.time()
        rng = np.random.default_rng(1234)
        worst = 0.0
        for trial in range(50):
            dims = rng.integers(2, 7, size=4)
            weights = [Tensor(rng.normal(0, 0.8, (dims[i], dims[i + 1])),
                              requires_grad=True) for i in range(3)]
            biases = [Tensor(rng.normal(0, 0.3, dims[i + 1]), requires_grad=True)
                      for i in range(3)]
            x = Tensor(rng.normal(0, 1, (4, dims[0])))
            t = Tensor(rng.normal(0, 1, (4, dims[3])))

            def model():
                h = x
                for i in range(3):
                    h = add(matmul(h, weights[i]), biases[i])
                    if i < 2:
                        h = relu(h)
                return squared_error(h, t)

            err = grad_check(model, weights + biases, probe_count=8, seed=trial)
            worst = max(worst, err)
        elapsed = time.time() - start
        assert worst < 1e-5, f"max relative error {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_02_phi_oracle_equivalence():
    with criterion(2, "phi matches an independent direct implementation < 1e-10"):
        start = time.time()
        rng = np.random.default_rng(77)
        checked = 0
        for case in range(100):
            b = int(rng.choice([2, 4, 8]))
            d1 = int(rng.integers(1, 17))
            d2 = int(rng.integers(1, 17))
            per_sample = rng.normal(0, 1, (b, d1 + d2))
            part = ModulePartition(modules=(("a", (0,)), ("b", (1,))),
                                   param_sizes=(d1, d2))
            est = phi_estimate(split_groups(per_sample, part), eta=1.0)
            for name, sl in (("a", slice(0, d1)), ("b", slice(d1, d1 + d2))):
                g1 = per_sample[0::2, sl].mean(axis=0)
                g2 = per_sample[1::2, sl].mean(axis=0)
                denom = np.linalg.norm(g1) * np.linalg.norm(g2)
                cos = 0.0 if denom < 1e-24 else min(1.0, max(-1.0, float(g1 @ g2) / denom))
                assert abs(est.phi[est.names.index(name)] - (1.0 - cos)) < 1e-10
            checked += 1
        assert checked == 100
        assert time.time() - start < 5.0


def test_03_variance_estimate_vs_brute_force():
    with criterion(3, "variance estimate within 15% of brute-force oracle"):
        start = time.time()
        report = oracle_check(seed=0)
        assert report["max_rel_err"] < 0.15, report
        assert time.time() - start < 60.0


def _partition(sizes=(6, 4)):
    return ModulePartition(modules=(("trunk", (0,)), ("head", (1,))),
                           param_sizes=sizes)


def test_04_baseline_reduction():
    with criterion(4, "pinned multipliers reproduce plain SGD (bits) and AdamW (1e-12)"):
        part = _partition()
        rng = np.random.default_rng(2024)

        mod = Modulator(2, tau=10)
        force_unit_mu(mod)
        sgd = AgvmSgd(part, beta1=0.9, weight_decay=1e-4, modulator=mod)
        w = rng.normal(0, 1, 10)
        w_ref, m_ref = w.copy(), np.zeros(10)
        for t in range(100):
            g = rng.normal(0, 1, 10)
            eta = 0.05 / math.sqrt(1 + t)
            sgd.step(w, g, eta=eta)
            m_ref = 0.9 * m_ref + (1.0 - 0.9) * (g + 1e-4 * w_ref)
            w_ref -= eta * m_ref
        assert np.array_equal(w, w_ref), "SGD trajectories differ at bit level"

        mod = Modulator(2, tau=10)
        force_unit_mu(mod)
        adam = AgvmAdamW(part, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01,
                         modulator=mod)
        w = rng.normal(0, 1, 10)
        w_ref = w.copy()
        m_ref, v_ref = np.zeros(10), np.zeros(10)
        for t in range(1, 101):
            g = rng.normal(0, 1, 10)
            adam.step(w, g, eta=0.01)
            m_ref = 0.9 * m_ref + 0.1 * g
            v_ref = 0.999 * v_ref + 0.001 * g ** 2
            m_hat = m_ref / (1 - 0.9 ** t)
            v_hat = v_ref / (1 - 0.999 ** t)
            w_ref = w_ref - 0.01 * (m_hat / np.sqrt(v_hat + 1e-8) + 0.01 * w_ref)
        assert np.max(np.abs(w - w_ref)) < 1e-12


def test_05_clip_and_anchor_invariants():
    with criterion(5, "1000 adversarial updates keep mu in [0.1, 10], anchor at 1"):
        rng = np.random.default_rng(3)
        part = _partition((4, 4))
        mod = Modulator(2, anchor=0, tau=1, alpha=0.9)
        opt = AgvmSgd(part, beta1=0.9, modulator=mod)
        w = rng.normal(0, 1, 8)
        extremes = [0.0, 5e-324, 1e-300, 1e-15, 1.0, 1e12, 1e300]
        for step in range(1, 1001):
            scale_head = float(rng.choice(extremes))
            scale_trunk = float(rng.choice(extremes))
            g1 = np.concatenate([rng.normal(0, 1, 4) * scale_trunk,
                                 rng.normal(0, 1, 4) * scale_head])
            g2 = np.concatenate([rng.normal(0, 1, 4) * scale_trunk,
                                 rng.normal(0, 1, 4) * scale_head])
            groups = GroupedGradients.from_half_means(g1, g2, (g1 + g2) / 2.0, part, b=8)
            opt.step(w, rng.normal(0, 1, 8), eta=1e-4, groups=groups)
            assert np.all(mod.mu >= 0.1) and np.all(mod.mu <= 10.0), step
            assert mod.mu[0] == 1.0, step


# shared-head pyramid run for the directional criteria
MISALIGNMENT = dict(levels=4, batch_size=256, total_iterations=2000,
                    input_dim=32, trunk_widths=(32,), head_width=16, output_dim=4,
                    n_samples=2048, noise_std=0.1, optimizer="sgd",
                    base_lr=0.08, warmup_iters=50, milestones=(800, 1200, 1600),
                    decay_factor=0.3, tau=5)


@pytest.mark.slow
def test_06_misalignment_and_modulation_convergence():
    with criterion(6, "head phi below trunk phi and |log mu| shrinking, 16/20 seeds"):
        start = time.time()
        phi_wins = 0
        mu_wins = 0
        configs = [ExperimentConfig(seed=seed, agvm_enabled=agvm, **MISALIGNMENT)
                   for seed in range(20) for agvm in (False, True)]
        results = run_battery(configs)
        for seed in range(20):
            res, res2 = results[2 * seed], results[2 * seed + 1]
            assert res.summary["status"] == "ok", f"seed {seed} diverged"
            phi_wins += (res.summary["phi_avg_head"] < res.summary["phi_avg_trunk"])

            assert res2.summary["status"] == "ok", f"seed {seed} diverged (modulated)"
            mus = [row.mu for row in res2.trace if row.module == "head" and row.iter >= 1]
            half = len(mus) // 2
            first = np.mean([abs(math.log(m)) for m in mus[:half]])
            second = np.mean([abs(math.log(m)) for m in mus[half:]])
            mu_wins += (first > 0 and second <= 0.7 * first)
        elapsed = time.time() - start
        assert phi_wins >= 16, f"phi direction held in {phi_wins}/20 seeds"
        assert mu_wins >= 16, f"|log mu| shrank 30% in {mu_wins}/20 seeds"
        assert elapsed < 600.0, f"took {elapsed:.0f}s"


ABLATION_BASE = dict(levels=4, batch_size=256, total_iterations=200,
                     input_dim=32, trunk_widths=(32,), head_width=32, output_dim=8,
                     n_samples=2048, noise_std=0.1, optimizer="sgd",
                     base_lr=0.08, warmup_iters=20, milestones=(), tau=5,
                     proposal_noise_std=2.0, agvm_enabled=False)


@pytest.mark.slow
def test_07_ablation_directions():
    with criterion(7, "ablation arms reorder the phi gap as expected, 16/20 seeds"):
        start = time.time()
        wins = {"independent": 0, "mask": 0, "proposals": 0}
        for seed in range(20):
            base = ExperimentConfig(seed=seed, ablation="none", **ABLATION_BASE)
            gaps = {arm: summary["phi_gap"]
                    for arm, summary in ablation_suite(base).items()}
            wins["independent"] += gaps["independent_heads"] < gaps["shared"]
            wins["mask"] += gaps["mask_75"] < gaps["shared"]
            wins["proposals"] += gaps["proposals_8"] > gaps["proposals_1"]
        elapsed = time.time() - start
        assert wins["independent"] >= 16, wins
        assert wins["mask"] >= 16, wins
        assert wins["proposals"] >= 16, wins
        assert elapsed < 900.0, f"took {elapsed:.0f}s"


def test_08_schedule_reproduction():
    with criterion(8, "batch-scaled peak learning rates hit the reference points"):
        sched = ExperimentConfig(base_lr=0.04, base_batch=32, lr_scaling="linear-then-sqrt")
        for batch, expected in ((32, 0.04), (256, 0.226), (512, 0.32), (1024, 0.452)):
            got = replace(sched, batch_size=batch).peak_lr()
            assert abs(got - expected) / expected < 0.005, (batch, got)


def _quadratic_running_mean(optimizer_name, total_steps, seed):
    """Mean of |grad f(w_t)|^2 over a run on f(w) = mean_j 0.5 |w - c_j|^2
    with eta = 1/sqrt(T) and beta1 = 0."""
    rng = np.random.default_rng(seed)
    dim, n, b, tau = 16, 512, 8, 10
    centers = rng.normal(0.0, 1.0, (n, dim))
    center_mean = centers.mean(axis=0)
    part = ModulePartition(modules=(("trunk", (0,)), ("head", (1,))),
                           param_sizes=(dim // 2, dim // 2))
    mod = Modulator(2, tau=tau, alpha=0.97)
    if optimizer_name == "sgd":
        opt = AgvmSgd(part, beta1=0.0, weight_decay=0.0, modulator=mod)
    else:
        opt = AgvmAdamW(part, beta1=0.0, beta2=1.0 - 1.0 / total_steps,
                        eps=1e-8, weight_decay=0.0, modulator=mod)
    eta = 1.0 / math.sqrt(total_steps)
    w = center_mean + 3.0
    acc = 0.0
    for t in range(1, total_steps + 1):
        idx = rng.integers(0, n, size=b)
        per_sample = w - centers[idx]
        g = per_sample.mean(axis=0)
        groups = split_groups(per_sample, part) if t % tau == 0 else None
        opt.step(w, g, eta=eta, groups=groups)
        diff = w - center_mean
        acc += float(diff @ diff)
    return acc / total_steps


@pytest.mark.parametrize("optimizer_name", ["sgd", "adamw"])
def test_09_convergence_rate_direction(optimizer_name):
    with criterion(9, f"running mean of |grad|^2 halves from T=1e3 to T=1e4 ({optimizer_name})"):
        start = time.time()
        for seed in range(5):
            short = _quadratic_running_mean(optimizer_name, 1_000, 100 + seed)
            long = _quadratic_running_mean(optimizer_name, 10_000, 100 + seed)
            assert long <= 0.5 * short, (optimizer_name, seed, short, long)
        assert time.time() - start < 120.0


def test_10_determinism(tmp_path, monkeypatch):
    with criterion(10, "same config and seed give byte-identical CSVs, any worker count"):
        cfg = ExperimentConfig(total_iterations=60, batch_size=32, n_samples=256,
                               input_dim=16, trunk_widths=(16,), levels=2, head_width=8,
                               warmup_iters=5, tau=10, seed=5, mask_fraction=0.25)
        forks, fork = [], harness._fork

        def counted(serve):
            forks.append(fork(serve))
            return forks[-1]

        monkeypatch.setattr(harness, "_fork", counted)
        can_fork = harness._can_fork()
        # twice in-process, then twice as a battery: where a second CPU is
        # usable, one of the battery's runs is in a forked child
        results = [run_experiment(cfg), run_experiment(cfg)] + run_battery([cfg, cfg])
        assert len(forks) == int(can_fork)
        paths = []
        for run, res in enumerate(results):
            path = tmp_path / f"run{run}.csv"
            emit_csv(res.trace, str(path))
            paths.append(path.read_bytes())
        assert paths[1:] == [paths[0]] * 3
