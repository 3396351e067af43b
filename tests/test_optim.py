import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agvm.models import ModulePartition
from agvm.optim import (AgvmAdamW, AgvmSgd, DivergenceError, Modulator, OptimizerError,
                        compute_mu, force_unit_mu, load_checkpoint,
                        save_checkpoint, smooth_mu)
from agvm.variance import GroupedGradients


def two_module_partition(sizes=(3, 2)):
    return ModulePartition(modules=(("trunk", (0,)), ("head", (1,))),
                           param_sizes=sizes)


def groups_from(g1, g2, partition, b=4):
    g1, g2 = np.asarray(g1, float), np.asarray(g2, float)
    return GroupedGradients.from_half_means(g1, g2, (g1 + g2) / 2.0, partition, b)


def reference_adamw_step(w, grad, m, v, t, lr, beta1, beta2, eps, lam):
    """Straight-line AdamW oracle, independent of the optimizer module."""
    m = beta1 * m + (1 - beta1) * grad
    v = beta2 * v + (1 - beta2) * grad ** 2
    m_hat = m / (1 - beta1 ** t)
    v_hat = v / (1 - beta2 ** t)
    w = w - lr * (m_hat / np.sqrt(v_hat + eps) + lam * w)
    return w, m, v


class TestComputeMu:
    def make(self, **kw):
        return Modulator(n_modules=3, anchor=0, **kw)

    def test_equal_phi_gives_unit(self):
        mod = self.make()
        raw = compute_mu(np.array([2e-4, 2e-4, 2e-4]), mod)
        np.testing.assert_array_equal(raw, [1.0, 1.0, 1.0])

    def test_ratio_square_root(self):
        mod = self.make()
        raw = compute_mu(np.array([4e-4, 1e-4, 4e-4]), mod)
        assert raw[1] == pytest.approx(2.0, rel=1e-6)

    def test_zero_phi_clipped_to_upper(self):
        mod = self.make()
        raw = compute_mu(np.array([4e-4, 0.0, 1e-4]), mod)
        # raw ratio ~ 2e4 before the clip
        assert raw[1] == 10.0

    def test_huge_phi_clipped_to_lower(self):
        mod = self.make()
        raw = compute_mu(np.array([1e-8, 1.0, 1e-8]), mod)
        assert raw[1] == 0.1

    def test_anchor_exactly_one(self):
        mod = self.make()
        raw = compute_mu(np.array([0.0, 1.0, 2.0]), mod)
        assert raw[0] == 1.0

    def test_invalid_phi_rejected(self):
        mod = self.make()
        with pytest.raises(ValueError):
            compute_mu(np.array([1.0, -0.5, 1.0]), mod)
        with pytest.raises(ValueError):
            compute_mu(np.array([1.0, np.nan, 1.0]), mod)


class TestSmoothMu:
    def test_momentum_blend(self):
        mod = Modulator(n_modules=2, alpha=0.97)
        smooth_mu(mod, np.array([1.0, 2.0]))
        assert mod.mu[1] == pytest.approx(0.97 * 1.0 + 0.03 * 2.0, abs=1e-15)

    def test_alpha_zero_takes_raw(self):
        mod = Modulator(n_modules=2, alpha=0.0)
        smooth_mu(mod, np.array([1.0, 7.5]))
        assert mod.mu[1] == 7.5

    def test_upper_fixpoint(self):
        mod = Modulator(n_modules=2, alpha=0.97)
        mod.mu = np.array([1.0, 10.0])
        smooth_mu(mod, np.array([1.0, 10.0]))
        assert mod.mu[1] == 10.0

    def test_anchor_held_at_one(self):
        mod = Modulator(n_modules=2, alpha=0.5)
        smooth_mu(mod, np.array([1.0, 3.0]))
        assert mod.mu[0] == 1.0

    def test_smoothing_step_bounded(self):
        # |mu_t - mu_{t-1}| <= (1 - alpha) * (clip_hi - clip_lo) per event
        rng = np.random.default_rng(0)
        mod = Modulator(n_modules=4, alpha=0.9)
        bound = (1 - mod.alpha) * (mod.clip_hi - mod.clip_lo)
        for _ in range(500):
            before = mod.mu.copy()
            mod.update(rng.uniform(0, 1e-3, 4))
            assert np.all(np.abs(mod.mu - before) <= bound + 1e-15)


class TestModulatorInvariants:
    def test_adversarial_phi_keeps_clip_and_anchor(self):
        # acceptance: 1000 update events with extreme phi values
        rng = np.random.default_rng(7)
        mod = Modulator(n_modules=5, anchor=0, tau=1)
        extremes = np.array([0.0, 1e-300, 1e300, 5e-324, 1.0, 1e12, 1e-15])
        for step in range(1000):
            phi = rng.choice(extremes, size=5)
            mod.update(phi)
            assert np.all(mod.mu >= mod.clip_lo)
            assert np.all(mod.mu <= mod.clip_hi)
            assert mod.mu[0] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Modulator(n_modules=0)
        with pytest.raises(ValueError):
            Modulator(n_modules=2, alpha=1.0)
        with pytest.raises(ValueError):
            Modulator(n_modules=2, tau=0)
        with pytest.raises(ValueError):
            Modulator(n_modules=2, clip_lo=2.0)
        with pytest.raises(ValueError):
            Modulator(n_modules=2, anchor=5)


class TestSgdStep:
    def test_plain_first_step(self):
        part = two_module_partition((1, 1))
        opt = AgvmSgd(part, beta1=0.0, weight_decay=0.0,
                      modulator=Modulator(2, tau=10))
        w = np.array([1.0, 1.0])
        opt.step(w, np.array([2.0, 2.0]), eta=0.1)
        assert w[0] == pytest.approx(0.8, abs=1e-15)

    def test_doubled_multiplier_on_non_anchor(self):
        part = two_module_partition((1, 1))
        mod = Modulator(2, tau=10)
        mod.mu = np.array([1.0, 2.0])
        opt = AgvmSgd(part, beta1=0.0, weight_decay=0.0, modulator=mod)
        w = np.array([1.0, 1.0])
        opt.step(w, np.array([2.0, 2.0]), eta=0.1)
        assert w[0] == pytest.approx(0.8, abs=1e-15)   # anchor: eta_hat = 0.1
        assert w[1] == pytest.approx(0.6, abs=1e-15)   # head: eta_hat = 0.2

    def test_multiplier_follows_multi_parameter_module(self):
        # trunk owns parameters 0 and 1, so its slice spans both
        part = ModulePartition(modules=(("trunk", (0, 1)), ("head", (2,))),
                               param_sizes=(2, 1, 3))
        mod = Modulator(2, tau=10)
        mod.mu = np.array([1.0, 3.0])
        opt = AgvmSgd(part, beta1=0.0, weight_decay=0.0, modulator=mod)
        w = np.zeros(6)
        opt.step(w, np.ones(6), eta=0.5)
        np.testing.assert_array_equal(w, [-0.5, -0.5, -0.5, -1.5, -1.5, -1.5])

    def test_momentum_first_step(self):
        part = two_module_partition((1, 1))
        opt = AgvmSgd(part, beta1=0.9, weight_decay=0.0, modulator=Modulator(2, tau=10))
        w = np.array([1.0, 1.0])
        opt.step(w, np.array([2.0, 2.0]), eta=0.1)
        np.testing.assert_allclose(opt.m, [0.2, 0.2], atol=1e-15)
        assert w[0] == pytest.approx(0.98, abs=1e-15)

    def test_nonfinite_gradient_names_module(self):
        part = two_module_partition((2, 2))
        opt = AgvmSgd(part, modulator=Modulator(2, tau=10))
        w = np.zeros(4)
        with pytest.raises(DivergenceError, match="module 'head' at step 1"):
            opt.step(w, np.array([0.0, 0.0, np.inf, 0.0]), eta=0.1)

    def test_modulation_step_requires_groups(self):
        part = two_module_partition((1, 1))
        opt = AgvmSgd(part, modulator=Modulator(2, tau=1))
        with pytest.raises(OptimizerError, match="grouped") as info:
            opt.step(np.zeros(2), np.ones(2), eta=0.1)
        # a misuse, not a divergence
        assert not isinstance(info.value, DivergenceError)

    @pytest.mark.parametrize("kind", [AgvmSgd, AgvmAdamW])
    def test_groups_of_other_modules_rejected(self, kind):
        # the same sizes with the names in the other order: phi must not be
        # attributed to modules by position
        other = ModulePartition(modules=(("head", (0,)), ("trunk", (1,))), param_sizes=(1, 1))
        opt = kind(two_module_partition((1, 1)), modulator=Modulator(2, tau=1))
        groups = groups_from([1.0, 2.0], [2.0, 1.0], other)
        with pytest.raises(OptimizerError, match="do not match") as info:
            opt.step(np.zeros(2), np.ones(2), eta=0.1, groups=groups)
        assert not isinstance(info.value, DivergenceError)

    def test_negative_eta_rejected(self):
        part = two_module_partition((1, 1))
        opt = AgvmSgd(part, modulator=Modulator(2, tau=10))
        with pytest.raises(OptimizerError):
            opt.step(np.zeros(2), np.ones(2), eta=-0.1)


class TestAdamWStep:
    def test_first_step_unit_magnitude(self):
        part = two_module_partition((1, 1))
        opt = AgvmAdamW(part, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0,
                        modulator=Modulator(2, tau=10))
        w = np.array([1.0, 1.0])
        opt.step(w, np.array([1.0, 1.0]), eta=0.01)
        # m_hat = v_hat = 1 -> r = 1/sqrt(1 + eps)
        assert w[0] == pytest.approx(1.0 - 0.01 / np.sqrt(1 + 1e-8), abs=1e-12)

    def test_decoupled_decay_alone(self):
        part = two_module_partition((1, 1))
        opt = AgvmAdamW(part, weight_decay=0.05, modulator=Modulator(2, tau=10))
        w = np.array([1.0, 1.0])
        opt.step(w, np.zeros(2), eta=0.01)
        # r = 0, so only the decay term moves the weights
        assert w[0] == pytest.approx(0.9995, abs=1e-15)

    def test_nonfinite_update_names_module(self):
        part = two_module_partition((1, 1))
        opt = AgvmAdamW(part, weight_decay=1e10, modulator=Modulator(2, tau=10))
        w = np.array([0.0, 1.0])
        # eta * decay * w overflows in the second module only
        with pytest.raises(DivergenceError, match="update in module 'head' at step 1"):
            opt.step(w, np.zeros(2), eta=1e300)
        np.testing.assert_array_equal(w, [0.0, 1.0])

    def test_mu_constant_between_updates(self):
        part = two_module_partition((2, 2))
        mod = Modulator(2, tau=10, alpha=0.5)
        opt = AgvmAdamW(part, modulator=mod)
        rng = np.random.default_rng(3)
        w = rng.normal(0, 1, 4)
        snapshots = []
        for t in range(1, 26):
            groups = groups_from(rng.normal(0, 1, 4), rng.normal(0, 1, 4), part)
            opt.step(w, rng.normal(0, 1, 4), eta=0.01, groups=groups)
            snapshots.append(opt.modulator.mu.copy())
        for t in range(1, 26):
            if t % 10 != 0 and t > 1:
                assert np.array_equal(snapshots[t - 1], snapshots[t - 2]), t
        assert not np.array_equal(snapshots[9], snapshots[8])


class TestBaselineReduction:
    def test_pinned_sgd_bit_identical_to_plain(self):
        part = two_module_partition((5, 3))
        mod = Modulator(2, tau=10)
        force_unit_mu(mod)
        opt = AgvmSgd(part, beta1=0.9, weight_decay=1e-4, modulator=mod)

        rng = np.random.default_rng(4)
        w = rng.normal(0, 1, 8)
        w_ref = w.copy()
        m_ref = np.zeros(8)
        for t in range(100):
            grad = rng.normal(0, 1, 8)
            eta = 0.05 / (1 + 0.01 * t)
            opt.step(w, grad, eta=eta)
            m_ref = 0.9 * m_ref + (1.0 - 0.9) * (grad + 1e-4 * w_ref)
            w_ref -= eta * m_ref
        assert np.array_equal(w, w_ref)
        assert np.array_equal(opt.m, m_ref)

    def test_pinned_adamw_matches_reference_oracle(self):
        part = two_module_partition((5, 3))
        mod = Modulator(2, tau=10)
        force_unit_mu(mod)
        opt = AgvmAdamW(part, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01,
                        modulator=mod)

        rng = np.random.default_rng(5)
        w = rng.normal(0, 1, 8)
        w_ref = w.copy()
        m_ref = np.zeros(8)
        v_ref = np.zeros(8)
        for t in range(1, 101):
            grad = rng.normal(0, 1, 8)
            opt.step(w, grad, eta=0.01)
            w_ref, m_ref, v_ref = reference_adamw_step(
                w_ref, grad, m_ref, v_ref, t, 0.01, 0.9, 0.999, 1e-8, 0.01)
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-12)

    def test_equal_phi_keeps_modulated_run_identical(self):
        # identical per-module group vectors give bitwise-equal variance
        # proxies, so every multiplier stays exactly 1
        part = two_module_partition((2, 2))
        opt = AgvmSgd(part, beta1=0.9, weight_decay=0.0,
                      modulator=Modulator(2, tau=5, alpha=0.97))
        rng = np.random.default_rng(6)
        w = rng.normal(0, 1, 4)
        w_ref = w.copy()
        m_ref = np.zeros(4)
        for t in range(1, 51):
            grad = rng.normal(0, 1, 4)
            g1 = np.tile(rng.normal(0, 1, 2), 2)
            g2 = np.tile(rng.normal(0, 1, 2), 2)
            opt.step(w, grad, eta=0.02, groups=groups_from(g1, g2, part))
            m_ref = 0.9 * m_ref + 0.1 * grad
            w_ref -= 0.02 * m_ref
        assert np.array_equal(w, w_ref)
        np.testing.assert_array_equal(opt.modulator.mu, [1.0, 1.0])

    def test_reenabling_updates_at_next_interval(self):
        part = two_module_partition((2, 2))
        mod = Modulator(2, tau=5, alpha=0.0)
        opt = AgvmSgd(part, beta1=0.0, modulator=mod)
        force_unit_mu(mod)
        rng = np.random.default_rng(7)
        w = np.zeros(4)

        def run_step():
            groups = groups_from(rng.normal(0, 1, 4), rng.normal(0, 1, 4), part)
            opt.step(w, rng.normal(0, 1, 4), eta=0.01, groups=groups)

        for _ in range(7):
            run_step()
        assert np.array_equal(mod.mu, [1.0, 1.0])
        mod.pinned = False
        run_step()  # t=8
        run_step()  # t=9
        assert np.array_equal(mod.mu, [1.0, 1.0])
        run_step()  # t=10: modulation fires
        assert mod.mu[1] != 1.0


class TestCheckpoint:
    @pytest.mark.parametrize("kind", ["sgd", "adamw"])
    def test_round_trip_bit_exact(self, tmp_path, kind):
        part = two_module_partition((4, 3))
        mod = Modulator(2, tau=3, alpha=0.7)
        if kind == "sgd":
            opt = AgvmSgd(part, beta1=0.9, weight_decay=1e-4, modulator=mod)
        else:
            opt = AgvmAdamW(part, beta1=0.9, beta2=0.999, weight_decay=0.01,
                            modulator=mod)
        rng = np.random.default_rng(8)
        w = rng.normal(0, 1, 7)

        def drive(o, vec, steps):
            for _ in range(steps):
                groups = groups_from(rng2.normal(0, 1, 7), rng2.normal(0, 1, 7), part)
                o.step(vec, rng2.normal(0, 1, 7), eta=0.03, groups=groups)

        rng2 = np.random.default_rng(9)
        drive(opt, w, 10)
        path = tmp_path / "state.ckpt"
        save_checkpoint(opt, str(path))
        clone = load_checkpoint(str(path))

        w_a, w_b = w.copy(), w.copy()
        rng2 = np.random.default_rng(10)
        drive(opt, w_a, 10)
        rng2 = np.random.default_rng(10)
        drive(clone, w_b, 10)
        assert np.array_equal(w_a, w_b)
        assert np.array_equal(opt.m, clone.m)
        assert np.array_equal(opt.modulator.mu, clone.modulator.mu)
        if kind == "adamw":
            assert np.array_equal(opt.v, clone.v)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(OptimizerError, match="not an optimizer checkpoint"):
            load_checkpoint(str(path))

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text('{"format": "agvm-checkpoint", "version": 99}')
        with pytest.raises(OptimizerError, match="version"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("kind,field,keep", [
        ("sgd", "m", 6), ("sgd", "mu", 1), ("adamw", "v", 6), ("adamw", "m", 0),
        ("adamw", "mu", 3)])
    def test_rejects_fields_that_do_not_match_the_partition(self, tmp_path, kind, field, keep):
        part = two_module_partition((4, 3))
        mod = Modulator(2, tau=3)
        opt = (AgvmSgd(part, modulator=mod) if kind == "sgd"
               else AgvmAdamW(part, modulator=mod))
        path = tmp_path / "state.ckpt"
        save_checkpoint(opt, str(path))
        doc = json.loads(path.read_text())
        holder = doc["modulator"] if field == "mu" else doc
        holder[field] = (holder[field] + holder[field])[:keep]
        path.write_text(json.dumps(doc))
        with pytest.raises(OptimizerError, match=f"'{field}'"):
            load_checkpoint(str(path))


def saved_document(tmp_dir, kind):
    """A checkpoint of a fresh optimizer over a (4, 3)-parameter, two-module
    partition, as a JSON document."""
    part = two_module_partition((4, 3))
    opt = (AgvmSgd if kind == "sgd" else AgvmAdamW)(part, modulator=Modulator(2, tau=3))
    path = tmp_dir / f"{kind}.ckpt"
    save_checkpoint(opt, str(path))
    return json.loads(path.read_text())


DELETE = object()


def edit(doc, keys, value):
    """Replace the entry at ``keys`` (a path of keys and indices) with
    ``value``, or delete it if ``value`` is DELETE."""
    for key in keys[:-1]:
        doc = doc[key]
    if value is DELETE:
        del doc[keys[-1]]
    else:
        doc[keys[-1]] = value


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10 ** 6) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5)


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("kind,keys,value", [
        ("sgd", ["m"], DELETE), ("adamw", ["v"], DELETE), ("sgd", ["modulator", "tau"], DELETE),
        ("sgd", ["partition"], DELETE), ("sgd", ["modulator", "alpha"], "0xzz"),
        ("adamw", ["m", 2], "not hex"), ("sgd", ["beta1"], 0.9), ("sgd", ["step"], "three"),
        ("sgd", ["kind"], "lion"), ("sgd", ["modulator", "tau"], 0),
        ("sgd", ["modulator", "tau"], 2.5), ("adamw", ["step"], 1.9),
        ("sgd", ["modulator", "anchor"], 0.0), ("sgd", ["step"], True),
        ("sgd", ["partition", "param_sizes"], [8, -1]),
        # modules that are not consecutive runs of parameter ids, or share a name
        ("sgd", ["partition", "modules"], [["trunk", [1]], ["head", [0]]]),
        ("adamw", ["partition", "modules"], [["trunk", [0, 1]], ["head", []]]),
        ("sgd", ["partition", "modules"], [["trunk", [0]], ["trunk", [1]]]),
    ])
    def test_raises_optimizer_error_naming_the_path(self, tmp_path, kind, keys, value):
        doc = saved_document(tmp_path, kind)
        edit(doc, keys, value)
        path = tmp_path / "edited.ckpt"
        path.write_text(json.dumps(doc))
        with pytest.raises(OptimizerError, match=re.escape(str(path))):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("content", [b"", b"{", b"[1, 2]", b'"agvm-checkpoint"',
                                         b"\xff\xfe"])
    def test_non_documents_raise_optimizer_error(self, tmp_path, content):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(content)
        with pytest.raises(OptimizerError, match=re.escape(str(path))):
            load_checkpoint(str(path))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["sgd", "adamw"]), delete=st.booleans(),
           value=JSON_VALUES)
    def test_any_edit_loads_or_raises_optimizer_error(self, tmp_path_factory, data, kind,
                                                      delete, value):
        tmp_dir = tmp_path_factory.mktemp("ckpt")
        doc = saved_document(tmp_dir, kind)
        # walk down to one entry of the document and delete or replace it
        keys, node = [], doc
        while True:
            key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                            else range(len(node))))
            keys.append(key)
            node = node[key]
            if not isinstance(node, (dict, list)) or not node or data.draw(st.booleans()):
                break
        edit(doc, keys, DELETE if delete else value)
        path = tmp_dir / "edited.ckpt"
        path.write_text(json.dumps(doc))
        try:
            opt = load_checkpoint(str(path))
        except OptimizerError as exc:
            assert str(exc).startswith(f"{path}: "), exc
        else:
            assert isinstance(opt, (AgvmSgd, AgvmAdamW))

