import gc
from dataclasses import replace

import numpy as np
import pytest

import agvm.models
from agvm.models import (ConfigError, ModelConfig, ModulePartition,
                         SyntheticModel, TwoBlockLinearModel, make_dataset)
from agvm.tensor import (Tensor, add, gradients, masked_select, matmul, multiply,
                         pack_params, relu, squared_error)
from agvm.variance import per_sample_gradients, phi_estimate, split_groups


def plain_mse(model, inputs, targets):
    """Oracle: numpy forward pass of the unmasked K=1 model."""
    c = model.config
    h = inputs
    for w, b in model._trunk:
        h = np.maximum(0.0, h @ w.data + b.data)
    total = 0.0
    count = 0
    width = c.trunk_widths[-1]
    for lvl in range(c.levels):
        f = h
        wdt = width
        for _ in range(lvl):
            f = f @ model._halvers[wdt].data
            wdt //= 2
        if c.pyramid:
            w, b = model._laterals[lvl]
            f = np.maximum(0.0, f @ w.data + b.data)
        (w1, b1), (w2, b2) = model._heads[lvl if c.head_mode == "independent" else 0]
        out = np.maximum(0.0, f @ w1.data + b1.data) @ w2.data + b2.data
        total += ((out - targets) ** 2).sum()
        count += out.size
    return total / count


class TestPartition:
    def test_shared_mode_has_three_modules(self):
        cfg = ModelConfig(levels=3, head_mode="shared", pyramid=True, trunk_widths=(32,))
        partition = SyntheticModel(cfg, seed=0).partition
        assert partition.h == 3
        assert partition.names == ("trunk", "pyramid", "head")
        assert partition.anchor_name == "trunk"

    def test_independent_mode_has_per_level_heads(self):
        cfg = ModelConfig(levels=3, head_mode="independent", trunk_widths=(32,))
        partition = SyntheticModel(cfg, seed=0).partition
        assert partition.h == 5
        assert partition.names == ("trunk", "pyramid", "head_1", "head_2", "head_3")

    def test_no_pyramid_mode(self):
        cfg = ModelConfig(levels=1, pyramid=False)
        partition = SyntheticModel(cfg, seed=0).partition
        assert partition.names == ("trunk", "head")

    def test_same_seed_same_parameters(self):
        cfg = ModelConfig()
        p1 = SyntheticModel(cfg, seed=9).params
        p2 = SyntheticModel(cfg, seed=9).params
        assert np.array_equal(pack_params(p1), pack_params(p2))

    def test_trunk_identical_across_head_modes(self):
        shared = SyntheticModel(ModelConfig(head_mode="shared"), seed=4)
        indep = SyntheticModel(ModelConfig(head_mode="independent"), seed=4)
        for name in ("trunk", "pyramid"):
            ids_s = dict(shared.partition.modules)[name]
            ids_i = dict(indep.partition.modules)[name]
            for a, b in zip(ids_s, ids_i):
                assert np.array_equal(shared.params[a].data, indep.params[b].data)

    def test_partition_coverage_validated(self):
        with pytest.raises(ConfigError, match="exactly one module"):
            ModulePartition(modules=(("a", (0,)), ("b", (0,))), param_sizes=(2, 3))

    def test_anchor_range_validated(self):
        with pytest.raises(ConfigError, match="anchor"):
            ModulePartition(modules=(("a", (0,)), ("b", (1,))), param_sizes=(2, 3),
                            anchor_index=5)

    def test_slices_built_once_and_read_only(self):
        partition = ModulePartition(modules=(("a", (0, 1)), ("b", (2,))), param_sizes=(2, 3, 1))
        slices = partition.slices
        assert partition.slices is slices
        assert dict(slices) == {"a": slice(0, 5), "b": slice(5, 6)}
        with pytest.raises(TypeError):
            slices["a"] = slice(0, 1)

    @pytest.mark.parametrize("modules", [
        pytest.param((("a", (0, 2)), ("b", (1,))), id="interleaved"),
        pytest.param((("a", (1, 2)), ("b", (0,))), id="out-of-order"),
        pytest.param((("a", (1, 0)), ("b", (2,))), id="reversed-run"),
        pytest.param((("a", ()), ("b", (0, 1, 2))), id="empty-module"),
    ])
    def test_non_consecutive_modules_rejected(self, modules):
        with pytest.raises(ConfigError, match="consecutive"):
            ModulePartition(modules=modules, param_sizes=(2, 3, 1))

    def test_module_names_must_be_distinct(self):
        with pytest.raises(ConfigError, match="distinct"):
            ModulePartition(modules=(("a", (0,)), ("a", (1,))), param_sizes=(2, 3))

    @pytest.mark.parametrize("sizes", [(2, -1), (2, 1.5), (2, "3")])
    def test_param_sizes_must_be_non_negative_integers(self, sizes):
        with pytest.raises(ConfigError, match="param_sizes"):
            ModulePartition(modules=(("a", (0,)), ("b", (1,))), param_sizes=sizes)

    def test_both_models_lay_modules_out_contiguously(self):
        for cfg in (ModelConfig(), ModelConfig(head_mode="independent"),
                    ModelConfig(pyramid=False, levels=1)):
            model = SyntheticModel(cfg, seed=0)
            packed = pack_params(model.params)
            for (_, ids), sl in zip(model.partition.modules, model.partition.slices.values()):
                np.testing.assert_array_equal(
                    packed[sl], np.concatenate([model.params[i].data.ravel() for i in ids]))
        assert dict(TwoBlockLinearModel(3, 2, 4, seed=0).partition.slices) == {
            "trunk": slice(0, 6), "head": slice(6, 14)}


class TestConfigValidation:
    @pytest.mark.parametrize("kw,needle", [
        (dict(mask_fraction=1.0), "mask_fraction"),
        (dict(mask_fraction=-0.1), "mask_fraction"),
        (dict(head_mode="both"), "head_mode"),
        (dict(levels=0), "levels"),
        (dict(proposals=0), "proposals"),
        (dict(trunk_widths=()), "trunk_widths"),
        (dict(pyramid=False, levels=2), "single level"),
        (dict(trunk_widths=(30,), levels=4), "divisible"),
    ])
    def test_invalid_configs_name_the_constraint(self, kw, needle):
        with pytest.raises(ConfigError, match=needle):
            ModelConfig(**kw).validate()

    @pytest.mark.parametrize("kw", [
        dict(), dict(pyramid=False, levels=1), dict(head_mode="independent"),
        dict(head_mode="independent", levels=2, trunk_widths=(8,)),
        dict(head_mode="independent", pyramid=False, levels=1),
    ])
    def test_module_count_matches_the_built_partition(self, kw):
        cfg = ModelConfig(**kw)
        assert cfg.module_count == SyntheticModel(cfg, seed=0).partition.h

    def test_huge_level_count_is_rejected_without_building_2_to_the_depth(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(levels=10 ** 12).validate()


class TestForwardLoss:
    def test_unmasked_loss_is_plain_mse(self):
        model = SyntheticModel(ModelConfig(mask_fraction=0.0), seed=3)
        x, y = make_dataset(12, 32, 4, 0.1, 5)
        got = model.loss(x, y, mask_seed=1).data
        np.testing.assert_allclose(got, plain_mse(model, x, y), rtol=1e-12)

    def test_mask_keeps_exact_fraction(self):
        # 8 elements per sample at fraction 0.75 keeps floor(2) per sample
        cfg = ModelConfig(levels=2, output_dim=4, trunk_widths=(32,), mask_fraction=0.75)
        model = SyntheticModel(cfg, seed=0)
        assert model.elements_per_sample == 8
        masks, _ = model.draw_noise(mask_seed=3, batch=16)
        np.testing.assert_array_equal(masks.sum(axis=1), np.full(16, 2))

    @pytest.mark.parametrize("fraction,elements,expect", [
        (0.5, 8, 4), (0.25, 8, 6), (0.9, 8, 1), (0.99, 4, 1), (0.3, 12, 8),
    ])
    def test_mask_count_rule(self, fraction, elements, expect):
        # kept = max(1, floor((1 - p) * elements))
        levels, out = (2, elements // 2)
        cfg = ModelConfig(levels=levels, output_dim=out, trunk_widths=(32,),
                          mask_fraction=fraction)
        model = SyntheticModel(cfg, seed=1)
        masks, _ = model.draw_noise(mask_seed=7, batch=9)
        np.testing.assert_array_equal(masks.sum(axis=1), np.full(9, expect))

    def test_perfect_prediction_zero_loss_any_mask(self):
        cfg = ModelConfig(input_dim=8, levels=1, pyramid=False, trunk_widths=(8,),
                          output_dim=3, head_width=8)
        model = SyntheticModel(cfg, seed=2)
        x = np.random.default_rng(0).normal(0, 1, (5, 8))
        with np.errstate(all="ignore"):
            # evaluate the model's own outputs and use them as targets
            masks, noise = model.draw_noise(0, 5)
            from agvm.tensor import no_grad
            (w1, b1), (w2, b2) = model._heads[0]
            h = x
            for w, b in model._trunk:
                h = np.maximum(0.0, h @ w.data + b.data)
            pred = np.maximum(0.0, h @ w1.data + b1.data) @ w2.data + b2.data
        assert model.loss(x, pred, mask_seed=11).data == 0.0
        masked = SyntheticModel(replace(cfg, mask_fraction=0.6), seed=2)
        assert masked.loss(x, pred, mask_seed=11).data == 0.0

    def test_mask_fraction_changes_the_loss(self):
        x, y = make_dataset(6, 32, 4, 0.1, 5)
        full, masked = (SyntheticModel(ModelConfig(mask_fraction=p), seed=3)
                        .loss(x, y, mask_seed=2).data for p in (0.0, 0.75))
        assert full != masked

    def test_batch_mismatch_rejected(self):
        model = SyntheticModel(ModelConfig(), seed=0)
        x, y = make_dataset(6, 32, 4, 0.1, 5)
        with pytest.raises(ConfigError, match="batch"):
            model.loss(x[:4], y[:5], mask_seed=0)

    def test_masking_reduces_loss_terms_exactly(self):
        cfg = ModelConfig(levels=4, output_dim=4, trunk_widths=(32,), mask_fraction=0.5)
        model = SyntheticModel(cfg, seed=5)
        masks, _ = model.draw_noise(mask_seed=9, batch=32)
        kept = masks.sum()
        assert kept == 32 * max(1, int(np.floor(0.5 * model.elements_per_sample)))

    def test_mask_seed_reproducible(self):
        model = SyntheticModel(ModelConfig(mask_fraction=0.5), seed=0)
        m1, _ = model.draw_noise(123, 8)
        m2, _ = model.draw_noise(123, 8)
        assert np.array_equal(m1, m2)

    def test_proposal_noise_shapes_and_replay(self):
        cfg = ModelConfig(proposals=3, proposal_noise_std=0.25)
        model = SyntheticModel(cfg, seed=0)
        _, n1 = model.draw_noise(7, 4)
        _, n2 = model.draw_noise(7, 4)
        assert n1.shape == (4, 3, 4, 16)
        assert np.array_equal(n1, n2)

    def test_nothing_to_draw_builds_no_generator(self, monkeypatch):
        import agvm.models

        def no_rng(*args):
            raise AssertionError("a generator was built with nothing to draw")

        model = SyntheticModel(ModelConfig(), seed=0)
        monkeypatch.setattr(agvm.models.np.random, "default_rng", no_rng)
        assert model.draw_noise(5, 8) == (None, None)

    def test_noise_off_by_default(self):
        model = SyntheticModel(ModelConfig(proposals=3), seed=0)
        masks, noise = model.draw_noise(7, 4)
        assert masks is None and noise is None


def per_proposal_loss(model, inputs, targets, masks, noise):
    """Reference: one [b, d] head evaluation and one squared error per
    (level, proposal), weighted by that evaluation's kept element count."""
    c = model.config
    h, t = Tensor(inputs), Tensor(targets)
    for w, b in model._trunk:
        h = relu(add(matmul(h, w), b))
    terms = []
    for lvl in range(c.levels):
        feat = model._branch_features(h, lvl)
        for k in range(c.proposals):
            fin = feat if noise is None else add(feat, Tensor(noise[lvl, k]))
            out = model._head_output(fin, lvl)
            if masks is None:
                terms.append((squared_error(out, t), out.size))
                continue
            col = (lvl * c.proposals + k) * c.output_dim
            block = masks[:, col:col + c.output_dim]
            if block.any():
                terms.append((squared_error(masked_select(out, block), masked_select(t, block)),
                              int(block.sum())))
    total = sum(n for _, n in terms)
    loss = multiply(terms[0][0], Tensor(terms[0][1] / total))
    for se, n in terms[1:]:
        loss = add(loss, multiply(se, Tensor(n / total)))
    return loss


class TestStackedProposals:
    @pytest.mark.parametrize("proposals", [1, 2, 8])
    @pytest.mark.parametrize("mask_fraction", [0.0, 0.6])
    @pytest.mark.parametrize("std", [0.0, 0.5])
    @pytest.mark.parametrize("head_mode", ["shared", "independent"])
    def test_equals_one_head_pass_per_proposal(self, proposals, mask_fraction, std, head_mode):
        model = SyntheticModel(ModelConfig(proposals=proposals, mask_fraction=mask_fraction,
                                           proposal_noise_std=std, head_mode=head_mode),
                               seed=proposals)
        x, y = make_dataset(6, 32, 4, 0.1, 4)
        masks, noise = model.draw_noise(9, 6)
        want = per_proposal_loss(model, x, y, masks, noise)
        want_value = want.data
        want_grads = gradients(want, model.params)
        got = model.loss_given_noise(x, y, masks, noise)
        assert got.data == pytest.approx(want_value, rel=1e-14, abs=0)
        for g, w in zip(gradients(got, model.params), want_grads):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-14 * max(1.0, np.abs(w).max()))

    def test_default_model_records_52_ops_and_4_squared_errors(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return squared_error(*args)

        monkeypatch.setattr(agvm.models, "squared_error", counted)
        model = SyntheticModel(ModelConfig(), seed=0)
        x, y = make_dataset(8, 32, 4, 0.1, 1)
        loss = model.loss(x, y, mask_seed=0)
        assert len(loss.tape) == 52
        assert len(calls) == 4

    def test_stacking_adds_one_op_per_level(self):
        # K = 8 stacks each level's proposals: 52 ops plus one noise add per level
        model = SyntheticModel(ModelConfig(proposals=8, proposal_noise_std=0.25), seed=0)
        x, y = make_dataset(8, 32, 4, 0.1, 1)
        assert len(model.loss(x, y, mask_seed=0).tape) == 56


class TestAbandonedForward:
    def test_next_forward_records_one_graph(self):
        model = SyntheticModel(ModelConfig(), seed=0)
        x, y = make_dataset(8, 32, 4, 0.1, 1)
        for seed in range(3):
            loss = model.loss(x, y, mask_seed=seed)
            assert len(loss.tape) == 52
        gradients(loss, model.params)

    def test_abandoned_graphs_are_freed_without_the_cyclic_gc(self):
        model = SyntheticModel(ModelConfig(mask_fraction=0.5), seed=0)
        x, y = make_dataset(8, 32, 4, 0.1, 1)

        def live_tensors():
            return sum(isinstance(o, Tensor) for o in gc.get_objects())

        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            counts = []
            for seed in range(20):
                model.loss(x, y, mask_seed=seed)
                counts.append(live_tensors())
        finally:
            if enabled:
                gc.enable()
        assert max(counts) == counts[0], counts


class TestDataset:
    def test_zero_noise_exactly_linear(self):
        x, y = make_dataset(64, 6, 3, noise_std=0.0, seed=2)
        coef, residuals, *_ = np.linalg.lstsq(x, y, rcond=None)
        np.testing.assert_allclose(x @ coef, y, atol=1e-10)

    def test_seed_reproducible(self):
        a = make_dataset(32, 4, 2, 0.1, 9)
        b = make_dataset(32, 4, 2, 0.1, 9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            make_dataset(1, 4, 2, 0.1, 0)

    def test_noisy_dataset_has_positive_gradient_variance(self):
        # per-sample gradients at init must differ sample to sample
        x, y = make_dataset(1000, 32, 4, noise_std=0.1, seed=3)
        model = SyntheticModel(ModelConfig(), seed=1)
        ps = per_sample_gradients(model, x[:64], y[:64], mask_seed=0)
        variance = ps.var(axis=0).mean()
        assert variance > 0.0


class TestSharingEffect:
    def test_shared_head_sees_less_gradient_noise_than_trunk(self):
        # directional claim at initialization, 20 seeds, batch 64
        wins = 0
        for seed in range(20):
            model = SyntheticModel(ModelConfig(levels=4), seed=200 + seed)
            x, y = make_dataset(256, 32, 4, 0.1, 300 + seed)
            ps = per_sample_gradients(model, x[:64], y[:64], mask_seed=seed)
            est = phi_estimate(split_groups(ps, model.partition), eta=1.0)
            phi = dict(zip(est.names, est.phi))
            wins += phi["head"] < phi["trunk"]
        assert wins >= 16, f"head phi below trunk phi in only {wins}/20 seeds"


class TestTwoBlockLinear:
    def test_modules_and_loss(self):
        model = TwoBlockLinearModel(4, 3, 2, seed=0)
        assert model.partition.names == ("trunk", "head")
        x = np.random.default_rng(1).normal(0, 1, (6, 4))
        y = x @ model.params[0].data @ model.params[1].data
        assert model.loss(x, y, mask_seed=0).data < 1e-28
