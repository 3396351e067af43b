"""Synthetic multi-module regression models.

A trunk MLP feeds N pyramid branches. Branch i pair-averages the trunk
features i-1 times (so deeper branches see coarser, smoother inputs),
projects them to a common width with a branch-specific lateral matrix, and
a prediction head maps them to the output. The head is either one parameter
set shared by every branch or an independent set per branch: sharing
multiplies the number of gradient-contributing evaluations the head sees
per optimization step, which is the mechanism these models exist to expose.

Optional per-step randomness: a fraction of output elements can be masked
out of the loss (at least one survives per sample), and each branch can be
evaluated ``proposals`` times on independently noised copies of its
features. A level's K proposals are one head evaluation on a ``[K*b, d]``
stack: row ``k*b + j`` is proposal k of sample j, built by repeating the
branch features over K row blocks and adding the noise, with the targets
(and each level's mask columns) laid out the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from .tensor import (Tensor, add, masked_select, matmul, multiply, new_graph,
                     relu, squared_error)


class ConfigError(ValueError):
    """A configuration violates one of its declared constraints."""


@dataclass(frozen=True)
class ModelConfig:
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

    def validate(self):
        bad = []
        if self.input_dim < 1:
            bad.append(f"input_dim must be >= 1, got {self.input_dim}")
        if not self.trunk_widths or any(w < 1 for w in self.trunk_widths):
            bad.append(f"trunk_widths must be non-empty positive, got {self.trunk_widths}")
        if self.levels < 1:
            bad.append(f"levels must be >= 1, got {self.levels}")
        if self.head_width < 1:
            bad.append(f"head_width must be >= 1, got {self.head_width}")
        if self.output_dim < 1:
            bad.append(f"output_dim must be >= 1, got {self.output_dim}")
        if self.head_mode not in ("shared", "independent"):
            bad.append(f"head_mode must be 'shared' or 'independent', got {self.head_mode!r}")
        if not 0.0 <= self.mask_fraction < 1.0:
            bad.append(f"mask_fraction must lie in [0, 1), got {self.mask_fraction}")
        if self.proposals < 1:
            bad.append(f"proposals must be >= 1, got {self.proposals}")
        if not (np.isfinite(self.proposal_noise_std) and self.proposal_noise_std >= 0):
            bad.append(f"proposal_noise_std must be finite and >= 0, got {self.proposal_noise_std}")
        if not self.pyramid and self.levels != 1:
            bad.append(f"pyramid=false feeds a single level; set levels=1 (got {self.levels})")
        if self.pyramid and self.levels >= 1 and self.trunk_widths:
            depth = self.levels - 1
            trunk_out = self.trunk_widths[-1]
            # depth >= bit_length means 2^depth > trunk_out, checked without
            # building a 2^depth integer for a huge level count
            if (trunk_out < 1 or depth >= int(trunk_out).bit_length()
                    or trunk_out % (1 << depth) != 0):
                bad.append(
                    f"trunk output width {trunk_out} must be divisible by 2^(levels-1)=2^{depth} "
                    "so every branch can pair-average it")
        if bad:
            raise ConfigError("invalid model config: " + "; ".join(bad))

    @property
    def head_in(self) -> int:
        """Width of the head's input: the pyramid's common width, or the
        trunk output without a pyramid."""
        return self.head_width if self.pyramid else self.trunk_widths[-1]

    @property
    def module_count(self) -> int:
        """Modules of the partition SyntheticModel builds: the trunk, the
        pyramid (if any), and one shared head or one head per level."""
        return 1 + int(self.pyramid) + (self.levels if self.head_mode == "independent" else 1)


@dataclass(frozen=True)
class ModulePartition:
    """Ordered named parameter groups with a designated anchor module.

    ``modules`` maps each name to the indices of its parameter tensors in
    the owning model's parameter list; ``param_sizes`` gives the flat length
    of every parameter. Each module owns a non-empty run of consecutive
    parameter ids, in module order, so each module is one contiguous slice
    (``slices``) of the packed flat vector.
    """

    modules: tuple            # ((name, (param ids...)), ...)
    param_sizes: tuple
    anchor_index: int = 0

    def __post_init__(self):
        if self.h < 2:
            raise ConfigError(f"partition needs at least 2 modules, got {self.h}")
        if not 0 <= self.anchor_index < self.h:
            raise ConfigError(f"anchor_index {self.anchor_index} out of range for {self.h} modules")
        if len(set(self.names)) != self.h:
            raise ConfigError(f"module names must be distinct, got {self.names}")
        if not all(isinstance(s, (int, np.integer)) and s >= 0 for s in self.param_sizes):
            raise ConfigError(f"param_sizes must be non-negative integers, got {self.param_sizes}")
        seen = [i for _, ids in self.modules for i in ids]
        if seen != list(range(len(self.param_sizes))) or not all(ids for _, ids in self.modules):
            raise ConfigError(
                "every parameter must belong to exactly one module, and each module must own "
                f"a non-empty run of consecutive parameter ids in module order; got {self.modules}")

    @property
    def h(self) -> int:
        return len(self.modules)

    @property
    def names(self) -> tuple:
        return tuple(name for name, _ in self.modules)

    @property
    def anchor_name(self) -> str:
        return self.modules[self.anchor_index][0]

    @property
    def total_size(self) -> int:
        return int(sum(self.param_sizes))

    @cached_property
    def slices(self) -> MappingProxyType:
        """Read-only map from each module name to its slice of the packed flat
        vector, built on first use."""
        offsets = list(accumulate(self.param_sizes, initial=0))
        return MappingProxyType({name: slice(offsets[ids[0]], offsets[ids[-1] + 1])
                                 for name, ids in self.modules})


def _halving_matrix(width: int) -> np.ndarray:
    """[width, width/2] constant matrix averaging adjacent pairs."""
    half = width // 2
    m = np.zeros((width, half))
    for j in range(half):
        m[2 * j, j] = 0.5
        m[2 * j + 1, j] = 0.5
    return m


class SyntheticModel:
    """Trunk + pyramid branches + shared/independent heads, with MSE loss."""

    def __init__(self, config: ModelConfig, seed: int):
        config.validate()
        self.config = config
        rng = np.random.default_rng(seed)
        self.params: list[Tensor] = []
        ids = {"trunk": [], "pyramid": [], "heads": [[] for _ in range(config.levels)]}

        def linear(fan_in, fan_out, bucket):
            w = Tensor(rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, fan_out)),
                       requires_grad=True)
            b = Tensor(np.zeros(fan_out), requires_grad=True)
            bucket.append(len(self.params))
            self.params.append(w)
            bucket.append(len(self.params))
            self.params.append(b)
            return w, b

        self._trunk = []
        fan = config.input_dim
        for width in config.trunk_widths:
            self._trunk.append(linear(fan, width, ids["trunk"]))
            fan = width
        trunk_out = fan

        self._laterals = []
        if config.pyramid:
            for lvl in range(config.levels):
                self._laterals.append(linear(trunk_out >> lvl, config.head_width, ids["pyramid"]))

        self._heads = []
        n_heads = config.levels if config.head_mode == "independent" else 1
        for h in range(n_heads):
            bucket = ids["heads"][h]
            h1 = linear(config.head_in, config.head_width, bucket)
            h2 = linear(config.head_width, config.output_dim, bucket)
            self._heads.append((h1, h2))

        groups = [("trunk", tuple(ids["trunk"]))]
        if config.pyramid:
            groups.append(("pyramid", tuple(ids["pyramid"])))
        if config.head_mode == "independent":
            for lvl in range(config.levels):
                groups.append((f"head_{lvl + 1}", tuple(ids["heads"][lvl])))
        else:
            groups.append(("head", tuple(ids["heads"][0])))
        self.partition = ModulePartition(
            modules=tuple(groups),
            param_sizes=tuple(p.size for p in self.params),
            anchor_index=0,
        )

        self._halvers = {}
        w = trunk_out
        for _ in range(config.levels - 1):
            self._halvers[w] = Tensor(_halving_matrix(w))
            w //= 2

    @property
    def elements_per_sample(self) -> int:
        """Output elements a single sample contributes to the loss (pre-mask)."""
        c = self.config
        return c.levels * c.proposals * c.output_dim

    def draws_noise(self) -> bool:
        """Whether draw_noise draws anything (a keep-mask or feature jitter),
        so whether its mask_seed is used at all."""
        return self.config.mask_fraction > 0.0 or self.config.proposal_noise_std > 0.0

    def draw_noise(self, mask_seed: int, batch: int):
        """Per-iteration randomness: boolean keep-masks [batch, E] (or None when
        nothing is masked) and head-input noise [levels, K, batch, head_in]
        (or None when the jitter std is 0). Row j belongs to batch position
        j, so slicing rows yields the exact randomness of a sub-batch."""
        if not self.draws_noise():
            return None, None
        c = self.config
        rng = np.random.default_rng(np.random.SeedSequence([int(mask_seed) & 0xFFFFFFFF]))
        masks = None
        if c.mask_fraction > 0.0:
            e = self.elements_per_sample
            kept = max(1, int(np.floor((1.0 - c.mask_fraction) * e)))
            order = np.argsort(rng.random((batch, e)), axis=1)
            masks = np.zeros((batch, e), dtype=bool)
            np.put_along_axis(masks, order[:, :kept], True, axis=1)
        noise = None
        if c.proposal_noise_std > 0.0:
            noise = rng.normal(0.0, c.proposal_noise_std,
                               (c.levels, c.proposals, batch, c.head_in))
        return masks, noise

    def _branch_features(self, trunk_feat: Tensor, level: int) -> Tensor:
        f = trunk_feat
        width = self.config.trunk_widths[-1]
        for _ in range(level):
            f = matmul(f, self._halvers[width])
            width //= 2
        if self.config.pyramid:
            w, b = self._laterals[level]
            f = relu(add(matmul(f, w), b))
        return f

    def _head_output(self, feat: Tensor, level: int) -> Tensor:
        (w1, b1), (w2, b2) = self._heads[level if self.config.head_mode == "independent" else 0]
        hidden = relu(add(matmul(feat, w1), b1))
        return add(matmul(hidden, w2), b2)

    def loss_given_noise(self, inputs, targets, masks, noise) -> Tensor:
        """Scalar loss from explicit per-iteration randomness (see draw_noise).

        Each level evaluates the head once on its K proposals stacked as
        ``[K*b, d]`` (row ``k*b + j`` is proposal k of sample j) and adds
        the level's mean squared error weighted by its kept element count.
        """
        new_graph()
        c = self.config
        x = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
        t = targets if isinstance(targets, Tensor) else Tensor(targets)
        xs, ts = x.data.shape, t.data.shape
        if len(xs) != 2 or len(ts) != 2 or xs[0] != ts[0]:
            raise ConfigError(f"inputs {xs} and targets {ts} must be 2-D with equal batch")
        batch, k, o = xs[0], c.proposals, c.output_dim
        stacked_t = t if k == 1 else Tensor(np.tile(t.data, (k, 1)))

        h = x
        for w, b in self._trunk:
            h = relu(add(matmul(h, w), b))

        terms = []          # (scalar mean of squared errors, element count)
        for lvl in range(c.levels):
            feat = self._branch_features(h, lvl)
            if noise is not None:
                feat = add(feat, Tensor(noise[lvl].reshape(k * batch, -1)))
            elif k > 1:
                feat = add(feat, Tensor(np.zeros((k * batch, feat.shape[1]))))
            out = self._head_output(feat, lvl)
            if masks is None:
                terms.append((squared_error(out, stacked_t), k * batch * o))
                continue
            block = (masks[:, lvl * k * o:(lvl + 1) * k * o]
                     .reshape(batch, k, o).transpose(1, 0, 2).reshape(k * batch, o))
            kept = int(block.sum())
            if kept:
                terms.append((squared_error(masked_select(out, block),
                                            masked_select(stacked_t, block)), kept))
        total = sum(n for _, n in terms)
        if total == 0:
            raise ConfigError("all output elements are masked; nothing contributes to the loss")
        acc = multiply(terms[0][0], Tensor(terms[0][1] / total))
        for se, n in terms[1:]:
            acc = add(acc, multiply(se, Tensor(n / total)))
        return acc

    def loss(self, inputs, targets, mask_seed: int) -> Tensor:
        """Scalar MSE over the kept output elements of every branch evaluation."""
        batch = np.asarray(inputs).shape[0]
        masks, noise = self.draw_noise(mask_seed, batch)
        return self.loss_given_noise(inputs, targets, masks, noise)


class TwoBlockLinearModel:
    """x @ A @ B regression split into 'trunk' (A) and 'head' (B) modules.

    The benchmark model for variance-estimator checks: per-sample gradients
    are cheap and far from zero at a random initialization.
    """

    def __init__(self, input_dim: int, hidden_dim: int, output_dim: int, seed: int):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(0.0, 1.0 / np.sqrt(input_dim), (input_dim, hidden_dim)),
                   requires_grad=True)
        b = Tensor(rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), (hidden_dim, output_dim)),
                   requires_grad=True)
        self.params = [a, b]
        self.partition = ModulePartition(
            modules=(("trunk", (0,)), ("head", (1,))),
            param_sizes=(a.size, b.size),
            anchor_index=0,
        )

    def draw_noise(self, mask_seed, batch):
        return None, None

    def loss_given_noise(self, inputs, targets, masks, noise) -> Tensor:
        new_graph()
        x = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
        t = targets if isinstance(targets, Tensor) else Tensor(targets)
        return squared_error(matmul(matmul(x, self.params[0]), self.params[1]), t)

    def loss(self, inputs, targets, mask_seed: int) -> Tensor:
        return self.loss_given_noise(inputs, targets, None, None)


def make_dataset(n: int, input_dim: int, output_dim: int, noise_std: float, seed: int):
    """Inputs ~ N(0,1) and targets = fixed random linear map + gaussian noise."""
    if n < 2:
        raise ConfigError(f"dataset size must be >= 2, got {n}")
    if noise_std < 0:
        raise ConfigError(f"noise_std must be >= 0, got {noise_std}")
    rng = np.random.default_rng(seed)
    inputs = rng.normal(0.0, 1.0, (n, input_dim))
    mapping = rng.normal(0.0, 1.0 / np.sqrt(input_dim), (input_dim, output_dim))
    targets = inputs @ mapping
    if noise_std > 0:
        targets = targets + rng.normal(0.0, noise_std, (n, output_dim))
    return inputs, targets
