"""Per-module learning-rate modulation and the two modulated optimizers.

Every tau steps the modulator turns the per-module variance proxies into
raw multipliers sqrt((phi_anchor + eps) / (phi_i + eps)), clips them to
[clip_lo, clip_hi], and folds them into a running value with an exponential
moving average. The anchor module's multiplier is pinned at exactly 1. The
optimizers apply the multiplier to the decay-coupled momentum (SGD) or to
the bias-corrected adaptive update plus decoupled decay (AdamW), updating
the moments and the weights in place in the order of the formulas given.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .models import ModulePartition
from .variance import GroupedGradients, cosine_similarity

MU_CLIP_LO = 0.1
MU_CLIP_HI = 10.0


class OptimizerError(RuntimeError):
    """A step could not be applied (non-finite input, missing groups, ...)."""


class DivergenceError(OptimizerError):
    """A step met a non-finite gradient or update: the run diverged
    numerically. The message names the module and the step."""


class Modulator:
    """Smoothed, clipped per-module learning-rate multipliers."""

    def __init__(self, n_modules: int, anchor: int = 0, tau: int = 10, alpha: float = 0.97,
                 clip_lo: float = MU_CLIP_LO, clip_hi: float = MU_CLIP_HI,
                 eps_ratio: float = 1e-12):
        if n_modules < 1:
            raise ValueError(f"n_modules must be >= 1, got {n_modules}")
        if not 0 <= anchor < n_modules:
            raise ValueError(f"anchor {anchor} out of range for {n_modules} modules")
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
        if not 0.0 < clip_lo <= 1.0 <= clip_hi:
            raise ValueError(f"clip range [{clip_lo}, {clip_hi}] must straddle 1")
        if eps_ratio <= 0:
            raise ValueError(f"eps_ratio must be > 0, got {eps_ratio}")
        self.n_modules = n_modules
        self.anchor = anchor
        self.tau = tau
        self.alpha = alpha
        self.clip_lo = clip_lo
        self.clip_hi = clip_hi
        self.eps_ratio = eps_ratio
        self.mu = np.ones(n_modules)
        self.pinned = False

    def update(self, phi_values: np.ndarray):
        """One modulation event: ratio, clip, then smooth. No-op while pinned."""
        if self.pinned:
            return
        smooth_mu(self, compute_mu(phi_values, self))


def compute_mu(phi_values: np.ndarray, mod: Modulator) -> np.ndarray:
    """Raw multipliers sqrt((phi_anchor + eps) / (phi + eps)), clipped.

    The epsilon keeps a zero-phi module from driving the ratio to infinity;
    the anchor entry is exactly 1.
    """
    phi = np.asarray(phi_values, dtype=np.float64)
    if phi.shape != (mod.n_modules,):
        raise ValueError(f"expected {mod.n_modules} phi values, got shape {phi.shape}")
    if (phi < 0).any() or not np.isfinite(phi).all():
        raise ValueError("phi values must be finite and non-negative")
    raw = np.sqrt((phi[mod.anchor] + mod.eps_ratio) / (phi + mod.eps_ratio))
    raw.clip(mod.clip_lo, mod.clip_hi, out=raw)
    raw[mod.anchor] = 1.0
    return raw


def smooth_mu(mod: Modulator, raw_mu: np.ndarray):
    """mu <- alpha * mu + (1 - alpha) * raw, re-clipped (a no-op for in-range
    inputs since a convex combination stays in range) with the anchor reset
    to exactly 1."""
    mod.mu = mod.alpha * mod.mu + (1.0 - mod.alpha) * np.asarray(raw_mu, dtype=np.float64)
    mod.mu.clip(mod.clip_lo, mod.clip_hi, out=mod.mu)
    mod.mu[mod.anchor] = 1.0


def force_unit_mu(mod: Modulator):
    """Pin every multiplier to 1 and disable updates (plain SGD/AdamW)."""
    mod.mu = np.ones(mod.n_modules)
    mod.pinned = True


class _ModulatedOptimizer:
    def __init__(self, partition: ModulePartition, modulator: Optional[Modulator]):
        self.partition = partition
        self.modulator = modulator or Modulator(partition.h, anchor=partition.anchor_index)
        if self.modulator.n_modules != partition.h:
            raise ValueError("modulator size does not match partition")
        self._module_sizes = [sl.stop - sl.start for sl in partition.slices.values()]
        self.t = 0

    def _check_finite(self, vec: np.ndarray, what: str):
        if np.isfinite(vec).all():
            return
        for name, sl in self.partition.slices.items():
            if not np.isfinite(vec[sl]).all():
                raise DivergenceError(f"non-finite {what} in module '{name}' at step {self.t}")

    def _mu_per_coord(self) -> np.ndarray:
        return np.repeat(self.modulator.mu, self._module_sizes)

    def _modulation_due(self) -> bool:
        return (not self.modulator.pinned) and self.t % self.modulator.tau == 0

    def _phi_from_groups(self, groups: GroupedGradients, scale: Optional[np.ndarray]) -> np.ndarray:
        """1 - cos(G1, G2) per module, of G1 and G2 divided by ``scale`` if given."""
        if groups.names != self.partition.names:
            raise OptimizerError(f"grouped gradients of modules {groups.names} do not match the "
                                 f"optimizer's {self.partition.names}")
        if scale is None:
            return 1.0 - groups.cosine
        phi = np.empty(self.partition.h)
        for i, (name, sl) in enumerate(self.partition.slices.items()):
            phi[i] = 1.0 - cosine_similarity(groups.g1[name] / scale[sl], groups.g2[name] / scale[sl])
        return phi


class AgvmSgd(_ModulatedOptimizer):
    """Momentum SGD with decay folded into the gradient and per-module
    learning-rate multipliers applied to the momentum."""

    def __init__(self, partition: ModulePartition, beta1: float = 0.9,
                 weight_decay: float = 0.0, modulator: Optional[Modulator] = None):
        super().__init__(partition, modulator)
        if not 0.0 <= beta1 < 1.0:
            raise ValueError(f"beta1 must lie in [0, 1), got {beta1}")
        self.beta1 = beta1
        self.weight_decay = weight_decay
        self.m = np.zeros(partition.total_size)

    def step(self, w: np.ndarray, grad: np.ndarray, eta: float,
             groups: Optional[GroupedGradients] = None):
        """Advance one iteration, updating ``w`` in place."""
        if eta < 0:
            raise OptimizerError(f"learning rate must be >= 0, got {eta}")
        self.t += 1
        self._check_finite(grad, "gradient")
        if self._modulation_due():
            if groups is None:
                raise OptimizerError(f"step {self.t} is a modulation step but no grouped gradients were given")
            self.modulator.update(self._phi_from_groups(groups, scale=None))
        # m = beta1 * m + (1 - beta1) * (grad + weight_decay * w); w -= (eta * mu) * m
        step = np.multiply(w, self.weight_decay)
        step += grad
        self.m *= self.beta1
        self.m += np.multiply(step, 1.0 - self.beta1, out=step)
        w -= np.multiply(np.multiply(self._mu_per_coord(), eta, out=step), self.m, out=step)


class AgvmAdamW(_ModulatedOptimizer):
    """AdamW with decoupled decay and per-module learning-rate multipliers.

    The variance proxy at modulation steps uses the group gradients divided
    elementwise by sqrt(v + eps), with this step's v before bias correction.
    """

    def __init__(self, partition: ModulePartition, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0,
                 modulator: Optional[Modulator] = None):
        super().__init__(partition, modulator)
        if not 0.0 <= beta1 < 1.0:
            raise ValueError(f"beta1 must lie in [0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must lie in [0, 1), got {beta2}")
        if eps <= 0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = np.zeros(partition.total_size)
        self.v = np.zeros(partition.total_size)

    def step(self, w: np.ndarray, grad: np.ndarray, eta: float,
             groups: Optional[GroupedGradients] = None):
        """Advance one iteration, updating ``w`` in place."""
        if eta < 0:
            raise OptimizerError(f"learning rate must be >= 0, got {eta}")
        self.t += 1
        self._check_finite(grad, "gradient")
        # m = beta1 * m + (1 - beta1) * grad; v = beta2 * v + (1 - beta2) * grad * grad
        update, tmp = np.multiply(grad, 1.0 - self.beta1), np.multiply(grad, 1.0 - self.beta2)
        self.m *= self.beta1
        self.m += update
        self.v *= self.beta2
        self.v += np.multiply(tmp, grad, out=tmp)
        if self._modulation_due():
            if groups is None:
                raise OptimizerError(f"step {self.t} is a modulation step but no grouped gradients were given")
            self.modulator.update(self._phi_from_groups(groups, scale=np.sqrt(self.v + self.eps)))
        # update = (eta * mu) * (m_hat / sqrt(v_hat + eps) + weight_decay * w)
        np.divide(self.v, 1.0 - self.beta2 ** self.t, out=tmp)
        tmp += self.eps
        np.divide(np.divide(self.m, 1.0 - self.beta1 ** self.t, out=update),
                  np.sqrt(tmp, out=tmp), out=update)
        update += np.multiply(w, self.weight_decay, out=tmp)
        update *= np.multiply(self._mu_per_coord(), eta, out=tmp)
        self._check_finite(update, "update")
        w -= update


_CHECKPOINT_VERSION = 1


def _hex_list(arr: np.ndarray) -> list:
    return [float(x).hex() for x in np.asarray(arr, dtype=np.float64).reshape(-1)]


def _from_hex(values) -> np.ndarray:
    return np.array([float.fromhex(s) for s in values], dtype=np.float64)


def save_checkpoint(optimizer, path: str):
    """Write a versioned, bit-exact text record of the optimizer state."""
    mod = optimizer.modulator
    doc = {
        "format": "agvm-checkpoint",
        "version": _CHECKPOINT_VERSION,
        "kind": "adamw" if isinstance(optimizer, AgvmAdamW) else "sgd",
        "step": optimizer.t,
        "partition": {
            "modules": [[name, list(ids)] for name, ids in optimizer.partition.modules],
            "param_sizes": list(optimizer.partition.param_sizes),
            "anchor_index": optimizer.partition.anchor_index,
        },
        "modulator": {
            "tau": mod.tau,
            "alpha": float(mod.alpha).hex(),
            "clip_lo": float(mod.clip_lo).hex(),
            "clip_hi": float(mod.clip_hi).hex(),
            "eps_ratio": float(mod.eps_ratio).hex(),
            "anchor": mod.anchor,
            "pinned": mod.pinned,
            "mu": _hex_list(mod.mu),
        },
        "beta1": float(optimizer.beta1).hex(),
        "weight_decay": float(optimizer.weight_decay).hex(),
        "m": _hex_list(optimizer.m),
    }
    if isinstance(optimizer, AgvmAdamW):
        doc["beta2"] = float(optimizer.beta2).hex()
        doc["eps"] = float(optimizer.eps).hex()
        doc["v"] = _hex_list(optimizer.v)
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path: str):
    """Reconstruct an optimizer from a checkpoint; round-trips bit-exactly.

    Raises OptimizerError naming ``path`` for any document that is not a
    well-formed checkpoint of this version.
    """
    with open(path) as fh:
        try:
            return _optimizer_from(json.load(fh))
        except OptimizerError as exc:
            raise OptimizerError(f"{path}: {exc}") from None
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise OptimizerError(f"{path}: malformed checkpoint "
                                 f"({type(exc).__name__}: {exc})") from None


def _optimizer_from(doc: dict):
    if doc.get("format") != "agvm-checkpoint":
        raise OptimizerError("not an optimizer checkpoint")
    if doc.get("version") != _CHECKPOINT_VERSION:
        raise OptimizerError(f"unsupported checkpoint version {doc.get('version')}")
    if doc["kind"] not in ("sgd", "adamw"):
        raise OptimizerError(f"unknown optimizer kind {doc['kind']!r}")
    part = ModulePartition(
        modules=tuple((name, tuple(ids)) for name, ids in doc["partition"]["modules"]),
        param_sizes=tuple(doc["partition"]["param_sizes"]),
        anchor_index=doc["partition"]["anchor_index"],
    )
    md = doc["modulator"]
    for name, value in (("step", doc["step"]), ("tau", md["tau"]), ("anchor", md["anchor"])):
        if type(value) is not int or value < 0:
            raise OptimizerError(f"checkpoint field {name!r} must be an integer >= 0, got {value!r}")
    fields = {"m": doc["m"], "mu": md["mu"]}
    if doc["kind"] == "adamw":
        fields["v"] = doc["v"]
    for name, values in fields.items():
        want = part.h if name == "mu" else part.total_size
        if len(values) != want:
            raise OptimizerError(f"checkpoint field {name!r} has {len(values)} entries; "
                                 f"the partition needs {want}")
    mod = Modulator(part.h, anchor=md["anchor"], tau=md["tau"],
                    alpha=float.fromhex(md["alpha"]),
                    clip_lo=float.fromhex(md["clip_lo"]),
                    clip_hi=float.fromhex(md["clip_hi"]),
                    eps_ratio=float.fromhex(md["eps_ratio"]))
    mod.mu = _from_hex(md["mu"])
    mod.pinned = bool(md["pinned"])
    if doc["kind"] == "adamw":
        opt = AgvmAdamW(part, beta1=float.fromhex(doc["beta1"]),
                        beta2=float.fromhex(doc["beta2"]),
                        eps=float.fromhex(doc["eps"]),
                        weight_decay=float.fromhex(doc["weight_decay"]),
                        modulator=mod)
        opt.v = _from_hex(doc["v"])
    else:
        opt = AgvmSgd(part, beta1=float.fromhex(doc["beta1"]),
                      weight_decay=float.fromhex(doc["weight_decay"]),
                      modulator=mod)
    opt.m = _from_hex(doc["m"])
    opt.t = doc["step"]
    return opt
