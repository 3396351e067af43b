"""Split-half gradient grouping and the cosine variance proxy.

Given per-sample gradients r_1..r_b of a mini-batch, the two half means are
G1 = mean(r_1, r_3, ...) and G2 = mean(r_2, r_4, ...) (1-indexed odd and
even positions). Per module, phi = eta^2 * (1 - cos(G1, G2)) measures how
much of the mini-batch gradient is sampling noise: 0 when the halves agree,
eta^2 when they are orthogonal. The full sampling-variance estimate scales
phi by the squared gradient norm and a finite-population factor
(n-b)/(2n-b); both it and the brute-force oracle report variance per
parameter so modules of different sizes are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import ModulePartition
from .tensor import ShapeError, blocked_dot, gradients


# Below this squared norm no entry exceeds 1e150 in magnitude, so
# cosine_similarity needs no rescaling: a dot product of squares is at least
# its largest term, and fl(x * x) >= 1.0000000000000003e300 for every double
# x > 1e150.
_SQUARED_NORM_LIMIT = 1e300

# Byte budget of each of the oracle's [c, n] weight and [c, width] mean buffers.
_ORACLE_CHUNK_BYTES = 1 << 19


class GroupingError(ValueError):
    """The per-sample gradients cannot be split as requested."""


@dataclass(frozen=True)
class GroupedGradients:
    """Per-module half-batch mean gradients plus the full mean.

    ``g1[name]``/``g2[name]`` are the odd/even half means for that module's
    flat slice, ``g[name]`` the full mini-batch mean, ``b`` the batch size.
    """

    names: tuple
    g1: dict
    g2: dict
    g: dict
    b: int

    @classmethod
    def from_half_means(cls, g1_flat: np.ndarray, g2_flat: np.ndarray, g_flat: np.ndarray,
                        partition: ModulePartition, b: int) -> "GroupedGradients":
        """Split the flat half-batch means and the full mean g by module,
        as views of each module's slice."""
        slices = partition.slices
        return cls(
            names=partition.names,
            g1={n: g1_flat[sl] for n, sl in slices.items()},
            g2={n: g2_flat[sl] for n, sl in slices.items()},
            g={n: g_flat[sl] for n, sl in slices.items()},
            b=b,
        )

    @cached_property
    def cosine(self) -> np.ndarray:
        """cos(G1, G2) per module, in ``names`` order, computed on first use;
        read-only, as every reader shares it."""
        cos = np.array([cosine_similarity(self.g1[n], self.g2[n]) for n in self.names])
        cos.setflags(write=False)
        return cos


@dataclass(frozen=True)
class PhiEstimate:
    """Per-module variance proxy phi = eta^2 * (1 - cosine), in partition order."""

    eta: float
    names: tuple
    phi: np.ndarray
    cosine: np.ndarray


def split_groups(per_sample_grads, partition: ModulePartition, rows=None) -> GroupedGradients:
    """Split per-sample flat gradients into odd/even half means per module.

    ``per_sample_grads`` is a sequence (or [m, d] array) of flat full-network
    gradients, one per sample. ``rows`` lists the batch's row indices into it
    in batch order (repeats allowed); None means every row, in order. The
    batch size (the number of rows used) must be even.

    The odd and even halves are summed into two [d] accumulators that start
    at +0.0 and add rows ``rows[0::2]`` and ``rows[1::2]`` one at a time in
    batch order, without gathering the batch. That is the order in which
    numpy's ``mean(axis=0)`` adds the rows of a [half, d >= 2] array, so the
    half means are bit-identical to ``per_sample_grads[rows][0::2].mean(axis=0)``
    and its odd counterpart.
    """
    arr = np.asarray(per_sample_grads, dtype=np.float64)
    if arr.ndim != 2:
        raise GroupingError(f"per-sample gradients must be a list of flat vectors, got shape {arr.shape}")
    m, d = arr.shape
    if d != partition.total_size:
        raise GroupingError(
            f"gradient length {d} does not match partition size {partition.total_size}")
    order = range(m) if rows is None else _batch_rows(rows, m)
    b = len(order)
    if b < 2 or b % 2 != 0:
        raise GroupingError(
            f"batch size must be even and >= 2 to split into halves, got {b}; "
            "drop or pad the final sample")
    s1 = np.zeros(d)
    s2 = np.zeros(d)
    for i in order[0::2]:
        s1 += arr[i]
    for i in order[1::2]:
        s2 += arr[i]
    g1 = s1 / (b // 2)
    g2 = s2 / (b // 2)
    g = (s1 + s2) / b
    return GroupedGradients.from_half_means(g1, g2, g, partition, b)


def _batch_rows(rows, m: int) -> list:
    """``rows`` as a list of ints, each a row index in [0, m); raises
    GroupingError unless it is a 1-D sequence of integers in range."""
    try:
        idx = np.asarray(rows)
    except (TypeError, ValueError) as exc:
        raise GroupingError(f"rows must be a 1-D sequence of row indices: {exc}") from None
    if idx.ndim != 1:
        raise GroupingError(f"rows must be 1-D, got shape {idx.shape}")
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise GroupingError(f"rows must be integer row indices, got dtype {idx.dtype}")
    bad = idx[(idx < 0) | (idx >= m)]
    if bad.size:
        raise GroupingError(f"row index {bad[0]} is outside [0, {m})")
    return idx.tolist()


def _squared_norm(x: np.ndarray):
    """``blocked_dot(x, x)`` of the raveled x: up to DOT_BLOCK elements the
    x.dot(x) that np.linalg.norm takes the square root of, so sqrt of it is
    bit-identical to np.linalg.norm(x)."""
    x = x.ravel(order="K")
    return blocked_dot(x, x)


def cosine_similarity(a: np.ndarray, b: np.ndarray, eps_norm: float = 1e-12) -> float:
    """dot(a,b) / (|a||b|); defined as 0 when either norm is below eps_norm,
    so a module with vanishing gradient signal reads as maximally noisy, and
    when either vector holds an inf or a NaN."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ShapeError(f"cosine_similarity: lengths differ: {a.size} vs {b.size}")
    with np.errstate(over="ignore"):    # an overflow here is rescaled away below
        aa, bb = _squared_norm(a), _squared_norm(b)
    if not (aa < _SQUARED_NORM_LIMIT and bb < _SQUARED_NORM_LIMIT):
        # rescale huge vectors so the squared sums cannot overflow
        ma = float(np.max(np.abs(a), initial=0.0))
        mb = float(np.max(np.abs(b), initial=0.0))
        if not (math.isfinite(ma) and math.isfinite(mb)):
            return 0.0
        if ma > 1e150:
            a = a / ma
        if mb > 1e150:
            b = b / mb
        aa, bb = _squared_norm(a), _squared_norm(b)
    na = math.sqrt(aa)
    nb = math.sqrt(bb)
    if na < eps_norm or nb < eps_norm or not (math.isfinite(na) and math.isfinite(nb)):
        return 0.0
    # c is finite: finite squared norms mean finite entries, and |dot| <= na * nb
    c = float(blocked_dot(a, b)) / (na * nb)
    return min(1.0, max(-1.0, c))


def phi_estimate(groups: GroupedGradients, eta: float) -> PhiEstimate:
    """Per-module phi = eta^2 * (1 - cos(G1, G2)); eta=1 omits the learning rate."""
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    cos = groups.cosine
    return PhiEstimate(eta=eta, names=groups.names, phi=(eta * eta) * (1.0 - cos), cosine=cos)


def full_variance_estimate(groups: GroupedGradients, n: int, eta: float) -> np.ndarray:
    """Per-module, per-parameter sampling-variance estimate.

    (n-b)/(2n-b) * phi * |g|^2 / d_module, with the single-iteration phi and
    squared norm standing in for their expectations. Zero when b == n (a
    full-batch gradient has no sampling variance); the leading factor tends
    to 1/2 as n grows.
    """
    if n < groups.b:
        raise ValueError(f"dataset size n={n} must be >= batch size b={groups.b}")
    factor = (n - groups.b) / (2.0 * n - groups.b)
    est = phi_estimate(groups, eta)
    norms = np.array([blocked_dot(groups.g[m], groups.g[m]) for m in groups.names])
    dims = np.array([max(1, groups.g[m].size) for m in groups.names], dtype=np.float64)
    return factor * est.phi * norms / dims


def per_sample_gradients(model, inputs, targets, mask_seed: int) -> np.ndarray:
    """[batch, d] per-sample flat gradients from one whole-batch backward pass.

    The pass splits every parameter gradient into one row group per sample
    (``gradients(..., row_groups=batch)``) straight into one packed
    [batch, d] buffer, which is scaled by the batch size in place and
    returned: no other [batch, d] array is allocated. Row j is the gradient
    of sample j's own loss under row j of the iteration's masks and feature
    noise. That is exact because every sample contributes equally
    many loss elements, so the batch loss is the mean of the per-sample
    losses, and the mean over any subset of rows equals the gradient of that
    subset's mean loss.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    batch = inputs.shape[0]
    masks, noise = model.draw_noise(mask_seed, batch)
    loss = model.loss_given_noise(inputs, targets, masks, noise)
    per_sample = gradients(loss, model.params, row_groups=batch).packed
    per_sample *= batch
    return per_sample


def brute_force_variance_oracle(per_sample, partition: ModulePartition, b: int, resamples: int,
                                seed: int) -> np.ndarray:
    """Per-module, per-parameter gradient sampling variance by enumeration.

    ``per_sample`` is the [n, d] matrix of per-sample flat gradients over the
    whole dataset (``per_sample_gradients``), laid out by ``partition``. Its
    mean is the exact full-dataset gradient; the oracle averages
    |g_batch - grad_full|^2 / d_module over ``resamples`` mini-batches of
    size b, drawn with replacement. Independent of the cosine estimator by
    construction.

    The resamples are drawn ``c`` at a time, by the same generator calls in
    the same order as one at a time. Each resample mean is formed exactly,
    as row r of one product ``W @ per_sample`` whose row r is
    ``bincount(pick_r, minlength=n) / b``, taken in column blocks so that
    the [c, n] weights and the [c, width] means each stay within 512 KiB.
    The squared deviations are summed over resamples per parameter, and each
    module's share is the sum over its slice of that one [d] vector.
    """
    shape = np.shape(per_sample)
    if len(shape) != 2 or shape[1] != partition.total_size:
        raise ValueError(f"per_sample has shape {shape}, expected [n, {partition.total_size}]")
    n, d = shape
    if b > n:
        raise ValueError(f"batch size b={b} exceeds dataset size n={n}")
    if b < 1:
        raise ValueError(f"batch size b={b} must be >= 1")
    if resamples < 100:
        raise ValueError(f"resamples must be >= 100, got {resamples}")
    grad_full = per_sample.mean(axis=0)

    rng = np.random.default_rng(seed)
    c = min(resamples, max(1, _ORACLE_CHUNK_BYTES // (8 * n)))
    width = max(1, min(d, _ORACLE_CHUNK_BYTES // (8 * c)))
    weights = np.empty((c, n))
    buf = np.empty(c * width)
    sq_dev = np.zeros(d)    # per parameter: sum over resamples of (mean - grad_full)^2
    for start in range(0, resamples, c):
        m = min(c, resamples - start)
        for r in range(m):
            pick = rng.integers(0, n, size=b)
            weights[r] = np.bincount(pick, minlength=n)
        weights[:m] /= b
        for lo in range(0, d, width):
            hi = min(d, lo + width)
            dev = buf[:m * (hi - lo)].reshape(m, hi - lo)
            np.matmul(weights[:m], per_sample[:, lo:hi], out=dev)
            dev -= grad_full[lo:hi]
            np.square(dev, out=dev)
            sq_dev[lo:hi] += dev.sum(axis=0)

    return np.array([sq_dev[sl].sum() / max(1, sl.stop - sl.start)
                     for sl in partition.slices.values()]) / resamples
