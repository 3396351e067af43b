"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

The operation set is the smallest one that supports the synthetic model
suite: matmul, add, multiply, relu, squared_error and masked_select. A
tensor's ``data`` is one numpy array at the tensor's shape; every primitive
and every pull reads and returns arrays at their own shapes. Elementwise
binaries take equal shapes, broadcast a ``[d]`` side over the rows of a
``[b, d]`` side, or repeat a 2-D ``[r, d]`` side over the K >= 2 row blocks
of a ``[K*r, d]`` side (output row ``k*r + j`` uses row j of the repeated
side, whose gradient is the sum of the K blocks). Anything richer raises
ShapeError.

Graph recording is thread-local: the first recorded operation on a thread
opens a fresh tape, and a reverse pass consumes it. A forward pass starts
with ``new_graph()``, which drops a tape whose loss never reached a reverse
pass. Threads may share leaf tensors as long as they only read them.

A record (``Tape``) is ``(pull, tracked, parents)``, a tuple entry per
input in the last two (``_emit``). It holds no tensor but a
``requires_grad`` leaf, and a pull captures only the arrays its gradients
read (a matmul or multiply an operand only when the other one is tracked,
a relu its output, a squared_error the difference, a masked_select the
mask and a shape), so a forward intermediate lives only as long as a pull
or the caller reads it. A pull computes gradients only for the inputs that
were tracked. The reverse pass (``_walk``) pops each record as it walks
it, freeing what its pull captured by reference counting.

At import this module raises glibc's mmap threshold to 32 MiB and its trim
threshold to 256 MiB and caps glibc at one malloc arena (``mallopt``), so
what a reverse pass frees stays on the one heap for the next step, also for
arrays that ``oracle_check``'s worker thread allocates. It does nothing
where the C library has no ``mallopt`` or the environment sets
``GLIBC_TUNABLES`` or one of ``MALLOC_MMAP_THRESHOLD_``,
``MALLOC_TRIM_THRESHOLD_`` and ``MALLOC_TOP_PAD_``.

Bit rules. Every sum over the batch axis for a leaf's gradient goes through
BLAS: a matmul's right operand as ``left.T @ right``, a bias as a cached
ones vector times the ``[rows, w]`` incoming gradient, so a bias gradient
can differ from ``sum(axis=0)`` in the last bits; the row-block fold of a
repeated side stays a numpy axis-0 sum. relu is ``np.fmax(x, 0.0)``, with
the bits of ``np.where(x > 0, x, 0.0)``: only when the input holds an exact
zero, which relu checks to flag a kink, an in-place ``+= 0.0`` turns a
-0.0 into +0.0. Scalar adds and multiplies and the loss's unit gradient
are Python floats, with the roundings of 0-d arrays. Every dot over a loss
or a module's gradient sums in fixed blocks (``blocked_dot``).
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform for the attempted primitive."""


class TapeError(RuntimeError):
    """Tape misuse: consumed twice, or mixing tensors from different tapes."""


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Records ``(pull, tracked, parents)`` are appended in execution order,
    and a taped tensor's ``node`` is its record's index. A record refers to
    each parent by record index, ``requires_grad`` leaf or None (a
    constant), never to its own output. A tape is consumed by exactly one
    reverse pass; reuse raises TapeError.
    """

    __slots__ = ("_records", "consumed")

    def __init__(self):
        self._records: list[tuple] = []
        self.consumed = False

    def __len__(self):
        return len(self._records)


class _Local(threading.local):
    tape = None             # the tape new records go to
    no_grad = False
    relu_kink = False


_LOCAL = _Local()

# glibc's mallopt parameter numbers, and the environment names with which
# glibc takes allocator settings at process start
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_MALLOC_ENV = ("GLIBC_TUNABLES", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
               "MALLOC_TOP_PAD_")


def _keep_freed_memory(libc, environ) -> bool:
    """Set the heap policy of the module docstring through ``libc.mallopt``.
    Returns False, and sets nothing, where ``libc`` has no ``mallopt`` or
    ``environ`` names an allocator setting."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None or any(name in environ for name in _MALLOC_ENV):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    mallopt(_M_ARENA_MAX, 1)
    return True


_keep_freed_memory(ctypes.CDLL(None), os.environ)


def relu_kink_seen() -> bool:
    """True if any relu on this thread saw an exactly-zero input since the last reset."""
    return _LOCAL.relu_kink


def reset_relu_kink():
    _LOCAL.relu_kink = False


class no_grad:
    """Context manager that disables tape recording on this thread."""

    def __enter__(self):
        self._prev = _LOCAL.no_grad
        _LOCAL.no_grad = True
        return self

    def __exit__(self, *exc):
        _LOCAL.no_grad = self._prev
        return False


class Tensor:
    """Dense row-major float64 array with optional gradient tracking.

    ``data`` is the array at the tensor's shape; ``shape``, ``size`` and
    ``ndim`` read it. A C-contiguous float64 input is aliased, not copied.
    A tensor an operation recorded carries its ``tape`` and its record's
    index there, ``node``; a leaf has neither.
    """

    __slots__ = ("data", "requires_grad", "tape", "node")

    def __init__(self, values, requires_grad: bool = False):
        self.data = np.asarray(values, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.tape = self.node = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_FOREIGN = ("input tensor belongs to a different or already-consumed tape; "
            "rebuild the graph from leaf tensors")


def _emit(value: np.ndarray, pull: Callable, a: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Wrap an op's result on ``a`` (and ``b``), recorded when an input is in
    a graph. An input's parent is its record index, itself for a
    ``requires_grad`` leaf, or None for a constant; an input of another tape,
    live or consumed, raises TapeError. The reverse pass calls ``pull(g,
    tracked)``, g at the output's shape (a float for a scalar)."""
    if type(value) is not np.ndarray:
        value = np.asarray(value)       # a ufunc on 0-d inputs gives a scalar
    out = Tensor.__new__(Tensor)
    out.data, out.requires_grad, out.tape, out.node = value, False, None, None
    local = _LOCAL
    if local.no_grad:
        return out
    tape = local.tape
    if tape is not None and tape.consumed:
        tape = None
    if a.tape is None:
        pa = a if a.requires_grad else None
    elif a.tape is tape:
        pa = a.node
    else:
        raise TapeError(_FOREIGN)
    if b is None:
        if pa is None:
            return out
        parents, tracked = (pa,), (True,)
    else:
        if b.tape is None:
            pb = b if b.requires_grad else None
        elif b.tape is tape:
            pb = b.node
        else:
            raise TapeError(_FOREIGN)
        if pa is None and pb is None:
            return out
        parents, tracked = (pa, pb), (pa is not None, pb is not None)
    if tape is None:
        tape = local.tape = Tape()
    records = tape._records
    out.requires_grad, out.tape, out.node = True, tape, len(records)
    records.append((pull, tracked, parents))
    return out


@functools.lru_cache(maxsize=32)
def _ones(n: int) -> np.ndarray:
    """A read-only vector of n ones, shared by every bias sum over n rows."""
    ones = np.ones(n)
    ones.setflags(write=False)
    return ones


class _RowSum:
    """A pull's gradient for an operand that sums a per-row term over the
    leading batch axis: ``left.T @ right`` (matmul's right operand) or, with
    no ``right``, the column sums of a 2-D ``left`` (a broadcast bias). The
    reverse pass reduces it whole, or per row group for a leaf when grouping,
    writing a leaf's first contribution straight into its slot (``out``).
    ``total()`` and ``total(out)``, like ``split(k)`` and ``split(k, out)``,
    make the same BLAS call, so a packed gradient and a separately computed
    one stay bit-identical."""

    __slots__ = ("left", "right")

    def __init__(self, left: np.ndarray, right: Optional[np.ndarray] = None):
        self.left = left
        self.right = right

    def total(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The sum at the operand's shape; written into ``out``, and ``out``
        returned, when given."""
        if self.right is None:
            return np.matmul(_ones(self.left.shape[0]), self.left, out=out)
        return np.matmul(self.left.T, self.right, out=out)

    def split(self, k: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """[k, *shape]: row g sums the terms of rows g, g+k, g+2k, ...;
        written into ``out``, and ``out`` returned, when given."""
        rows = self.left.shape[0]
        if rows % k:
            raise ShapeError(f"gradients: {rows} batch rows do not split into {k} row groups")
        if self.right is None:
            w = self.left.shape[1]
            # row j of [rows // k, k * w] holds batch rows j*k .. j*k + k - 1
            # side by side, so column block g sums rows g, g + k, g + 2k, ...
            sums = (_ones(rows // k) @ self.left.reshape(rows // k, k * w)).reshape(k, w)
            if out is None:
                return sums
            np.copyto(out, sums)
            return out
        left = self.left.reshape(rows // k, k, -1)
        right = self.right.reshape(rows // k, k, -1)
        return np.matmul(left.transpose(1, 2, 0), right.transpose(1, 0, 2), out=out)


# How an elementwise operand relates to the output (see _binary_layout).
_SAME, _ROWS, _BLOCKS = 0, 1, 2


def _binary_layout(name: str, a: Tensor, b: Tensor):
    """Resolve elementwise shapes that are not equal: (out_shape, blocks,
    av, bv, fold_a, fold_b). A side has the output's shape (_SAME), is a
    ``[d]`` side broadcast over the rows of a ``[b, d]`` one (_ROWS), or a
    2-D ``[r, d]`` side repeated over the K >= 2 row blocks of a ``[K*r, d]``
    one (_BLOCKS). ``blocks`` is ``(K, r, d)`` for row blocks, the shape at
    which the full-size side (its ``av`` or ``bv`` viewed so) and the
    incoming gradient meet the repeated side, and None otherwise. A folded
    side's gradient sums over the leading axis."""
    av, bv = a.data, b.data
    sa, sb = av.shape, bv.shape
    if len(sa) == 2 and sa[1:] == sb:
        return sa, None, av, bv, _SAME, _ROWS
    if len(sb) == 2 and sb[1:] == sa:
        return sb, None, av, bv, _ROWS, _SAME
    if len(sa) == len(sb) == 2 and sa[1] == sb[1]:
        rows, big = sorted((sa[0], sb[0]))
        if rows > 0 and big % rows == 0:
            blocks = (big // rows, rows, sa[1])
            if sa[0] == big:
                return sa, blocks, av.reshape(blocks), bv, _SAME, _BLOCKS
            return sb, blocks, av, bv.reshape(blocks), _BLOCKS, _SAME
    raise ShapeError(f"{name}: shapes {sa} and {sb} do not conform (equal, "
                     "[b, d] with [d], or [r, d] repeated over the row blocks of [K*r, d])")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product [m,k] @ [k,n] -> [m,n]. The pull keeps an
    operand only when the other one is tracked (its gradient reads it)."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeError(f"matmul: operands must be 2-D, got {ad.shape} and {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ: {ad.shape} vs {bd.shape}")
    # a taped input always requires grad, so requires_grad is its tracked bit
    av = ad if b.requires_grad else None
    bv = bd if a.requires_grad else None

    def pull(g, tracked):
        return (g @ bv.T if tracked[0] else None,
                _RowSum(av, g) if tracked[1] else None)

    return _emit(ad @ bd, pull, a, b)


def _add_fold(g: np.ndarray, blocks: Optional[tuple], fold: int):
    """add's gradient for one side: ``g`` itself for an equal-shape side
    (see the module docstring), a _RowSum for a bias, the sum of the row
    blocks for a repeated side."""
    if fold == _SAME:
        return g
    if fold == _ROWS:
        return _RowSum(g)
    return g.reshape(blocks).sum(axis=0)


def _add_same(g, tracked):     # add's pull for equal shapes
    return (g if tracked[0] else None), (g if tracked[1] else None)


def _add_bias(g, tracked):     # add's pull for a [b, d] side plus a [d] bias
    return (g if tracked[0] else None), (_RowSum(g) if tracked[1] else None)


def add(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    sa, sb = ad.shape, bd.shape
    if sa == sb:
        if not sa:      # scalars add as floats, with the same rounding
            ad, bd = float(ad), float(bd)
        return _emit(ad + bd, _add_same, a, b)
    if len(sa) == 2 and sa[1:] == sb:
        # the bias copied into each row, then the other side added in place:
        # the sums of ad + bd, faster than numpy's broadcasting add
        value = np.empty(sa)
        value[...] = bd
        value += ad
        return _emit(value, _add_bias, a, b)
    shape, blocks, av, bv, fold_a, fold_b = _binary_layout("add", a, b)

    def pull(g, tracked):
        return (_add_fold(g, blocks, fold_a) if tracked[0] else None,
                _add_fold(g, blocks, fold_b) if tracked[1] else None)

    return _emit((av + bv).reshape(shape), pull, a, b)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.data, b.data
    if av.shape == bv.shape:
        shape, blocks, fold_a, fold_b = av.shape, None, _SAME, _SAME
        if not shape:   # scalars multiply as floats, with the same rounding
            av, bv = float(av), float(bv)
        value = av * bv
    else:
        shape, blocks, av, bv, fold_a, fold_b = _binary_layout("multiply", a, b)
        value = (av * bv).reshape(shape)
    # each side's gradient reads only the other side
    av, bv = (av if b.requires_grad else None), (bv if a.requires_grad else None)

    def pull(g, tracked):
        gm = g if blocks is None else g.reshape(blocks)
        return (_mul_fold(gm * bv, fold_a, blocks, shape) if tracked[0] else None,
                _mul_fold(gm * av, fold_b, blocks, shape) if tracked[1] else None)

    return _emit(value, pull, a, b)


def _mul_fold(gx, fold: int, blocks: Optional[tuple], shape: tuple):
    """multiply's gradient for one side from ``gx``, the incoming gradient
    times the other side: summed over the leading axis if folded."""
    if fold != _SAME:
        return gx.sum(axis=0)
    return gx if blocks is None else gx.reshape(shape)


def relu(a: Tensor) -> Tensor:
    """max(0, x); the derivative at exactly 0 is defined as 0.

    NaN maps to 0 and -0.0 to +0.0, as in ``np.where(x > 0, x, 0.0)``.
    """
    x = a.data
    out = np.fmax(x, 0.0)
    if not x.all():     # an exact zero, of either sign; NaN counts as nonzero
        _LOCAL.relu_kink = True
        out += 0.0      # fmax may keep -0.0 for a zero input; where gives +0.0

    def pull(g, tracked):
        # g * (out > 0.0), multiplied in place in a float mask, which is faster
        mask = (out > 0.0).astype(np.float64)
        mask *= g
        return (mask,)

    return _emit(out, pull, a)


# A long dot is one BLAS dot per block of at most this many elements, the
# blocks added in order: OpenBLAS splits a longer dot across its threads, so
# one dot over everything changes with the thread count
DOT_BLOCK = 8192


def blocked_dot(a: np.ndarray, b: np.ndarray):
    """``a.dot(b)`` of two flat vectors of one length, summed over blocks of
    DOT_BLOCK elements in order; up to DOT_BLOCK elements, that one dot."""
    if a.size <= DOT_BLOCK:
        return a.dot(b)
    return sum(a[i:i + DOT_BLOCK].dot(b[i:i + DOT_BLOCK]) for i in range(0, a.size, DOT_BLOCK))


def squared_error(pred: Tensor, target: Tensor) -> Tensor:
    """Mean of elementwise squared differences, producing a scalar."""
    pd, td = pred.data, target.data
    if pd.shape != td.shape:
        raise ShapeError(f"squared_error: shapes differ: {pd.shape} vs {td.shape}")
    diff = pd - td
    flat = diff.reshape(-1)
    n = flat.size
    out = blocked_dot(flat, flat) / n

    def pull(g, tracked):
        gp = (2.0 * float(g) / n) * diff
        return (gp if tracked[0] else None), (-gp if tracked[1] else None)

    return _emit(out, pull, pred, target)


def masked_select(a: Tensor, mask: np.ndarray) -> Tensor:
    """Gather the elements of ``a`` where the boolean array ``mask``, of
    ``a``'s shape, is true into a 1-D tensor, in row-major order. The mask
    is a constant: no gradient flows to it.
    """
    data = a.data
    shape = data.shape
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape:
        raise ShapeError(f"masked_select: mask shape {mask.shape} does not match data shape {shape}")
    kept = data[mask]
    if kept.size == 0:
        raise ShapeError("masked_select: mask keeps no elements")

    def pull(g, tracked):
        ga = np.zeros(shape)
        ga[mask] = g
        return (ga,)

    return _emit(kept, pull, a)


def _walk(records: list, loss: Tensor, slots: dict, row_groups: int = 0) -> set:
    """Reverse pass over tape records from the loss's, popping each one as it
    is walked; records after the loss's cannot reach it and are dropped.

    ``slots`` maps id(leaf) to the array that leaf's gradient is written
    into: [*shape], or [k, *shape] with ``row_groups`` = k > 0, row g
    summing the contributions of batch rows g, g+k, g+2k, ... A leaf's first
    contribution is written straight into its slot and later ones are added
    in place; leaves without a slot are skipped. Pending non-leaf gradients
    sit in a list indexed by record number, popped in step with the
    records, so each is dropped when its tensor's record is walked. They are
    added out of place, since one array may be the gradient of several
    tensors (an add passes its gradient through). Leaves ``records`` empty,
    and returns the set of ids of the slotted leaves reached.
    """
    del records[loss.node + 1:]
    grads = [None] * len(records)
    grads[-1] = 1.0
    reached = set()
    pop_record, pop_grad, slot_of = records.pop, grads.pop, slots.get
    while records:
        pull, tracked, parents = pop_record()
        got = pop_grad()
        if got is None:
            continue
        for x, gx in zip(parents, pull(got, tracked)):
            if gx is None:
                continue
            if type(x) is int:
                if type(gx) is _RowSum:
                    gx = gx.total()
                cur = grads[x]
                grads[x] = gx if cur is None else cur + gx
                continue
            key = id(x)
            slot = slot_of(key)
            if slot is None:
                continue
            first = key not in reached
            if type(gx) is _RowSum:
                dest = slot if first else None
                gx = gx.split(row_groups, dest) if row_groups else gx.total(dest)
            elif row_groups:
                raise TapeError(
                    f"gradients: a leaf of shape {x.shape} is reached through a pull "
                    "that does not sum over the batch axis, so its gradient cannot "
                    "be split by row group")
            if not first:
                slot += gx
            else:
                if gx is not slot:
                    np.copyto(slot, gx)
                reached.add(key)
    return reached


class Gradients(list):
    """The gradients ``gradients`` returns, in ``wrt`` order. Every entry is
    a view, at its tensor's shape, of its own slot in one flat packed
    buffer, ``packed``."""

    __slots__ = ("packed",)


def _consume(loss: Tensor) -> list:
    """Mark the loss's tape consumed and take its records out of it; the
    reverse pass frees them as it walks them (see the module docstring)."""
    if loss.data.shape != ():
        raise ShapeError(f"gradients: loss must be scalar, got shape {loss.data.shape}")
    tape = loss.tape
    if tape is None:
        raise TapeError("gradients: loss is not attached to a tape (no tracked inputs)")
    if tape.consumed:
        raise TapeError("gradients: tape already consumed by a previous reverse pass "
                        "or dropped by new_graph")
    tape.consumed = True
    if _LOCAL.tape is tape:
        _LOCAL.tape = None
    records, tape._records = tape._records, []
    return records


def new_graph():
    """Start the thread's next forward pass on a fresh tape.

    A graph whose loss never reached a reverse pass is dropped: its tape
    gives up its records, so the abandoned graph is freed by reference
    counting, and is marked consumed, so a reverse pass from that loss
    raises TapeError. Under no_grad nothing is recorded and the active tape
    is left alone.
    """
    tape = _LOCAL.tape
    if tape is None or _LOCAL.no_grad:
        return
    tape.consumed = True
    tape._records = []
    _LOCAL.tape = None


def gradients(loss: Tensor, wrt: Sequence[Tensor], row_groups: Optional[int] = None) -> Gradients:
    """Gradients of the scalar ``loss`` w.r.t. the leaf tensors ``wrt``.

    One reverse pass writes every gradient into its slot of one packed
    buffer, the ``wrt`` tensors laid out side by side in order: ``[total]``
    without row groups, ``[k, total]`` with ``row_groups`` = k. The result
    is a list whose entries are views of those slots at their tensors'
    shapes (``[*shape]``, or ``[k, *shape]``) and whose ``packed`` attribute
    is the flat buffer itself, so a caller that wants one flat vector takes
    ``.packed`` with no concatenation.
    No two entries share memory: a tensor listed twice gets two equal slots.
    Thread-safe against other graphs sharing the same leaves; missing paths
    yield zeros. Consumes the tape; a non-leaf ``wrt`` raises TapeError.

    With ``row_groups`` = k, row g of every gradient is the part contributed
    by batch rows g, g+k, g+2k, ..., and the rows sum to the plain gradient.
    The split happens where a leaf's pull sums over the batch axis (matmul's
    right operand, the bias of a broadcast add), so every ``wrt`` tensor
    must be reached only through such pulls, with a leading batch dimension
    divisible by k; otherwise this raises TapeError or ShapeError.
    When the loss is a mean over b samples that each contribute equally
    many elements, k = 2 gives half-batch mean gradients as 2 * row g and
    k = b gives per-sample gradients as b * row g.
    """
    k = 0
    if row_groups is not None:
        k = int(row_groups)
        if k < 1:
            raise ValueError(f"gradients: row_groups must be >= 1, got {row_groups}")
    if any(p.tape is not None for p in wrt):
        raise TapeError("gradients: every wrt tensor must be a leaf")
    records = _consume(loss)
    lead = (k,) if k else ()
    packed = np.empty(lead + (sum(p.data.size for p in wrt),))
    out = Gradients()
    out.packed = packed
    slots = {}
    end = 0
    for p in wrt:
        data = p.data
        start, end = end, end + data.size
        # splitting the contiguous last axis of a slice is always a view
        slot = packed[..., start:end].reshape(lead + data.shape)
        out.append(slot)
        slots.setdefault(id(p), slot)
    reached = _walk(records, loss, slots, k)
    if len(reached) < len(wrt):
        # unreached leaves get zeros; a repeated leaf copies its first slot
        for p, slot in zip(wrt, out):
            if id(p) not in reached:
                slot.fill(0.0)
            elif slots[id(p)] is not slot:
                np.copyto(slot, slots[id(p)])
    return out


def pack_params(params: Sequence[Tensor]) -> np.ndarray:
    """Concatenate the raveled parameter data into one flat vector (copy)."""
    return np.concatenate([p.data.ravel() for p in params]) if params else np.zeros(0)


def load_params(params: Sequence[Tensor], flat: np.ndarray):
    """Write a flat vector back into parameter tensors, in order. A vector
    of the wrong length raises ShapeError before any parameter is written."""
    sizes = [p.data.size for p in params]
    if flat.size != sum(sizes):
        raise ShapeError(f"load_params: vector length {flat.size} != total parameter size {sum(sizes)}")
    offset = 0
    for p, size in zip(params, sizes):
        p.data[...] = flat[offset:offset + size].reshape(p.data.shape)
        offset += size


def grad_check(model: Callable[[], Tensor], params: Sequence[Tensor],
               probe_count: int, step: float = 1e-6, seed: int = 0) -> float:
    """Compare analytic gradients against central finite differences.

    ``model`` is a closure over ``params`` returning a scalar loss. Probes
    ``min(probe_count, coordinates)`` distinct random coordinates of the
    requires_grad parameters, so a count above the number of coordinates
    probes each once, and returns max |analytic - central| / max(1, |analytic|)
    over them.

    Probes whose evaluations hit a relu input at exactly 0 are skipped (the
    subgradient point has no meaningful finite difference); if every probe
    is skipped, or no parameter is trainable, the result is 0.0.
    """
    if probe_count < 1:
        raise ValueError("grad_check: probe_count must be >= 1")
    live = [p for p in params if p.requires_grad]
    # a leaf's data is C-contiguous, so each flat view writes through to it;
    # coordinate c is entry c of the packed gradient
    coords = [(flat, j) for flat in (p.data.reshape(-1) for p in live)
              for j in range(flat.size)]
    if not coords:
        return 0.0

    reset_relu_kink()
    loss = model()
    if not np.isfinite(loss.data):
        raise ValueError("grad_check: model produced a non-finite loss")
    kink_at_base = relu_kink_seen()
    analytic = gradients(loss, live).packed

    rng = np.random.default_rng(seed)
    picks = rng.choice(len(coords), size=min(probe_count, len(coords)), replace=False)
    worst = 0.0
    for c in picks:
        flat, j = coords[c]
        saved = flat[j]
        reset_relu_kink()
        with no_grad():
            flat[j] = saved + step
            f_plus = model().data
            flat[j] = saved - step
            f_minus = model().data
            flat[j] = saved
        if kink_at_base or relu_kink_seen():
            continue
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError("grad_check: model produced a non-finite loss during probing")
        fd = (f_plus - f_minus) / (2.0 * step)
        a = analytic[c]
        worst = max(worst, abs(a - fd) / max(1.0, abs(a)))
    return worst
