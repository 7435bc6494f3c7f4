"""Dense float64 tensors with reverse-mode automatic differentiation.

The computation graph is recorded eagerly: every operation returns a new
Tensor holding references to its parents and a closure that maps the output
gradient to parent gradients. ``backward`` walks the graph once in reverse
topological order and then consumes it, so a graph cannot be differentiated
twice. Everything is float64; at desk scale gradient checking is the primary
verification tool and precision beats speed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

_GRAD_ENABLED = True

# Additive mask value: exp(NEG_INF - max) underflows to exactly 0.0 in
# float64, so masked attention slots contribute nothing, bit for bit.
NEG_INF = -1e9

LAYER_NORM_EPS = 1e-5


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A dense float64 array plus optional autodiff bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray, owned: bool = False) -> None:
        """Add ``g`` into ``.grad``.

        A first gradient is copied unless ``owned``: the caller then hands
        over an array no other tensor holds or will write, such as one it
        just allocated or a view of a gradient ``backward`` frees next.
        """
        if self.grad is None:
            self.grad = g if owned else np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        return getitem(self, key)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    # ``g`` goes to both parents, so a parent owns only a reduced copy
    def backward(g):
        if a.requires_grad:
            ga = _unbroadcast(g, a.shape)
            a.accumulate_grad(ga, owned=ga is not g)
        if b.requires_grad:
            gb = _unbroadcast(g, b.shape)
            b.accumulate_grad(gb, owned=gb is not g)

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape), owned=True)
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape), owned=True)

    return _make(data, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * (a.data > 0.0), owned=True)

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# shape and indexing


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.shape), owned=True)

    return _make(data, (a,), backward)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    data = a.data.transpose(axes)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g.transpose(np.argsort(axes)), owned=True)

    return _make(data, (a,), backward)


def getitem(a: Tensor, key) -> Tensor:
    """Basic (slice/int/ellipsis) indexing with gradient scatter-back."""
    data = a.data[key]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[key] = g
            a.accumulate_grad(full, owned=True)

    return _make(data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(int(lo), int(hi))
                t.accumulate_grad(g[tuple(idx)])

    return _make(data, tensors, backward)


def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``table[indices]`` with scatter-add gradient; a row may
    have any shape (``table.shape[1:]``)."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"embedding index out of range [0, {table.shape[0]}): "
            f"min={idx.min()}, max={idx.max()}"
        )
    data = table.data[idx]

    def backward(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, idx.reshape(-1),
                      g.reshape((-1,) + table.shape[1:]))
            table.accumulate_grad(full, owned=True)

    return _make(data, (table,), backward)


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a.accumulate_grad(np.broadcast_to(g, a.shape).copy(), owned=True)
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate_grad(np.broadcast_to(g, a.shape).copy(), owned=True)

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires operands with ndim >= 2")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ b.data.swapaxes(-1, -2)
            a.accumulate_grad(_unbroadcast(ga, a.shape), owned=True)
        if b.requires_grad:
            gb = a.data.swapaxes(-1, -2) @ g
            b.accumulate_grad(_unbroadcast(gb, b.shape), owned=True)

    return _make(data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``, as one 2-D GEMM.

    ``x`` has any number of leading axes; ``w`` is (d_in, d_out) and ``b``
    (d_out,). A frozen ``w`` or ``b`` gets no gradient computed.
    """
    x2 = x.data.reshape(-1, x.shape[-1])
    out = x2 @ w.data
    out += b.data
    data = out.reshape(x.shape[:-1] + (w.shape[1],))

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if w.requires_grad:
            w.accumulate_grad(x2.T @ g2, owned=True)
        if b.requires_grad:
            b.accumulate_grad(g2.sum(axis=0), owned=True)
        if x.requires_grad:
            x.accumulate_grad((g2 @ w.data.T).reshape(x.shape), owned=True)

    return _make(data, (x, w, b), backward)


def lora_linear(x: Tensor, w: Tensor, b: Tensor, a: Tensor,
                bm: Tensor, scale: float) -> Tensor:
    """``x @ w + b + scale * (x @ a) @ bm`` as one graph node and one GEMM
    on the merged weight ``w + scale * a @ bm``. A frozen ``w`` or ``b``
    gets no gradient."""
    x2 = x.data.reshape(-1, x.shape[-1])
    w_eff = w.data + scale * (a.data @ bm.data)
    out = x2 @ w_eff
    out += b.data
    data = out.reshape(x.shape[:-1] + (w.shape[1],))

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if w.requires_grad:
            w.accumulate_grad(x2.T @ g2, owned=True)
        if b.requires_grad:
            b.accumulate_grad(g2.sum(axis=0), owned=True)
        if a.requires_grad:
            a.accumulate_grad(x2.T @ (scale * (g2 @ bm.data.T)), owned=True)
        if bm.requires_grad:
            bm.accumulate_grad(scale * ((x2 @ a.data).T @ g2), owned=True)
        if x.requires_grad:
            x.accumulate_grad((g2 @ w_eff.T).reshape(x.shape), owned=True)

    return _make(data, (x, w, b, a, bm), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float,
              mask: np.ndarray | None = None) -> Tensor:
    """``softmax(q k^T * scale + mask) v`` on (B, H, T, d_head) operands.

    One graph node: the scores are masked and normalized in place in one
    (B, H, Tq, Tk) buffer, and only the probabilities are kept for backward.
    The scale is applied to ``q``, which is smaller than the scores.
    ``mask`` is additive and broadcasts against the scores. The softmax
    ignores a shift of a whole row, so a row whose keys are all masked
    attends as if unmasked, up to the float64 rounding of
    ``scores + NEG_INF``.
    """
    qs = q.data * scale
    p = qs @ k.data.swapaxes(-1, -2)
    if mask is not None:
        p += mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    data = p @ v.data

    def backward(g):
        if v.requires_grad:
            v.accumulate_grad(p.swapaxes(-1, -2) @ g, owned=True)
        if not (q.requires_grad or k.requires_grad):
            return
        # softmax backward: ds = p * (dp - rowsum(dp * p)), and
        # rowsum(dp * p) = rowsum(g * out) (FlashAttention's D term), which
        # needs no (Tq, Tk) temporary
        ds = g @ v.data.swapaxes(-1, -2)
        ds -= (g * data).sum(axis=-1, keepdims=True)
        ds *= p
        if q.requires_grad:
            dq = ds @ k.data
            dq *= scale
            q.accumulate_grad(dq, owned=True)
        if k.requires_grad:
            k.accumulate_grad(ds.swapaxes(-1, -2) @ qs, owned=True)

    return _make(data, (q, k, v), backward)


# ---------------------------------------------------------------------------
# neural-net specific ops


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max subtracted before exponentiation)."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * data).sum(axis=axis, keepdims=True)
            a.accumulate_grad(data * (g - dot), owned=True)

    return _make(data, (a,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis of ``x`` then apply the affine (gamma, beta)."""
    d = x.shape[-1]  # np.add.reduce / d is ndarray.mean, minus its wrapper
    xc = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
                        + LAYER_NORM_EPS)
    xhat = xc * inv
    data = xhat * gamma.data + beta.data

    def backward(g):
        if gamma.requires_grad:
            axes = tuple(range(g.ndim - 1))
            gamma.accumulate_grad((g * xhat).sum(axis=axes), owned=True)
        if beta.requires_grad:
            axes = tuple(range(g.ndim - 1))
            beta.accumulate_grad(g.sum(axis=axes), owned=True)
        if x.requires_grad:
            gy = g * gamma.data
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * xhat).mean(axis=-1, keepdims=True)
            x.accumulate_grad(inv * (gy - m1 - xhat * m2), owned=True)

    return _make(data, (x, gamma, beta), backward)


def masked_cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray,
                         total: float | None = None) -> Tensor:
    """Cross-entropy summed over positions where ``mask`` is nonzero and
    divided by ``total``, by default ``mask.sum()`` (the mean).

    ``logits`` has class scores on the last axis; ``targets`` holds class
    indices with the same leading shape; ``mask`` weights each position
    (typically 0/1 padding). Losses of a batch's parts, each divided by the
    batch's total, sum to the batch's loss. Fused into one graph node.
    """
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.float64)
    if targets.shape != logits.shape[:-1] or mask.shape != targets.shape:
        raise ValueError(
            f"shape mismatch: logits {logits.shape}, targets {targets.shape}, "
            f"mask {mask.shape}"
        )
    total = mask.sum() if total is None else float(total)
    if not total > 0:
        raise ValueError("masked_cross_entropy needs a positive total")

    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    data = -(picked * mask).sum() / total

    def backward(g):
        if not logits.requires_grad:
            return
        soft = np.exp(logp)
        onehot = np.zeros_like(soft)
        np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
        grad = (soft - onehot) * (mask / total)[..., None]
        logits.accumulate_grad(g * grad, owned=True)

    return _make(np.asarray(data), (logits,), backward)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Differentiate a scalar loss through the recorded graph.

    Accumulates into ``.grad`` of every reachable tensor with
    ``requires_grad`` and returns those gradients as a map. The graph is
    consumed: parent links are dropped so memory is released and a second
    backward on the same graph raises.
    """
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad (no parameters reachable)")
    if loss._backward is None:
        raise ValueError(
            "loss has no recorded graph (already consumed, or not produced "
            "by a recorded computation)")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.accumulate_grad(np.ones_like(loss.data), owned=True)
    grads: dict[Tensor, np.ndarray] = {}
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._parents:
            # interior node: free graph links and transient gradient
            node._parents = ()
            node._backward = None
            if node is not loss:
                node.grad = None
        elif node.requires_grad and node.grad is not None:
            grads[node] = node.grad
    return grads


# ---------------------------------------------------------------------------
# gradient checking


def finite_difference(fn: Callable[[], Tensor], param: Tensor, h: float = 1e-5,
                      entries: Iterable[int] | None = None) -> np.ndarray:
    """Central finite differences of ``fn()`` wrt selected entries of param.

    Returns an array aligned with ``entries`` (all entries by default).
    ``fn`` must rebuild its computation from scratch on every call.
    """
    flat = param.data.reshape(-1)
    if entries is None:
        entries = range(flat.size)
    out = []
    for i in entries:
        orig = flat[i]
        flat[i] = orig + h
        with no_grad():
            plus = fn().item()
        flat[i] = orig - h
        with no_grad():
            minus = fn().item()
        flat[i] = orig
        out.append((plus - minus) / (2.0 * h))
    return np.asarray(out)


def grad_check(fn: Callable[[], Tensor], params: dict[str, Tensor],
               tolerance: float = 1e-4, h: float = 1e-5,
               max_entries: int | None = None, seed: int = 0,
               zero_tol: float = 1e-7) -> dict:
    """Compare autodiff gradients of ``fn`` against central differences.

    ``fn`` rebuilds the scalar loss from ``params`` on each call. For every
    parameter the analytic gradient (one backward pass) is compared entrywise
    with finite differences, optionally on a random subsample of at most
    ``max_entries`` entries. Central differences carry rounding noise of
    roughly eps*|loss|/h, so entries where both gradients sit below
    ``zero_tol`` count as matching zeros, and the relative-error denominator
    is floored at 1e-6; otherwise that noise would dominate the relative
    error of near-zero derivatives.

    Returns a report dict: per-parameter max relative error, failures
    (including any non-finite values, reported with their location), and an
    overall ``passed`` flag.
    """
    for p in params.values():
        p.zero_grad()
    loss = fn()
    backward(loss)

    rng = np.random.default_rng(seed)
    report = {"passed": True, "max_rel_error": 0.0, "params": {}, "failures": []}
    for name, p in params.items():
        analytic_full = p.grad if p.grad is not None else np.zeros_like(p.data)
        analytic_flat = analytic_full.reshape(-1)
        n_entries = analytic_flat.size
        if max_entries is not None and n_entries > max_entries:
            entries = np.sort(rng.choice(n_entries, size=max_entries, replace=False))
        else:
            entries = np.arange(n_entries)
        numeric = finite_difference(fn, p, h=h, entries=entries)
        analytic = analytic_flat[entries]

        worst = 0.0
        for k, idx in enumerate(entries):
            a, n = analytic[k], numeric[k]
            if not (math.isfinite(a) and math.isfinite(n)):
                report["failures"].append(
                    {"param": name, "entry": int(idx), "analytic": float(a),
                     "numeric": float(n), "reason": "non-finite"})
                report["passed"] = False
                continue
            scale = max(abs(a), abs(n))
            rel = 0.0 if scale < zero_tol else abs(a - n) / max(scale, 1e-6)
            if rel > worst:
                worst = rel
            if rel > tolerance:
                report["failures"].append(
                    {"param": name, "entry": int(idx), "analytic": float(a),
                     "numeric": float(n), "rel_error": float(rel),
                     "reason": "tolerance"})
                report["passed"] = False
        report["params"][name] = {"max_rel_error": worst, "checked": len(entries)}
        report["max_rel_error"] = max(report["max_rel_error"], worst)
    return report
