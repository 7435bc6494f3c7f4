"""Small neural-network building blocks on top of the autodiff tensors."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class Module:
    """Base class with a named-parameter registry.

    Assigning a Tensor or Module attribute registers it; ``parameters()``
    walks the tree and yields dotted names, which double as checkpoint keys.
    """

    def __init__(self):
        object.__setattr__(self, "_params", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())

    def __setattr__(self, name, value):
        if isinstance(value, Tensor):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def parameters(self, prefix: str = "") -> "OrderedDict[str, Tensor]":
        out: OrderedDict[str, Tensor] = OrderedDict()
        for name, p in self._params.items():
            out[prefix + name] = p
        for name, mod in self._modules.items():
            out.update(mod.parameters(prefix=f"{prefix}{name}."))
        return out

    def trainable_parameters(self) -> "OrderedDict[str, Tensor]":
        return OrderedDict(
            (k, v) for k, v in self.parameters().items() if v.requires_grad
        )

    def zero_grad(self) -> None:
        for p in self.parameters().values():
            p.zero_grad()

    def freeze(self) -> None:
        for p in self.parameters().values():
            p.requires_grad = False


class ModuleList(Module):
    def __init__(self, modules):
        super().__init__()
        for i, m in enumerate(modules):
            self._modules[str(i)] = m

    def __iter__(self):
        return iter(self._modules.values())


def param(rng: np.random.Generator | None, shape, scale: float | None = None,
          zeros: bool = False) -> Tensor:
    """Trainable tensor; default scale is 1/sqrt(fan_in) for 2-D weights.
    Without ``rng`` it is zeros and nothing is drawn, for loaded models."""
    if zeros or rng is None:
        data = np.zeros(shape)
    else:
        if scale is None:
            fan_in = shape[0] if len(shape) > 1 else shape[-1]
            scale = 1.0 / np.sqrt(fan_in)
        data = rng.normal(0.0, scale, size=shape)
    return Tensor(data, requires_grad=True)


class Linear(Module):
    """Affine map x @ w + b applied to the last axis."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 zeros: bool = False):
        super().__init__()
        self.d_in = d_in
        self.d_out = d_out
        self.w = param(rng, (d_in, d_out), zeros=zeros)
        self.b = param(rng, (d_out,), zeros=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.d_in:
            raise ValueError(f"Linear expected last dim {self.d_in}, got {x.shape[-1]}")
        return ad.linear(x, self.w, self.b)


class LoraLinear(Module):
    """A frozen Linear plus a trainable low-rank update.

    Forward is x @ (w + (alpha/r) * a @ b) + bias with a of shape (d_in, r)
    and b of shape (r, d_out), one ``ad.lora_linear`` node. b starts at zero
    so the adapted map equals the base map exactly until the first update.
    """

    def __init__(self, base: Linear, rank: int, alpha: float,
                 rng: np.random.Generator | None):
        super().__init__()
        if not 0 < rank < min(base.d_in, base.d_out):
            raise ValueError(
                f"LoRA rank {rank} must be in [1, min(d_in, d_out) = "
                f"{min(base.d_in, base.d_out)})")
        self.base = base
        self.scaling = alpha / rank
        self.lora_a = param(rng, (base.d_in, rank), scale=0.01)
        self.lora_b = param(rng, (rank, base.d_out), zeros=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.lora_linear(x, self.base.w, self.base.b, self.lora_a,
                              self.lora_b, self.scaling)


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta)


class Embedding(Module):
    def __init__(self, rows: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.table = param(rng, (rows, dim), scale=0.1)

    def __call__(self, indices: np.ndarray) -> Tensor:
        return ad.embedding(self.table, indices)


def causal_mask(length: int) -> np.ndarray:
    """(1, 1, T, T) additive mask hiding positions j > i."""
    return np.triu(np.full((length, length), ad.NEG_INF), k=1)[None, None]


def padding_mask(valid: np.ndarray) -> np.ndarray:
    """(B, 1, 1, T) additive mask from a (B, T) 0/1 validity matrix."""
    valid = np.asarray(valid, dtype=np.float64)
    return ((1.0 - valid) * ad.NEG_INF)[:, None, None, :]


class MultiHeadAttention(Module):
    """Scaled dot-product attention with separate query and key/value widths.

    ``kv_dim`` is the width of the attended sequence (cross-attention may
    attend into a differently sized space); queries and output live in
    ``d_model``. The additive mask broadcasts against (B, heads, Tq, Tk).
    """

    def __init__(self, d_model: int, heads: int, rng: np.random.Generator,
                 kv_dim: int | None = None):
        super().__init__()
        if d_model % heads != 0:
            raise ValueError(f"d_model {d_model} not divisible by heads {heads}")
        kv_dim = kv_dim if kv_dim is not None else d_model
        self.d_model = d_model
        self.kv_dim = kv_dim
        self.heads = heads
        self.d_head = d_model // heads
        self.wq = Linear(d_model, d_model, rng)
        self.wk = Linear(kv_dim, d_model, rng)
        self.wv = Linear(kv_dim, d_model, rng)
        self.wo = Linear(d_model, d_model, rng)

    def _split(self, x: Tensor, batch: int, length: int) -> Tensor:
        return ad.transpose(
            ad.reshape(x, (batch, length, self.heads, self.d_head)), (0, 2, 1, 3))

    def __call__(self, query: Tensor, kv: Tensor,
                 mask: np.ndarray | None = None,
                 key_bias: Tensor | None = None) -> Tensor:
        if kv.shape[-1] != self.kv_dim:
            raise ValueError(
                f"attention key/value width mismatch: expected {self.kv_dim}, "
                f"got {kv.shape[-1]}")
        b, tq = query.shape[0], query.shape[1]
        tk = kv.shape[1]
        q = self._split(self.wq(query), b, tq)
        k_lin = self.wk(kv)
        if key_bias is not None:
            k_lin = ad.add(k_lin, key_bias)
        k = self._split(k_lin, b, tk)
        v = self._split(self.wv(kv), b, tk)
        ctx = ad.attention(q, k, v, 1.0 / np.sqrt(self.d_head), mask)
        merged = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, tq, self.d_model))
        return self.wo(merged)


class FeedForward(Module):
    """Position-wise two-layer MLP with ReLU."""

    def __init__(self, d_model: int, d_hidden: int, rng: np.random.Generator):
        super().__init__()
        self.up = Linear(d_model, d_hidden, rng)
        self.down = Linear(d_hidden, d_model, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.down(ad.relu(self.up(x)))


class TransformerBlock(Module):
    """Pre-norm block: self-attention, then cross-attention into a
    ``kv_dim``-wide sequence when ``kv_dim`` is given, then FFN, each with a
    residual."""

    def __init__(self, d_model: int, heads: int, d_ff: int,
                 rng: np.random.Generator, kv_dim: int | None = None):
        super().__init__()
        self.has_cross = kv_dim is not None
        self.ln1 = LayerNorm(d_model)
        self.attn = MultiHeadAttention(d_model, heads, rng)
        if self.has_cross:
            self.ln_cross = LayerNorm(d_model)
            self.cross_attn = MultiHeadAttention(d_model, heads, rng,
                                                 kv_dim=kv_dim)
        self.ln2 = LayerNorm(d_model)
        self.ff = FeedForward(d_model, d_ff, rng)

    def __call__(self, x: Tensor, mask: np.ndarray | None = None,
                 kv: Tensor | None = None, kv_mask: np.ndarray | None = None,
                 key_bias: Tensor | None = None) -> Tensor:
        h = self.ln1(x)
        x = ad.add(x, self.attn(h, h, mask=mask))
        if self.has_cross:
            x = ad.add(x, self.cross_attn(self.ln_cross(x), kv, mask=kv_mask,
                                          key_bias=key_bias))
        x = ad.add(x, self.ff(self.ln2(x)))
        return x
