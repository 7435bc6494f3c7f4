"""AdamW with decoupled weight decay and a cosine-with-restarts schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, DataError, JsonConfig


@dataclass
class LrSchedule(JsonConfig):
    """Linear warmup to ``peak_lr`` then cosine decay with warm restarts.

    Every cycle has ``cycle_length`` steps; within a cycle the rate follows
    min + 0.5*(peak-min)*(1+cos(pi*tau/T)) where tau is the offset since the
    last restart.
    """

    peak_lr: float
    min_lr: float
    warmup_steps: int
    cycle_length: int

    def __post_init__(self):
        if self.min_lr < 0 or self.peak_lr < self.min_lr:
            raise ConfigError("need peak_lr >= min_lr >= 0")
        if self.warmup_steps < 0 or self.cycle_length < 1:
            raise ConfigError("warmup_steps >= 0 and cycle_length >= 1 required")

    def lr_at(self, step: int) -> float:
        if step < 0:
            raise ValueError("step must be >= 0")
        if self.warmup_steps > 0 and step < self.warmup_steps:
            return self.peak_lr * (step / self.warmup_steps)
        tau = (step - self.warmup_steps) % self.cycle_length
        return self.min_lr + 0.5 * (self.peak_lr - self.min_lr) * (
            1.0 + math.cos(math.pi * tau / self.cycle_length)
        )


@dataclass
class OptimizerConfig(JsonConfig):
    """AdamW hyperparameters plus the global gradient-norm clip (0 turns
    clipping off)."""

    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-8
    weight_decay: float = 0.01
    clip_norm: float = 1.0


@dataclass
class OptimizerState:
    """Adam moments keyed by parameter name plus the shared step counter."""

    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


class AdamW:
    """Decoupled weight decay Adam over a fixed list of named parameters.

    The decay term is applied to the parameter directly, scaled by the step's
    learning rate, and is independent of the gradient moments. Parameters
    absent from the computation graph (grad None) get a zero gradient, not an
    error.
    """

    def __init__(self, params: dict[str, Tensor],
                 config: OptimizerConfig | None = None):
        self.params = dict(params)
        self.config = config if config is not None else OptimizerConfig()
        self.state = OptimizerState()
        for name, p in self.params.items():
            self.state.m[name] = np.zeros_like(p.data)
            self.state.v[name] = np.zeros_like(p.data)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is at most max_norm
        (0 turns scaling off); returns the norm before scaling. A non-finite
        norm leaves the gradients as they are."""
        total = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for p in self.params.values():
                if p.grad is not None:
                    total += float((p.grad * p.grad).sum())
        norm = math.sqrt(total)
        if 0 < max_norm < norm < math.inf:
            scale = max_norm / norm
            for p in self.params.values():
                if p.grad is not None:
                    p.grad *= scale
        return norm

    def first_non_finite_grad(self) -> str | None:
        """The first parameter name, in sorted order, whose gradient's sum
        of squares is not finite (None if only their total overflows)."""
        with np.errstate(over="ignore", invalid="ignore"):
            for name in sorted(self.params):
                g = self.params[name].grad
                if g is not None and not math.isfinite(float((g * g).sum())):
                    return name
        return None

    def step(self, lr: float) -> None:
        s, c = self.state, self.config
        s.t += 1
        bc1 = 1.0 - c.beta1 ** s.t
        bc2 = 1.0 - c.beta2 ** s.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match parameter "
                    f"shape {p.data.shape}")
            s.m[name] = c.beta1 * s.m[name] + (1.0 - c.beta1) * g
            s.v[name] = c.beta2 * s.v[name] + (1.0 - c.beta2) * (g * g)
            m_hat = s.m[name] / bc1
            v_hat = s.v[name] / bc2
            if c.weight_decay != 0.0:
                p.data -= lr * c.weight_decay * p.data
            p.data -= lr * m_hat / (np.sqrt(v_hat) + c.eps)

    def hyperparams(self) -> dict:
        c = self.config
        return {"beta1": c.beta1, "beta2": c.beta2, "eps": c.eps,
                "weight_decay": c.weight_decay, "t": self.state.t}

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Moment arrays keyed for checkpointing (resume support)."""
        out = {}
        for name in self.params:
            out[f"opt.m.{name}"] = self.state.m[name]
            out[f"opt.v.{name}"] = self.state.v[name]
        return out

    def load_state_tensors(self, tensors: dict[str, np.ndarray], t: int) -> None:
        """Adopt (no copy) the saved moments of every parameter. As in
        ``pipeline.load_params``, a missing moment is a damaged file
        (DataError) and a mis-shaped one belongs to another model
        (ConfigError)."""
        for name in self.params:
            for key, moments in ((f"opt.m.{name}", self.state.m),
                                 (f"opt.v.{name}", self.state.v)):
                if key not in tensors:
                    raise DataError(f"optimizer state {key!r} is missing")
                if tensors[key].shape != moments[name].shape:
                    raise ConfigError(
                        f"optimizer state {key!r} has shape "
                        f"{tensors[key].shape}, the parameter has "
                        f"{moments[name].shape}")
                moments[name] = tensors[key]
        self.state.t = t
