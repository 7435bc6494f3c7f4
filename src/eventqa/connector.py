"""Fixed-size query connector between the event encoder and the text model.

A trainable set of query vectors is refined by transformer blocks: queries
self-attend in every block and cross-attend to the encoder's output rows in
every other block (odd indices by default). However many events come in, the
connector hands the text model exactly ``queries`` rows, projected to the
text model's embedding width by a single affine layer.

Cross-attention keys carry an additive recency embedding (indexed from the
sequence end), so queries can address "the latest event" regardless of the
sequence length. The connector summarizes a whole, already-encoded sequence;
unlike the encoder it is not causal, so recency indexing leaks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ConfigError, JsonConfig


@dataclass
class ConnectorConfig(JsonConfig):
    queries: int = 8
    d_model: int = 32
    layers: int = 2
    heads: int = 4
    cross_attention_period: int = 2
    d_enc: int = 32
    d_out: int = 48
    max_events: int = 512

    def __post_init__(self):
        if self.queries < 1:
            raise ConfigError("need at least 1 query")
        if self.layers < 2:
            raise ConfigError("need at least 2 blocks so cross-attention fires")
        if self.cross_attention_period < 1:
            raise ConfigError("cross_attention_period must be >= 1")
        if not any(self._has_cross(i) for i in range(self.layers)):
            raise ConfigError(
                f"no block carries cross-attention with {self.layers} layers "
                f"and period {self.cross_attention_period}")
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise ConfigError(f"heads must be >= 1 and divide d_model "
                              f"{self.d_model}, got {self.heads}")

    def _has_cross(self, index: int) -> bool:
        p = self.cross_attention_period
        return index % p == p - 1


class Connector(nn.Module):
    def __init__(self, config: ConnectorConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.queries = nn.param(rng, (config.queries, config.d_model),
                                scale=1.0 / np.sqrt(config.d_model))
        self.recency = nn.Embedding(config.max_events, config.d_model, rng)
        self.blocks = nn.ModuleList([
            nn.TransformerBlock(
                config.d_model, config.heads, 2 * config.d_model, rng,
                kv_dim=config.d_enc if config._has_cross(i) else None)
            for i in range(config.layers)])
        self.ln_f = nn.LayerNorm(config.d_model)
        self.proj = nn.Linear(config.d_model, config.d_out, rng)

    def _recency_indices(self, valid: np.ndarray) -> np.ndarray:
        """Steps back from each row's last event (rows are left-aligned);
        padding slots get 0."""
        lengths = valid.sum(axis=1).astype(np.int64)
        return np.maximum(lengths[:, None] - 1 - np.arange(valid.shape[1]), 0)

    def forward(self, enc_out: Tensor,
                valid: np.ndarray | None = None) -> Tensor:
        """(B, I, d_enc) encoder rows -> (B, queries, d_out)."""
        if enc_out.ndim != 3:
            raise ConfigError(
                f"connector expects (batch, events, width), got {enc_out.shape}")
        if enc_out.shape[-1] != self.config.d_enc:
            raise ConfigError(
                f"connector key/value width mismatch: expected "
                f"{self.config.d_enc}, got {enc_out.shape[-1]}")
        b, length = enc_out.shape[0], enc_out.shape[1]
        if length < 1:
            raise ConfigError("connector needs at least one encoder row")
        if length > self.config.max_events:
            raise ConfigError(
                f"{length} events exceed connector max_events "
                f"{self.config.max_events}")
        if valid is None:
            valid = np.ones((b, length))
        cross_mask = nn.padding_mask(valid)
        key_bias = self.recency(self._recency_indices(valid))
        x = ad.add(ad.reshape(self.queries, (1,) + self.queries.shape),
                   Tensor(np.zeros((b, 1, 1))))
        for block in self.blocks:
            x = block(x, kv=enc_out, kv_mask=cross_mask, key_bias=key_bias)
        return self.proj(self.ln_f(x))

    def connect(self, enc_out: Tensor) -> Tensor:
        """(I, d_enc) -> (queries, d_out) for a single sequence."""
        if enc_out.ndim != 2:
            raise ConfigError(
                f"connect expects a single (events, width) matrix, "
                f"got {enc_out.shape}")
        batched = self.forward(ad.reshape(enc_out, (1,) + enc_out.shape))
        return ad.reshape(batched, batched.shape[1:])
