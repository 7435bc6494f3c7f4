"""The event encoder over embedded events, plus next-event prediction heads.

The encoder is a causal (decoder-style) transformer: a linear projection
lifts concatenated feature embeddings to the model width, learned absolute
position embeddings are added, and masked self-attention blocks ensure output
row i depends on events 0..i only. Pretraining predicts each feature of event
i+1 from output row i with one classification head per feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .codec import DatasetCodec, EventEmbedder
from .errors import ConfigError, JsonConfig


@dataclass
class EncoderConfig(JsonConfig):
    layers: int = 2
    d_model: int = 32
    heads: int = 4
    d_ff: int = 64
    max_positions: int = 64

    def __post_init__(self):
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise ConfigError(f"heads must be >= 1 and divide d_model "
                              f"{self.d_model}, got {self.heads}")
        if self.layers < 1 or self.max_positions < 1:
            raise ConfigError("layers and max_positions must be >= 1")


class EventEncoder(nn.Module):
    """Input projection plus a causal transformer.

    ``encode`` maps (B, I, event_dim) embeddings to (B, I, d_model); row i is
    a function of rows 0..i only, so left-aligned padding cannot leak into
    real positions.
    """

    def __init__(self, event_dim: int, config: EncoderConfig,
                 rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.event_dim = event_dim
        self.projection = nn.Linear(event_dim, config.d_model, rng)
        self.pos = nn.Embedding(config.max_positions, config.d_model, rng)
        self.blocks = nn.ModuleList([
            nn.TransformerBlock(config.d_model, config.heads, config.d_ff, rng)
            for _ in range(config.layers)])
        self.ln_f = nn.LayerNorm(config.d_model)

    def project_inputs(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.event_dim:
            raise ConfigError(
                f"projection expects event width {self.event_dim}, "
                f"got {x.shape[-1]}")
        return self.projection(x)

    def encode(self, embeddings: Tensor) -> Tensor:
        if embeddings.ndim != 3:
            raise ConfigError(
                f"encode expects (batch, events, width), got {embeddings.shape}")
        length = embeddings.shape[1]
        if length < 1:
            raise ConfigError("cannot encode an empty sequence")
        if length > self.config.max_positions:
            raise ConfigError(
                f"sequence length {length} exceeds max positions "
                f"{self.config.max_positions}; truncate upstream")
        x = self.project_inputs(embeddings)
        x = ad.add(x, self.pos(np.arange(length)[None, :]))
        mask = nn.causal_mask(length)
        for block in self.blocks:
            x = block(x, mask=mask)
        return self.ln_f(x)


class NextEventHeads(nn.Module):
    """One linear classifier per feature over the codec's coded values.

    Head f at row i scores the coded value of feature f in event i+1; the
    output arity equals the feature's embedding-table arity (reserved slot
    included). Weights start at zero, so an untrained head is exactly uniform.
    """

    def __init__(self, codec: DatasetCodec, d_model: int,
                 rng: np.random.Generator):
        super().__init__()
        self.feature_names = codec.feature_names
        self.heads = nn.ModuleList([
            nn.Linear(d_model, codec[f].arity, rng, zeros=True)
            for f in self.feature_names])

    def __call__(self, encoded: Tensor) -> dict[str, Tensor]:
        return {f: head(encoded)
                for f, head in zip(self.feature_names, self.heads)}


def next_event_loss(encoder: EventEncoder, heads: NextEventHeads,
                    embedder: EventEmbedder, batch: dict[str, np.ndarray],
                    mask: np.ndarray) -> tuple[Tensor, dict[str, Tensor]]:
    """Summed per-feature cross-entropy for predicting event i+1 from row i.

    Positions contribute when both event i and event i+1 are real; length-1
    sequences therefore contribute nothing. Returns (loss, per-feature logits
    over the predicting rows) so callers can compute accuracies.
    """
    pair_mask = mask[:, :-1] * mask[:, 1:]
    if pair_mask.sum() <= 0:
        raise ConfigError("batch has no adjacent event pairs to train on")
    embeddings = embedder.embed_indices(batch)
    encoded = encoder.encode(embeddings)
    context = encoded[:, :-1, :]
    logits = heads(context)
    loss = None
    for f in heads.feature_names:
        term = ad.masked_cross_entropy(logits[f], batch[f][:, 1:], pair_mask)
        loss = term if loss is None else ad.add(loss, term)
    return loss, logits
