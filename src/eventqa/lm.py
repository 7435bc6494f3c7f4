"""Small encoder-decoder text model with event-embedding injection and LoRA.

The tokenizer is exact: tokens are whole words (letter runs) from a closed
vocabulary plus single characters (digits, punctuation, space), so
detokenizing is plain string concatenation and numbers are spelled digit by
digit. Connector outputs are spliced into the encoder's input embedding
stream between two trainable delimiter rows; the decoder generates answers
greedily. Low-rank adapters can be attached to the query and value
projections of every attention sublayer while the base weights stay frozen.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ConfigError, DataError, JsonConfig

PAD, BOS, EOS, SEQ_PREFIX, SEQ_SUFFIX = range(5)
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<seq>", "</seq>")

_WORD_RE = re.compile(r"[A-Za-z]+")
_PUNCTUATION = ".,;:?!'\"()-+/%"
_DIGITS = "0123456789"


class Tokenizer:
    """Whole-word plus single-character tokenizer over a closed alphabet."""

    def __init__(self, tokens: list[str]):
        if list(tokens[:5]) != list(SPECIAL_TOKENS):
            raise ConfigError("token list must start with the special tokens")
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ConfigError("duplicate tokens in vocabulary")
        for t in self.tokens[5:]:
            if len(t) > 1 and not t.isalpha():
                raise ConfigError(
                    f"multi-character token {t!r} must be alphabetic")
        self.yes_id = self.index.get("Yes")
        self.no_id = self.index.get("No")
        if self.yes_id is None or self.no_id is None:
            raise ConfigError(
                "vocabulary must contain single tokens 'Yes' and 'No'")

    @classmethod
    def build(cls, words) -> "Tokenizer":
        """Vocabulary from words plus digits, punctuation, and the space.

        The bare letter "e" is always present so scientific-notation numerals
        (repr of very small floats) stay spellable.
        """
        entries: set[str] = set(_DIGITS) | set(_PUNCTUATION) | {" ", "e"}
        for w in words:
            for run in _WORD_RE.findall(str(w)):
                entries.add(run)
            for ch in str(w):
                if not ch.isalpha():
                    entries.add(ch)
        entries.update({"Yes", "No"})
        return cls(list(SPECIAL_TOKENS) + sorted(entries))

    @property
    def size(self) -> int:
        return len(self.tokens)

    def tokenize(self, text: str) -> list[int]:
        out: list[int] = []
        pos = 0
        while pos < len(text):
            m = _WORD_RE.match(text, pos)
            if m:
                piece = m.group(0)
                idx = self.index.get(piece)
                if idx is None:
                    raise DataError(f"word {piece!r} not in the vocabulary")
                out.append(idx)
                pos = m.end()
                continue
            ch = text[pos]
            idx = self.index.get(ch)
            if idx is None:
                raise DataError(f"character {ch!r} not in the vocabulary")
            out.append(idx)
            pos += 1
        return out

    def detokenize(self, ids) -> str:
        parts = []
        for i in ids:
            if i < 5:
                raise DataError(
                    f"cannot detokenize special token id {int(i)}")
            parts.append(self.tokens[i])
        return "".join(parts)

    def to_json(self) -> list[str]:
        return list(self.tokens)

    @classmethod
    def from_json(cls, tokens: list[str]) -> "Tokenizer":
        return cls(list(tokens))


@dataclass
class ToyLmConfig(JsonConfig):
    d_model: int = 48
    enc_layers: int = 2
    dec_layers: int = 2
    heads: int = 4
    d_ff: int = 96
    max_input_len: int = 128
    max_output_len: int = 24

    def __post_init__(self):
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise ConfigError(f"heads must be >= 1 and divide d_model "
                              f"{self.d_model}, got {self.heads}")


@dataclass
class LoraConfig(JsonConfig):
    rank: int = 4
    alpha: float = 32.0
    dropout: float = 0.0    # must be 0; kept so config hashes hold

    def __post_init__(self):
        if self.rank < 1 or self.dropout != 0.0:
            raise ConfigError(f"need rank >= 1 and dropout 0, got "
                              f"rank {self.rank}, dropout {self.dropout}")


def pad_rows(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad token rows with PAD: (ids, valid), both (len(rows), longest)."""
    width = max(len(r) for r in rows)
    ids = np.full((len(rows), width), PAD, dtype=np.int64)
    valid = np.zeros((len(rows), width))
    for i, r in enumerate(rows):
        ids[i, :len(r)] = r
        valid[i, :len(r)] = 1.0
    return ids, valid


@dataclass
class TokenRows:
    """Token rows of a batch, each padded with PAD to the batch's longest."""

    prefix_ids: np.ndarray          # (B, P), one prefix for every row
    body_ids: np.ndarray            # (B, T_body)
    body_valid: np.ndarray          # (B, T_body), 1.0 on real tokens
    answer_ids: np.ndarray          # (B, T_answer), answer tokens then EOS
    answer_valid: np.ndarray        # (B, T_answer)


def token_rows(tokenizer: Tokenizer, prefix: str, bodies: Sequence[str],
               answers: Sequence[str]) -> TokenRows:
    """The text side of a batch: ``prefix`` on every row, one body and one
    answer (followed by EOS) per row."""
    body_ids, body_valid = pad_rows([tokenizer.tokenize(b) for b in bodies])
    answer_ids, answer_valid = pad_rows(
        [tokenizer.tokenize(a) + [EOS] for a in answers])
    prefix_ids = np.tile(np.asarray(tokenizer.tokenize(prefix), dtype=np.int64),
                         (len(body_ids), 1))
    return TokenRows(prefix_ids, body_ids, body_valid, answer_ids, answer_valid)


def length_groups(text: TokenRows) -> list[tuple[np.ndarray, TokenRows]]:
    """The rows of ``text`` split by body length, shortest first: each
    group's row indices and its rows trimmed to that length, with the
    answers trimmed to the group's longest. A group's body holds no PAD."""
    lengths = text.body_valid.sum(axis=1).astype(np.int64)
    groups = []
    for n in np.unique(lengths):
        rows = np.flatnonzero(lengths == n)
        width = int(text.answer_valid[rows].sum(axis=1).max())
        groups.append((rows, TokenRows(
            text.prefix_ids[rows], text.body_ids[rows, :n],
            text.body_valid[rows, :n], text.answer_ids[rows, :width],
            text.answer_valid[rows, :width])))
    return groups


class ToyLm(nn.Module):
    """Encoder-decoder transformer over the closed answer vocabulary."""

    def __init__(self, tokenizer: Tokenizer, config: ToyLmConfig,
                 rng: np.random.Generator):
        super().__init__()
        self.tokenizer = tokenizer
        self.config = config
        d = config.d_model
        self.tok_emb = nn.Embedding(tokenizer.size, d, rng)
        self.pos_enc = nn.Embedding(config.max_input_len, d, rng)
        self.pos_dec = nn.Embedding(config.max_output_len, d, rng)
        # delimiter rows around the injected event segment; these stay
        # trainable after the base model is frozen
        self.inj_markers = nn.param(rng, (2, d), scale=0.1)
        self.enc_blocks = nn.ModuleList([
            nn.TransformerBlock(d, config.heads, config.d_ff, rng)
            for _ in range(config.enc_layers)])
        self.enc_ln = nn.LayerNorm(d)
        self.dec_blocks = nn.ModuleList([
            nn.TransformerBlock(d, config.heads, config.d_ff, rng, kv_dim=d)
            for _ in range(config.dec_layers)])
        self.dec_ln = nn.LayerNorm(d)
        self.lm_head = nn.Linear(d, tokenizer.size, rng)

    # ------------------------------------------------------------------
    # encoder

    def encode(self, text: TokenRows, injected: Tensor | None
               ) -> tuple[Tensor, np.ndarray]:
        """Encoder states of the stream [prefix][<seq>][q injected rows]
        [</seq>][body] of every row, and the stream's validity mask.
        ``injected`` is (B, q, d_model), or None for q = 0. Rows without
        PAD attend unmasked, which adds nothing but an all-zero mask."""
        b, p = text.prefix_ids.shape
        if injected is not None and (
                injected.ndim != 3 or injected.shape[2] != self.config.d_model):
            raise ConfigError(
                f"injected rows must be (batch, q, {self.config.d_model}), "
                f"got {injected.shape}")
        q = 0 if injected is None else injected.shape[1]
        length = p + 1 + q + 1 + text.body_ids.shape[1]
        if length > self.config.max_input_len:
            raise ConfigError(
                f"input stream of {length} tokens (prefix {p} + 2 delimiters "
                f"+ {q} injected + body {text.body_ids.shape[1]}) exceeds max "
                f"input length {self.config.max_input_len}")
        ones = Tensor(np.ones((b, 1, 1)))
        marker_open = ad.mul(ad.reshape(self.inj_markers[0:1, :], (1, 1, -1)), ones)
        marker_close = ad.mul(ad.reshape(self.inj_markers[1:2, :], (1, 1, -1)), ones)
        parts = [self.tok_emb(text.prefix_ids), marker_open]
        if injected is not None:
            parts.append(injected)
        parts += [marker_close, self.tok_emb(text.body_ids)]
        valid = np.concatenate([np.ones((b, p + q + 2)), text.body_valid],
                               axis=1)
        x = ad.add(ad.concat(parts, axis=1),
                   self.pos_enc(np.arange(length)[None, :]))
        mask = None if text.body_valid.all() else nn.padding_mask(valid)
        for block in self.enc_blocks:
            x = block(x, mask=mask)
        return self.enc_ln(x), valid

    def decode(self, dec_ids: np.ndarray, enc_out: Tensor,
               enc_valid: np.ndarray) -> Tensor:
        """Teacher-forced decoder logits (B, T_dec, vocab)."""
        b, t = dec_ids.shape
        if t > self.config.max_output_len:
            raise ConfigError(
                f"decoder length {t} exceeds max output length "
                f"{self.config.max_output_len}")
        x = ad.add(self.tok_emb(dec_ids), self.pos_dec(np.arange(t)[None, :]))
        self_mask = nn.causal_mask(t)
        cross_mask = None if enc_valid.all() else nn.padding_mask(enc_valid)
        for block in self.dec_blocks:
            x = block(x, mask=self_mask, kv=enc_out, kv_mask=cross_mask)
        return self.lm_head(self.dec_ln(x))

    def answer_loss(self, text: TokenRows, injected: Tensor | None,
                    total: float | None = None) -> Tensor:
        """Cross-entropy of the answer tokens (teacher forcing); the decoder
        input is the BOS-shifted answer row. ``total`` is the answer-token
        count the sum is divided by (default: this batch's)."""
        answer_ids = text.answer_ids
        dec_in = np.concatenate(
            [np.full((len(answer_ids), 1), BOS, dtype=np.int64),
             answer_ids[:, :-1]], axis=1)
        enc_out, enc_valid = self.encode(text, injected)
        logits = self.decode(dec_in, enc_out, enc_valid)
        return ad.masked_cross_entropy(logits, answer_ids, text.answer_valid,
                                       total)

    # ------------------------------------------------------------------
    # generation

    def generate(self, text: TokenRows, injected: Tensor | None
                 ) -> tuple[list[str], list[np.ndarray]]:
        """Greedy decode of up to ``max_output_len - 1`` tokens; the answer
        rows are not read. Returns per-row text plus the per-step next-token
        distributions, one (batch, vocab) array per step (step 0 first)."""
        b = len(text.prefix_ids)
        with ad.no_grad():
            enc_out, enc_valid = self.encode(text, injected)
            rows = np.full((b, 1), BOS, dtype=np.int64)
            done = np.zeros(b, dtype=bool)
            distributions: list[np.ndarray] = []
            for _ in range(self.config.max_output_len - 1):
                logits = self.decode(rows, enc_out, enc_valid)
                last = logits.data[:, -1, :]
                shifted = last - last.max(axis=-1, keepdims=True)
                probs = np.exp(shifted)
                probs /= probs.sum(axis=-1, keepdims=True)
                distributions.append(probs.copy())
                nxt = last.argmax(axis=-1)
                nxt[done] = PAD
                rows = np.concatenate([rows, nxt[:, None]], axis=1)
                done |= nxt == EOS
                if done.all():
                    break
        texts = []
        for r in range(b):
            ids = []
            for i in rows[r, 1:]:
                if i in (EOS, PAD):
                    break
                if i >= 5:  # drop stray specials an untrained model may emit
                    ids.append(int(i))
            texts.append(self.tokenizer.detokenize(ids) if ids else "")
        return texts, distributions


# ---------------------------------------------------------------------------
# LoRA application


def apply_lora(model: ToyLm, config: LoraConfig,
               rng: np.random.Generator | None) -> dict:
    """Attach adapters to every attention's query and value projections.

    All existing model parameters are frozen first; afterwards only the
    adapter matrices (and nothing in the base) require gradients. The
    injection delimiter rows are deliberately left trainable: they belong to
    the injection apparatus, not the frozen language backbone.

    Returns a report with the exact trainable-value census alongside the
    2 * layers * d_model * rank rule of thumb for comparison.
    """
    model.freeze()
    model.inj_markers.requires_grad = True

    adapted = []

    def visit(module: nn.Module, path: str):
        for name, child in list(module._modules.items()):
            child_path = f"{path}{name}."
            if isinstance(child, nn.MultiHeadAttention):
                for proj_name in ("wq", "wv"):
                    base = getattr(child, proj_name)
                    wrapped = nn.LoraLinear(base, config.rank, config.alpha, rng)
                    setattr(child, proj_name, wrapped)
                    adapted.append({
                        "matrix": f"{child_path}{proj_name}",
                        "d_in": base.d_in, "d_out": base.d_out,
                        "trainable": config.rank * (base.d_in + base.d_out)})
            visit(child, child_path)

    visit(model, "")
    census = sum(m["trainable"] for m in adapted)
    layers = model.config.enc_layers + model.config.dec_layers
    formula = 2 * layers * model.config.d_model * config.rank
    markers = model.inj_markers.size
    return {
        "adapted_matrices": adapted,
        "trainable_adapter_values": census,
        "trainable_marker_values": markers,
        "trainable_total": census + markers,
        "rule_of_thumb_2_L_d_r": formula,
        "rank": config.rank,
        "alpha": config.alpha,
    }
