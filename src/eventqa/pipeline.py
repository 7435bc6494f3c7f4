"""Experiment orchestration: staged training, evaluation, inference.

The build has three trained stages, all driven by one ExperimentConfig:

  1. encoder pretraining: embedder + causal encoder learn to predict every
     feature of the next event;
  2. text warm-up: the small language model is trained on a pure-text corpus
     of the answer vocabulary, then frozen (the stand-in for a pretrained
     backbone);
  3. end-to-end fine-tuning: connector, event-side components, delimiter
     rows, and low-rank adapters train while the frozen base answers
     templated questions about injected event sequences.

Every stage derives its randomness from the config seed, so (config, seed)
determines every artifact byte for byte with the same BLAS build and thread
setting.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .checkpoint import (Entries, atomic_write_text, load_checkpoint,
                         read_bytes, read_checkpoint, read_json,
                         save_checkpoint)
from .codec import DEFAULT_INTEGER_VOCAB_CAP, DatasetCodec, EventEmbedder
from .connector import Connector, ConnectorConfig
from .data import (Dataset, EventSequence, GeneratorConfig, Schema,
                   generate_synthetic, load_jsonl, save_jsonl, split_by_client)
from .encoder import EncoderConfig, EventEncoder, NextEventHeads, next_event_loss
from .errors import (ConfigError, DataError, DivergenceError, JsonConfig,
                     config_from_json)
from .lm import (LoraConfig, Tokenizer, TokenRows, ToyLm, ToyLmConfig,
                 apply_lora, length_groups, token_rows)
from .metrics import EvalReport, TaskResult, score_baselines, score_task
from .optim import AdamW, LrSchedule, OptimizerConfig
from .qa import (DEFAULT_PREFIX, QAPair, QATask, T_BINARY, Unparseable,
                 admit_sequence, build_corpus, build_tasks,
                 corpus_word_inventory, derived_seed, format_body,
                 parse_answer)


@dataclass
class StageSchedule(JsonConfig):
    epochs: int = 3
    batch_size: int = 32
    peak_lr: float = 3e-3
    min_lr: float = 0.0
    warmup_steps: int = 30
    cycle_length: int | None = None     # defaults to the post-warmup length

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(f"epochs and batch_size must be >= 1, got "
                              f"{self.epochs} and {self.batch_size}")
        self.schedule(1)  # raises ConfigError for a bad rate schedule

    def schedule(self, total_steps: int) -> LrSchedule:
        cycle = self.cycle_length or max(total_steps - self.warmup_steps, 1)
        return LrSchedule(peak_lr=self.peak_lr, min_lr=self.min_lr,
                          warmup_steps=min(self.warmup_steps, total_steps),
                          cycle_length=cycle)


@dataclass
class ExperimentConfig(JsonConfig):
    generator: GeneratorConfig
    tasks: list[dict]
    held_out_tasks: list[str] = field(default_factory=list)
    seed: int = 0
    val_fraction: float = 0.1
    min_seq_len: int = 2
    max_seq_len: int = 32
    integer_vocab_cap: int = DEFAULT_INTEGER_VOCAB_CAP
    prefix: str = DEFAULT_PREFIX
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    connector: ConnectorConfig = field(default_factory=ConnectorConfig)
    lm: ToyLmConfig = field(default_factory=ToyLmConfig)
    lora: LoraConfig = field(default_factory=LoraConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    pretrain: StageSchedule = field(default_factory=StageSchedule)
    warmup: StageSchedule = field(default_factory=lambda: StageSchedule(
        epochs=30, warmup_steps=20))
    train: StageSchedule = field(default_factory=StageSchedule)
    eval_batch_size: int = 64

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.eval_batch_size < 1:
            raise ConfigError(
                f"eval_batch_size must be >= 1, got {self.eval_batch_size}")
        task_ids = [t.task_id for t in build_tasks(self.tasks)]
        for held in self.held_out_tasks:
            if held not in task_ids:
                raise ConfigError(
                    f"held-out task {held!r} is not in the task list")
        if self.max_seq_len > self.encoder.max_positions:
            raise ConfigError(
                f"max_seq_len {self.max_seq_len} exceeds encoder max "
                f"positions {self.encoder.max_positions}")
        if self.max_seq_len > self.connector.max_events:
            raise ConfigError(
                f"max_seq_len {self.max_seq_len} exceeds connector "
                f"max_events {self.connector.max_events}")
        if self.min_seq_len < 1 or self.min_seq_len > self.max_seq_len:
            raise ConfigError("need 1 <= min_seq_len <= max_seq_len")
        if self.connector.d_out != self.lm.d_model:
            raise ConfigError(
                f"connector output width {self.connector.d_out} must equal "
                f"the language model width {self.lm.d_model}")
        if self.connector.d_enc != self.encoder.d_model:
            raise ConfigError(
                f"connector d_enc {self.connector.d_enc} must equal encoder "
                f"width {self.encoder.d_model}")
        if self.lora.rank >= self.lm.d_model:
            raise ConfigError(f"lora.rank {self.lora.rank} must be < "
                              f"lm.d_model {self.lm.d_model}")

    @classmethod
    def from_json(cls, d: dict) -> "ExperimentConfig":
        """Fields absent from ``d`` keep their defaults, and a section names
        only the keys it changes; unknown top-level keys are ignored, unknown
        keys inside a section are rejected."""
        names = {f.name for f in fields(cls)}
        return config_from_json(cls, {k: v for k, v in d.items() if k in names}
                                if isinstance(d, dict) else d)

    def config_hash(self) -> str:
        """Hash of the configuration without the seed (seeds vary per run)."""
        payload = self.to_json()
        payload.pop("seed")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def built_tasks(self) -> list[QATask]:
        return build_tasks(self.tasks)

    def select_tasks(self, task_ids: list[str]) -> list[QATask]:
        """The built tasks named by ``task_ids``, in that order. An unknown
        or repeated id is a config error naming it."""
        by_id = {t.task_id: t for t in self.built_tasks()}
        seen: set[str] = set()
        for task_id in task_ids:
            if task_id not in by_id:
                raise ConfigError(f"unknown task id {task_id!r}; known: "
                                  f"{sorted(by_id)}")
            if task_id in seen:
                raise ConfigError(f"task id {task_id!r} is given twice")
            seen.add(task_id)
        return [by_id[t] for t in task_ids]

    def corpus(self, dataset: Dataset, tasks: list[QATask],
               codec: DatasetCodec) -> list[QAPair]:
        """``build_corpus`` with this config's corpus seed, prefix and length
        policy."""
        return build_corpus(dataset, tasks, codec,
                            derived_seed(self.seed, "corpus"), self.prefix,
                            self.min_seq_len, self.max_seq_len)

    def trained_task_ids(self) -> list[str]:
        return [t["id"] for t in self.tasks
                if t["id"] not in self.held_out_tasks]


# ---------------------------------------------------------------------------
# model composition


class PipelineModel(nn.Module):
    """Embedder -> encoder -> connector -> injected language model."""

    def __init__(self, codec: DatasetCodec, tokenizer: Tokenizer,
                 config: ExperimentConfig, rng: np.random.Generator | None):
        super().__init__()
        self.config = config
        self.codec = codec
        self.embedder = EventEmbedder(codec, rng)
        self.encoder = EventEncoder(codec.event_dim, config.encoder, rng)
        self.connector = Connector(config.connector, rng)
        self.lm = ToyLm(tokenizer, config.lm, rng)

    def event_queries(self, windows: dict[str, np.ndarray],
                      window_mask: np.ndarray) -> Tensor:
        embedded = self.embedder.embed_indices(windows)
        encoded = self.encoder.encode(embedded)
        return self.connector.forward(encoded, window_mask)


def load_params(params: dict[str, Tensor], tensors: Entries) -> None:
    """Each parameter adopts (no copy) the checkpoint tensor of its name;
    ``tensors`` must not be read or written afterwards. A missing tensor is
    a damaged file (DataError from ``Entries``); a mis-shaped one means the
    checkpoint was built for another model, e.g. before the codec was
    refitted (ConfigError)."""
    for name, p in params.items():
        if tensors[name].shape != p.data.shape:
            raise ConfigError(
                f"checkpoint {tensors.path} does not match the model: tensor "
                f"{name!r} has shape {tensors[name].shape}, the model expects "
                f"{p.data.shape}")
        p.data = tensors[name]


# ---------------------------------------------------------------------------
# batching helpers


@dataclass
class QABatch:
    pairs: list[QAPair]
    windows: dict[str, np.ndarray]   # distinct visible windows, same width
    window_mask: np.ndarray
    window_of: np.ndarray            # pair -> its row of ``windows``
    text: TokenRows


def make_qa_batch(pairs: list[QAPair], sequences: dict[str, EventSequence],
                  tasks: dict[str, QATask], codec: DatasetCodec,
                  tokenizer: Tokenizer, config: ExperimentConfig) -> QABatch:
    """Model inputs for ``pairs``. A visible window depends only on the
    client and on whether the task holds out the last event, so each
    distinct window is admitted and encoded once and pairs share its row."""
    rows: dict[tuple[str, bool], int] = {}
    visible, window_of = [], []
    for p in pairs:
        task = tasks[p.task_id]
        key = (p.client_id, task.holdout_last)
        if key not in rows:
            seq = admit_sequence(sequences[p.client_id], task,
                                 config.min_seq_len, config.max_seq_len)
            if seq is None:
                raise DataError(f"pair for client {p.client_id!r} violates "
                                f"the length policy")
            rows[key] = len(visible)
            visible.append(seq)
        window_of.append(rows[key])
    windows, window_mask = codec.encode_batch(visible)
    for p in pairs:
        if p.prefix != pairs[0].prefix:
            raise ConfigError("mixed prefixes in one batch are unsupported")
    text = token_rows(tokenizer, pairs[0].prefix, [p.body for p in pairs],
                      [p.answer for p in pairs])
    return QABatch(pairs, windows, window_mask, np.array(window_of), text)


def group_inputs(model: PipelineModel, batch: QABatch):
    """Yield ``(rows, text, injected)`` per body length of ``batch`` (see
    ``lm.length_groups``). The event tower runs once per distinct window of
    the whole batch, and a window's gradient is the sum over its pairs."""
    queries = model.event_queries(batch.windows, batch.window_mask)
    for rows, text in length_groups(batch.text):
        yield rows, text, ad.embedding(queries, batch.window_of[rows])


def qa_loss(model: PipelineModel, batch: QABatch) -> Tensor:
    """The batch's mean answer-token loss, with one text-model pass per
    body length, so no stream carries PAD."""
    total = batch.text.answer_valid.sum()
    losses = [model.lm.answer_loss(text, injected, total)
              for _, text, injected in group_inputs(model, batch)]
    return functools.reduce(ad.add, losses)


# ---------------------------------------------------------------------------
# the training-stage driver


def run_training(loss_fn, optimizer: AdamW, config: ExperimentConfig,
                 key: str, items: list, n_batches: int, make_batch
                 ) -> list[tuple[int, float, float]]:
    """Drive ``optimizer`` through the ``config.<key>`` stage; returns the
    loss curve of the steps taken.

    Every epoch visits ``items`` in a permutation drawn from the seed
    ``<key>-order``; step ``s`` feeds ``loss_fn`` with ``make_batch`` of the
    ``s % n_batches``-th slice of ``batch_size`` items. Training starts at
    ``optimizer.state.t``, so a restored optimizer resumes where it stopped.
    Raises DivergenceError on a non-finite loss, or on a non-finite
    gradient norm before the step is taken, reporting the step.
    """
    stage = getattr(config, key)
    total_steps = stage.epochs * n_batches
    schedule = stage.schedule(total_steps)
    order_rng = np.random.default_rng(derived_seed(config.seed, f"{key}-order"))
    orders = [order_rng.permutation(len(items)) for _ in range(stage.epochs)]
    size = stage.batch_size
    curve: list[tuple[int, float, float]] = []
    for step in range(optimizer.state.t, total_steps):
        epoch, index = divmod(step, n_batches)
        chosen = orders[epoch][index * size:(index + 1) * size]
        batch = make_batch([items[i] for i in chosen])
        optimizer.zero_grad()
        loss = loss_fn(batch)
        value = loss.item()
        if not math.isfinite(value):
            raise DivergenceError(step, f"loss={value}")
        ad.backward(loss)
        norm = optimizer.clip_grad_norm(config.optimizer.clip_norm)
        if not math.isfinite(norm):
            raise DivergenceError(
                step, f"gradient norm {norm} at loss={value}; first "
                f"non-finite gradient: {optimizer.first_non_finite_grad()}")
        lr = schedule.lr_at(step)
        optimizer.step(lr)
        curve.append((step, lr, value))
    return curve


# stage key -> (sidecar stage name, checkpoint stem); the key also names the
# config's schedule section, the order seed and the loss CSV
_STAGES = {"pretrain": ("pretrain-encoder", "encoder"),
           "warmup": ("warmup-lm", "lm_base"), "train": ("train", "pipeline")}


def _save_stage(out: Path, key: str, config: ExperimentConfig, n_batches: int,
                tensors: dict[str, np.ndarray],
                curve: list[tuple[int, float, float]], /, **fields) -> Path:
    """Write ``<stem>.bin``/``.json`` and ``<key>_loss.csv``; the sidecar is
    the header (stage, config hash, seed, schedule) plus ``fields``."""
    name, stem = _STAGES[key]
    stage = getattr(config, key)
    sidecar = {"stage": name, "config_hash": config.config_hash(),
               "seed": config.seed,
               "schedule": stage.schedule(stage.epochs * n_batches).to_json(),
               **fields}
    save_checkpoint(out / stem, tensors, sidecar)
    atomic_write_text(out / f"{key}_loss.csv", curve_to_csv(curve))
    return out / stem


def curve_to_csv(curve: list[tuple[int, float, float]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["step", "lr", "loss"])
    for step, lr, value in curve:
        writer.writerow([step, f"{lr:.8g}", f"{value:.8g}"])
    return buf.getvalue()


def csv_to_curve(text: str) -> list[tuple[int, float, float]]:
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return [(int(step), float(lr), float(value)) for step, lr, value in rows]


# ---------------------------------------------------------------------------
# stage: data


def generate_data(config: ExperimentConfig, out_dir: str | Path) -> dict:
    out = Path(out_dir)
    dataset, provenance = generate_synthetic(config.generator, config.seed)
    save_jsonl(dataset, out / "dataset.jsonl")
    provenance["config_hash"] = config.config_hash()
    atomic_write_text(out / "provenance.json",
                      json.dumps(provenance, indent=2, sort_keys=True) + "\n")
    atomic_write_text(out / "schema.json",
                      json.dumps(dataset.schema.to_json(), indent=2) + "\n")
    return {"n_clients": len(dataset), "path": str(out / "dataset.jsonl")}


def load_splits(config: ExperimentConfig,
                data_dir: str | Path | None = None
                ) -> tuple[Dataset, Dataset, Dataset]:
    """(full, train, val); regenerates deterministically when no dir given."""
    if data_dir is not None:
        schema = read_json(Path(data_dir) / "schema.json", "schema",
                           Schema.from_json)
        dataset = load_jsonl(Path(data_dir) / "dataset.jsonl", schema)
    else:
        dataset, _ = generate_synthetic(config.generator, config.seed)
    train, val = split_by_client(dataset, config.val_fraction,
                                 derived_seed(config.seed, "split"))
    return dataset, train, val


# ---------------------------------------------------------------------------
# stage: codec


def fit_codec_stage(config: ExperimentConfig, train: Dataset) -> DatasetCodec:
    return DatasetCodec.fit(train, integer_vocab_cap=config.integer_vocab_cap)


# ---------------------------------------------------------------------------
# stage: encoder pretraining


def pretrain_encoder_stage(config: ExperimentConfig, train: Dataset,
                           codec: DatasetCodec, out_dir: str | Path,
                           resume: bool = False) -> dict:
    out = Path(out_dir)
    rng = np.random.default_rng(derived_seed(config.seed, "pretrain"))
    embedder = EventEmbedder(codec, rng)
    encoder = EventEncoder(codec.event_dim, config.encoder, rng)
    heads = NextEventHeads(codec, config.encoder.d_model, rng)

    usable = [s.tail(config.max_seq_len) for s in train.sequences if len(s) >= 2]
    skipped = len(train.sequences) - len(usable)
    if not usable:
        raise DataError("no sequences with at least 2 events to pretrain on")
    n_batches = max(1, len(usable) // config.pretrain.batch_size)

    params = {**embedder.parameters("embedder."),
              **encoder.parameters("encoder."), **heads.parameters("heads.")}
    optimizer = AdamW(params, config.optimizer)
    curve: list[tuple[int, float, float]] = []
    if resume:
        tensors, sidecar = load_checkpoint(out / "encoder")
        if sidecar.get("encoder") != config.encoder.to_json():
            raise ConfigError(
                "resume checkpoint was built from a different encoder config")
        load_params(params, tensors)
        optimizer.load_state_tensors(tensors, sidecar["step"])
        curve_path = out / "pretrain_loss.csv"
        if curve_path.exists():
            curve = csv_to_curve(curve_path.read_text())

    def loss_fn(batch):
        return next_event_loss(encoder, heads, embedder, *batch)[0]

    curve += run_training(loss_fn, optimizer, config, "pretrain", usable,
                          n_batches, codec.encode_batch)
    tensors = {name: p.data for name, p in params.items()}
    tensors.update(optimizer.state_tensors())
    checkpoint = _save_stage(
        out, "pretrain", config, n_batches, tensors, curve,
        step=optimizer.state.t, skipped_short_sequences=skipped,
        encoder=config.encoder.to_json(), optimizer=optimizer.hyperparams())
    first = curve[0][2] if curve else float("nan")
    last = curve[-1][2] if curve else float("nan")
    return {"initial_loss": first, "final_loss": last,
            "steps": len(curve), "checkpoint": str(checkpoint)}


# ---------------------------------------------------------------------------
# stage: language-model warm-up


def warmup_corpus(tokenizer: Tokenizer) -> list[tuple[str, str]]:
    """Pure-text items over the answer vocabulary: echo drills plus Yes/No
    calibration, teaching the decoder to emit every answer token."""
    items: list[tuple[str, str]] = []
    for token in tokenizer.tokens[5:]:
        if token.isalpha() and token not in ("Yes", "No"):
            items.append((f"Repeat the word {token}.", token))
    for digit in "0123456789":
        items.append((f"Repeat the number {digit}.", digit))
    items.append(("Repeat the number 42.", "42"))
    items.append(("Repeat the number 3.5.", "3.5"))
    items.append(("Answer yes.", "Yes"))
    items.append(("Answer no.", "No"))
    return items


def build_tokenizer(config: ExperimentConfig, codec: DatasetCodec) -> Tokenizer:
    words = corpus_word_inventory(codec, config.built_tasks(),
                                  prefix=config.prefix)
    words.extend(["Repeat", "the", "word", "number", "Answer", "yes", "no"])
    return Tokenizer.build(words)


def warmup_lm_stage(config: ExperimentConfig, codec: DatasetCodec,
                    out_dir: str | Path) -> dict:
    out = Path(out_dir)
    tokenizer = build_tokenizer(config, codec)
    rng = np.random.default_rng(derived_seed(config.seed, "warmup"))
    lm = ToyLm(tokenizer, config.lm, rng)

    items = warmup_corpus(tokenizer)
    n_batches = max(1, math.ceil(len(items) / config.warmup.batch_size))
    params = lm.parameters("lm.")
    curve = run_training(
        lambda rows: lm.answer_loss(rows, None),
        AdamW(params, config.optimizer), config, "warmup", items, n_batches,
        lambda chosen: token_rows(tokenizer, config.prefix, *zip(*chosen)))
    final_loss = curve[-1][2] if curve else None
    checkpoint = _save_stage(
        out, "warmup", config, n_batches,
        {name: p.data for name, p in params.items()}, curve,
        lm=config.lm.to_json(), tokenizer=tokenizer.to_json(),
        final_loss=final_loss)
    return {"final_loss": final_loss, "vocab_size": tokenizer.size,
            "checkpoint": str(checkpoint)}


# ---------------------------------------------------------------------------
# stage: end-to-end fine-tuning


def train_stage(config: ExperimentConfig, train: Dataset, val: Dataset,
                codec: DatasetCodec, out_dir: str | Path) -> dict:
    out = Path(out_dir)
    lm_tensors, lm_sidecar = load_checkpoint(out / "lm_base")
    if lm_sidecar.get("config_hash") != config.config_hash():
        raise ConfigError("language model checkpoint does not match this config")
    tokenizer = Tokenizer.from_json(lm_sidecar["tokenizer"])

    rng = np.random.default_rng(derived_seed(config.seed, "train"))
    model = PipelineModel(codec, tokenizer, config, rng)
    load_params(model.lm.parameters("lm."), lm_tensors)
    enc_tensors, enc_sidecar = load_checkpoint(out / "encoder")
    if enc_sidecar.get("config_hash") != config.config_hash():
        raise ConfigError("encoder checkpoint does not match this config")
    load_params({**model.embedder.parameters("embedder."),
                 **model.encoder.parameters("encoder.")}, enc_tensors)

    # freeze the warmed-up backbone; only adapters and delimiters stay live
    lora_rng = np.random.default_rng(derived_seed(config.seed, "lora"))
    lora_report = apply_lora(model.lm, config.lora, lora_rng)
    base_frozen_names = sorted(
        name for name, p in model.lm.parameters("lm.").items()
        if not p.requires_grad)
    base_hash_before = _hash_named(model.lm, base_frozen_names)

    tasks = {t.task_id: t for t in config.built_tasks()}
    trained_tasks = [tasks[i] for i in config.trained_task_ids()]
    if not trained_tasks:
        raise ConfigError("no tasks remain after removing the held-out set")

    sequences = {s.client_id: s for s in train.sequences}
    pairs = config.corpus(train, trained_tasks, codec)
    if not pairs:
        raise DataError("no usable training pairs under the length policy")

    n_batches = max(1, len(pairs) // config.train.batch_size)
    optimizer = AdamW(model.trainable_parameters(), config.optimizer)
    curve = run_training(
        lambda batch: qa_loss(model, batch), optimizer, config, "train",
        pairs, n_batches,
        lambda chosen: make_qa_batch(chosen, sequences, tasks, codec,
                                     tokenizer, config))

    base_hash_after = _hash_named(model.lm, base_frozen_names)
    if base_hash_after != base_hash_before:
        raise RuntimeError(
            "fine-tuning modified a frozen language model tensor")

    # answer-format validity on the validation split (trained tasks)
    parse_rate = _parseable_rate(model, val, trained_tasks, codec, config)

    final_loss = curve[-1][2] if curve else None
    codec.save(out / "codec.json")
    checkpoint = _save_stage(
        out, "train", config, n_batches,
        {name: p.data for name, p in model.parameters().items()}, curve,
        config=config.to_json(), tokenizer=tokenizer.to_json(),
        manifest={"trained_tasks": sorted(t.task_id for t in trained_tasks),
                  "held_out_tasks": sorted(config.held_out_tasks)},
        frozen=base_frozen_names,
        lora_report={k: v for k, v in lora_report.items()
                     if k != "adapted_matrices"},
        final_loss=final_loss, val_parseable_rate=parse_rate)
    return {"final_loss": final_loss, "val_parseable_rate": parse_rate,
            "frozen_hash_before": base_hash_before,
            "frozen_hash_after": base_hash_after,
            "frozen_base_unchanged": base_hash_after == base_hash_before,
            "lora_report": lora_report,
            "checkpoint": str(checkpoint)}


def _hash_named(module: nn.Module, names: list[str]) -> str:
    params = module.parameters("lm.")
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].data).tobytes())
    return h.hexdigest()


def _parseable_rate(model: PipelineModel, val: Dataset, tasks: list[QATask],
                    codec: DatasetCodec, config: ExperimentConfig) -> float:
    pairs, _, texts, _ = run_inference(model, val, tasks, codec, config)
    n_ok = sum(not isinstance(parsed, Unparseable)
               for parsed in _parse_answers(pairs, texts, tasks, codec))
    return n_ok / len(pairs) if pairs else 0.0


def _parse_answers(pairs: list[QAPair], texts: list[str], tasks: list[QATask],
                   codec: DatasetCodec) -> list:
    """``parse_answer`` of each pair's text, with each task's vocabulary
    built once."""
    vocabs = {t.task_id: (t, _task_vocab(t, codec)) for t in tasks}
    return [parse_answer(text, *vocabs[pair.task_id])
            for pair, text in zip(pairs, texts)]


def _task_vocab(task: QATask, codec: DatasetCodec) -> list | None:
    if task.feature is None:
        return None
    fc = codec[task.feature]
    return list(fc.vocab.values) if fc.vocab is not None else None


# ---------------------------------------------------------------------------
# inference and evaluation


def run_inference(model: PipelineModel, dataset: Dataset, tasks: list[QATask],
                  codec: DatasetCodec, config: ExperimentConfig
                  ) -> tuple[list[QAPair], list[EventSequence], list[str],
                             list[float]]:
    """Generate answers for every admitted (sequence, task) pair.

    Returns (pairs, sequences, generated texts, Yes/No scores) as
    ``answer_pairs`` computes them.
    """
    pairs = config.corpus(dataset, tasks, codec)
    sequences = {s.client_id: s for s in dataset.sequences}
    texts, scores = answer_pairs(model, pairs, sequences,
                                 {t.task_id: t for t in tasks}, codec, config)
    return pairs, [sequences[p.client_id] for p in pairs], texts, scores


def answer_pairs(model: PipelineModel, pairs: list[QAPair],
                 sequences: dict[str, EventSequence],
                 tasks: dict[str, QATask], codec: DatasetCodec,
                 config: ExperimentConfig) -> tuple[list[str], list[float]]:
    """Greedy answers to pairs in batches of ``config.eval_batch_size``,
    one ``generate`` per body length of a batch.

    Returns the generated texts and, per pair, p(Yes) - p(No) at the first
    decoding position (computed for every pair; only binary tasks use it).
    """
    tokenizer = model.lm.tokenizer
    texts: list[str] = [""] * len(pairs)
    scores = np.zeros(len(pairs))
    for start in range(0, len(pairs), config.eval_batch_size):
        batch = make_qa_batch(pairs[start:start + config.eval_batch_size],
                              sequences, tasks, codec, tokenizer, config)
        with ad.no_grad():
            for rows, text, injected in group_inputs(model, batch):
                group_texts, steps = model.lm.generate(text, injected)
                if steps:
                    scores[start + rows] = (steps[0][:, tokenizer.yes_id]
                                            - steps[0][:, tokenizer.no_id])
                for r, t in zip(start + rows, group_texts):
                    texts[r] = t
    return texts, scores.tolist()


_reused: dict = {}   # the pipeline the last ``reuse`` load built, and its key


def load_pipeline(out_dir: str | Path, reuse: bool = False
                  ) -> tuple[PipelineModel, ExperimentConfig, DatasetCodec,
                             dict]:
    """The trained pipeline in ``out_dir`` for inference: built without a
    generator (no draws), parameters from pipeline.bin. With ``reuse``, the
    last ``reuse`` load's pipeline (shared: do not modify it) is returned
    while the directory and the bytes of pipeline.bin, pipeline.json and
    codec.json are the ones it was built and verified from; otherwise it is
    built, with every check, from the bytes just read."""
    out = Path(out_dir)
    files = read_checkpoint(out / "pipeline")
    codec_bytes = read_bytes(out / "codec.json", "codec")
    key = (out.resolve(), files[1], codec_bytes)
    if reuse:
        if _reused.get("key") == key and np.array_equal(_reused["payload"],
                                                         files[0]):
            return _reused["pipeline"]
        _reused.clear()
    tensors, sidecar = load_checkpoint(out / "pipeline", files)
    config = ExperimentConfig.from_json(sidecar["config"])
    codec = read_json(out / "codec.json", "codec", DatasetCodec.from_json,
                      codec_bytes)
    tokenizer = Tokenizer.from_json(sidecar["tokenizer"])
    model = PipelineModel(codec, tokenizer, config, None)
    apply_lora(model.lm, config.lora, None)
    load_params(model.parameters(), tensors)
    if reuse:
        _reused.update(key=key, payload=files[0],
                       pipeline=(model, config, codec, sidecar))
    return model, config, codec, sidecar


def evaluate_stage(out_dir: str | Path, dataset: Dataset,
                   task_ids: list[str] | None = None,
                   zero_shot: bool = False,
                   train_split: Dataset | None = None) -> EvalReport:
    """Score a trained pipeline on a dataset, with baseline columns.

    With ``zero_shot``, every requested task must be in the checkpoint's
    held-out set; asking for a trained task is a protocol violation and is
    rejected.
    """
    model, config, codec, sidecar = load_pipeline(out_dir, reuse=True)
    manifest = sidecar["manifest"]
    if task_ids is None:
        task_ids = (manifest["held_out_tasks"] if zero_shot
                    else manifest["trained_tasks"])
    tasks = config.select_tasks(task_ids)
    if zero_shot:
        trained = set(manifest["trained_tasks"])
        bad = [t for t in task_ids if t in trained]
        if bad:
            raise ConfigError(
                f"zero-shot protocol violation: tasks {bad} were in the "
                f"training corpus manifest")
        missing = [t for t in task_ids
                   if t not in set(manifest["held_out_tasks"])]
        if missing:
            raise ConfigError(
                f"zero-shot tasks {missing} are not in the held-out set")

    pairs, _, texts, scores = run_inference(model, dataset, tasks, codec,
                                            config)
    report = EvalReport(seed=config.seed, checkpoint_id=config.config_hash(),
                        zero_shot=zero_shot)
    parsed_all = _parse_answers(pairs, texts, tasks, codec)
    rows = {task.task_id: [] for task in tasks}
    for i, pair in enumerate(pairs):
        rows[pair.task_id].append(i)
    for task in tasks:
        idx = rows[task.task_id]
        if not idx:
            continue
        parsed = [parsed_all[i] for i in idx]
        truths = [pairs[i].truth for i in idx]
        task_scores = [scores[i] for i in idx] \
            if task.truth_type == T_BINARY else None
        metrics, n_unparseable = score_task(task, parsed, truths, task_scores)

        baselines: dict = {}
        if train_split is not None:
            train_truths = [p.truth for p in
                            config.corpus(train_split, [task], codec)]
            for kind, base_metrics in score_baselines(
                    task, train_truths, truths).items():
                for m_name, m_value in base_metrics.items():
                    key = m_name if kind == "mode" else f"{m_name}_{kind}"
                    if m_value is not None:
                        baselines[key] = m_value

        report.tasks.append(TaskResult(
            task_id=task.task_id, metrics=metrics, baselines=baselines,
            n_total=len(idx), n_unparseable=n_unparseable))
    return report


# ---------------------------------------------------------------------------
# single-question inference


def _template_regex(task: QATask) -> re.Pattern:
    slots = {
        "feature": re.escape(task.feature) if task.feature else "",
        "target": re.escape(task.target) if task.target else "",
        "value": "(?P<value>.+?)",
        "options": "(?P<options>.+?)",
    }
    escaped = re.escape(task.template)
    for name, repl in slots.items():
        escaped = escaped.replace(re.escape("{%s}" % name), repl)
    suffix = f"(?:\\s+{re.escape(task.instruction)})?" if task.instruction else ""
    return re.compile(f"^{escaped}{suffix}$")


def match_question(question: str, tasks: list[QATask]) -> tuple[QATask, dict]:
    """Find the template family a free-text question instantiates; runs of
    whitespace count as one space."""
    question = " ".join(question.split())
    for task in tasks:
        m = _template_regex(task).match(question)
        if m:
            return task, {k: v for k, v in m.groupdict().items()
                          if v is not None}
    templates = "\n".join(
        f"  {t.task_id}: {t.template}" for t in tasks)
    raise ConfigError(
        f"question does not match any registered template. Known templates:\n"
        f"{templates}")


def ask(out_dir: str | Path, sequence_path: str | Path,
        question: str) -> dict:
    """One-shot inference: answer a templated question about one sequence.

    The question may leave out the task instruction. The canonical body is
    rendered again from the matched template and answered by
    ``answer_pairs`` as a batch of one, exactly as evaluation answers it.
    Repeated calls in one process reuse the loaded pipeline while its three
    files are byte-identical (``load_pipeline``'s ``reuse``); any changed
    byte reloads and verifies it.
    """
    model, config, codec, _ = load_pipeline(out_dir, reuse=True)
    task, slots = match_question(question, config.built_tasks())

    dataset = load_jsonl(sequence_path, codec.schema)
    if not dataset.sequences:
        raise DataError(f"no sequences in {sequence_path}")
    seq = dataset.sequences[0]
    if admit_sequence(seq, task, config.min_seq_len,
                      config.max_seq_len) is None:
        raise DataError(
            f"sequence of {len(seq)} events violates the length policy "
            f"[{config.min_seq_len}, {config.max_seq_len}] for this task")

    pair = QAPair(task_id=task.task_id, client_id=seq.client_id,
                  prefix=config.prefix, body=format_body(task, **slots),
                  truth=None, answer="")
    texts, scores = answer_pairs(model, [pair], {seq.client_id: seq},
                                 {task.task_id: task}, codec, config)
    text = texts[0]
    parsed = parse_answer(text, task, vocabulary=_task_vocab(task, codec))
    result = {
        "task": task.task_id,
        "question": question,
        "generation": text,
        "parsed": None if isinstance(parsed, Unparseable) else parsed,
        "unparseable_reason": parsed.reason if isinstance(parsed, Unparseable)
        else None,
    }
    if task.truth_type == T_BINARY:
        result["score"] = scores[0]
    return result
