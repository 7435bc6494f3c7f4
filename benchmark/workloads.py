"""The benchmark's workloads: experiment configs, set-up, timed phase, checks.

Every workload drives the program through its public functions only and
reports every end-to-end metric, each measured on the calls of its own kind
wherever the workload makes them (see README.md). A timed round holds every
kind of call the workload times, so each metric is sampled across the run:

* ``finetune``: set-up makes data, codec, encoder pretraining and LM warm-up;
  a round pretrains and fine-tunes on one client chunk, evaluates a chunk of
  val clients and makes a block of ``ask`` calls.
* ``long-history``: set-up makes data, codec and LM warm-up; a round
  pretrains and fine-tunes on all 40-64 event histories, evaluates a chunk
  and makes a block of ``ask`` calls.
* ``serve``: set-up makes data, codec, pretraining, warm-up and a brief
  fine-tuning; a round evaluates a chunk (the held-out task through the
  zero-shot path) and makes a block of ``ask`` calls.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from eventqa import autodiff as ad
from eventqa import pipeline as P
from eventqa.checkpoint import load_checkpoint
from eventqa.connector import ConnectorConfig
from eventqa.data import Dataset, EventSequence, GeneratorConfig, save_jsonl
from eventqa.encoder import EncoderConfig
from eventqa.errors import ConfigError
from eventqa.lm import LoraConfig, ToyLmConfig
from eventqa.pipeline import ExperimentConfig, StageSchedule
from eventqa.qa import build_pair, derived_seed

from tracer import ACCUMULATE, GENERATE, Tracer

SETUP_REPEATS = 3       # set-up runs this often; setup_s is the median
MIN_ROUNDS = 3          # timed rounds per untraced run, whatever --seconds says
ASK_CALLS = 200         # the smallest sample whose p95 has 10 calls beyond it
ACCURACY_MARGIN = 0.1   # serve: last/mode accuracy over the mode baseline
GRAD_PARAMS, GRAD_ENTRIES = 8, 3
# A ReLU kink inside [x - h, x + h] spoils a central difference, so an entry
# that disagrees at the first step is tried again at the second.
GRAD_STEPS = (1e-6, 1e-7)

OPS = ("matmul", "add", "mul", "softmax", "layer_norm", "embedding",
       "transpose", "reshape", "concat", "getitem", "relu",
       "masked_cross_entropy")

CATEGORY = {"name": "category", "kind": "categorical", "k": 6,
            "rule": {"type": "client_dirichlet", "alpha": 0.4}}
AMOUNT = {"name": "amount", "kind": "real",
          "rule": {"type": "lognormal_by_category", "of": "category",
                   "mu_min": -0.5, "mu_max": 1.5, "sigma": 0.4}}
TASKS = [
    {"id": "last_category", "family": "last_value", "feature": "category"},
    {"id": "mode_category", "family": "most_frequent", "feature": "category"},
    {"id": "is_mode_category", "family": "is_most_frequent",
     "feature": "category"},
    {"id": "least_category", "family": "least_frequent", "feature": "category"},
]
HELD_OUT = "least_category"
PROBE_RE = re.compile(r"^Is (.+) the most frequent value of category\?")


class SetupError(RuntimeError):
    """Set-up could not finish, so the run has nothing to measure."""


# ---------------------------------------------------------------------------
# sizes and configs


@dataclass(frozen=True)
class Sizes:
    n_clients: int
    events: tuple[int, int]
    window: int
    val_fraction: float
    pretrain: tuple[int, int]      # (epochs, batch)
    warmup_epochs: int
    train_batch: int
    train_chunks: int = 1          # finetune: train split in this many calls
    eval_chunk: int = 50           # clients per evaluation round
    asks_per_round: int = 67       # three rounds make ASK_CALLS
    ask_clients: int = 50
    check_clients: int = 50        # clients of the post-run output checks
    time_derived: tuple[str, ...] = ()


SIZES = {
    "finetune": {
        "full": Sizes(2000, (8, 16), 16, 0.1, (2, 60), 20, 64, train_chunks=6,
                      eval_chunk=100),
        "tiny": Sizes(120, (8, 16), 16, 0.1, (1, 9), 2, 16, train_chunks=2,
                      eval_chunk=6, ask_clients=12, check_clients=12),
    },
    "long-history": {
        "full": Sizes(200, (40, 64), 64, 0.1, (2, 30), 20, 64,
                      time_derived=("hour", "weekday")),
        "tiny": Sizes(40, (40, 64), 64, 0.1, (2, 18), 2, 16, eval_chunk=20,
                      ask_clients=10, check_clients=10,
                      time_derived=("hour", "weekday")),
    },
    "serve": {
        "full": Sizes(2000, (8, 16), 16, 0.5, (2, 50), 60, 16, eval_chunk=100,
                      asks_per_round=20, check_clients=200),
        "tiny": Sizes(100, (8, 16), 16, 0.5, (1, 10), 3, 16, eval_chunk=10,
                      asks_per_round=20, ask_clients=10, check_clients=20),
    },
}


def experiment_config(sizes: Sizes, seed: int) -> ExperimentConfig:
    """The extractive preset's model with the workload's data and schedule."""
    positions = max(sizes.window, 24)
    generator = GeneratorConfig(
        n_clients=sizes.n_clients, events_min=sizes.events[0],
        events_max=sizes.events[1], features=[dict(CATEGORY), dict(AMOUNT)],
        time_derived=list(sizes.time_derived))
    return ExperimentConfig(
        generator=generator, tasks=[dict(t) for t in TASKS],
        held_out_tasks=[HELD_OUT], seed=seed, val_fraction=sizes.val_fraction,
        min_seq_len=2, max_seq_len=sizes.window,
        encoder=EncoderConfig(d_model=32, heads=4, layers=2, d_ff=64,
                              max_positions=positions),
        connector=ConnectorConfig(queries=8, d_model=32, layers=2, heads=4,
                                  d_enc=32, d_out=48, max_events=positions),
        lm=ToyLmConfig(d_model=48, enc_layers=2, dec_layers=2, heads=4,
                       d_ff=96, max_input_len=96, max_output_len=12),
        lora=LoraConfig(rank=4, alpha=8.0, dropout=0.0),
        pretrain=StageSchedule(epochs=sizes.pretrain[0],
                               batch_size=sizes.pretrain[1], peak_lr=3e-3,
                               warmup_steps=3),
        warmup=StageSchedule(epochs=sizes.warmup_epochs, batch_size=32,
                             peak_lr=3e-3, warmup_steps=30),
        train=StageSchedule(epochs=1, batch_size=sizes.train_batch,
                            peak_lr=3e-3, warmup_steps=4))


# ---------------------------------------------------------------------------
# run state


@dataclass
class State:
    """What set-up hands to the timed phase."""
    config: ExperimentConfig
    out: Path
    full: Dataset
    train: Dataset
    val: Dataset
    codec: object
    asks: list[tuple[Path, str, str, str]] = field(default_factory=list)
    ask_seqs: dict[str, EventSequence] = field(default_factory=dict)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool, out_root: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sizes = SIZES[workload]["tiny" if tiny else "full"]
        self.tiny = tiny
        self.out = out_root / workload
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.rates: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        # (model directory, client, task) -> every answer ask gave
        self.answers: dict[tuple[Path, str, str], set[str]] = defaultdict(set)
        self.traced_s = 0.0
        self.untraced_s = 0.0

    # operations and checks

    def op(self, name: str, fn, *args, **kwargs):
        """One operation: a public stage call or an ``ask``. Returns
        (result, seconds); result is None when the call raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            print(f"{self.workload}: {name} failed\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None, time.perf_counter() - start
        return result, time.perf_counter() - start

    def setup_op(self, name: str, fn, *args, **kwargs):
        result, seconds = self.op(name, fn, *args, **kwargs)
        if result is None:
            raise SetupError(f"{name} failed during set-up")
        return result, seconds

    def add_rate(self, metric: str, work: float, seconds: float) -> None:
        """Throughputs are total work over total wall time of their calls."""
        self.rates[metric][0] += work
        self.rates[metric][1] += seconds
        self.samples[metric].append(work / seconds)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)
            print(f"{self.workload}: check failed: {message}", file=sys.stderr)

    # tracing

    def traced(self):
        return self.tracer.active() if self.tracer else contextlib.nullcontext()

    def untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def timed_rounds(self, round_fn) -> int:
        """Whole rounds until --seconds have passed. A traced run plays each
        round twice on the same inputs, untraced then traced, and compares."""
        start = time.perf_counter()
        rounds = 0
        min_rounds = 1 if self.tracer else MIN_ROUNDS
        while rounds < min_rounds or time.perf_counter() - start < self.seconds:
            if self.tracer is None:
                round_fn(rounds)
            else:
                t0 = time.perf_counter()
                round_fn(rounds)
                self.untraced_s += time.perf_counter() - t0
                with self.tracer.active():
                    t0 = time.perf_counter()
                    round_fn(rounds)
                    self.traced_s += time.perf_counter() - t0
            rounds += 1
        return rounds


# ---------------------------------------------------------------------------
# counts the benchmark makes itself


def eligible_pairs(clients: Dataset, config: ExperimentConfig,
                   task_ids: list[str]) -> Counter:
    """(client, task) pairs the length policy admits, per task. Every task
    here is extractive, so a client qualifies with at least min_seq_len
    events."""
    counts: Counter = Counter()
    for seq in clients.sequences:
        if len(seq) >= max(1, config.min_seq_len):
            for task_id in task_ids:
                counts[task_id] += 1
    return counts


def pretrain_feed(train: Dataset, config: ExperimentConfig) -> tuple[int, int]:
    """(events fed, optimizer steps) of one pretraining call. The configs
    make the usable count a multiple of the batch, so every event is fed."""
    usable = [s for s in train.sequences if len(s) >= 2]
    batch = config.pretrain.batch_size
    if len(usable) % batch:
        raise SetupError(f"{len(usable)} pretraining sequences do not fill "
                         f"whole batches of {batch}")
    events = sum(min(len(s), config.max_seq_len) for s in usable)
    return config.pretrain.epochs * events, \
        config.pretrain.epochs * len(usable) // batch


def first_occurrence_extreme(values: list, most: bool):
    counts = Counter(values)
    target = max(counts.values()) if most else min(counts.values())
    return next(v for v in values if counts[v] == target)


def recomputed_truth(task_id: str, seq: EventSequence, body: str):
    """Truth from the raw events, written apart from the program's rules."""
    values = list(seq.values["category"])
    if task_id == "last_category":
        return values[-1]
    if task_id == "mode_category":
        return first_occurrence_extreme(values, most=True)
    if task_id == "least_category":
        return first_occurrence_extreme(values, most=False)
    if task_id == "is_mode_category":
        m = PROBE_RE.match(body)
        if m is None:
            return None
        return int(first_occurrence_extreme(values, most=True) == m.group(1))
    raise KeyError(task_id)


def subset(ds: Dataset, sequences: list[EventSequence]) -> Dataset:
    return Dataset(ds.schema, list(sequences), split=ds.split)


def chunks(ds: Dataset, size: int) -> list[Dataset]:
    return [subset(ds, ds.sequences[i:i + size])
            for i in range(0, len(ds.sequences), size)]


# ---------------------------------------------------------------------------
# stage calls with their measurements and per-call checks


def loss_curve_check(run: Run, path: Path, steps: int | None,
                     stage: str) -> None:
    """Every loss finite, the last tenth of steps below the first tenth,
    and, where the benchmark can count them, the expected number of steps."""
    with path.open() as fh:
        losses = [float(row["loss"]) for row in csv.DictReader(fh)]
    if steps is not None:
        run.check(len(losses) == steps,
                  f"{stage}: {len(losses)} logged steps, expected {steps}")
    run.check(all(math.isfinite(x) for x in losses),
              f"{stage}: non-finite loss")
    tenth = max(1, len(losses) // 10)
    if losses:
        first = sum(losses[:tenth]) / tenth
        last = sum(losses[-tenth:]) / tenth
        run.check(last < first,
                  f"{stage}: last-tenth loss {last:.4f} not below first-tenth "
                  f"{first:.4f}")


def pretrain(run: Run, st: State, train: Dataset) -> None:
    events, steps = pretrain_feed(train, st.config)
    result, seconds = run.op("pretrain_encoder_stage", P.pretrain_encoder_stage,
                             st.config, train, st.codec, st.out)
    if result is None:
        return
    run.add_rate("pretrain_events_per_s", events, seconds)
    loss_curve_check(run, st.out / "pretrain_loss.csv", steps, "pretrain")


def fine_tune(run: Run, st: State, train: Dataset, val: Dataset) -> None:
    config = st.config
    pairs = sum(eligible_pairs(train, config,
                               config.trained_task_ids()).values())
    batch = config.train.batch_size
    steps = config.train.epochs * (pairs // batch)
    result, seconds = run.op("train_stage", P.train_stage, config, train, val,
                             st.codec, st.out)
    if result is None:
        return
    run.add_rate("train_pairs_per_s", steps * batch, seconds)
    loss_curve_check(run, st.out / "train_loss.csv", steps, "train")


def warm_up_lm(run: Run, st: State) -> None:
    # The warm-up stands in for a pretrained backbone; its many tiny LM-only
    # steps would swamp the per-call layer means, so it is never traced.
    with run.untraced():
        run.setup_op("warmup_lm_stage", P.warmup_lm_stage, st.config, st.codec,
                     st.out)
    loss_curve_check(run, st.out / "warmup_loss.csv", None, "warm-up")


def eval_round(run: Run, st: State, clients: Dataset) -> None:
    """The trained tasks, then the held-out task through the zero-shot path."""
    config = st.config
    report, t1 = run.op("evaluate_stage", P.evaluate_stage, st.out, clients)
    zero, t2 = run.op("evaluate_stage", P.evaluate_stage, st.out, clients,
                      zero_shot=True)
    if report is None or zero is None:
        return
    pairs = 0
    for rep, ids in ((report, config.trained_task_ids()),
                     (zero, config.held_out_tasks)):
        got = {t.task_id: t.n_total for t in rep.tasks}
        want = dict(eligible_pairs(clients, config, ids))
        run.check(got == want, f"evaluation pair counts {got} != {want}")
        pairs += sum(got.values())
    run.add_rate("eval_pairs_per_s", pairs, t1 + t2)


def ask_once(run: Run, st: State, index: int, model_key: Path) -> None:
    """One ``ask`` against the live checkpoint; ``model_key`` names the copy
    of that checkpoint the ask check will compare with."""
    path, question, client_id, task_id = st.asks[index % len(st.asks)]
    result, seconds = run.op("ask", P.ask, st.out, path, question)
    if result is None:
        return
    run.samples["ask_ms"].append(seconds * 1e3)
    run.answers[(model_key, client_id, task_id)].add(result["generation"])


# ---------------------------------------------------------------------------
# set-up


def prepare(run: Run) -> State:
    """Data and codec; the ``ask`` inputs in the canonical question form."""
    config = experiment_config(run.sizes, run.seed)
    (full, train, val), _ = run.setup_op("load_splits", P.load_splits, config)
    codec, _ = run.setup_op("fit_codec_stage", P.fit_codec_stage, config, train)
    st = State(config, run.out, full, train, val, codec)
    ask_pool = val if run.workload != "long-history" else full
    ask_dir = run.out / "ask"
    ask_dir.mkdir(exist_ok=True)
    corpus_seed = derived_seed(config.seed, "corpus")
    for seq in ask_pool.sequences[:run.sizes.ask_clients]:
        path = ask_dir / f"{seq.client_id}.jsonl"
        save_jsonl(subset(full, [seq]), path)
        st.ask_seqs[seq.client_id] = seq
        for task in config.built_tasks():
            body = build_pair(task, seq, codec, corpus_seed,
                              prefix=config.prefix).body
            st.asks.append((path, body, seq.client_id, task.task_id))
    return st


def setup_finetune(run: Run) -> State:
    st = prepare(run)
    pretrain(run, st, st.train)
    warm_up_lm(run, st)
    return st


def setup_long_history(run: Run) -> State:
    st = prepare(run)
    warm_up_lm(run, st)
    return st


def setup_serve(run: Run) -> State:
    st = prepare(run)
    pretrain(run, st, st.train)
    warm_up_lm(run, st)
    # the validation parse pass gets as many clients as the finetune ratio
    parse_clients = st.val.sequences[-(len(st.train) // 9):]
    fine_tune(run, st, st.train, subset(st.val, parse_clients))
    return st


def run_setups(run: Run, setup_fn) -> State:
    durations = []
    with run.traced():
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            st = setup_fn(run)
            durations.append(time.perf_counter() - start)
    run.samples["setup_s"] = durations
    return st


# ---------------------------------------------------------------------------
# timed phases


def ask_block(run: Run, st: State, first: int, count: int,
              model_key: Path) -> None:
    for j in range(first, first + count):
        ask_once(run, st, j, model_key)


def keep_checkpoint(run: Run, st: State, round_index: int) -> Path:
    """A copy of the checkpoint a retraining round's asks use, for the ask
    check; the next round overwrites the live one."""
    kept = run.out / "rounds" / str(round_index)
    kept.mkdir(parents=True, exist_ok=True)
    for name in ("pipeline.bin", "pipeline.json", "codec.json"):
        shutil.copyfile(st.out / name, kept / name)
    return kept


def train_round(run: Run, st: State, i: int, train: Dataset, val: Dataset,
                evals: list[Dataset]) -> None:
    """Pretrain, fine-tune, then evaluation with asks on either side of it,
    so the asks sample more of the run."""
    pretrain(run, st, train)
    fine_tune(run, st, train, val)
    kept = keep_checkpoint(run, st, i)
    per = run.sizes.asks_per_round
    ask_block(run, st, i * per, per // 2, kept)
    eval_round(run, st, evals[i % len(evals)])
    ask_block(run, st, i * per + per // 2, per - per // 2, kept)


def top_up_asks(run: Run, st: State, rounds: int) -> None:
    """p95 needs ASK_CALLS samples; a slow machine gets the rest here."""
    j = rounds * run.sizes.asks_per_round
    while run.tracer is None and len(run.samples["ask_ms"]) < ASK_CALLS \
            and run.failed < ASK_CALLS:
        ask_once(run, st, j, st.out)
        j += 1


def timed_finetune(run: Run, st: State) -> None:
    k = run.sizes.train_chunks
    parts = [(subset(st.train, st.train.sequences[i::k]),
              subset(st.val, st.val.sequences[i::k])) for i in range(k)]
    evals = chunks(st.val, run.sizes.eval_chunk)
    rounds = run.timed_rounds(
        lambda i: train_round(run, st, i, *parts[i % k], evals))
    top_up_asks(run, st, rounds)


def timed_long_history(run: Run, st: State) -> None:
    evals = chunks(st.full, run.sizes.eval_chunk)
    rounds = run.timed_rounds(
        lambda i: train_round(run, st, i, st.train, st.val, evals))
    top_up_asks(run, st, rounds)


def timed_serve(run: Run, st: State) -> None:
    evals = chunks(st.val, run.sizes.eval_chunk)
    per = run.sizes.asks_per_round

    def one_round(i):
        eval_round(run, st, evals[i % len(evals)])
        ask_block(run, st, i * per, per, st.out)

    top_up_asks(run, st, run.timed_rounds(one_round))


# ---------------------------------------------------------------------------
# output checks, outside every timed window


def check_outputs(run: Run, st: State) -> None:
    check_frozen_base(run, st.out)
    check_zero_shot_guard(run, st)
    model, config, codec, _ = P.load_pipeline(st.out)
    pool = st.val if run.workload != "long-history" else st.full
    clients = subset(pool, pool.sequences[:run.sizes.check_clients])
    pairs, _, texts, _ = P.run_inference(model, clients, config.built_tasks(),
                                         codec, config)
    by_client = {s.client_id: s for s in clients.sequences}

    want = eligible_pairs(clients, config, [t["id"] for t in config.tasks])
    run.check(Counter(p.task_id for p in pairs) == want,
              "run_inference pair counts differ from the eligible count")
    bad = [(p.client_id, p.task_id) for p in pairs
           if recomputed_truth(p.task_id, by_client[p.client_id], p.body)
           != p.truth]
    run.check(not bad, f"{len(bad)} truths differ from the raw events, "
                       f"first {bad[:3]}")

    if run.workload == "serve" and not run.tiny:
        check_accuracy(run, st, pairs, texts)
    check_gradients(run, model, config, codec, pairs, clients)
    check_asks(run, st)


def check_asks(run: Run, st: State) -> None:
    """Each ask answer equals batched evaluation of the same checkpoint on
    the same client and question."""
    questions = {(c, t): q for _, q, c, t in st.asks}
    by_model: dict[Path, dict] = defaultdict(dict)
    for (model_dir, client_id, task_id), answers in run.answers.items():
        by_model[model_dir][(client_id, task_id)] = answers
    for model_dir, asked in by_model.items():
        model, config, codec, _ = P.load_pipeline(model_dir)
        clients = subset(st.full, [st.ask_seqs[c] for c in
                                   sorted({c for c, _ in asked})])
        pairs, _, texts, _ = P.run_inference(model, clients,
                                             config.built_tasks(), codec,
                                             config)
        batched = {(p.client_id, p.task_id): (p.body, text)
                   for p, text in zip(pairs, texts)}
        for key, answers in asked.items():
            body, text = batched[key]
            run.check(questions[key] == body and answers == {text},
                      f"ask on {key} answered {answers}, batched evaluation "
                      f"{text!r} ({model_dir.name})")


def check_frozen_base(run: Run, out: Path) -> None:
    tensors, sidecar = load_checkpoint(out / "pipeline")
    base, _ = load_checkpoint(out / "lm_base")
    frozen = sidecar["frozen"]
    matched = set()
    for name in frozen:
        base_name = name.replace(".base.", ".")
        same = (base_name in base and tensors[name].shape == base[base_name].shape
                and tensors[name].tobytes() == base[base_name].tobytes())
        run.check(same, f"frozen tensor {name} differs from lm_base")
        matched.add(base_name)
    live = {n for n in base if n in tensors and n not in frozen}
    run.check(bool(frozen) and set(base) - matched <= live,
              "lm_base tensors missing from the frozen set")


def check_zero_shot_guard(run: Run, st: State) -> None:
    trained = st.config.trained_task_ids()[0]
    try:
        P.evaluate_stage(st.out, subset(st.val, st.val.sequences[:2]),
                         task_ids=[trained], zero_shot=True)
    except ConfigError:
        return
    run.check(False, f"zero-shot evaluation of trained task {trained} ran")


def check_accuracy(run: Run, st: State, pairs, texts) -> None:
    """Exact-match accuracy against the mode of the training truths."""
    for task_id in ("last_category", "mode_category"):
        train_truths = Counter(recomputed_truth(task_id, s, "")
                               for s in st.train.sequences)
        mode_answer = train_truths.most_common(1)[0][0]
        scored = [(text.strip() == str(p.truth), p.truth == mode_answer)
                  for p, text in zip(pairs, texts) if p.task_id == task_id]
        acc = sum(a for a, _ in scored) / len(scored)
        base = sum(b for _, b in scored) / len(scored)
        run.check(acc >= base + ACCURACY_MARGIN,
                  f"{task_id} accuracy {acc:.3f} does not beat the mode "
                  f"baseline {base:.3f} by {ACCURACY_MARGIN}")


def check_gradients(run: Run, model, config, codec, pairs, clients) -> None:
    """ad.backward against central differences of qa_loss on one batch."""
    trained = set(config.trained_task_ids())
    batch_pairs = [p for p in pairs if p.task_id in trained][:4]
    tasks = {t.task_id: t for t in config.built_tasks()}
    batch = P.make_qa_batch(batch_pairs,
                            {s.client_id: s for s in clients.sequences},
                            tasks, codec, model.lm.tokenizer, config)
    params = model.trainable_parameters()
    names = sorted(params)
    rng = np.random.default_rng(run.seed)
    chosen = [names[i] for i in sorted(rng.choice(
        len(names), size=min(GRAD_PARAMS, len(names)), replace=False))]
    model.zero_grad()
    ad.backward(P.qa_loss(model, batch))
    worst = 0.0
    for name in chosen:
        p = params[name]
        flat = p.data.reshape(-1)
        analytic = (p.grad.reshape(-1) if p.grad is not None
                    else np.zeros_like(flat))
        for i in rng.choice(flat.size, size=min(GRAD_ENTRIES, flat.size),
                            replace=False):
            errors = []
            for h in GRAD_STEPS:
                orig = flat[i]
                flat[i] = orig + h
                with ad.no_grad():
                    plus = P.qa_loss(model, batch).item()
                flat[i] = orig - h
                with ad.no_grad():
                    minus = P.qa_loss(model, batch).item()
                flat[i] = orig
                numeric = (plus - minus) / (2 * h)
                diff = abs(numeric - analytic[i])
                errors.append(0.0 if diff <= 1e-7 else
                              diff / max(abs(numeric), abs(analytic[i])))
                if errors[-1] <= 1e-4:
                    break
            worst = max(worst, min(errors))
    run.check(worst <= 1e-4,
              f"gradient check: worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# result


WORKLOADS = {
    "finetune": (setup_finetune, timed_finetune),
    "long-history": (setup_long_history, timed_long_history),
    "serve": (setup_serve, timed_serve),
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool, out_root: Path) -> dict:
    run = Run(workload, seed, seconds, trace, tiny, out_root)
    setup_fn, timed_fn = WORKLOADS[workload]
    st = run_setups(run, setup_fn)
    timed_fn(run, st)
    check_outputs(run, st)
    for name, values in run.samples.items():
        if name != "ask_ms":
            print(f"{workload}: {name} per call: "
                  + " ".join(f"{v:.4g}" for v in values), file=sys.stderr)
    metrics = per_layer(run) if run.tracer else end_to_end(run)
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(run: Run) -> dict:
    s = run.samples
    asks = sorted(s["ask_ms"])
    p95_rank = math.ceil(0.95 * len(asks))
    if len(asks) - p95_rank < 10:
        raise SetupError(f"{len(asks)} ask calls leave fewer than ten beyond "
                         f"p95")
    rates = ("train_pairs_per_s", "pretrain_events_per_s", "eval_pairs_per_s")
    missing = [k for k in rates if not run.rates[k][1]]
    if missing:
        raise SetupError(f"no successful calls measured {missing}")
    m = {"setup_s": _metric(statistics.median(s["setup_s"]), "s")}
    for k in rates:
        m[k] = _metric(run.rates[k][0] / run.rates[k][1], "1/s")
    return m | {
        "ask_p50_ms": _metric(statistics.median(asks), "ms"),
        "ask_p95_ms": _metric(asks[p95_rank - 1], "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run: Run) -> dict:
    tr = run.tracer
    (run.out / "trace.json").write_text(json.dumps(tr.table(), indent=1))
    steps = tr.step_calls.get("optim.AdamW.step", 0)
    backward = tr.calls.get("autodiff.backward", 0)
    generates = tr.calls.get(GENERATE, 0)
    if not (steps and backward and generates):
        raise SetupError("the traced run made no fine-tuning step, backward "
                         "pass or generate call")
    m = {
        "autodiff.backward_ms": _metric(tr.mean("autodiff.backward", 1e3), "ms"),
        "autodiff.accumulate_grad_calls": _metric(
            tr.calls[ACCUMULATE] / backward, "count"),
        "autodiff.grad_copies": _metric(tr.grad_copies / backward, "count"),
    }
    for op in OPS:
        key = f"autodiff.{op}"
        m[f"autodiff.op.{op}.calls"] = _metric(
            tr.step_calls.get(key, 0) / steps, "count")
        m[f"autodiff.op.{op}.fwd_ms"] = _metric(
            tr.step_seconds.get(key, 0.0) / steps * 1e3, "ms")
    per_call = {
        "lm.encode_fwd_ms": ("lm.ToyLm.encode", 1e3, "ms"),
        "lm.decode_fwd_ms": ("lm.ToyLm.decode", 1e3, "ms"),
        "lm.loss_ms": ("lm.ToyLm.answer_loss", 1e3, "ms"),
        "lm.generate_ms": (GENERATE, 1e3, "ms"),
        "codec.embed_fwd_ms": ("codec.EventEmbedder.embed_indices", 1e3, "ms"),
        "encoder.fwd_ms": ("encoder.EventEncoder.encode", 1e3, "ms"),
        "connector.fwd_ms": ("connector.Connector.forward", 1e3, "ms"),
        "codec.encode_batch_ms": ("codec.DatasetCodec.encode_batch", 1e3, "ms"),
        "pipeline.make_qa_batch_ms": ("pipeline.make_qa_batch", 1e3, "ms"),
        "qa.build_pair_us": ("qa.build_pair", 1e6, "us"),
        "qa.parse_answer_us": ("qa.parse_answer", 1e6, "us"),
        "metrics.score_task_ms": ("metrics.score_task", 1e3, "ms"),
        "optim.clip_ms": ("optim.AdamW.clip_grad_norm", 1e3, "ms"),
        "optim.step_ms": ("optim.AdamW.step", 1e3, "ms"),
        "checkpoint.load_ms": ("checkpoint.load_checkpoint", 1e3, "ms"),
        "checkpoint.save_ms": ("checkpoint.save_checkpoint", 1e3, "ms"),
        "pipeline.load_pipeline_ms": ("pipeline.load_pipeline", 1e3, "ms"),
        "data.generate_s": ("data.generate_synthetic", 1.0, "s"),
        "codec.fit_s": ("codec.DatasetCodec.fit", 1.0, "s"),
    }
    for name, (key, scale, unit) in per_call.items():
        m[name] = _metric(tr.mean(key, scale), unit)
    m["lm.decode_calls_per_generate"] = _metric(
        tr.decode_in_generate / generates, "count")
    m["lm.tokens_generated"] = _metric(tr.tokens_generated / generates, "count")
    m["trace.overhead_pct"] = _metric(
        (run.traced_s / run.untraced_s - 1.0) * 100.0, "%")
    return m
