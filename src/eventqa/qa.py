"""Question-answer task framing over event sequences.

Tasks come in two kinds: extractive (answerable from the given events:
statistics, occurrence, last value) and predictive (about a held-out next
event or a stored sequence outcome). Answers are binary (Yes/No), multiple
choice, or open-ended. Every task renders a question as a constant prefix
plus a templated body ending in an answer-format instruction, computes its
ground truth by direct brute force over the raw events, and serializes the
truth to the exact text the model is trained to emit.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .codec import DatasetCodec
from .data import Dataset, EventSequence
from .errors import ConfigError, DataError

DEFAULT_PREFIX = "Given the event history,"

BINARY = "binary"
MULTI_CHOICE = "multi_choice"
OPEN = "open"

EXTRACTIVE = "extractive"
PREDICTIVE = "predictive"

# typed-answer classes
T_BINARY = "binary"
T_CATEGORY = "category"
T_NUMBER = "number"
T_COUNT = "count"

YES, NO = "Yes", "No"


@dataclass(frozen=True)
class Unparseable:
    reason: str

    def __bool__(self) -> bool:  # truthiness marks "has a value"
        return False


@dataclass(frozen=True)
class QATask:
    """One question family bound to a concrete feature or target."""

    task_id: str
    family: str
    kind: str                    # extractive | predictive
    answer_mode: str             # binary | multi_choice | open
    truth_type: str              # binary | category | number | count
    template: str                # body template with {feature}/{value}/{options}
    instruction: str             # appended verbatim at the end of the body
    feature: str | None = None
    target: str | None = None
    n_options: int = 4
    holdout_last: bool = False   # encoder must not see the final event

    def __post_init__(self):
        if self.kind not in (EXTRACTIVE, PREDICTIVE):
            raise ConfigError(f"task {self.task_id}: bad kind {self.kind!r}")
        if self.answer_mode not in (BINARY, MULTI_CHOICE, OPEN):
            raise ConfigError(
                f"task {self.task_id}: bad answer mode {self.answer_mode!r}")
        if self.answer_mode == MULTI_CHOICE and self.n_options < 2:
            raise ConfigError(
                f"task {self.task_id}: multiple choice needs >= 2 options")

    def visible_sequence(self, seq: EventSequence) -> EventSequence:
        """The events the encoder may see (predictive tasks hide the last)."""
        return seq.drop_last() if self.holdout_last else seq


@dataclass
class QAPair:
    task_id: str
    client_id: str
    prefix: str
    body: str
    truth: object
    answer: str


# ---------------------------------------------------------------------------
# task registry


# family -> its QATask field values (see build_task for a spec's overrides)
TASK_FAMILIES: dict[str, dict] = {
    "last_value": dict(
        kind=EXTRACTIVE, answer_mode=OPEN, truth_type=T_CATEGORY,
        template="What is the {feature} of the last event?",
        instruction="Answer with a single value name."),
    "first_value": dict(
        kind=EXTRACTIVE, answer_mode=OPEN, truth_type=T_CATEGORY,
        template="What is the {feature} of the first event?",
        instruction="Answer with a single value name."),
    "most_frequent": dict(
        kind=EXTRACTIVE, answer_mode=OPEN, truth_type=T_CATEGORY,
        template="What is the most frequent value of {feature} in the entire dataset?",
        instruction="Answer with a single value name."),
    "least_frequent": dict(
        kind=EXTRACTIVE, answer_mode=OPEN, truth_type=T_CATEGORY,
        template="What is the least frequent value of {feature}?",
        instruction="Answer with a single value name."),
    "most_frequent_mc": dict(
        kind=EXTRACTIVE, answer_mode=MULTI_CHOICE, truth_type=T_CATEGORY,
        template="What is the most frequent value of {feature}? Options: {options}.",
        instruction=""),
    "is_most_frequent": dict(
        kind=EXTRACTIVE, answer_mode=BINARY, truth_type=T_BINARY,
        template="Is {value} the most frequent value of {feature}?",
        instruction="Answer Yes or No."),
    "occurrence": dict(
        kind=EXTRACTIVE, answer_mode=BINARY, truth_type=T_BINARY,
        template="Does the value {value} occur for {feature}?",
        instruction="Answer Yes or No."),
    "count_events": dict(
        kind=EXTRACTIVE, answer_mode=OPEN, truth_type=T_COUNT,
        template="How many events are in the sequence?",
        instruction="Answer with a number."),
    "min_value": dict(
        kind=EXTRACTIVE, answer_mode=OPEN, truth_type=T_NUMBER,
        template="What is the minimum value of {feature}?",
        instruction="Answer with a number."),
    "max_value": dict(
        kind=EXTRACTIVE, answer_mode=OPEN, truth_type=T_NUMBER,
        template="What is the maximum value of {feature}?",
        instruction="Answer with a number."),
    "mean_value": dict(
        kind=EXTRACTIVE, answer_mode=OPEN, truth_type=T_NUMBER,
        template="What is the mean value of {feature}?",
        instruction="Answer with a number."),
    "next_value": dict(
        kind=PREDICTIVE, answer_mode=OPEN, truth_type=T_CATEGORY,
        template="What is the {feature} of the next event?",
        instruction="Answer with a single value name.", holdout_last=True),
    "next_value_number": dict(
        kind=PREDICTIVE, answer_mode=OPEN, truth_type=T_NUMBER,
        template="What is the {feature} of the next event?",
        instruction="Answer with a number.", holdout_last=True),
    "sequence_label": dict(
        kind=PREDICTIVE, answer_mode=BINARY, truth_type=T_BINARY,
        template="Is the outcome {target} positive for this client?",
        instruction="Answer Yes or No."),
}
_SPEC_FIELDS = ("feature", "target", "n_options", "template", "instruction")


def build_task(spec: dict) -> QATask:
    """Instantiate a task from its JSON description: the family's field
    values, with the spec's non-null ``_SPEC_FIELDS`` laid over them."""
    if "family" not in spec or "id" not in spec:
        raise ConfigError(f"task spec needs 'id' and 'family': {spec}")
    family = spec["family"]
    if family not in TASK_FAMILIES:
        raise ConfigError(
            f"unknown task family {family!r}; known: {sorted(TASK_FAMILIES)}")
    overrides = {k: spec[k] for k in _SPEC_FIELDS if spec.get(k) is not None}
    return QATask(task_id=spec["id"], family=family,
                  **{**TASK_FAMILIES[family], **overrides})


def build_tasks(specs: list[dict]) -> list[QATask]:
    tasks = [build_task(s) for s in specs]
    ids = [t.task_id for t in tasks]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate task ids: {ids}")
    return tasks


# ---------------------------------------------------------------------------
# ground truth (direct brute force over raw events)


def derived_seed(seed: int, *parts: str) -> int:
    """Stable 63-bit stream seed from the run seed and string parts."""
    h = hashlib.sha256((":".join([str(seed), *parts])).encode()).digest()
    return int.from_bytes(h[:8], "little") >> 1


def _observed(seq: EventSequence, codec: DatasetCodec, feature: str) -> list:
    spec = codec.schema.feature(feature)
    return [v for v in seq.feature_column(spec) if v is not None]


def _observed_values(task: QATask, seq: EventSequence,
                     codec: DatasetCodec) -> list:
    """The task feature's observed values; none at all is a DataError."""
    values = _observed(seq, codec, task.feature)
    if not values:
        raise DataError(f"{task.task_id}: no observed values")
    return values


def _mode(values: list, pick=max):
    """The most frequent value, or with ``pick=min`` the least frequent;
    ties go to the value seen first, and an empty list gives None."""
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return pick(counts, key=counts.get) if counts else None


def _numeric_representative(x: float, codec: DatasetCodec, feature: str):
    """Open-ended numeric answers live in the discretized value space."""
    fc = codec[feature]
    if fc.bins is not None:
        value, _ = fc.bins.discretize(float(x))
        return value
    return x


def ground_truth(task: QATask, seq: EventSequence, codec: DatasetCodec,
                 slots: dict | None = None):
    """Typed answer computed by brute force over the raw events.

    ``slots`` carries the rendered question's bound values (e.g. the probe
    value of a binary occurrence question); render_question produces it.
    """
    if len(seq) == 0:
        raise DataError("cannot answer questions about an empty sequence")
    slots = slots or {}
    fam = task.family
    if fam in ("last_value", "first_value"):
        values = _observed_values(task, seq, codec)
        return values[-1] if fam == "last_value" else values[0]
    if fam in ("most_frequent", "most_frequent_mc", "least_frequent"):
        return _mode(_observed_values(task, seq, codec),
                     min if fam == "least_frequent" else max)
    if fam == "is_most_frequent":
        values = _observed(seq, codec, task.feature)
        return int(_mode(values) == slots["value"])
    if fam == "occurrence":
        values = _observed(seq, codec, task.feature)
        return int(slots["value"] in values)
    if fam == "count_events":
        return len(seq)
    if fam in ("min_value", "max_value", "mean_value"):
        values = [float(v) for v in _observed_values(task, seq, codec)]
        if fam == "min_value":
            raw = min(values)
        elif fam == "max_value":
            raw = max(values)
        else:
            raw = sum(values) / len(values)
        return _numeric_representative(raw, codec, task.feature)
    if fam in ("next_value", "next_value_number"):
        if len(seq) < 2:
            raise DataError(
                f"{task.task_id}: a length-1 sequence has no held-out event")
        spec = codec.schema.feature(task.feature)
        value = seq.feature_column(spec)[-1]
        if value is None:
            raise DataError(f"{task.task_id}: held-out value is missing")
        if task.truth_type == T_NUMBER:
            return _numeric_representative(float(value), codec, task.feature)
        return value
    if fam == "sequence_label":
        if task.target not in seq.targets:
            raise DataError(
                f"{task.task_id}: sequence {seq.client_id!r} lacks target "
                f"{task.target!r}")
        return int(seq.targets[task.target])
    raise ConfigError(f"no ground truth rule for family {fam!r}")


# ---------------------------------------------------------------------------
# rendering


def _feature_vocab(codec: DatasetCodec, feature: str) -> list:
    fc = codec[feature]
    if fc.vocab is None:
        raise ConfigError(
            f"feature {feature!r} is binned, not categorical; no vocabulary")
    return list(fc.vocab.values)


def render_question(task: QATask, seq: EventSequence, seed: int,
                    codec: DatasetCodec) -> tuple[str, dict]:
    """Render (body, slots); deterministic under the seed.

    Multi-choice options are a seeded shuffle of a pool that always contains
    the ground truth exactly once; binary probe values are seeded draws that
    hit the true answer about half the time.
    """
    rng = np.random.default_rng(derived_seed(seed, task.task_id, seq.client_id))
    slots: dict = {}
    fields: dict[str, str] = {}

    if task.answer_mode == BINARY and "{value}" in task.template:
        vocab = _feature_vocab(codec, task.feature)
        values = _observed(seq, codec, task.feature)
        if task.family == "occurrence":
            draw_true = values
        else:
            draw_true = [_mode(values)] if values else []
        if rng.random() < 0.5 and draw_true:
            value = draw_true[int(rng.integers(0, len(draw_true)))]
        else:
            value = vocab[int(rng.integers(0, len(vocab)))]
        slots["value"] = value
        fields["value"] = str(value)

    if task.answer_mode == MULTI_CHOICE:
        truth = ground_truth(task, seq, codec, slots)
        vocab = _feature_vocab(codec, task.feature)
        if truth not in vocab:
            raise ConfigError(
                f"task {task.task_id}: option pool lacks the true answer "
                f"{truth!r}")
        others = [v for v in vocab if v != truth]
        n_other = min(task.n_options - 1, len(others))
        chosen = list(rng.choice(len(others), size=n_other, replace=False))
        options = [truth] + [others[i] for i in chosen]
        rng.shuffle(options)
        slots["options"] = options
        fields["options"] = "; ".join(str(o) for o in options)

    return format_body(task, **fields), slots


def format_body(task: QATask, **slots: str) -> str:
    """The template filled with its slot texts, then the task instruction."""
    body = task.template.format(feature=task.feature or "",
                                target=task.target or "", **slots)
    return f"{body} {task.instruction}" if task.instruction else body


# ---------------------------------------------------------------------------
# answer serialization and parsing


def serialize_answer(truth, task: QATask) -> str:
    if task.truth_type == T_BINARY:
        return YES if truth else NO
    if task.truth_type == T_CATEGORY:
        return str(truth)
    if task.truth_type == T_COUNT:
        return str(int(truth))
    if task.truth_type == T_NUMBER:
        return repr(float(truth))
    raise ConfigError(f"cannot serialize truth type {task.truth_type!r}")


_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
_FORMAT_MARKER = "Answer:"


def parse_answer(text: str, task: QATask, vocabulary: list | None = None):
    """Extract a typed value from generated text, or Unparseable.

    Binary answers accept a case-insensitive leading Yes/No. Categorical
    answers take the longest exact vocabulary match after the format marker
    (whole text when no marker is present). Numeric answers take the first
    well-formed decimal literal.
    """
    if text is None:
        return Unparseable("empty generation")
    region = text.split(_FORMAT_MARKER, 1)[-1].strip()
    if not region:
        return Unparseable("empty generation")
    if task.truth_type == T_BINARY:
        lowered = region.lower()
        if lowered.startswith("yes"):
            return 1
        if lowered.startswith("no"):
            return 0
        return Unparseable(f"no leading Yes/No in {region!r}")
    if task.truth_type == T_CATEGORY:
        if vocabulary is None:
            raise ConfigError("categorical parsing needs the value vocabulary")
        best = None
        for v in vocabulary:
            s = str(v)
            pos = region.find(s)
            if pos < 0:
                continue
            if best is None or len(s) > len(str(best[0])) or \
                    (len(s) == len(str(best[0])) and pos < best[1]):
                best = (v, pos)
        if best is None:
            return Unparseable(f"no vocabulary value in {region!r}")
        return best[0]
    if task.truth_type in (T_NUMBER, T_COUNT):
        m = _NUMBER_RE.search(region)
        if not m:
            return Unparseable(f"no numeric literal in {region!r}")
        value = float(m.group(0))
        return int(value) if task.truth_type == T_COUNT else value
    raise ConfigError(f"cannot parse truth type {task.truth_type!r}")


# ---------------------------------------------------------------------------
# corpus construction


def build_pair(task: QATask, seq: EventSequence, codec: DatasetCodec,
               seed: int, prefix: str = DEFAULT_PREFIX) -> QAPair:
    body, slots = render_question(task, seq, seed, codec)
    truth = ground_truth(task, seq, codec, slots)
    return QAPair(task_id=task.task_id, client_id=seq.client_id,
                  prefix=prefix, body=body, truth=truth,
                  answer=serialize_answer(truth, task))


def eligible(task: QATask, seq: EventSequence) -> bool:
    return len(seq) >= 2 if task.holdout_last else len(seq) >= 1


def admit_sequence(seq: EventSequence, task: QATask, min_len: int,
                   max_len: int) -> EventSequence | None:
    """Apply the visibility rule then the length policy (keep most recent)."""
    if not eligible(task, seq):
        return None
    visible = task.visible_sequence(seq)
    if len(visible) < min_len:
        return None
    return visible.tail(max_len)


def build_corpus(dataset: Dataset, tasks: list[QATask], codec: DatasetCodec,
                 seed: int, prefix: str, min_len: int,
                 max_len: int) -> list[QAPair]:
    """Every (sequence, task) pair the length policy admits, tasks
    interleaved per sequence.

    Each question and truth covers the events the model sees, the most
    recent ``max_len``, plus the held-out event of a predictive task.
    """
    if not tasks:
        raise ConfigError("no tasks to build question pairs for")
    pairs: list[QAPair] = []
    for seq in dataset.sequences:
        for task in tasks:
            if admit_sequence(seq, task, min_len, max_len) is None:
                continue
            window = seq.tail(max_len + int(task.holdout_last))
            pairs.append(build_pair(task, window, codec, seed, prefix=prefix))
    return pairs


# ---------------------------------------------------------------------------
# tokenizer word inventory


def corpus_word_inventory(codec: DatasetCodec, tasks: list[QATask],
                          prefix: str = DEFAULT_PREFIX) -> list[str]:
    """Every word that can appear in rendered questions or answers."""
    words: set[str] = {prefix, YES, NO, _FORMAT_MARKER}
    for task in tasks:
        words.add(task.template)
        words.add(task.instruction)
        if task.feature:
            words.add(task.feature)
            fc = codec[task.feature]
            if fc.vocab is not None:
                for v in fc.vocab.values:
                    words.add(str(v))
        if task.target:
            words.add(task.target)
    return sorted(words)
