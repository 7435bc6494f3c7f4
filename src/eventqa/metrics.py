"""Evaluation metrics, statistical baselines, and per-task reports."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .qa import T_BINARY, T_CATEGORY, T_COUNT, T_NUMBER, QATask, Unparseable


def accuracy(preds: list, truths: list) -> float:
    if len(preds) != len(truths):
        raise DataError(f"length mismatch: {len(preds)} vs {len(truths)}")
    if not preds:
        raise DataError("accuracy over an empty set is undefined")
    return sum(1 for p, t in zip(preds, truths) if p == t) / len(preds)


def f1_binary(preds: list, truths: list, positive=1) -> float:
    """2TP / (2TP + FP + FN); 0.0 when the denominator is empty."""
    if len(preds) != len(truths):
        raise DataError(f"length mismatch: {len(preds)} vs {len(truths)}")
    tp = sum(1 for p, t in zip(preds, truths) if p == positive and t == positive)
    fp = sum(1 for p, t in zip(preds, truths) if p == positive and t != positive)
    fn = sum(1 for p, t in zip(preds, truths) if p != positive and t == positive)
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2 * tp / denom


def f1_macro(preds: list, truths: list) -> float:
    """Unweighted mean of per-class binary F1 over the classes in truths."""
    classes = sorted({t for t in truths}, key=repr)
    if not classes:
        raise DataError("f1_macro over an empty set is undefined")
    return sum(f1_binary(preds, truths, positive=c) for c in classes) / len(classes)


def _check_numeric(values: list, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    bad = np.where(~np.isfinite(arr))[0]
    if bad.size:
        raise DataError(f"{name}[{int(bad[0])}] is not finite: {arr[bad[0]]!r}")
    return arr


def _numeric_pair(preds: list, truths: list, metric: str) -> tuple:
    if len(preds) != len(truths):
        raise DataError(f"length mismatch: {len(preds)} vs {len(truths)}")
    if not preds:
        raise DataError(f"{metric} over an empty set is undefined")
    return _check_numeric(preds, "preds"), _check_numeric(truths, "truths")


def mae(preds: list, truths: list) -> float:
    p, t = _numeric_pair(preds, truths, "mae")
    return float(np.abs(t - p).mean())


def mse(preds: list, truths: list) -> float:
    p, t = _numeric_pair(preds, truths, "mse")
    return float(((t - p) ** 2).mean())


def roc_auc(scores: list, labels: list) -> float:
    """Rank-statistic AUC with ties counted one half.

    Equals the probability that a uniformly random positive outscores a
    uniformly random negative, ties worth 0.5.
    """
    if len(scores) != len(labels):
        raise DataError(f"length mismatch: {len(scores)} vs {len(labels)}")
    s = _check_numeric(scores, "scores")
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos + n_neg != len(labels):
        raise DataError("labels must be 0/1")
    if n_pos == 0 or n_neg == 0:
        raise DataError("roc_auc needs both classes present")
    order = np.argsort(s, kind="stable")
    ranks = np.empty(len(s), dtype=np.float64)
    sorted_scores = s[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        ranks[order[i:j + 1]] = midrank
        i = j + 1
    pos_rank_sum = float(ranks[y == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# statistical baselines (fitted on the train split only)


def statistical_baseline(task: QATask, truths: list) -> dict:
    """Constant answers fitted on a task's training truths: the mode for
    categorical/binary tasks, the mean and the median for numeric ones."""
    if not truths:
        raise DataError(f"no training truths for task {task.task_id!r}")
    if task.truth_type in (T_CATEGORY, T_BINARY):
        counts = Counter(truths)
        return {"mode": max(sorted(counts, key=repr), key=lambda v: counts[v])}
    values = np.asarray([float(t) for t in truths])
    return {"mean": float(values.mean()), "median": float(np.median(values))}


def score_baselines(task: QATask, train_truths: list,
                    truths: list) -> dict[str, dict]:
    """Baseline kind -> ``score_task`` metrics of answering every one of
    ``truths`` with that kind's constant fitted on ``train_truths``."""
    return {kind: score_task(task, [value] * len(truths), truths)[0]
            for kind, value in statistical_baseline(task, train_truths).items()}


# ---------------------------------------------------------------------------
# reporting


@dataclass
class TaskResult:
    task_id: str
    metrics: dict
    baselines: dict
    n_total: int
    n_unparseable: int

    def to_json(self) -> dict:
        return {"task": self.task_id, "metrics": self.metrics,
                "baselines": self.baselines, "n_total": self.n_total,
                "n_unparseable": self.n_unparseable}


@dataclass
class EvalReport:
    seed: int
    checkpoint_id: str
    zero_shot: bool = False
    tasks: list[TaskResult] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"seed": self.seed, "checkpoint": self.checkpoint_id,
                "zero_shot": self.zero_shot,
                "tasks": [t.to_json() for t in self.tasks]}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def render_table(self) -> str:
        """Plain-text task x metric table with baseline columns."""
        rows = []
        header = ("task", "metric", "model", "baseline", "n", "unparseable")
        rows.append(header)
        for tr in self.tasks:
            for name, value in sorted(tr.metrics.items()):
                base = tr.baselines.get(name)
                rows.append((
                    tr.task_id, name, f"{value:.4f}" if value is not None else "-",
                    f"{base:.4f}" if isinstance(base, float) else "-",
                    str(tr.n_total), str(tr.n_unparseable)))
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = []
        for i, r in enumerate(rows):
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


def score_task(task: QATask, parsed: list, truths: list,
               scores: list | None = None) -> tuple[dict, int]:
    """Metrics for one task given parsed predictions and typed truths.

    Unparseable classifications count as errors; unparseable numerics are
    excluded from the error means. Binary tasks additionally get ROC-AUC from
    the provided real-valued scores.

    Returns (metrics dict, number unparseable).
    """
    n_unparseable = sum(1 for p in parsed if isinstance(p, Unparseable))
    metrics: dict = {}
    if task.truth_type in (T_CATEGORY, T_BINARY):
        adjusted = [None if isinstance(p, Unparseable) else p for p in parsed]
        metrics["accuracy"] = accuracy(adjusted, truths)
        if task.truth_type == T_BINARY:
            metrics["f1"] = f1_binary(adjusted, truths)
            if scores is not None and len(set(truths)) > 1:
                metrics["roc_auc"] = roc_auc(scores, truths)
        else:
            metrics["f1_macro"] = f1_macro(adjusted, truths)
    elif task.truth_type in (T_NUMBER, T_COUNT):
        keep = [(float(p), float(t)) for p, t in zip(parsed, truths)
                if not isinstance(p, Unparseable)]
        if keep:
            p, t = zip(*keep)
            metrics["mae"] = mae(list(p), list(t))
            metrics["mse"] = mse(list(p), list(t))
        else:
            metrics["mae"] = None
            metrics["mse"] = None
    else:
        raise ConfigError(f"cannot score truth type {task.truth_type!r}")
    return metrics, n_unparseable
