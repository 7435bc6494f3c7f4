"""Event-sequence data model, JSONL ingestion, splitting, synthetic data.

An event sequence is a client's temporally ordered events; each event has an
integer epoch-second timestamp plus one value per schema feature. Sequence
level targets (e.g. a binary outcome) live beside the events. Time-derived
features (hour, weekday, week) are computed from the timestamp on demand and
never stored, so the timestamp stays the single source of truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import atomic_write_text
from .errors import ConfigError, DataError, JsonConfig

SCHEMA_VERSION = 1
GENERATOR_VERSION = 1

CATEGORICAL = "categorical"
INTEGER = "integer"
REAL = "real"
TIME_DERIVED = "time_derived"
_KINDS = (CATEGORICAL, INTEGER, REAL, TIME_DERIVED)

_DERIVATIONS = ("hour", "weekday", "week")

# Single-word value names for generated categorical features; suffixed with
# digits past 26 categories.
_NATO = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
    "mike november oscar papa quebec romeo sierra tango uniform victor whiskey "
    "xray yankee zulu"
).split()


def category_names(k: int) -> list[str]:
    names = []
    for i in range(k):
        base = _NATO[i % len(_NATO)]
        names.append(base if i < len(_NATO) else f"{base}{i // len(_NATO) + 1}")
    return names


def derive_time_feature(kind: str, t: int) -> int:
    """One time feature of a timestamp; ``hour`` and ``weekday`` also take an
    int64 array (numpy's ``//`` and ``%`` floor as Python's do)."""
    if kind == "hour":
        return (t // 3600) % 24
    if kind == "weekday":
        return (t // 86400 + 3) % 7  # epoch day 0 was a Thursday; Monday = 0
    if kind == "week":
        return datetime.fromtimestamp(t, tz=timezone.utc).isocalendar().week
    raise ConfigError(f"unknown time derivation {kind!r}")


def time_feature_values(kind: str) -> list[int]:
    if kind == "hour":
        return list(range(24))
    if kind == "weekday":
        return list(range(7))
    if kind == "week":
        return list(range(1, 54))
    raise ConfigError(f"unknown time derivation {kind!r}")


@dataclass(frozen=True)
class FeatureSpec:
    """Declarative description of one event feature."""

    name: str
    kind: str
    values: tuple | None = None     # declared vocabulary, checked at load
    cardinality: int | None = None
    unit: str | None = None
    derive: str | None = None       # time_derived only

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == TIME_DERIVED:
            if self.derive not in _DERIVATIONS:
                raise ConfigError(
                    f"feature {self.name!r}: derive must be one of {_DERIVATIONS}")
        elif self.derive is not None:
            raise ConfigError(f"feature {self.name!r}: derive only valid for "
                              f"time_derived features")
        if self.values is not None and self.cardinality is not None:
            if len(self.values) != self.cardinality:
                raise ConfigError(
                    f"feature {self.name!r}: cardinality {self.cardinality} "
                    f"does not match {len(self.values)} declared values")
        if self.kind == CATEGORICAL:
            k = self.declared_cardinality
            if k is not None and k < 1:
                raise ConfigError(f"feature {self.name!r}: cardinality must be >= 1")

    @property
    def declared_cardinality(self) -> int | None:
        if self.values is not None:
            return len(self.values)
        return self.cardinality

    @property
    def stored(self) -> bool:
        """Whether events carry this feature explicitly (vs derived from t)."""
        return self.kind != TIME_DERIVED

    def to_json(self) -> dict:
        out: dict = {"name": self.name, "kind": self.kind}
        if self.values is not None:
            out["values"] = list(self.values)
        if self.cardinality is not None and self.values is None:
            out["cardinality"] = self.cardinality
        if self.unit is not None:
            out["unit"] = self.unit
        if self.derive is not None:
            out["derive"] = self.derive
        return out

    @classmethod
    def from_json(cls, d: dict) -> "FeatureSpec":
        return cls(
            name=d["name"], kind=d["kind"],
            values=tuple(d["values"]) if "values" in d else None,
            cardinality=d.get("cardinality"), unit=d.get("unit"),
            derive=d.get("derive"))


@dataclass(frozen=True)
class Schema:
    features: tuple[FeatureSpec, ...]

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate feature names in schema: {names}")
        if "t" in names:
            raise ConfigError("feature name 't' is reserved for the timestamp")

    def feature(self, name: str) -> FeatureSpec:
        for f in self.features:
            if f.name == name:
                return f
        raise ConfigError(f"unknown feature {name!r}")

    @property
    def stored_features(self) -> tuple[FeatureSpec, ...]:
        return tuple(f for f in self.features if f.stored)

    def to_json(self) -> dict:
        return {"version": SCHEMA_VERSION,
                "features": [f.to_json() for f in self.features]}

    @classmethod
    def from_json(cls, d: dict) -> "Schema":
        if d.get("version") != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema version {d.get('version')!r}")
        return cls(tuple(FeatureSpec.from_json(f) for f in d["features"]))


class EventSequence:
    """One client's ordered events plus sequence-level targets."""

    __slots__ = ("client_id", "timestamps", "values", "targets")

    def __init__(self, client_id: str, timestamps: Sequence[int],
                 values: dict[str, list], targets: dict | None = None):
        self.client_id = client_id
        self.timestamps = [int(t) for t in timestamps]
        self.values = values
        self.targets = dict(targets or {})
        for prev, cur in zip(self.timestamps, self.timestamps[1:]):
            if cur <= prev:
                raise DataError(
                    f"client {client_id!r}: timestamps not strictly increasing "
                    f"({prev} then {cur})")
        for name, column in values.items():
            if len(column) != len(self.timestamps):
                raise DataError(
                    f"client {client_id!r}: feature {name!r} has {len(column)} "
                    f"values for {len(self.timestamps)} events")

    def __len__(self) -> int:
        return len(self.timestamps)

    def feature_column(self, spec: FeatureSpec) -> list:
        """Raw values for one feature, deriving time features on the fly."""
        if spec.stored:
            return self.values[spec.name]
        if spec.derive == "week":
            return [derive_time_feature("week", t) for t in self.timestamps]
        return derive_time_feature(
            spec.derive, np.array(self.timestamps, dtype=np.int64)).tolist()

    def tail(self, max_events: int) -> "EventSequence":
        """Keep the most recent ``max_events`` events."""
        if len(self) <= max_events:
            return self
        return EventSequence(
            self.client_id, self.timestamps[-max_events:],
            {k: v[-max_events:] for k, v in self.values.items()}, self.targets)

    def drop_last(self) -> "EventSequence":
        """All but the final event (the held-out target of predictive tasks)."""
        if len(self) < 2:
            raise DataError(
                f"client {self.client_id!r}: cannot hold out the next event of "
                f"a length-1 sequence")
        return EventSequence(
            self.client_id, self.timestamps[:-1],
            {k: v[:-1] for k, v in self.values.items()}, self.targets)


@dataclass
class Dataset:
    schema: Schema
    sequences: list[EventSequence]
    split: str = "train"

    def __len__(self) -> int:
        return len(self.sequences)

    def client_ids(self) -> list[str]:
        return [s.client_id for s in self.sequences]


# ---------------------------------------------------------------------------
# JSONL serialization


def _check_value(spec: FeatureSpec, value, client_id: str,
                 line_no: int) -> None:
    if value is None:
        return
    if spec.kind == CATEGORICAL:
        if not isinstance(value, (str, int)) or isinstance(value, bool):
            raise DataError(
                f"line {line_no}: client {client_id!r}: feature {spec.name!r} "
                f"expects a categorical value, got {type(value).__name__}")
        if spec.values is not None and value not in spec.values:
            raise DataError(
                f"line {line_no}: client {client_id!r}: value {value!r} not in "
                f"the declared vocabulary of {spec.name!r}")
    elif spec.kind == INTEGER:
        if not isinstance(value, int) or isinstance(value, bool):
            raise DataError(
                f"line {line_no}: client {client_id!r}: feature {spec.name!r} "
                f"expects an integer, got {value!r}")
    elif spec.kind == REAL:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise DataError(
                f"line {line_no}: client {client_id!r}: feature {spec.name!r} "
                f"expects a number, got {value!r}")


def sequence_to_json(seq: EventSequence, schema: Schema) -> dict:
    events = []
    for i, t in enumerate(seq.timestamps):
        ev: dict = {"t": t}
        for spec in schema.stored_features:
            ev[spec.name] = seq.values[spec.name][i]
        events.append(ev)
    return {"client_id": seq.client_id, "targets": seq.targets, "events": events}


def dataset_to_jsonl(dataset: Dataset) -> str:
    lines = [json.dumps(sequence_to_json(s, dataset.schema), separators=(",", ":"))
             for s in dataset.sequences]
    return "\n".join(lines) + ("\n" if lines else "")


def save_jsonl(dataset: Dataset, path: str | Path) -> None:
    atomic_write_text(Path(path), dataset_to_jsonl(dataset))


def load_jsonl(path: str | Path, schema: Schema) -> Dataset:
    """Parse and validate one JSON object per line into a Dataset.

    Events must already be sorted by timestamp; violations are reported (with
    the line number and client), never silently repaired.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such dataset file: {path}")
    sequences = []
    seen_clients: set[str] = set()
    with path.open("rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise DataError(f"line {line_no}: not UTF-8: {e}") from None
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"line {line_no}: invalid JSON: {e}") from None
            if not isinstance(obj, dict) or "client_id" not in obj or "events" not in obj:
                raise DataError(
                    f"line {line_no}: expected an object with client_id and events")
            client_id = obj["client_id"]
            if not isinstance(client_id, str):
                raise DataError(f"line {line_no}: client_id must be a string, "
                                f"got {client_id!r}")
            if client_id in seen_clients:
                raise DataError(f"line {line_no}: duplicate client_id {client_id!r}")
            seen_clients.add(client_id)
            events = obj["events"]
            if not isinstance(events, list) or not events:
                raise DataError(
                    f"line {line_no}: client {client_id!r}: events must be a "
                    f"non-empty array")
            targets = obj.get("targets")
            if targets is not None and not isinstance(targets, dict):
                raise DataError(
                    f"line {line_no}: client {client_id!r}: targets must be an "
                    f"object, got {targets!r}")
            known = {s.name for s in schema.stored_features}
            timestamps = []
            columns: dict[str, list] = {s.name: [] for s in schema.stored_features}
            for ev in events:
                if not isinstance(ev, dict):
                    raise DataError(
                        f"line {line_no}: client {client_id!r}: an event must "
                        f"be an object, got {ev!r}")
                if "t" not in ev:
                    raise DataError(
                        f"line {line_no}: client {client_id!r}: event missing 't'")
                if not isinstance(ev["t"], int) or isinstance(ev["t"], bool) \
                        or not -2**63 <= ev["t"] < 2**63:
                    raise DataError(
                        f"line {line_no}: client {client_id!r}: timestamp must be "
                        f"a 64-bit integer, got {ev['t']!r}")
                for key in ev:
                    if key != "t" and key not in known:
                        raise DataError(
                            f"line {line_no}: client {client_id!r}: unknown "
                            f"feature {key!r}")
                timestamps.append(ev["t"])
                for spec in schema.stored_features:
                    value = ev.get(spec.name)
                    _check_value(spec, value, client_id, line_no)
                    columns[spec.name].append(value)
            try:
                sequences.append(EventSequence(
                    client_id, timestamps, columns, targets))
            except DataError as e:
                raise DataError(f"line {line_no}: {e}") from None
    return Dataset(schema, sequences)


# ---------------------------------------------------------------------------
# client-disjoint splitting


def split_by_client(dataset: Dataset, val_fraction: float,
                    seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic client-level partition; the id sets are disjoint."""
    if not (0.0 < val_fraction < 1.0):
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    ids = sorted(dataset.client_ids())
    if len(ids) < 2:
        raise DataError("need at least 2 clients to split")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    n_val = int(round(len(ids) * val_fraction))
    n_val = min(max(n_val, 1), len(ids) - 1)
    val_ids = {ids[i] for i in perm[:n_val]}
    train_seqs = [s for s in dataset.sequences if s.client_id not in val_ids]
    val_seqs = [s for s in dataset.sequences if s.client_id in val_ids]
    return (Dataset(dataset.schema, train_seqs, split="train"),
            Dataset(dataset.schema, val_seqs, split="val"))


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass
class GeneratorConfig(JsonConfig):
    """Declarative recipe for a synthetic event dataset.

    Feature rules:
      categorical + {"type": "client_dirichlet", "alpha": a}
          each client draws category probabilities from Dirichlet(a).
      categorical + {"type": "markov", "peak": p}
          a global chain: with probability p the next category is the current
          one's designated successor (a seeded permutation), else uniform.
      real + {"type": "lognormal_by_category", "of": f, "mu_min", "mu_max",
          "sigma"}: amount ~ exp(N(mu_cat, sigma)) with per-category mu drawn
          once from U[mu_min, mu_max).
      real + {"type": "lognormal", "mu", "sigma"}: category independent.
      integer + {"type": "randint", "low", "high"}: uniform integers.

    Target rules:
      {"type": "mean_gt", "feature": f, "threshold": th}: label 1 iff the
      sequence mean of f exceeds th.
    """

    n_clients: int
    events_min: int
    events_max: int
    features: list[dict]
    targets: list[dict] = field(default_factory=list)
    time_derived: list[str] = field(default_factory=list)
    start_time: int = 1_600_000_000
    gap_min: int = 60
    gap_max: int = 86_400
    version: int = GENERATOR_VERSION

    def __post_init__(self):
        if self.version != GENERATOR_VERSION:
            raise ConfigError(f"unsupported generator version {self.version}")
        if self.n_clients < 1:
            raise ConfigError("n_clients must be >= 1")
        if not (1 <= self.events_min <= self.events_max):
            raise ConfigError("need 1 <= events_min <= events_max")
        if self.gap_min < 1 or self.gap_max < self.gap_min:
            raise ConfigError("need 1 <= gap_min <= gap_max")
        if not self.features:
            raise ConfigError("at least one feature is required")
        for i, f in enumerate(self.features):
            for key in ("name", "kind"):
                if key not in f:
                    raise ConfigError(f"feature {i} has no {key!r}")
            if f.get("kind") == CATEGORICAL and int(f.get("k", 0)) < 1:
                raise ConfigError(
                    f"categorical feature {f.get('name')!r} needs k >= 1")
        for d in self.time_derived:
            if d not in _DERIVATIONS:
                raise ConfigError(f"unknown time derivation {d!r}")


def evaluate_target_rule(rule: dict, seq: EventSequence) -> int:
    if rule["type"] == "mean_gt":
        column = [v for v in seq.values[rule["feature"]] if v is not None]
        if not column:
            return 0
        return int(sum(column) / len(column) > rule["threshold"])
    raise ConfigError(f"unknown target rule {rule['type']!r}")


def _schema_from_config(config: GeneratorConfig) -> Schema:
    features: list[FeatureSpec] = []
    for f in config.features:
        kind = f["kind"]
        if kind == CATEGORICAL:
            k = int(f["k"])
            values = tuple(f.get("values") or category_names(k))
            if len(values) != k:
                raise ConfigError(
                    f"feature {f['name']!r}: {len(values)} values for k={k}")
            features.append(FeatureSpec(f["name"], CATEGORICAL, values=values))
        elif kind in (REAL, INTEGER):
            features.append(FeatureSpec(f["name"], kind, unit=f.get("unit")))
        else:
            raise ConfigError(f"generator cannot produce kind {kind!r}")
    for d in config.time_derived:
        features.append(FeatureSpec(
            d, TIME_DERIVED, values=tuple(time_feature_values(d)), derive=d))
    return Schema(tuple(features))


def generate_synthetic(config: GeneratorConfig,
                       seed: int) -> tuple[Dataset, dict]:
    """Deterministically sample a dataset; returns (dataset, provenance).

    The provenance record stores the config plus every concrete rule
    parameter drawn from the seed (category values, per-category location
    parameters, the Markov transition matrix), so any target or next-event
    distribution can be recomputed from the raw events.
    """
    schema = _schema_from_config(config)
    rng = np.random.default_rng(seed)

    # concrete rule parameters, drawn before any client data
    feature_params: dict[str, dict] = {}
    for f in config.features:
        name, rule = f["name"], f.get("rule", {})
        rtype = rule.get("type")
        if f["kind"] == CATEGORICAL:
            values = list(schema.feature(name).values)
            if rtype == "markov":
                k = len(values)
                peak = float(rule.get("peak", 0.7))
                successor = rng.permutation(k)
                matrix = np.full((k, k), (1.0 - peak) / max(k - 1, 1))
                for j in range(k):
                    if k == 1:
                        matrix[j, 0] = 1.0
                    else:
                        matrix[j, successor[j]] = peak
                feature_params[name] = {"type": "markov", "values": values,
                                        "matrix": matrix}
            else:
                alpha = float(rule.get("alpha", 0.5))
                feature_params[name] = {"type": "client_dirichlet",
                                        "values": values, "alpha": alpha}
        elif f["kind"] == REAL and rtype == "lognormal_by_category":
            of = rule["of"]
            k = len(schema.feature(of).values)
            mus = rng.uniform(rule.get("mu_min", -0.5), rule.get("mu_max", 1.5),
                              size=k)
            feature_params[name] = {"type": "lognormal_by_category", "of": of,
                                    "mus": mus, "sigma": float(rule.get("sigma", 0.4))}
        elif f["kind"] == REAL:
            feature_params[name] = {"type": "lognormal",
                                    "mu": float(rule.get("mu", 0.0)),
                                    "sigma": float(rule.get("sigma", 1.0))}
        elif f["kind"] == INTEGER:
            feature_params[name] = {"type": "randint",
                                    "low": int(rule.get("low", 0)),
                                    "high": int(rule.get("high", 100))}

    width = len(str(max(config.n_clients - 1, 1)))
    sequences = []
    for c in range(config.n_clients):
        client_id = f"client_{c:0{width}d}"
        n_events = int(rng.integers(config.events_min, config.events_max + 1))
        gaps = rng.integers(config.gap_min, config.gap_max + 1, size=n_events)
        t0 = config.start_time + int(rng.integers(0, 86_400))
        timestamps = (t0 + np.cumsum(gaps)).tolist()

        columns: dict[str, list] = {}
        for f in config.features:
            name = f["name"]
            params = feature_params[name]
            if params["type"] == "client_dirichlet":
                values = params["values"]
                probs = rng.dirichlet(np.full(len(values), params["alpha"]))
                idx = rng.choice(len(values), size=n_events, p=probs)
                columns[name] = [values[i] for i in idx]
            elif params["type"] == "markov":
                values, matrix = params["values"], params["matrix"]
                k = len(values)
                state = int(rng.integers(0, k))
                seq_idx = [state]
                for _ in range(n_events - 1):
                    state = int(rng.choice(k, p=matrix[state]))
                    seq_idx.append(state)
                columns[name] = [values[i] for i in seq_idx]
            elif params["type"] == "lognormal_by_category":
                of_values = schema.feature(params["of"]).values
                index_of = {v: i for i, v in enumerate(of_values)}
                cats = columns[params["of"]]
                mus = params["mus"]
                draws = rng.normal(0.0, 1.0, size=n_events)
                columns[name] = [
                    float(np.exp(mus[index_of[cat]] + params["sigma"] * z))
                    for cat, z in zip(cats, draws)]
            elif params["type"] == "lognormal":
                z = rng.normal(params["mu"], params["sigma"], size=n_events)
                columns[name] = [float(v) for v in np.exp(z)]
            elif params["type"] == "randint":
                draws = rng.integers(params["low"], params["high"] + 1,
                                     size=n_events)
                columns[name] = [int(v) for v in draws]

        seq = EventSequence(client_id, timestamps, columns)
        for target in config.targets:
            seq.targets[target["name"]] = evaluate_target_rule(target["rule"], seq)
        sequences.append(seq)

    rules = {name: {k: v.tolist() if isinstance(v, np.ndarray) else v
                    for k, v in params.items()}
             for name, params in feature_params.items()}
    provenance = {"seed": seed, "config": config.to_json(), "rules": rules}
    return Dataset(schema, sequences, split="train"), provenance
