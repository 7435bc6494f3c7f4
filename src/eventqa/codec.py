"""Per-feature value coding: skew-aware binning, vocabularies, embeddings.

Real-valued features are discretized into equal-frequency intervals whose
count follows Doane's histogram rule (skewness-adjusted); each value maps to
an interval's right boundary, clamped at both ends. Categorical and small
integer features get an index vocabulary with index 0 reserved for a
missing value; a value outside the vocabulary raises DataError. Every coded feature owns a trainable embedding table whose
width follows ceil(1.6 * K ** 0.56) for K possible values; event vectors are
the concatenation of the per-feature rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .checkpoint import atomic_write_text, read_json
from .data import (CATEGORICAL, INTEGER, REAL, TIME_DERIVED, Dataset,
                   EventSequence, FeatureSpec, Schema)
from .errors import ConfigError, DataError

CODEC_VERSION = 1

EMBED_LAMBDA = 1.6
EMBED_MU = 0.56

# integer features with more observed values than this are binned like reals
DEFAULT_INTEGER_VOCAB_CAP = 1000


def embedding_dim(k: int) -> int:
    """Embedding width for a feature with k possible values."""
    if k < 1:
        raise ConfigError(f"cardinality must be >= 1, got {k}")
    return math.ceil(EMBED_LAMBDA * k ** EMBED_MU)


def skewness(samples: np.ndarray) -> float:
    """Third standardized moment of the sample (biased estimator)."""
    x = np.asarray(samples, dtype=np.float64)
    mu = x.mean()
    m2 = ((x - mu) ** 2).mean()
    if m2 == 0.0:
        return 0.0
    m3 = ((x - mu) ** 3).mean()
    return float(m3 / m2 ** 1.5)


def skewness_sigma(n: int) -> float:
    """Standard deviation of the skewness estimate for sample size n >= 3."""
    if n < 3:
        raise ValueError("skewness sigma undefined for n < 3")
    return math.sqrt(6.0 * (n - 2) / ((n + 1) * (n + 3)))


def doane_bin_count(samples: np.ndarray) -> tuple[int, dict]:
    """Skew-adjusted histogram bin count; returns (count, fit statistics)."""
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n == 0:
        raise DataError("cannot fit bins on an empty sample")
    if not np.isfinite(x).all():
        raise DataError("cannot fit bins on NaN or an infinity")
    stats: dict = {"n_samples": int(n)}
    if np.unique(x).size == 1:
        stats.update({"g1": 0.0, "sigma_g1": None, "degenerate": True,
                      "fallback": False})
        return 1, stats
    if n < 3:
        count = max(1, math.ceil(1.0 + math.log2(n)))
        stats.update({"g1": None, "sigma_g1": None, "degenerate": False,
                      "fallback": True})
        return count, stats
    g1 = skewness(x)
    sigma = skewness_sigma(n)
    count = math.ceil(1.0 + math.log2(n) + math.log2(1.0 + abs(g1) / sigma))
    stats.update({"g1": g1, "sigma_g1": sigma, "degenerate": False,
                  "fallback": False})
    return max(1, count), stats


@dataclass
class BinningSpec:
    """Interval boundaries b0 < ... < bn plus the statistics they came from.

    A constant training sample collapses to one interval with both boundaries
    equal; that is the only case where the boundaries may repeat.
    """

    feature: str
    boundaries: list[float]
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.boundaries) < 2:
            raise ConfigError(f"{self.feature}: need at least 2 boundaries")
        collapsed = (len(self.boundaries) == 2
                     and self.boundaries[0] == self.boundaries[1])
        if not collapsed:
            for lo, hi in zip(self.boundaries, self.boundaries[1:]):
                if hi <= lo:
                    raise ConfigError(
                        f"{self.feature}: boundaries must strictly increase")

    @property
    def n_values(self) -> int:
        """Distinct representative values (boundary count)."""
        return len(self.boundaries)

    def discretize(self, x: float) -> tuple[float, int]:
        """Map x to (representative value, index).

        Values below the first boundary clamp there, values at or above the
        last boundary clamp to it, and anything strictly inside an interval
        maps to the interval's right boundary. Boundary values map to
        themselves, which makes repeated application a fixed point.
        """
        if isinstance(x, float) and not math.isfinite(x):
            raise DataError(
                f"{self.feature}: cannot discretize NaN or an infinity, "
                f"got {x!r}")
        b = self.boundaries
        if x <= b[0]:
            return b[0], 0
        if x >= b[-1]:
            return b[-1], len(b) - 1
        j = int(np.searchsorted(b, x, side="left"))
        return b[j], j

    def to_json(self) -> dict:
        return {"feature": self.feature, "boundaries": self.boundaries,
                "stats": self.stats}

    @classmethod
    def from_json(cls, d: dict) -> "BinningSpec":
        return cls(d["feature"], list(d["boundaries"]), d.get("stats", {}))


def fit_bins(feature: str, samples) -> BinningSpec:
    """Equal-frequency boundaries with a Doane-rule interval count."""
    x = np.asarray([s for s in samples if s is not None], dtype=np.float64)
    if x.size == 0:
        raise DataError(f"{feature}: no observed values to fit bins on")
    if not np.isfinite(x).all():
        raise DataError(f"{feature}: NaN or an infinity in training sample")
    count, stats = doane_bin_count(x)
    if stats.get("degenerate"):
        c = float(x[0])
        return BinningSpec(feature, [c, c], stats)
    fractions = np.arange(count + 1) / count
    boundaries = np.quantile(x, fractions, method="linear")
    unique = [float(boundaries[0])]
    for b in boundaries[1:]:
        if float(b) > unique[-1]:
            unique.append(float(b))
    stats["requested_bins"] = count
    stats["effective_bins"] = len(unique) - 1 if len(unique) > 1 else 1
    if len(unique) == 1:
        unique = [unique[0], unique[0]]
    return BinningSpec(feature, unique, stats)


@dataclass
class Vocabulary:
    """Value-to-index bijection with index 0 reserved for a missing value."""

    feature: str
    values: list

    def __post_init__(self):
        if len(set(map(repr, self.values))) != len(self.values):
            raise ConfigError(f"{self.feature}: duplicate vocabulary values")
        self._index = {v: i + 1 for i, v in enumerate(self.values)}

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def index_of(self, value) -> int:
        if value is None:
            return 0
        idx = self._index.get(value)
        if idx is None:
            raise DataError(
                f"{self.feature}: value {value!r} not in vocabulary")
        return idx

    def to_json(self) -> dict:
        return {"feature": self.feature, "values": self.values}

    @classmethod
    def from_json(cls, d: dict) -> "Vocabulary":
        return cls(d["feature"], list(d["values"]))


def fit_vocabulary(feature: str, samples, declared=None) -> Vocabulary:
    """Sorted unique observed values, unless the schema declares them."""
    if declared is not None:
        return Vocabulary(feature, list(declared))
    observed = sorted({s for s in samples if s is not None}, key=repr)
    if not observed:
        raise DataError(f"{feature}: no observed values to build a vocabulary")
    return Vocabulary(feature, observed)


@dataclass
class FeatureCodec:
    """Fitted coder for one feature: either a vocabulary or a binning."""

    spec: FeatureSpec
    vocab: Vocabulary | None = None
    bins: BinningSpec | None = None

    @property
    def n_values(self) -> int:
        """Possible coded values, excluding the reserved missing slot."""
        if self.vocab is not None:
            return self.vocab.cardinality
        return self.bins.n_values

    @property
    def arity(self) -> int:
        """Rows in the embedding table (reserved slot included)."""
        return self.n_values + 1

    @property
    def dim(self) -> int:
        return embedding_dim(self.n_values)

    def encode_column(self, column: list) -> np.ndarray:
        """int64 codes of raw values in one pass; ``None`` codes to 0.

        A binned value codes to ``discretize(x)[1] + 1``. A value missing
        from the vocabulary raises DataError.
        """
        if self.vocab is not None:
            lookup = self.vocab._index.get
            codes = [0 if v is None else lookup(v, 0) for v in column]
            if 0 in codes:
                for v, c in zip(column, codes):
                    if c == 0 and v is not None:
                        raise DataError(f"{self.vocab.feature}: value {v!r} "
                                        f"not in vocabulary")
            return np.array(codes, dtype=np.int64)
        x = np.array([0.0 if v is None else v for v in column], dtype=np.float64)
        finite = np.isfinite(x)
        if not finite.all():
            raise DataError(
                f"{self.bins.feature}: cannot discretize NaN or an infinity, "
                f"got {float(x[~finite][0])!r}")
        b = self.bins.boundaries
        codes = np.minimum(np.searchsorted(b, x, side="left"), len(b) - 1) + 1
        codes[[v is None for v in column]] = 0
        return codes

    def to_json(self) -> dict:
        out: dict = {"spec": self.spec.to_json()}
        if self.vocab is not None:
            out["vocab"] = self.vocab.to_json()
        if self.bins is not None:
            out["bins"] = self.bins.to_json()
        return out

    @classmethod
    def from_json(cls, d: dict) -> "FeatureCodec":
        return cls(
            spec=FeatureSpec.from_json(d["spec"]),
            vocab=Vocabulary.from_json(d["vocab"]) if "vocab" in d else None,
            bins=BinningSpec.from_json(d["bins"]) if "bins" in d else None)


class DatasetCodec:
    """All per-feature codecs for one schema, fitted on the training split."""

    def __init__(self, schema: Schema, codecs: dict[str, FeatureCodec],
                 integer_vocab_cap: int = DEFAULT_INTEGER_VOCAB_CAP):
        self.schema = schema
        self.codecs = codecs
        self.integer_vocab_cap = integer_vocab_cap

    @classmethod
    def fit(cls, train: Dataset,
            integer_vocab_cap: int = DEFAULT_INTEGER_VOCAB_CAP) -> "DatasetCodec":
        codecs: dict[str, FeatureCodec] = {}
        for spec in train.schema.features:
            samples: list = []
            for seq in train.sequences:
                samples.extend(seq.feature_column(spec))
            if spec.kind in (CATEGORICAL, TIME_DERIVED):
                vocab = fit_vocabulary(spec.name, samples, declared=spec.values)
                codecs[spec.name] = FeatureCodec(spec, vocab=vocab)
            elif spec.kind == INTEGER:
                observed = {s for s in samples if s is not None}
                if len(observed) <= integer_vocab_cap:
                    vocab = fit_vocabulary(spec.name, samples)
                    codecs[spec.name] = FeatureCodec(spec, vocab=vocab)
                else:
                    codecs[spec.name] = FeatureCodec(
                        spec, bins=fit_bins(spec.name, samples))
            elif spec.kind == REAL:
                codecs[spec.name] = FeatureCodec(
                    spec, bins=fit_bins(spec.name, samples))
            else:
                raise ConfigError(f"cannot fit codec for kind {spec.kind!r}")
        return cls(train.schema, codecs, integer_vocab_cap)

    def __getitem__(self, feature: str) -> FeatureCodec:
        return self.codecs[feature]

    @property
    def feature_names(self) -> list[str]:
        return [f.name for f in self.schema.features]

    @property
    def event_dim(self) -> int:
        return sum(self.codecs[f].dim for f in self.feature_names)

    def encode_batch(self, seqs: list[EventSequence],
                     ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Left-aligned padded index matrices plus a (B, I) validity mask;
        each feature's values across the batch are coded in one call."""
        if not seqs:
            raise DataError("empty batch")
        for seq in seqs:
            if len(seq) == 0:
                raise DataError(f"client {seq.client_id!r}: empty sequence")
        lengths = np.array([len(s) for s in seqs])
        valid = np.arange(lengths.max()) < lengths[:, None]
        batch = {}
        for spec in self.schema.features:
            column = [v for seq in seqs for v in seq.feature_column(spec)]
            batch[spec.name] = np.zeros(valid.shape, dtype=np.int64)
            batch[spec.name][valid] = self.codecs[spec.name].encode_column(
                column)
        return batch, valid.astype(np.float64)

    def to_json(self) -> dict:
        return {"version": CODEC_VERSION,
                "integer_vocab_cap": self.integer_vocab_cap,
                "schema": self.schema.to_json(),
                "features": [self.codecs[f].to_json() for f in self.feature_names]}

    @classmethod
    def from_json(cls, d: dict) -> "DatasetCodec":
        if d.get("version") != CODEC_VERSION:
            raise ConfigError(f"unsupported codec version {d.get('version')!r}")
        schema = Schema.from_json(d["schema"])
        codecs = {c["spec"]["name"]: FeatureCodec.from_json(c)
                  for c in d["features"]}
        return cls(schema, codecs, d.get("integer_vocab_cap",
                                         DEFAULT_INTEGER_VOCAB_CAP))

    def save(self, path: str | Path) -> None:
        atomic_write_text(Path(path), json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "DatasetCodec":
        return read_json(path, "codec", cls.from_json)


class EventEmbedder(nn.Module):
    """One trainable embedding table per feature; events concatenate rows.

    The output width is the sum of the per-feature embedding dims.
    """

    def __init__(self, codec: DatasetCodec, rng: np.random.Generator):
        super().__init__()
        self.feature_names = codec.feature_names
        self.tables = nn.ModuleList([
            nn.Embedding(codec[f].arity, codec[f].dim, rng)
            for f in self.feature_names])

    def embed_indices(self, indices: dict[str, np.ndarray]) -> Tensor:
        """(..., D) embedding of per-feature index arrays of equal shape."""
        parts = [table(indices[f])
                 for f, table in zip(self.feature_names, self.tables)]
        return ad.concat(parts, axis=-1)
