"""Error taxonomy shared across the package.

The CLI maps these to exit codes: ConfigError -> 2, DataError -> 3,
DivergenceError -> 4.
"""

from dataclasses import asdict, fields


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class DataError(ValueError):
    """Malformed or contract-violating input data."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int, loss: float):
        super().__init__(f"Diverged at step {step}: loss={loss}")
        self.step = step
        self.loss = loss


def config_from_json(cls, d):
    """Build the config dataclass ``cls`` from the JSON object ``d``.

    Keys that are not fields of ``cls``, and values its constructor rejects
    with a TypeError, raise ConfigError naming ``cls``.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} expects a JSON object, got {d!r}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{cls.__name__}: unknown key(s) {unknown}")
    try:
        return cls(**d)
    except TypeError as e:
        raise ConfigError(f"{cls.__name__}: {e}") from None


class JsonConfig:
    """Mixin for config dataclasses: ``to_json`` is ``asdict`` and
    ``from_json`` is ``config_from_json``."""

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d):
        return config_from_json(cls, d)
