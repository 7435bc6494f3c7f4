"""Error taxonomy shared across the package.

The CLI maps these to exit codes: ConfigError -> 2, DataError -> 3,
DivergenceError -> 4.
"""

from dataclasses import MISSING, asdict, fields
from functools import cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

_type_hints = cache(get_type_hints)  # annotations are evaluated once per class


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


def _fits(value, kind) -> bool:
    """Whether the JSON value ``value`` has the annotated type ``kind``. A
    bool is not a number, and an int is a valid float."""
    origin = get_origin(kind)
    if origin is UnionType:
        return any(_fits(value, k) for k in get_args(kind))
    if origin is list:
        return isinstance(value, list) and all(
            _fits(v, get_args(kind)[0]) for v in value)
    if isinstance(value, bool) and kind is not bool:
        return False
    return isinstance(value, origin or ((int, float) if kind is float else kind))


def config_from_json(cls, d, base=None):
    """Build the config dataclass ``cls`` from the JSON object ``d``, over
    the instance ``base`` when given. A field typed as a JsonConfig is read
    over that field's default, so a section names only the keys it changes.
    Unknown keys, missing required fields, values without the annotated
    type and values the constructor rejects raise ConfigError naming
    ``cls``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} expects a JSON object, got {d!r}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ConfigError(f"{cls.__name__}: unknown key(s) {unknown}")
    hints = _type_hints(cls)
    kwargs = {} if base is None else {f: getattr(base, f) for f in known}
    for name, value in d.items():
        kind = hints[name]
        if isinstance(kind, type) and issubclass(kind, JsonConfig):
            default = known[name].default_factory
            try:
                value = config_from_json(
                    kind, value, None if default is MISSING else default())
            except ConfigError as e:
                raise ConfigError(f"config section {name!r}: {e}") from None
        elif not _fits(value, kind):
            raise ConfigError(
                f"{cls.__name__}: {name} must be of type "
                f"{kind.__name__ if isinstance(kind, type) else kind}, "
                f"got {value!r}")
        kwargs[name] = value
    missing = [f.name for f in known.values() if f.name not in kwargs
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{cls.__name__}: missing field {missing[0]!r}")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{cls.__name__}: {e}") from None


class JsonConfig:
    """Mixin for config dataclasses: ``to_json`` is ``asdict`` and
    ``from_json`` is ``config_from_json``."""

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d):
        return config_from_json(cls, d)
