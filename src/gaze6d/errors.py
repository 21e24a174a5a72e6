"""Exception types shared across the package, and the one rule for bad input."""

import dataclasses
import functools
import math
import typing
from contextlib import contextmanager


class GeometryError(ValueError):
    """Invalid geometric input (bad intrinsics, degenerate ray, frame mixup...)."""


class InvalidIntrinsicsError(GeometryError):
    pass


class BehindCameraError(GeometryError):
    pass


class RayParallelError(GeometryError):
    pass


class FrameMismatchError(GeometryError):
    pass


class GimbalLockError(GeometryError):
    pass


class ConfigError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    pass


# What reading malformed input raises.  ValueError covers JSONDecodeError,
# UnicodeDecodeError, ConfigError and GeometryError; OverflowError is an int
# too large for a float, RecursionError a JSON text nested too deep.
BAD_INPUT = (KeyError, IndexError, TypeError, AttributeError, ValueError, OverflowError, RecursionError)


def describe(exc: BaseException) -> str:
    """What a BAD_INPUT exception says about the input."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


@contextmanager
def bad_input(where):
    """Raise a BAD_INPUT exception from the block as ConfigError("<where>: <what>"), or "<what>" if not where."""
    try:
        yield
    except BAD_INPUT as exc:
        raise ConfigError(f"{where}: {describe(exc)}" if where else describe(exc)) from None


@functools.cache
def range_bounds(text: str) -> tuple:
    """(finite, lo, lo_open, hi, hi_open) of the range that `text` words:
    "finite"; a bound, ">= a" or "> a"; "finite and " a bound; or "in " an
    interval "[a, b]", an end open where a parenthesis stands for its bracket."""
    rule = text.removeprefix("finite").removeprefix(" and ")
    if rule.startswith("in "):
        lo, hi = map(float, rule[4:-1].split(", "))
        return text.startswith("finite"), lo, rule[3] == "(", hi, rule[-1] == ")"
    op, _, bound = rule.partition(" ")
    return text.startswith("finite"), float(bound) if bound else -math.inf, op == ">", math.inf, False


# the range of a seed (numpy's SeedSequence takes only integers >= 0), and of
# a count: frames, subjects, epochs, steps or folds, at most a C int's maximum
SEED = ">= 0"
COUNT = "in [0, 2147483647]"


def ranged(text: str, default=dataclasses.MISSING):
    """A dataclass field whose values lie in the range `text` words."""
    return dataclasses.field(default=default, metadata={"range": text})


def check_ranges(settings, error=ConfigError) -> None:
    """The one range rule: raise `error("{name} must be {range}, got {value}")`
    for the first setting outside the range its text words (range_bounds).
    NaN lies in no range, infinity in none that says "finite" or has an end
    on its side; an int too large for a float is an OverflowError where the
    range says "finite".  `settings` maps each name to its (value, range
    text), or is a config dataclass, whose fields state their ranges."""
    if dataclasses.is_dataclass(settings):
        settings = {f.name: (getattr(settings, f.name), f.metadata["range"])
                    for f in dataclasses.fields(settings) if "range" in f.metadata}
    for name, (value, text) in settings.items():
        finite, lo, lo_open, hi, hi_open = range_bounds(text)
        if not ((not finite or math.isfinite(value)) and (lo < value if lo_open else lo <= value)
                and (value < hi if hi_open else value <= hi)):
            raise error(f"{name} must be {text}, got {value}")


# what json.loads gives a number; a bool is no number here
JSON_NUMBERS = frozenset((int, float))

# the largest magnitude a value read from a file may have, in its field's unit
# (millimetres, pixels or radians): no desk-scale quantity comes near it
MAX_ABS_VALUE = 1e9


class PhysicalRuleError(ValueError):
    """A value read from a file that is not physical: beyond MAX_ABS_VALUE in
    magnitude, or a dataset row's face centre behind the camera."""

_KIND_NAMES = {str: "a string", int: "an integer id"}


def cast(kind: type, value, optional: bool = False):
    """`value` as a setting of type `kind` (float, int or str), None allowed
    if `optional`.  A string or optional setting takes exactly its JSON type;
    a number is cast, from a number or a numeric string, but from no bool,
    and an int from no fraction."""
    if kind is str or optional:
        if type(value) is kind or (optional and value is None):
            return value
        raise ValueError(f"expected {_KIND_NAMES[kind]}, got {value!r}")
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return kind(value)


@functools.cache   # typing.get_type_hints evaluates every annotation anew
def field_types(cls) -> dict:
    """The type of each field of the dataclass `cls`, by name."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.init}


def from_dict(cls, d: dict, where: str):
    """The dataclass `cls` built from `d`, what dataclasses.asdict wrote, field
    by field: a dataclass field from its own dict, any other through `cast`;
    other keys are ignored.  A missing or bad field, or one that `cls`
    rejects, is a ConfigError naming its key path, which starts with `where`."""
    fields = field_types(cls)
    with bad_input(where):
        values = [d[name] for name in fields]
    kwargs = {}
    for (name, kind), value in zip(fields.items(), values):
        path = f"{where}.{name}"
        if dataclasses.is_dataclass(kind):
            kwargs[name] = from_dict(kind, value, path)
        else:
            with bad_input(path):
                kwargs[name] = cast(kind, value)
    with bad_input(where):
        return cls(**kwargs)
