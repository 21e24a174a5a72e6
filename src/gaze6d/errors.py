"""Exception types shared across the package, and the one rule for bad input."""

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
    """Raise a BAD_INPUT exception from the block as ConfigError("<where>: <what>").
    `where` is a name, or a callable giving one when the error is raised: a
    reader enters the guard once per file and still names the line."""
    try:
        yield
    except BAD_INPUT as exc:
        raise ConfigError(f"{where() if callable(where) else where}: {describe(exc)}") from None
