"""Exception types shared across the toolkit, mapped to CLI exit codes, the
reader of headed text files that reports their faults as one of them, and
frozen_array, the one check that every value type stores its arrays through:
non-empty, of the declared dimension, converted without changing a value,
finite when float, and read-only."""

import numpy as np


class ToolError(Exception):
    """Base class for toolkit errors; carries the CLI exit code."""

    exit_code = 1


class FormatError(ToolError):
    """A file is not in the expected container format."""

    exit_code = 4


class InputError(ToolError):
    """Invalid argument values, ranges, or data shapes."""

    exit_code = 5


class ConfigError(ToolError):
    """Inconsistent or incomplete run configuration."""

    exit_code = 6


class CapacityError(ToolError):
    """A requested allocation exceeds the configured memory cap."""

    exit_code = 7


def text_rows(path, header: str, encoding: str, error: type):
    """(line number, stripped line) of each non-blank line after the header;
    a wrong header or bytes that are not text raise error, naming the path."""
    try:
        with open(path, "r", encoding=encoding, newline="") as fh:
            found = fh.readline().strip()
            if found != header:
                raise error(f"{path}: expected header {header!r}, got {found!r}")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if line:
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not {encoding} text ({exc})") from exc


def frozen_array(owner, name: str, dtype, ndim: int) -> np.ndarray:
    """Store owner.<name> as a read-only contiguous ndim-D array of dtype and
    return it. An empty array, another dimension, a value that the conversion
    to dtype changes or, for a float dtype, a non-finite value raises
    InputError naming the owner's type and field."""
    source = np.asarray(getattr(owner, name))
    with np.errstate(invalid="ignore"):  # a NaN cast to int is caught below
        array = np.ascontiguousarray(source, dtype=dtype)
    field = f"{type(owner).__name__}.{name}"
    if array.ndim != ndim or array.size == 0:
        raise InputError(f"{field} must be a non-empty {ndim}-D array")
    if array.dtype.kind == "f" and not np.isfinite(array).all():
        raise InputError(f"{field} holds a non-finite value")
    if source.dtype != array.dtype and not np.array_equal(array, source):
        raise InputError(f"{field} holds a value that {array.dtype} cannot represent")
    array.setflags(write=False)
    object.__setattr__(owner, name, array)
    return array
