"""Exception types shared across the toolkit, mapped to CLI exit codes; the
one owner of reading a stored file (reading names the file in each fault,
text_rows reads headed text, write_headed/read_headed are the one codec of a
`MAGIC f1 … fn` line of whitespace-free ASCII fields heading a <f8 payload,
that of GPMF2, FEAT2 and GMM1, payload_arrays the one rule for a payload of
the wrong size); checked_array,
the one check of an array argument: non-empty, of the declared dimension,
converted without changing a value, finite when float; frozen_array, the
read-only store of every value type's checked arrays; and typed, the one
type rule of a number or flag argument, applied to fields by typed_fields."""

import dataclasses
import math
import numbers
from contextlib import contextmanager

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


@contextmanager
def reading(path):
    """Context of a body that reads path: a ToolError raised in it is raised
    again as the same type, its message prefixed `path: `."""
    try:
        yield
    except ToolError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def text_rows(path, header: str, encoding: str, error: type, parse) -> list:
    """parse(*fields) of each non-blank stripped line after the header, in
    order; a line splits from the right into as many comma-separated fields
    as the header names. A wrong header, bytes that are not text, another
    field count, or a ValueError or InputError from parse raise error; a
    fault in a row is prefixed `line <n>: `. Run it inside reading(path)."""
    width = header.count(",")
    rows = []
    try:
        with open(path, "r", encoding=encoding, newline="") as fh:
            found = fh.readline().strip()
            if found != header:
                raise error(f"expected header {header!r}, got {found!r}")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                fields = line.rsplit(",", width)
                try:
                    if len(fields) != width + 1:
                        raise ValueError(f"{len(fields)} fields")
                    rows.append(parse(*fields))
                except (ValueError, InputError) as exc:
                    raise error(f"line {lineno}: malformed row {line!r}") from exc
                except ToolError as exc:
                    raise type(exc)(f"line {lineno}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"not {encoding} text ({exc})") from exc
    return rows


def write_headed(path, magic: str, fields, *arrays) -> None:
    """Write the ASCII line `magic f1 … fn` (an empty field as `-`), then each
    array's values as <f8, row-major. A field that would not read back as
    itself (non-ASCII, holding whitespace, or `-`) is an InputError."""
    texts = [str(value) for value in fields]
    if "-" in texts:
        raise InputError(f"{magic} header field '-' would read back as an empty one")
    for text in filter(None, texts):
        if text.split() != [text] or not text.isascii():
            raise InputError(f"{magic} header field {text!r} must be ASCII without whitespace")
    with open(path, "wb") as fh:
        fh.write(" ".join([magic, *(text or "-" for text in texts)]).encode("ascii") + b"\n")
        for array in arrays:
            fh.write(np.asarray(array).astype("<f8").tobytes())


def read_headed(path, magic: str, kinds) -> tuple:
    """(fields, payload) of a file that write_headed wrote; kinds gives the
    type of each field, int (a non-negative decimal) or str (`-` reads as
    empty). Any other header, an empty field among them, raises FormatError
    quoting its first 64 characters. Run it inside reading(path)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").strip()
        payload = fh.read()
    found, *texts = header.split(" ")
    if found != magic or len(texts) != len(kinds) or not all(
        text and (kind is str or text.isdigit()) for kind, text in zip(kinds, texts)
    ):
        raise FormatError(f"bad {magic} header {header[:64]!r}")
    fields = tuple(int(t) if k is int else "" if t == "-" else t for k, t in zip(kinds, texts))
    return fields, payload


def payload_arrays(payload: bytes, dtype, *shapes) -> list:
    """Arrays of dtype in the given shapes, read in order from payload. A
    payload of another size than the shapes need is a FormatError."""
    dtype = np.dtype(dtype)
    counts = [math.prod(shape) for shape in shapes]
    expected = dtype.itemsize * sum(counts)
    if len(payload) != expected:
        raise FormatError(f"payload of {len(payload)} bytes; its header promises {expected}")
    arrays, offset = [], 0
    for shape, count in zip(shapes, counts):
        arrays.append(np.frombuffer(payload, dtype=dtype, count=count, offset=offset).reshape(shape))
        offset += dtype.itemsize * count
    return arrays


def checked_array(source, field: str, dtype, ndim: int) -> np.ndarray:
    """source as a contiguous ndim-D array of dtype. An empty array, another
    dimension, a value that the conversion to dtype changes or, for a float
    dtype, a non-finite value raises InputError naming field."""
    source = np.asarray(source)
    with np.errstate(invalid="ignore"):  # a NaN cast to int is caught below
        array = np.ascontiguousarray(source, dtype=dtype)
    if array.ndim != ndim or array.size == 0:
        raise InputError(f"{field} must be a non-empty {ndim}-D array")
    if array.dtype.kind == "f" and not np.isfinite(array).all():
        raise InputError(f"{field} holds a non-finite value")
    if source.dtype != array.dtype and not np.array_equal(array, source):
        raise InputError(f"{field} holds a value that {array.dtype} cannot represent")
    return array


def frozen_array(owner, name: str, dtype, ndim: int) -> np.ndarray:
    """Store owner.<name> as a read-only checked_array named for the owner's
    type and field, and return it."""
    array = checked_array(getattr(owner, name), f"{type(owner).__name__}.{name}", dtype, ndim)
    array.setflags(write=False)
    object.__setattr__(owner, name, array)
    return array


# A field annotation -> (accepted type, stored type, wording). Python counts a
# bool as an int, but a bool is never a number here.
_FIELD_TYPES = {
    "bool": (bool, bool, "a bool"),
    "int": (numbers.Integral, int, "an integer"),
    "float": (numbers.Real, float, "a number"),
}


def typed(value, kind: str, name: str, error: type = InputError):
    """value as kind ("bool", "int" or "float"), else error naming name: a bool
    takes a bool, an int an integer and a float any real number, neither of
    them a bool. A float given 25 is 25.0, one value with one fingerprint."""
    accepted, stored, wording = _FIELD_TYPES[kind]
    if not isinstance(value, accepted) or (isinstance(value, bool) and stored is not bool):
        raise error(f"{name} must be {wording}; got {value!r}")
    return stored(value)


def typed_fields(owner, error: type) -> None:
    """Store each field of the dataclass owner annotated bool, int or float
    as typed gives it, raising error naming the first that breaks the rule."""
    for f in dataclasses.fields(owner):
        kind = getattr(f.type, "__name__", f.type)
        if kind in _FIELD_TYPES:
            object.__setattr__(owner, f.name, typed(getattr(owner, f.name), kind, f.name, error))
