"""Realization sequences and their file representation.

A realization is a finite chain of nonnegative integer transition matrices
(stage n maps level n to level n+1), each with a designed eigenvalue p, plus
optional per-level marker vectors locating the distinguished rank-one
subgroup, and claimed property flags.  Flags in a file are claims only;
verification always recomputes them from the matrices.

File format: JSON with a version tag; integer entries are serialized as
decimal strings because stage eigenvalues grow multiplicatively and may
overflow fixed-width consumers.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from contextlib import contextmanager
from typing import Sequence

from .errors import BadCutPoints, DimensionMismatch, NumberTooLarge, SchemaError
from .exact import Matrix

FILE_VERSION = "1"

_DECIMAL = re.compile(r"-?[0-9]+")
# The characters of decimal strings joined by commas.
_DECIMAL_CHARS = re.compile(r"[-,0-9]+")

# The most characters of a rejected value that an error message repeats.
_ECHO = 80


def json_int(x) -> int:
    """A JSON integer, or a string of decimal digits with an optional minus
    sign, as an int.  Floats, booleans and any other value are a
    SchemaError rather than being truncated or coerced."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and _DECIMAL.fullmatch(x):
        return int(x)
    raise SchemaError(f"not an integer: {echo(x)}")


def json_list(x) -> list:
    """A JSON array.  Anything else, a string above all, is a SchemaError
    rather than being iterated in its place."""
    if isinstance(x, list):
        return x
    raise SchemaError(f"not an array: {echo(x)}")


def json_ints(x) -> list[int]:
    """A JSON array of integers as a list of ints, each entry checked once.
    An array of strings whose comma join fullmatches _DECIMAL_CHARS is
    converted by one C-level ``map(int, ...)`` pass: within those
    characters ``int`` reads just the entries that _DECIMAL fullmatches and
    refuses the rest.  Anything else goes through json_int entry by entry."""
    row = json_list(x)
    try:
        if _DECIMAL_CHARS.fullmatch(",".join(row)):
            return list(map(int, row))
    except (TypeError, ValueError):     # a non-string or an unreadable entry
        pass
    return [json_int(v) for v in row]


def json_matrix(x) -> Matrix:
    """A JSON array of integer rows as a Matrix.  Rows of strings, all of one
    width, are read whole: joined by commas, they hold one comma fewer than
    they have entries and fullmatch _DECIMAL_CHARS, and one ``json.loads``
    converts them; its C parser refuses, of what _DECIMAL fullmatches, only
    a leading zero.  That, more digits than the int limit, or a misshapen
    row goes row by row through json_ints."""
    rows = json_list(x)
    try:
        cols = len(rows[0])
        if all(isinstance(row, list) and len(row) == cols for row in rows):
            text = ",".join(map(",".join, rows))
            if (text.count(",") == len(rows) * cols - 1
                    and _DECIMAL_CHARS.fullmatch(text)):
                return Matrix._exact(len(rows), cols, json.loads(f"[{text}]"))
    except (IndexError, TypeError, ValueError):
        pass
    return Matrix._exact_rows(list(map(json_ints, rows)))


def echo(x) -> str:
    """repr(x) for an error message, cut by _clip."""
    return _clip(repr(x))


def _clip(text: str) -> str:
    """``text`` cut to its first _ECHO characters and its length when
    longer, so a huge rejected value makes a short error."""
    if len(text) <= _ECHO:
        return text
    return f"{text[:_ECHO]}... ({len(text)} characters)"


def json_str(x) -> str:
    """The decimal string of a computed int or Fraction, as files and
    reports carry it.  A number with more digits than json_int and
    json.load accept (the interpreter's int-string conversion limit) is a
    NumberTooLarge, so nothing is written that could not be read back."""
    try:
        return str(x)
    except ValueError:
        raise NumberTooLarge(
            f"a computed number has more than {sys.get_int_max_str_digits()} "
            "digits, more than a JSON reader accepts") from None


def json_strs(xs: Sequence) -> list[str]:
    """[json_str(x) for x in xs], with one guard around the whole pass
    rather than one call per entry; a number too long to write falls back
    to the per-entry pass, which raises NumberTooLarge.  (``str(x)`` in a
    comprehension is faster here than ``map(str, xs)``, which calls the
    type generically.)"""
    try:
        return [str(x) for x in xs]
    except ValueError:
        return [json_str(x) for x in xs]


def load_json(path: str):
    """The JSON value in the file at ``path``.  A file that is not UTF-8,
    not JSON, or nested deeper than the recursion limit is a SchemaError;
    an OSError passes through."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None


def dump_json(obj: dict, fh) -> None:
    """Write ``obj`` to ``fh`` as JSON, one top-level key to a line and each
    element of a non-empty list value on a line of its own.  Every value and
    element is encoded without indent, which keeps json.dumps on its C
    encoder; the text is built whole and written once."""
    lines = []
    for key, value in obj.items():
        if isinstance(value, list) and value:
            text = "[\n  " + ",\n  ".join(map(json.dumps, value)) + "\n ]"
        else:
            text = json.dumps(value)
        lines.append(f"\n {json.dumps(key)}: {text}")
    fh.write("{" + ",".join(lines) + "\n}\n")


@contextmanager
def parsing(what: str):
    """Inside this block, the errors that a wrong JSON shape or value
    raises while a parser reads and builds a ``what`` become SchemaError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, ZeroDivisionError,
            DimensionMismatch) as exc:
        raise SchemaError(f"malformed {what}: {_clip(str(exc))}") from None


def groups(cuts: Sequence[int], n: int) -> list[tuple[int, int]]:
    """The [lo, hi) stage ranges that cut points give n stages.  ``cuts``
    are strictly increasing 0-based stage indices; group i runs from
    cuts[i] up to cuts[i+1], the last group to the end, and stages before
    cuts[0] are dropped.  Any other cut points are BadCutPoints."""
    cuts = list(cuts)
    if (not cuts or cuts[0] < 0 or cuts[-1] >= n
            or any(b <= a for a, b in zip(cuts, cuts[1:]))):
        raise BadCutPoints(f"bad cut points {cuts} for {n} stages")
    return list(zip(cuts, cuts[1:] + [n]))


class RealizationSeq(namedtuple("RealizationSeq", "matrices stage_values "
                                "markers properties provenance")):
    """Chained transition matrices with designed eigenvalues and markers.
    Omitted properties and provenance are each a fresh empty dict; the
    length is the number of stages."""

    __slots__ = ()

    def __new__(cls, matrices: tuple[Matrix, ...],
                stage_values: tuple[int, ...],
                markers: tuple[tuple[int, ...], ...] | None = None,
                properties: dict | None = None,
                provenance: dict | None = None):
        if not matrices:
            raise DimensionMismatch("realization needs at least one stage")
        if len(stage_values) != len(matrices):
            raise DimensionMismatch("one designed eigenvalue per stage")
        for a, b in zip(matrices, matrices[1:]):
            if a.rows != b.cols:
                raise DimensionMismatch("stage dimensions do not chain")
        if markers is not None:
            if len(markers) != len(matrices) + 1:
                raise DimensionMismatch("one marker per level")
            for lvl, (m, h) in enumerate(zip(matrices, markers)):
                if len(h) != m.cols:
                    raise DimensionMismatch(f"marker length wrong at level {lvl + 1}")
            if len(markers[-1]) != matrices[-1].rows:
                raise DimensionMismatch("marker length wrong at last level")
        return super().__new__(
            cls, matrices, stage_values, markers,
            {} if properties is None else properties,
            {} if provenance is None else provenance)

    def __len__(self):
        return len(self.matrices)

    def level_sizes(self) -> tuple[int, ...]:
        return tuple([self.matrices[0].cols] + [m.rows for m in self.matrices])

    def marker_chain_ok(self) -> bool:
        """Each matrix must send its level marker to p times the next one.
        An all-ones marker is sent to the matrix's cached row sums."""
        if self.markers is None:
            return True
        for m, p, h, h_next in zip(self.matrices, self.stage_values,
                                   self.markers, self.markers[1:]):
            image = m.row_sums() if set(h) == {1} else m.mul_vector(h)
            if image != tuple(p * x for x in h_next):
                return False
        return True

    # -- telescoping ---------------------------------------------------------

    def telescope(self, cuts: Sequence[int]) -> "RealizationSeq":
        """Compose each group of consecutive stages that ``groups`` makes of
        the cut points into one stage."""
        ranges = groups(cuts, len(self.matrices))
        cuts = [lo for lo, _ in ranges]
        mats = []
        values = []
        for lo, hi in ranges:
            prod = self.matrices[lo]
            val = self.stage_values[lo]
            for i in range(lo + 1, hi):
                prod = self.matrices[i] * prod      # later stage on the left
                val *= self.stage_values[i]
            mats.append(prod)
            values.append(val)
        markers = None
        if self.markers is not None:
            markers = tuple(self.markers[i] for i in cuts + [len(self)])
        return RealizationSeq(tuple(mats), tuple(values), markers,
                              dict(self.properties),
                              {**self.provenance, "telescoped": cuts})

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "version": FILE_VERSION,
            "kind": "realization",
            "properties": {k: bool(v) for k, v in self.properties.items()},
            "stages": [
                {"matrix": [e[i:i + m.cols] for i in range(0, len(e), m.cols)],
                 "p": json_str(p)}
                for m, p in zip(self.matrices, self.stage_values)
                for e in [json_strs(m._data)]   # one pass, sliced into rows
            ],
            "markers": (None if self.markers is None
                        else [json_strs(h) for h in self.markers]),
            "provenance": self.provenance,
        }
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "RealizationSeq":
        if not isinstance(obj, dict):
            raise SchemaError("realization file must be a JSON object")
        if obj.get("version") != FILE_VERSION:
            raise SchemaError(
                f"unsupported file version {echo(obj.get('version'))}")
        with parsing("realization file"):
            stages = json_list(obj["stages"])
            mats = tuple(json_matrix(st["matrix"]) for st in stages)
            values = tuple(json_int(st["p"]) for st in stages)
            markers = obj.get("markers")
            if markers is not None:
                markers = tuple(tuple(json_ints(h))
                                for h in json_list(markers))
            props = obj.get("properties", {})
            provenance = obj.get("provenance", {})
            if not (isinstance(props, dict) and isinstance(provenance, dict)
                    and all(isinstance(v, bool) for v in props.values())):
                raise SchemaError("properties must map flags to booleans "
                                  "and provenance must be an object")
            return cls(mats, values, markers, props, provenance)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            dump_json(self.to_json(), fh)

    @classmethod
    def load(cls, path: str) -> "RealizationSeq":
        return cls.from_json(load_json(path))
