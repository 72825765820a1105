"""Dataset manifest records and their JSONL serialization."""

from __future__ import annotations

import json
import os
import stat
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain
from json.encoder import encode_basestring as _str

from .extract import literal_present
from .types import ExpressionType, make_through_new

_TYPE_VALUES = {t.value for t in ExpressionType}
_OPTIONAL = (str, type(None))


class ManifestError(ValueError):
    pass


class ManifestRecord(namedtuple(
        "ManifestRecord", "id locale type verbalized formatted expressions audio voice")):
    """One corpus sentence pair plus its synthesis bookkeeping.

    ``expressions`` holds (surface, type value) pairs of strings; ``audio``
    and ``voice`` are strings or None. The spoken side must be digit-free,
    every expression surface must occur in the formatted side and every
    string must encode as UTF-8 (a lone surrogate does not); all are
    enforced on construction so a manifest on disk can be trusted after a
    plain read and written back whole.
    """

    __slots__ = ()
    _make = classmethod(make_through_new)

    def __new__(cls, id: str, locale: str, type: str, verbalized: str, formatted: str,
                expressions: tuple[tuple[str, str], ...], audio: str | None = None,
                voice: str | None = None) -> ManifestRecord:
        strings = (id, locale, type, verbalized, formatted)
        mistyped = [name for name, value in zip(cls._fields, strings)
                    if not isinstance(value, str)]
        if mistyped:
            raise ManifestError(f"record {id!r}: fields must be strings: {mistyped}")
        if type not in _TYPE_VALUES:
            raise ManifestError(f"record {id}: unknown type {type!r}")
        if any(map(str.isdigit, verbalized)):
            raise ManifestError(
                f"record {id}: verbalized text contains digits: {verbalized!r}")
        if not expressions:
            raise ManifestError(f"record {id}: no expressions listed")
        for surface, expr_type in expressions:
            if expr_type not in _TYPE_VALUES:
                raise ManifestError(
                    f"record {id}: unknown expression type {expr_type!r}")
            if not literal_present(formatted, surface):
                raise ManifestError(
                    f"record {id}: expression {surface!r} missing from "
                    f"formatted text {formatted!r}")
        if not isinstance(audio, _OPTIONAL) or not isinstance(voice, _OPTIONAL):
            raise ManifestError(f"record {id}: audio and voice must be strings or None, "
                                f"got {audio!r} and {voice!r}")
        try:
            "".join([id, locale, type, verbalized, formatted, audio or "", voice or "",
                     *chain.from_iterable(expressions)]).encode("utf-8")
        except UnicodeEncodeError as err:
            bad = err.object[err.start:err.end]
            raise ManifestError(
                f"record {id}: {bad!r} is not UTF-8 ({err.reason})") from None
        return tuple.__new__(cls, (id, locale, type, verbalized, formatted, expressions,
                                   audio, voice))

    def surfaces(self) -> tuple[str, ...]:
        return tuple(surface for surface, _ in self.expressions)

    def to_json(self) -> str:
        """The record as one JSON object, written field by field.

        Each string goes through ``encode_basestring``, the C escaper that
        ``json.dumps(..., ensure_ascii=False)`` uses, with its separators and
        the keys in field order, so the line is the one ``json.dumps`` of
        ``_asdict()`` writes; ``json.loads`` and ``from_obj`` read it back.
        """
        id, locale, type, verbalized, formatted, expressions, audio, voice = self
        pairs = "], [".join([f"{_str(surface)}, {_str(expr_type)}"
                             for surface, expr_type in expressions])
        return (f'{{"id": {_str(id)}, "locale": {_str(locale)}, "type": {_str(type)}, '
                f'"verbalized": {_str(verbalized)}, "formatted": {_str(formatted)}, '
                f'"expressions": [[{pairs}]], '
                f'"audio": {"null" if audio is None else _str(audio)}, '
                f'"voice": {"null" if voice is None else _str(voice)}}}')

    @classmethod
    def from_obj(cls, obj: object) -> ManifestRecord:
        if not isinstance(obj, dict):
            raise ManifestError(f"expected an object, got {type(obj).__name__}")
        keys = obj.keys()
        if not keys <= _FIELD_NAMES:
            raise ManifestError(f"unknown fields: {sorted(keys - _FIELD_NAMES)}")
        if not keys >= _REQUIRED:
            raise ManifestError(
                f"missing fields: {[name for name in cls._fields[:6] if name not in obj]}")
        values = list(map(obj.get, cls._fields))
        mistyped = [name for name, value in zip(cls._fields[:5], values)
                    if not isinstance(value, str)]
        if mistyped:
            raise ManifestError(f"fields must be strings: {mistyped}")
        mistyped = [name for name, value in zip(cls._fields[6:], values[6:])
                    if not isinstance(value, _OPTIONAL)]
        if mistyped:
            raise ManifestError(f"fields must be strings or null: {mistyped}")
        raw = values[5]
        if not isinstance(raw, list) or not all(
                isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and isinstance(pair[1], str) for pair in raw):
            raise ManifestError("expressions must be [surface, type] pairs of strings")
        values[5] = tuple(map(tuple, raw))
        return cls(*values)


_FIELD_NAMES = frozenset(ManifestRecord._fields)
# ``audio`` and ``voice`` may be left out.
_REQUIRED = frozenset(ManifestRecord._fields[:6])


def write_manifest(records: Iterable[ManifestRecord], path: str | os.PathLike[str]) -> int:
    """Write one JSON line per record over ``path``; return the record count.

    The file is rewritten in place and then cut where the writes reached,
    not truncated when it is opened: when a file that was truncated to zero
    and written again is closed, ext4 (with its default ``auto_da_alloc``)
    writes it back to disk at once. An error raised while writing, by the
    records or by the disk, leaves what was written before it and nothing
    of the old file; a process killed before the cut can leave bytes of the
    old file after the new records.
    """
    count = 0
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        try:
            for record in records:
                handle.write((record.to_json() + "\n").encode("utf-8"))
                count += 1
        finally:
            try:
                handle.flush()
            finally:
                # Only a longer regular file is cut: ftruncate fails on a
                # pipe, a tty or /dev/null.
                status = os.fstat(handle.fileno())
                if stat.S_ISREG(status.st_mode) and status.st_size > (end := handle.raw.tell()):
                    os.ftruncate(handle.fileno(), end)
    return count


def iter_manifest_lines(
        path: str | os.PathLike[str]) -> Iterator[tuple[int, ManifestRecord | ManifestError]]:
    """Each non-blank line's number with its record, or the error that line holds."""
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                entry = ManifestRecord.from_obj(json.loads(line))
            except UnicodeDecodeError as err:
                entry = ManifestError(f"not UTF-8: {err}")
            except json.JSONDecodeError as err:
                entry = ManifestError(f"invalid JSON: {err}")
            except ManifestError as err:
                entry = err
            yield line_no, entry


def read_manifest(path: str | os.PathLike[str]) -> list[ManifestRecord]:
    """Every record, or a ``ManifestError`` naming the first line that holds none."""
    records = []
    for line_no, entry in iter_manifest_lines(path):
        if isinstance(entry, ManifestError):
            raise ManifestError(f"{path}:{line_no}: {entry}") from entry
        records.append(entry)
    return records
