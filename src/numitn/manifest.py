"""Dataset manifest records and their JSONL serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .evaluate import literal_present
from .types import ExpressionType

_FIELD_ORDER = ("id", "locale", "type", "verbalized", "formatted",
                "expressions", "audio", "voice")
_TYPE_VALUES = {t.value for t in ExpressionType}


class ManifestError(ValueError):
    pass


@dataclass(frozen=True)
class ManifestRecord:
    """One corpus sentence pair plus its synthesis bookkeeping.

    The spoken side must be digit-free, every expression surface must occur
    in the formatted side and every string must encode as UTF-8 (a lone
    surrogate does not); all are enforced on construction so a manifest on
    disk can be trusted after a plain read and written back whole.
    """

    id: str
    locale: str
    type: str
    verbalized: str
    formatted: str
    expressions: tuple[tuple[str, str], ...]
    audio: Optional[str] = None
    voice: Optional[str] = None

    def __post_init__(self) -> None:
        if self.type not in _TYPE_VALUES:
            raise ManifestError(f"record {self.id}: unknown type {self.type!r}")
        if any(map(str.isdigit, self.verbalized)):
            raise ManifestError(
                f"record {self.id}: verbalized text contains digits: {self.verbalized!r}")
        if not self.expressions:
            raise ManifestError(f"record {self.id}: no expressions listed")
        for surface, expr_type in self.expressions:
            if expr_type not in _TYPE_VALUES:
                raise ManifestError(
                    f"record {self.id}: unknown expression type {expr_type!r}")
            if not literal_present(self.formatted, surface):
                raise ManifestError(
                    f"record {self.id}: expression {surface!r} missing from "
                    f"formatted text {self.formatted!r}")
        try:
            "".join([self.id, self.locale, self.type, self.verbalized, self.formatted,
                     str(self.audio), str(self.voice),
                     *chain.from_iterable(self.expressions)]).encode("utf-8")
        except UnicodeEncodeError as err:
            bad = err.object[err.start:err.end]
            raise ManifestError(
                f"record {self.id}: {bad!r} is not UTF-8 ({err.reason})") from None

    def surfaces(self) -> tuple[str, ...]:
        return tuple(surface for surface, _ in self.expressions)

    def to_json(self) -> str:
        payload = {name: getattr(self, name) for name in _FIELD_ORDER}
        payload["expressions"] = [list(pair) for pair in self.expressions]
        return json.dumps(payload, ensure_ascii=False)

    @classmethod
    def from_obj(cls, obj: object) -> "ManifestRecord":
        if not isinstance(obj, dict):
            raise ManifestError(f"expected an object, got {type(obj).__name__}")
        extra = set(obj) - _FIELD_NAMES
        if extra:
            raise ManifestError(f"unknown fields: {sorted(extra)}")
        missing = [name for name in _FIELD_ORDER[:6] if name not in obj]
        if missing:
            raise ManifestError(f"missing fields: {missing}")
        mistyped = [name for name in _FIELD_ORDER[:5] if not isinstance(obj[name], str)]
        if mistyped:
            raise ManifestError(f"fields must be strings: {mistyped}")
        mistyped = [name for name in _FIELD_ORDER[6:]
                    if not isinstance(obj.get(name), (str, type(None)))]
        if mistyped:
            raise ManifestError(f"fields must be strings or null: {mistyped}")
        data = dict(obj)
        raw = data["expressions"]
        if not isinstance(raw, list) or not all(
                isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and isinstance(pair[1], str) for pair in raw):
            raise ManifestError("expressions must be [surface, type] pairs of strings")
        data["expressions"] = tuple((s, t) for s, t in raw)
        return cls(**data)


_FIELD_NAMES = frozenset(f.name for f in fields(ManifestRecord))


def write_manifest(records: Iterable[ManifestRecord], path: str | Path) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(record.to_json() + "\n")
            count += 1
    return count


def iter_manifest_lines(
        path: str | Path) -> Iterator[tuple[int, ManifestRecord | ManifestError]]:
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


def read_manifest(path: str | Path) -> list[ManifestRecord]:
    """Every record, or a ``ManifestError`` naming the first line that holds none."""
    records = []
    for line_no, entry in iter_manifest_lines(path):
        if isinstance(entry, ManifestError):
            raise ManifestError(f"{path}:{line_no}: {entry}") from entry
        records.append(entry)
    return records
