"""Append-only JSON-lines store for extremal records.

Each line is {"record": {...}, "crc32": ...} where the checksum covers the
canonical JSON serialization of the record.  Duplicate (kind, forbidden,
size) keys keep the earliest record.  An append cut short leaves an
unterminated last line that does not parse: readers skip it and the next
append drops it.  Any other bad line is corruption.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Optional

from .errors import CorruptStore
from .extremal import ExtremalRecord


def _canonical_json(d: dict) -> str:
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def _parse_line(line) -> tuple[dict, int]:
    """(record payload, checksum) of one stored line; ValueError if unreadable."""
    try:
        obj = json.loads(line)
        return obj["record"], obj["crc32"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError("unreadable line") from exc


def _end_last_line(path: str) -> None:
    """End the file at a line boundary: terminate a complete last line that
    lacks its newline, and drop a torn one."""
    if not os.path.exists(path):
        return
    with open(path, "rb+") as fh:
        if fh.seek(0, os.SEEK_END) == 0:
            return
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        data = fh.read()
        start = data.rfind(b"\n") + 1
        try:
            _parse_line(data[start:])
        except ValueError:
            fh.truncate(start)
        else:
            fh.write(b"\n")


def store_record(path: str, record: ExtremalRecord) -> None:
    """Validate and append one record."""
    record.validate()
    payload = record.to_dict()
    body = _canonical_json(payload)
    line = _canonical_json({"record": payload, "crc32": zlib.crc32(body.encode())})
    _end_last_line(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def load_records(
    path: str,
    kind: Optional[str] = None,
    size=None,
    forbidden=None,
) -> list[ExtremalRecord]:
    """All records matching the query, earliest first; duplicates dropped."""
    if not os.path.exists(path):
        return []
    out: list[ExtremalRecord] = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                payload, crc = _parse_line(line)
            except ValueError as exc:
                if not raw.endswith("\n"):
                    break  # torn last line of an interrupted append
                raise CorruptStore(f"{path}:{lineno}: unreadable line") from exc
            if zlib.crc32(_canonical_json(payload).encode()) != crc:
                raise CorruptStore(f"{path}:{lineno}: checksum mismatch")
            rec = ExtremalRecord.from_dict(payload)
            if rec.key() in seen:
                continue
            seen.add(rec.key())
            out.append(rec)
    if kind is not None:
        out = [r for r in out if r.kind == kind]
    if size is not None:
        size = tuple(size) if isinstance(size, (tuple, list)) else (size,)
        out = [r for r in out if r.size == size]
    if forbidden is not None:
        forbidden = tuple(sorted(forbidden))
        out = [r for r in out if r.forbidden == forbidden]
    return out


def lookup(path: str, kind: str, forbidden, size) -> Optional[ExtremalRecord]:
    size = tuple(size) if isinstance(size, (tuple, list)) else (size,)
    matches = load_records(path, kind=kind, size=size, forbidden=tuple(sorted(forbidden)))
    return matches[0] if matches else None
