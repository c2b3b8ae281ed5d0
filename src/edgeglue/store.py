"""Append-only JSON-lines store for extremal records.

Each line is {"record": {...}, "crc32": ...} where the checksum covers the
canonical JSON serialization of the record.  Duplicate (kind, forbidden,
size) keys keep the earliest record.  An append cut short leaves an
unterminated last line that does not parse: readers skip it and the next
append drops it.  Any other bad line is corruption: an unreadable line, a
checksum mismatch or a record with a missing or ill-typed field raises
`CorruptStore` naming `path:lineno`.  Lines are UTF-8 and end at "\\n"; a
"\\r" before it is stripped as whitespace.

Every `load_records` and `lookup` reads the whole file but parses only what
it has not parsed before.  A per-path index holds the complete lines it last
parsed, their count, and a key -> earliest record dict.  When the bytes just
read begin with those lines, only the complete lines after them are parsed;
otherwise (the file was deleted, truncated, rewritten or edited in place)
the whole file is.  So the records served always match the bytes the file
holds at that call, and each line is checked once per distinct content.  A
parse that raises leaves the index as it was, so a corrupt file raises on
every call.  The unterminated last line is never indexed: each call parses
it again, keeps it if it parses and its checksum matches, and skips it if it
is torn.  `store_record` needs no hook: its append is new bytes after the
indexed lines.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from typing import Optional

from .errors import CorruptStore
from .extremal import ExtremalRecord

# path -> (complete lines as last parsed, their count, key -> earliest record).
# Every call checks the entry against the bytes it reads, so what one caller
# leaves here cannot change what another is served.
_INDEX: dict[str, tuple[bytes, int, dict]] = {}
_INDEXED_PATHS = 8  # the least recently extended entry goes first
_LOCK = threading.Lock()


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


def _record(path, lineno: int, raw: bytes, torn_ok: bool = False) -> Optional[ExtremalRecord]:
    """The record on one line, or None if the line is blank (or unreadable,
    when `torn_ok`: the unterminated last line); CorruptStore otherwise."""
    try:
        line = raw.decode().strip()  # UnicodeDecodeError is a ValueError
        if not line:
            return None
        payload, crc = _parse_line(line)
    except ValueError as exc:
        if torn_ok:
            return None
        raise CorruptStore(f"{path}:{lineno}: unreadable line") from exc
    if zlib.crc32(_canonical_json(payload).encode()) != crc:
        raise CorruptStore(f"{path}:{lineno}: checksum mismatch")
    try:
        rec = ExtremalRecord.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptStore(f"{path}:{lineno}: malformed record") from exc
    return rec


def _indexed(path) -> tuple[dict, Optional[ExtremalRecord]]:
    """(key -> earliest record on the complete lines, record on the
    unterminated last line or None), both for the file's current bytes."""
    name = os.fspath(path)
    if not os.path.exists(name):
        return {}, None
    with _LOCK, open(name, "rb") as fh:
        data = fh.read()
        prefix, lines, records = _INDEX.get(name, (b"", 0, {}))
        if not data.startswith(prefix):
            prefix, lines, records = b"", 0, {}
        end = data.rfind(b"\n") + 1
        if end > len(prefix):
            new = data[len(prefix) : end].split(b"\n")[:-1]
            parsed = [_record(path, lines + i, raw) for i, raw in enumerate(new, start=1)]
            for rec in parsed:  # only once every new line has passed
                if rec is not None:
                    records.setdefault(rec.key(), rec)
            lines += len(new)
            _INDEX.pop(name, None)
            if len(_INDEX) >= _INDEXED_PATHS:
                del _INDEX[next(iter(_INDEX))]
            _INDEX[name] = (data[:end], lines, records)
    tail = _record(path, lines + 1, data[end:], torn_ok=True) if end < len(data) else None
    return records, tail


def load_records(path: str, kind: Optional[str] = None) -> list[ExtremalRecord]:
    """All records, or those of one kind, earliest first; duplicates dropped."""
    records, tail = _indexed(path)
    out = list(records.values())
    if tail is not None and tail.key() not in records:
        out.append(tail)
    if kind is not None:
        out = [r for r in out if r.kind == kind]
    return out


def lookup(path: str, kind: str, forbidden, size) -> Optional[ExtremalRecord]:
    """The earliest record under (kind, forbidden, size), or None."""
    key = (kind, tuple(sorted(forbidden)), tuple(size))
    records, tail = _indexed(path)
    hit = records.get(key)
    if hit is None and tail is not None and tail.key() == key:
        hit = tail
    return hit
