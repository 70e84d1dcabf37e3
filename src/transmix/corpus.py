"""Document model, streaming JSONL ingestion/egress, and corpus statistics.

The interchange format is JSONL: one ``{"id", "lang", "text", "source"?}``
object per line. Other keys are not read, and a stage that copies a line
keeps them; a ``token_count`` key is one of them, because every token count
comes from the active ``TokenCounter``. A first line that is a
``{"_header": true, ...}`` object is skipped.

``scan_corpus`` is the one line loop: it yields each document with its
stripped line and that line's byte offset, and ``read_corpus`` is that loop
yielding only the documents. A stage that keeps a document writes its line.
Stages that read their input twice (dedup and mix) read it through a
``TwoPassCorpus``: its first pass keeps each line's byte offset and hash,
16 bytes a document, and every later read goes back by offset and checks
that the file and each line are the ones first read.
"""

from __future__ import annotations

import json
import os
import stat
from array import array
from contextlib import contextmanager
from operator import itemgetter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .tokenizer import TokenCounter

__all__ = [
    "LANGUAGES",
    "Document",
    "ReadError",
    "CorpusFormatError",
    "CorpusRereadError",
    "TwoPassCorpus",
    "scan_corpus",
    "read_corpus",
    "read_at",
    "read_back_lines",
    "open_output",
    "write_corpus",
    "CorpusStats",
    "LanguageStats",
    "compute_stats",
    "implied_doc_count",
    "consistent",
]

LANGUAGES = ("en", "fr", "de", "es", "other")


class CorpusFormatError(ValueError):
    """Raised on malformed corpus input in strict mode."""


class CorpusRereadError(RuntimeError):
    """A corpus that a stage reads twice is not a regular file, or it changed
    between the reads."""


@dataclass(frozen=True)
class Document:
    """One corpus text. Immutable, safe to hand between workers."""

    id: str
    lang: str
    text: str
    source: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")
        if self.lang not in LANGUAGES:
            raise ValueError(f"unknown lang {self.lang!r}, expected one of {LANGUAGES}")

    def to_json(self) -> str:
        obj: dict = {"id": self.id, "lang": self.lang, "text": self.text}
        if self.source is not None:
            obj["source"] = self.source
        return json.dumps(obj, ensure_ascii=False)


@dataclass(frozen=True)
class ReadError:
    """One malformed input line, reported instead of silently dropped."""

    line_no: int
    message: str
    raw: str


def _parse_line(line: str) -> Document:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    if "\\u" in line:  # a lone surrogate escape raises UnicodeEncodeError, a ValueError
        json.dumps(obj, ensure_ascii=False).encode()
    missing = [k for k in ("id", "lang", "text") if k not in obj]
    if missing:
        raise ValueError(f"missing fields: {', '.join(missing)}")
    if not isinstance(obj["id"], str):
        raise ValueError("id is not a string")
    if not isinstance(obj["text"], str):
        raise ValueError("text is not a string")
    return Document(
        id=obj["id"],
        lang=obj["lang"],
        text=obj["text"],
        source=obj.get("source"),
    )


def _split_ends(raw: bytes) -> list[bytes]:
    """The lines of one binary line that holds a ``\\r``, without their ends.

    Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in text mode with
    universal newlines; a final ``\\r`` ends the last line.
    """
    if raw.endswith(b"\n"):
        return raw[:-2 if raw.endswith(b"\r\n") else -1].split(b"\r")
    lines = raw.split(b"\r")
    if not lines[-1]:
        lines.pop()
    return lines


def _text_lines(fh: BinaryIO) -> Iterator[tuple[int, bytes]]:
    """``(byte offset, bytes)`` of each line of a binary file, split as text
    mode splits it. The bytes may keep their ``\\n``."""
    start = 0
    for raw in fh:
        offset, start = start, start + len(raw)
        if b"\r" not in raw:  # the common case
            yield offset, raw
            continue
        for piece in _split_ends(raw):
            yield offset, piece
            offset += len(piece) + 1


def scan_corpus(
    path: str | Path,
    strict: bool = False,
    on_error: Callable[[ReadError], None] | None = None,
) -> Iterator[tuple[int, str, Document]]:
    """Stream ``(byte offset of its line, stripped line, Document)`` triples
    from a JSONL file.

    Malformed lines, those that are not UTF-8 among them, are reported
    through ``on_error`` and skipped; in strict mode the first one aborts the
    stream with CorpusFormatError, and id uniqueness is enforced as well. A
    ``{"_header": true, ...}`` object on line 1 is skipped. Whitespace-only
    lines are skipped but counted in line numbers.
    """
    seen_ids: set[str] | None = set() if strict else None
    with open(path, "rb") as fh:
        for line_no, (offset, raw) in enumerate(_text_lines(fh), start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                if line_no == 1:
                    try:
                        obj = json.loads(line)
                        if isinstance(obj, dict) and obj.get("_header"):
                            continue
                    except json.JSONDecodeError:
                        pass
                doc = _parse_line(line)
                if seen_ids is not None:
                    if doc.id in seen_ids:
                        raise ValueError(f"duplicate document id {doc.id!r}")
                    seen_ids.add(doc.id)
            except (ValueError, KeyError) as exc:
                if strict:
                    raise CorpusFormatError(f"{path}:{line_no}: {exc}") from exc
                if on_error is not None:
                    on_error(ReadError(line_no=line_no, message=str(exc),
                                       raw=raw.decode("utf-8", "replace").strip()))
                continue
            yield offset, line, doc


def read_corpus(
    path: str | Path,
    strict: bool = False,
    on_error: Callable[[ReadError], None] | None = None,
) -> Iterator[Document]:
    """Stream Documents from a JSONL file without loading it whole: the
    documents of ``scan_corpus``, with the same error handling."""
    return map(itemgetter(2), scan_corpus(path, strict, on_error))


def read_at(path: str | Path, offsets: Iterable[int]) -> list[str]:
    """The stripped lines that start at ``offsets`` (from ``scan_corpus``),
    in the order given; an offset at the end of the file gives ``""``."""
    lines = []
    with open(path, "rb") as fh:
        for offset in offsets:
            fh.seek(offset)
            _, line = next(_text_lines(fh), (offset, b""))
            lines.append(line.decode("utf-8").strip())
    return lines


def _file_stamp(path: str) -> tuple[int, int]:
    """Size and modification time of a file that a stage reads twice. A pipe
    or a device can be read only once, so it is refused."""
    st = os.stat(path)
    if not stat.S_ISREG(st.st_mode):
        raise CorpusRereadError(
            f"{path} is not a regular file; this stage reads its input twice")
    return st.st_size, st.st_mtime_ns


# lines read back at a time by read_back_lines
_READ_BLOCK = 256


class TwoPassCorpus:
    """A corpus file that a stage reads twice without holding its text.

    Its size and mtime are taken when it is made, so a pipe or a device is
    refused at once. ``documents()`` is the first pass: it records each
    document's byte offset and the ``hash`` of its stripped line, 16 bytes a
    document. Later reads go back by offset and raise CorpusRereadError if
    the file, or any line read again, is not the one first read.
    """

    def __init__(self, path: str | Path, strict: bool = False) -> None:
        self.path = str(path)
        self.strict = strict
        self._stamp = _file_stamp(self.path)
        self._offsets = array("q")
        self._hashes = array("q")

    def __len__(self) -> int:  # documents of the first pass so far
        return len(self._offsets)

    def documents(self) -> Iterator[Document]:
        """The first pass: the documents of ``read_corpus``, each recorded."""
        self._offsets, self._hashes = offsets, hashes = array("q"), array("q")
        for offset, line, doc in scan_corpus(self.path, self.strict):
            offsets.append(offset)
            hashes.append(hash(line))
            yield doc

    def read_back(self, indices: Iterable[int]) -> list[str]:
        """The stripped lines at the given first-pass indices, in the order
        given, read again front to back and checked."""
        if _file_stamp(self.path) != self._stamp:
            raise CorpusRereadError(f"{self.path} changed between reads")
        indices = np.asarray(indices, dtype=np.int64)
        offsets = np.frombuffer(self._offsets, dtype=np.int64)[indices]
        ahead = np.argsort(offsets, kind="stable")
        read = read_at(self.path, offsets[ahead].tolist())
        recorded = np.frombuffer(self._hashes, dtype=np.int64)[indices[ahead]]
        lines: list = [None] * len(read)
        for slot, line, h in zip(ahead.tolist(), read, recorded.tolist()):
            if hash(line) != h:
                raise CorpusRereadError(
                    f"{self.path} changed between reads: a line read again "
                    "is not the one first read there")
            lines[slot] = line
        return lines


def read_back_lines(sources: Sequence[TwoPassCorpus], refs: Iterable[int]) -> Iterator[str]:
    """The lines that ``refs`` name, in order, read back from ``sources`` a
    block at a time. A reference is a first-pass index times
    ``len(sources)``, plus the number of its source."""
    refs = np.asarray(refs, dtype=np.int64)
    k = len(sources)
    for lo in range(0, len(refs), _READ_BLOCK):
        block = refs[lo:lo + _READ_BLOCK]
        lines: list = [None] * len(block)
        for s, source in enumerate(sources):
            slots = np.flatnonzero(block % k == s)
            for slot, line in zip(slots.tolist(), source.read_back(block[slots] // k)):
                lines[slot] = line
        yield from lines


@contextmanager
def open_output(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Write ``<path>.partial``, UTF-8 text or binary for ``"wb"``, and rename it
    to ``path`` on a clean exit; any exception, SystemExit too, deletes it."""
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        raise FileExistsError(f"{path} exists and is not a regular file")
    partial = f"{path}.partial"
    fh = open(partial, mode, encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        os.unlink(partial)
        raise


def write_corpus(path: str | Path, docs: Iterable[Document | str]) -> int:
    """Write Documents, or lines as read, as JSONL; returns the number written."""
    n = 0
    with open_output(path) as fh:
        for doc in docs:
            fh.write((doc if isinstance(doc, str) else doc.to_json()) + "\n")
            n += 1
    return n


@dataclass
class LanguageStats:
    token_total: int = 0
    doc_count: int = 0

    @property
    def avg_doc_length(self) -> float:
        return self.token_total / self.doc_count if self.doc_count else 0.0


@dataclass
class CorpusStats:
    """Per-language token totals, document counts, and average lengths."""

    per_language: dict[str, LanguageStats] = field(default_factory=dict)
    tokenizer_fingerprint: str | None = None

    @property
    def overall(self) -> LanguageStats:
        total = LanguageStats()
        for stats in self.per_language.values():
            total.token_total += stats.token_total
            total.doc_count += stats.doc_count
        return total

    def to_report(self) -> dict:
        def row(s: LanguageStats) -> dict:
            return {
                "tokens": s.token_total,
                "docs": s.doc_count,
                "avg_doc_length": round(s.avg_doc_length, 1),
            }

        report = {lang: row(s) for lang, s in sorted(self.per_language.items())}
        report["total"] = row(self.overall)
        if self.tokenizer_fingerprint:
            report["tokenizer_fingerprint"] = self.tokenizer_fingerprint
        return report


def compute_stats(docs: Iterable[Document], counter: TokenCounter) -> CorpusStats:
    """Single-pass per-language statistics, every document counted by ``counter``."""
    stats = CorpusStats(tokenizer_fingerprint=counter.fingerprint)
    for doc in docs:
        lang_stats = stats.per_language.setdefault(doc.lang, LanguageStats())
        lang_stats.token_total += counter.count(doc.text)
        lang_stats.doc_count += 1
    return stats


def implied_doc_count(token_total: float, avg_doc_length: float) -> float:
    """Document count implied by a (token total, average length) pair."""
    if avg_doc_length <= 0:
        raise ValueError("avg_doc_length must be positive")
    return token_total / avg_doc_length


def consistent(token_total: float, doc_count: int, avg_doc_length: float) -> bool:
    """Identity check: avg x count must equal the total within half a token per doc."""
    return abs(avg_doc_length * doc_count - token_total) <= doc_count * 0.5
