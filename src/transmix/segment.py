"""Rule-based sentence segmentation and greedy chunking under a token budget.

The segmenter is deterministic and needs no runtime model: boundaries are
decided by terminal punctuation, per-language abbreviation lists (bundled
editable text files), a lowercase-continuation rule, and forced breaks at
blank lines. German additionally treats short digit ordinals ("3. Oktober")
as non-boundaries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .corpus import Document
from .tokenizer import TokenCounter

__all__ = [
    "Sentence",
    "Chunk",
    "split_sentences",
    "is_terminal_text",
    "chunk_document",
    "load_abbreviations",
]

TERMINALS = ".!?…"
CLOSERS = "\"')]}»›”’"
_CANDIDATES = re.compile(f"\n|[{re.escape(TERMINALS)}]+")

_DATA_DIR = Path(__file__).parent / "data" / "abbreviations"


@dataclass(frozen=True)
class Sentence:
    """A sentence with its [start, end) span in the parent text."""

    text: str
    start: int
    end: int
    terminal: bool


@dataclass(frozen=True)
class Chunk:
    """A run of consecutive sentences that fits the translation budget."""

    sentences: tuple[Sentence, ...]
    token_count: int
    index: int
    text: str


@lru_cache(maxsize=None)
def load_abbreviations(lang: str, data_dir: str | None = None) -> frozenset[str]:
    """Lowercased abbreviation set for a language; 'other' uses the en list.

    ``data_dir`` holds one UTF-8 file per language, one abbreviation per
    line; None means the bundled lists.
    """
    base = Path(data_dir or _DATA_DIR)
    path = base / f"{'en' if lang == 'other' else lang}.txt"
    if not path.exists():
        return frozenset()
    entries = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.add(line.lower())
    return frozenset(entries)


def is_terminal_text(text: str) -> bool:
    """True when the text ends in terminal punctuation, closers allowed after it."""
    stripped = text.rstrip(CLOSERS)
    return bool(stripped) and stripped[-1] in TERMINALS


def split_sentences(text: str, lang: str = "en",
                    abbreviations: frozenset[str] | None = None) -> list[Sentence]:
    """Split text into sentences covering every non-whitespace character.

    Gaps between consecutive spans are pure whitespace, so the original text
    can be reconstructed exactly from spans plus gaps. Text without terminal
    punctuation comes back as a single non-terminal sentence.
    """
    if abbreviations is None:
        abbreviations = load_abbreviations(lang)

    n = len(text)
    sentences: list[Sentence] = []

    def emit(start: int, end: int) -> None:
        while end > start and text[end - 1].isspace():
            end -= 1
        if end > start:
            piece = text[start:end]
            sentences.append(Sentence(piece, start, end, is_terminal_text(piece)))

    # candidate positions: a newline or a maximal run of terminals
    start = pos = _skip_ws(text, 0)
    while (m := _CANDIDATES.search(text, pos)) is not None:
        i, pos = m.span()
        if text[i] == "\n":
            j = pos
            while j < n and text[j] in " \t\r":
                j += 1
            if j >= n or text[j] == "\n":
                # blank line: forced boundary regardless of punctuation
                emit(start, i)
                start = pos = _skip_ws(text, j)
            continue
        k = pos
        while k < n and text[k] in CLOSERS:
            k += 1
        if _is_boundary(text, i, pos - 1, k, lang, abbreviations):
            emit(start, k)
            start = pos = _skip_ws(text, k)
    emit(start, n)
    return sentences


def _skip_ws(text: str, i: int) -> int:
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    return i


def _is_boundary(text: str, run_start: int, run_end: int, after_closers: int,
                 lang: str, abbreviations: frozenset[str]) -> bool:
    n = len(text)
    if after_closers >= n:
        return True
    if not text[after_closers].isspace():
        return False  # "3.14", "z.B.", mid-token punctuation
    single_period = run_start == run_end and text[run_start] == "."
    if single_period:
        w = run_start
        while w > 0 and not text[w - 1].isspace():
            w -= 1
        word = text[w:run_start + 1]
        if word.lower() in abbreviations:
            return False
        if lang == "de" and word[:-1].isdigit() and len(word) <= 3:
            return False  # German ordinals: "3. Oktober"
    nxt = _skip_ws(text, after_closers)
    if nxt < n and text[nxt].islower():
        return False  # continuation: "he said... and left"
    return True


def chunk_document(doc: Document, counter: TokenCounter, limit: int = 300,
                   abbreviation_dir: str | None = None) -> list[Chunk]:
    """Greedy chunking: append sentences while the running total stays within
    the budget; a single oversized sentence becomes its own chunk (sentences
    are never split). Chunk token counts are sums of per-sentence counts.
    ``abbreviation_dir`` is as in ``load_abbreviations``.
    """
    if limit < 1:
        raise ValueError("chunk limit must be >= 1")
    sents = split_sentences(doc.text, doc.lang,
                            load_abbreviations(doc.lang, abbreviation_dir))
    chunks: list[Chunk] = []
    cur: list[Sentence] = []
    cur_tokens = 0

    def flush() -> None:
        nonlocal cur, cur_tokens
        if cur:
            chunks.append(Chunk(
                sentences=tuple(cur),
                token_count=cur_tokens,
                index=len(chunks),
                text=doc.text[cur[0].start:cur[-1].end],
            ))
            cur = []
            cur_tokens = 0

    for sent in sents:
        n = counter.count(sent.text)
        if cur and cur_tokens + n > limit:
            flush()
        cur.append(sent)
        cur_tokens += n
    flush()
    return chunks
