"""Rule-based sentence segmentation and greedy chunking under a token budget.

The segmenter is deterministic and needs no runtime model: boundaries are
decided by terminal punctuation, per-language abbreviation lists (bundled
editable text files), a lowercase-continuation rule, and forced breaks at
blank lines. German additionally treats short digit ordinals ("3. Oktober")
as non-boundaries.

``split_sentences`` makes one scan with one compiled pattern for the places
a cut may fall: a maximal run of terminal punctuation with the closers
after it, or a blank line. A blank line and the end of the text always
cut; at a run, the rules above decide.
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
DEFAULT_CHUNK_LIMIT = 300  # tokens a chunk may hold
# where a cut may fall: a blank line, or a maximal run of terminals with the
# closers after it. Group 1 holds the run but its first character, group 2
# the whitespace after the match (\s accepts what str.isspace does). The
# leading character class lets the scan skip ahead to a newline or terminal.
_CUTS = re.compile(r"[{t}\n](?:(?<=\n)[ \t\r]*\n|(?<!\n)([{t}]*)[{c}]*)(?=(\s*))".format(
    t=re.escape(TERMINALS), c=re.escape(CLOSERS)))

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
def load_abbreviations(lang: str) -> frozenset[str]:
    """Lowercased abbreviation set for a language; 'other' uses the en list."""
    path = _DATA_DIR / f"{'en' if lang == 'other' else lang}.txt"
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


def split_sentences(text: str, lang: str = "en") -> list[Sentence]:
    """Split text into sentences covering every non-whitespace character.

    Gaps between consecutive spans are pure whitespace, so the original text
    can be reconstructed exactly from spans plus gaps. Text without terminal
    punctuation comes back as a single non-terminal sentence.
    """
    abbreviations = load_abbreviations(lang)
    n = len(text)
    sentences: list[Sentence] = []
    start = n - len(text.lstrip())
    for m in _CUTS.finditer(text, start):
        i = m.start()
        if i < start:
            continue  # in the whitespace skipped after the last cut
        cut, nxt = m.span(2)
        if text[i] == "\n":
            cut = i  # a blank line: forced, regardless of punctuation
        elif nxt < n:
            if cut == nxt:
                continue  # "3.14", "z.B.", mid-token punctuation
            if text[nxt].islower():
                continue  # continuation: "he said... and left"
            if text[i] == "." and not m.group(1):  # a lone period
                w = i
                while w > 0 and not text[w - 1].isspace():
                    w -= 1
                word = text[w:i + 1]
                if word.lower() in abbreviations:
                    continue
                if lang == "de" and word[:-1].isdigit() and len(word) <= 3:
                    continue  # German ordinals: "3. Oktober"
        piece = text[start:cut].rstrip()
        if piece:
            sentences.append(Sentence(piece, start, start + len(piece),
                                      is_terminal_text(piece)))
        start = nxt
    piece = text[start:].rstrip()  # the end of the text cuts too
    if piece:
        sentences.append(Sentence(piece, start, start + len(piece),
                                  is_terminal_text(piece)))
    return sentences


def chunk_document(doc: Document, counter: TokenCounter,
                   limit: int = DEFAULT_CHUNK_LIMIT) -> list[Chunk]:
    """Greedy chunking: append sentences while the running total stays within
    the budget; a single oversized sentence becomes its own chunk (sentences
    are never split). Chunk token counts are sums of per-sentence counts.
    """
    if limit < 1:
        raise ValueError("chunk limit must be >= 1")
    sents = split_sentences(doc.text, doc.lang)
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
