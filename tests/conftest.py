"""Shared fixtures: counters, corpus builders, synthetic document factories
and a sentence-splitting oracle."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from transmix.corpus import Document, write_corpus
from transmix.segment import CLOSERS, TERMINALS, Sentence, is_terminal_text, load_abbreviations
from transmix.tokenizer import BpeCounter, WhitespaceCounter, bundled_bpe_paths

SEED_DIR = Path(__file__).parent.parent / "src" / "transmix" / "data" / "seeds"


@pytest.fixture
def ws_counter():
    return WhitespaceCounter()


@pytest.fixture(scope="session")
def bpe_counter():
    vocab, merges = bundled_bpe_paths()
    return BpeCounter(vocab, merges)


@pytest.fixture
def make_corpus(tmp_path):
    """Write documents to a JSONL file and return its path."""

    def _make(docs, name="corpus.jsonl"):
        path = tmp_path / name
        write_corpus(path, docs)
        return path

    return _make


def seed_lines(lang: str) -> list[str]:
    return (SEED_DIR / f"{lang}.txt").read_text(encoding="utf-8").splitlines()


def random_words(rng: random.Random, n: int, prefix: str = "w") -> list[str]:
    return [f"{prefix}{rng.randrange(10**9)}" for _ in range(n)]


def make_docs(rng: random.Random, count: int, lang: str = "en",
              min_words: int = 5, max_words: int = 60) -> list[Document]:
    docs = []
    for i in range(count):
        words = random_words(rng, rng.randint(min_words, max_words))
        docs.append(Document(id=f"doc{i:05d}", lang=lang, text=" ".join(words)))
    return docs


def reference_split(text, lang="en"):
    """A per-character segmentation loop, with rules of its own, that
    ``split_sentences`` must equal on every input."""
    abbreviations = load_abbreviations(lang)
    n = len(text)
    sentences = []

    def emit(start, end):
        while end > start and text[end - 1].isspace():
            end -= 1
        if end > start:
            piece = text[start:end]
            sentences.append(Sentence(piece, start, end, is_terminal_text(piece)))

    start = skip_ws(text, 0)
    i = start
    while i < n:
        ch = text[i]
        if ch == "\n":
            j = i + 1
            while j < n and text[j] in " \t\r":
                j += 1
            if j >= n or text[j] == "\n":
                emit(start, i)
                start = skip_ws(text, j)
                i = start
                continue
            i += 1
            continue
        if ch in TERMINALS:
            run_end = i
            while run_end + 1 < n and text[run_end + 1] in TERMINALS:
                run_end += 1
            k = run_end + 1
            while k < n and text[k] in CLOSERS:
                k += 1
            if is_boundary(text, i, run_end, k, lang, abbreviations):
                emit(start, k)
                start = skip_ws(text, k)
                i = start
                continue
            i = run_end + 1
            continue
        i += 1
    emit(start, n)
    return sentences


def skip_ws(text, i):
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    return i


def is_boundary(text, run_start, run_end, after_closers, lang, abbreviations):
    """Whether the terminal run text[run_start:run_end + 1], with closers up
    to ``after_closers``, ends a sentence."""
    n = len(text)
    if after_closers >= n:
        return True
    if not text[after_closers].isspace():
        return False  # "3.14", "z.B.", mid-token punctuation
    if run_start == run_end and text[run_start] == ".":
        w = run_start
        while w > 0 and not text[w - 1].isspace():
            w -= 1
        word = text[w:run_start + 1]
        if word.lower() in abbreviations:
            return False
        if lang == "de" and word[:-1].isdigit() and len(word) <= 3:
            return False  # German ordinals: "3. Oktober"
    nxt = skip_ws(text, after_closers)
    return not (nxt < n and text[nxt].islower())  # continuation: "he said... and left"
