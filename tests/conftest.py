"""Shared fixtures: counters, corpus builders, synthetic document factories
and a sentence-splitting oracle."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from transmix.corpus import Document, write_corpus
from transmix.probe import NgramLanguageModel
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


# each problem of ``malformed_model_file`` and the error that loading names it by
MALFORMED_MODELS = {
    "orders": "orders [1, 2] differ from [1, 2, 3]",
    "counts": "the counts of 'fr' lack order 2",
    "vocab_sizes": "vocab_sizes lack order 3",
    "list": "a JSON list, not an object",
    "no-orders": "no 'orders' key",
    "no-counts": "no 'counts' key",
    "no-vocab_sizes": "no 'vocab_sizes' key",
    "gram-length": "the model's 2-grams are not all 2 characters long",
    "count": "the 1-gram counts of 'en' are not all integers",
    "negative-count": "the 1-gram counts of 'en' include a negative count",
    "count-overflow": "the 1-gram counts of 'en' include a count of 2**63 or more",
    "language-counts": "the counts of 'en' are a JSON int, not an object",
    "counts-list": "'counts' is a JSON list, not an object",
    "order-counts-list": "the 2-gram counts of 'en' are a JSON list, not an object",
    "vocab-string": "vocab_sizes of order 1 is '9', not a positive integer",
    "vocab-zero": "vocab_sizes of order 1 is 0, not a positive integer",
    "vocab-overflow": "vocab_sizes of order 1 is 2**63 or more",
    "no-languages": "the model has no languages",
    "over-cap": "the row tables would hold 9,070,229 entries, over the cap of 4,194,304, "
                "for an alphabet of 2,119 characters",
}


def malformed_model_file(tmp_path: Path, problem: str) -> Path:
    """A language-model file with one problem: orders other than (1, 2, 3)
    ("orders"), a language without its 2-gram counts ("counts"), no 3-gram
    vocabulary size ("vocab_sizes"), a list in place of the object ("list"),
    a missing top-level key ("no-orders", "no-counts", "no-vocab_sizes"), a
    3-character 2-gram ("gram-length"), a count that is a string ("count"),
    negative ("negative-count") or 2**64 ("count-overflow"), a number in
    place of a language's counts ("language-counts"), a list in place of all
    counts ("counts-list") or of one order's ("order-counts-list"), a 1-gram
    vocabulary size that is a string ("vocab-string"), 0 ("vocab-zero") or
    2**64 ("vocab-overflow"), no languages ("no-languages"), or 2,100 more
    1-grams of CJK characters, too many for the row tables ("over-cap")."""
    model = NgramLanguageModel()
    model.add_language("en", "the quick brown fox")
    model.add_language("fr", "le renard brun")
    model.finalize()
    path = tmp_path / "langid.json"
    model.save(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if problem == "orders":
        payload["orders"] = [1, 2]
        for per_order in payload["counts"].values():
            del per_order["3"]
    elif problem == "counts":
        del payload["counts"]["fr"]["2"]
    elif problem == "vocab_sizes":
        del payload["vocab_sizes"]["3"]
    elif problem == "list":
        payload = [payload]
    elif problem == "no-languages":
        payload["counts"] = {}
    elif problem.startswith("no-"):
        del payload[problem.removeprefix("no-")]
    elif problem == "gram-length":
        payload["counts"]["en"]["2"]["abc"] = 1
    elif problem == "negative-count":
        payload["counts"]["en"]["1"]["t"] = -1
    elif problem == "count-overflow":
        payload["counts"]["en"]["1"]["t"] = 2**64
    elif problem == "language-counts":
        payload["counts"]["en"] = 5
    elif problem == "counts-list":
        payload["counts"] = []
    elif problem == "order-counts-list":
        payload["counts"]["en"]["2"] = list(payload["counts"]["en"]["2"])
    elif problem.startswith("vocab-"):
        payload["vocab_sizes"]["1"] = {"vocab-string": "9", "vocab-zero": 0}.get(problem, 2**64)
    elif problem == "over-cap":
        payload["counts"]["en"]["1"].update({chr(0x4E00 + k): 1 for k in range(2100)})
    else:
        payload["counts"]["en"]["1"]["t"] = "x"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path
