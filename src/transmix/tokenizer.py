"""Token counters: a whitespace fallback and a small merges-based BPE.

Every counter is deterministic, exposes a reserved EOS id for document
separation, and carries a fingerprint so downstream artifacts can record
which tokenizer produced their counts.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

__all__ = [
    "TokenCounter",
    "WhitespaceCounter",
    "BpeCounter",
    "bundled_bpe_paths",
]

_WORD_END = "</w>"
_UNK = "<unk>"
_EOS = "<eos>"
# most words a counter caches, so a stream of unique words cannot grow it unbounded
_WORD_CACHE_CAP = 100_000


class TokenCounter:
    """Interface shared by all counters."""

    mode: str
    eos_id: int
    fingerprint: str

    def count(self, text: str) -> int:
        raise NotImplementedError

    def encode(self, text: str) -> list[int]:
        raise NotImplementedError


class WhitespaceCounter(TokenCounter):
    """Counts maximal non-whitespace runs.

    Token ids are stable 32-bit hashes of the word; id 0 is reserved for EOS.
    Good enough for packing and budget arithmetic when no BPE files are at
    hand, not reversible. Ids are cached per counter, up to
    ``_WORD_CACHE_CAP`` distinct words, so a repeated word is hashed once.
    """

    mode = "whitespace"

    def __init__(self) -> None:
        self.eos_id = 0
        self.fingerprint = "ws:1"
        self._word_cache: dict[str, int] = {}

    def count(self, text: str) -> int:
        return len(text.split())

    def encode(self, text: str) -> list[int]:
        ids: list[int] = []
        for word in text.split():
            cached = self._word_cache.get(word)
            if cached is None:
                cached = _word_id(word)
                if len(self._word_cache) < _WORD_CACHE_CAP:
                    self._word_cache[word] = cached
            ids.append(cached)
        return ids


def _word_id(word: str) -> int:
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=4).digest()
    # keep 0 free for the EOS separator
    return 1 + int.from_bytes(digest, "little") % (2**32 - 1)


class BpeCounter(TokenCounter):
    """Word-internal BPE driven by plain-text vocab and merges files.

    The vocab file holds one symbol per line (line number = token id) and
    must contain ``<unk>`` and ``<eos>``. The merges file holds one
    ``left right`` pair per line in rank order. Words are whitespace-split,
    spelled as characters plus a ``</w>`` end marker, then merged greedily
    by rank; symbols missing from the vocab map to ``<unk>``.
    """

    mode = "bpe"

    def __init__(self, vocab_path: str | Path, merges_path: str | Path) -> None:
        vocab_path = Path(vocab_path)
        merges_path = Path(merges_path)
        vocab_bytes = vocab_path.read_bytes()
        merges_bytes = merges_path.read_bytes()

        self.token_to_id: dict[str, int] = {}
        for i, line in enumerate(vocab_bytes.decode("utf-8").splitlines()):
            if line:
                self.token_to_id[line] = i
        if _UNK not in self.token_to_id or _EOS not in self.token_to_id:
            raise ValueError(f"vocab must define {_UNK} and {_EOS}: {vocab_path}")

        self.merge_ranks: dict[tuple[str, str], int] = {}
        for rank, line in enumerate(merges_bytes.decode("utf-8").splitlines()):
            if not line:
                continue
            left, right = line.split(" ")
            self.merge_ranks[(left, right)] = rank

        self.unk_id = self.token_to_id[_UNK]
        self.eos_id = self.token_to_id[_EOS]
        h = hashlib.blake2b(vocab_bytes + b"\x00" + merges_bytes, digest_size=8)
        self.fingerprint = "bpe:" + h.hexdigest()
        self._word_cache: dict[str, list[int]] = {}

    def count(self, text: str) -> int:
        return len(self.encode(text))

    def encode(self, text: str) -> list[int]:
        ids: list[int] = []
        for word in text.split():
            cached = self._word_cache.get(word)
            if cached is None:
                cached = [
                    self.token_to_id.get(sym, self.unk_id)
                    for sym in self._bpe_word(word)
                ]
                if len(self._word_cache) < _WORD_CACHE_CAP:
                    self._word_cache[word] = cached
            ids.extend(cached)
        return ids

    def _bpe_word(self, word: str) -> list[str]:
        symbols = list(word) + [_WORD_END]
        while len(symbols) > 1:
            pairs = {(symbols[i], symbols[i + 1]) for i in range(len(symbols) - 1)}
            best = min(pairs, key=lambda p: self.merge_ranks.get(p, 1 << 60))
            if best not in self.merge_ranks:
                break
            symbols = _apply_merge(symbols, best)
        return symbols


def _apply_merge(symbols: list[str], pair: tuple[str, str]) -> list[str]:
    merged: list[str] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            merged.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            merged.append(symbols[i])
            i += 1
    return merged


def bundled_bpe_paths() -> tuple[Path, Path]:
    """Paths of the small BPE shipped with the package."""
    base = Path(__file__).parent / "data" / "bpe"
    return base / "vocab.txt", base / "merges.txt"
