"""Token counters: a whitespace fallback and a small merges-based BPE.

Every counter is deterministic, exposes a reserved EOS id for document
separation, and carries a fingerprint so downstream artifacts can record
which tokenizer produced their counts. ``BoundedMemo`` is the package's one
bounded memo: of word ids here, word features in quality, code points in dedup.
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
# most keys a per-word memo holds, so a stream of unique words cannot grow it
WORD_MEMO_CAP = 100_000


class BoundedMemo(dict):
    """``fn(key)`` for each key looked up, stored while it holds fewer than
    ``cap`` keys; past the cap, a missing key's value is computed each time."""

    def __init__(self, fn, cap: int) -> None:
        super().__init__()
        self.fn = fn
        self.cap = cap

    def __missing__(self, key):
        value = self.fn(key)
        if len(self) < self.cap:
            self[key] = value
        return value


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
    hand, not reversible. Each counter memoizes the ids of up to
    ``WORD_MEMO_CAP`` distinct words, so a repeated word is hashed once.
    """

    mode = "whitespace"

    def __init__(self) -> None:
        self.eos_id = 0
        self.fingerprint = "ws:1"
        self._word_ids = BoundedMemo(_word_id, WORD_MEMO_CAP)

    def count(self, text: str) -> int:
        return len(text.split())

    def encode(self, text: str) -> list[int]:
        return list(map(self._word_ids.__getitem__, text.split()))


def _word_id(word: str) -> int:
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=4).digest()
    # keep 0 free for the EOS separator
    return 1 + int.from_bytes(digest, "little") % (2**32 - 1)


def _decode(data: bytes, path: Path) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:  # a bare one names no file
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


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
        for i, line in enumerate(_decode(vocab_bytes, vocab_path).splitlines()):
            if line:
                self.token_to_id[line] = i
        if _UNK not in self.token_to_id or _EOS not in self.token_to_id:
            raise ValueError(f"vocab must define {_UNK} and {_EOS}: {vocab_path}")

        self.merge_ranks: dict[tuple[str, str], int] = {}
        for rank, line in enumerate(_decode(merges_bytes, merges_path).splitlines()):
            if not line:
                continue
            pair = tuple(line.split(" "))
            if len(pair) != 2 or not all(pair):
                raise ValueError(f"merges line {rank + 1} is not two symbols separated "
                                 f"by one space: {line!r} in {merges_path}")
            self.merge_ranks[pair] = rank

        self.unk_id = self.token_to_id[_UNK]
        self.eos_id = self.token_to_id[_EOS]
        h = hashlib.blake2b(vocab_bytes + b"\x00" + merges_bytes, digest_size=8)
        self.fingerprint = "bpe:" + h.hexdigest()
        self._word_ids = BoundedMemo(self._encode_word, WORD_MEMO_CAP)

    def count(self, text: str) -> int:
        return len(self.encode(text))

    def encode(self, text: str) -> list[int]:
        return [i for word in text.split() for i in self._word_ids[word]]

    def _encode_word(self, word: str) -> list[int]:
        return [self.token_to_id.get(sym, self.unk_id) for sym in self._bpe_word(word)]

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
