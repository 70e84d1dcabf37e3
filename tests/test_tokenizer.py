"""Token counter tests, including an independent rank-order BPE oracle."""

import random
import re

import pytest

from transmix import tokenizer
from transmix.tokenizer import (
    BoundedMemo,
    BpeCounter,
    WhitespaceCounter,
    _word_id,
    bundled_bpe_paths,
)

from conftest import seed_lines

WORD_END = "</w>"

# frozen from a dev run of the oracle below on the first 200 seed words
FIXTURE_BPE_COUNT = 322


def oracle_bpe_tokens(word: str, merges: list[tuple[str, str]]) -> list[str]:
    """Reference BPE: apply merges strictly in rank order, exhaustively."""
    symbols = list(word) + [WORD_END]
    for left, right in merges:
        changed = True
        while changed:
            changed = False
            out, i = [], 0
            while i < len(symbols):
                if i + 1 < len(symbols) and symbols[i] == left and symbols[i + 1] == right:
                    out.append(left + right)
                    i += 2
                    changed = True
                else:
                    out.append(symbols[i])
                    i += 1
            symbols = out
    return symbols


def load_merges() -> list[tuple[str, str]]:
    _, merges_path = bundled_bpe_paths()
    pairs = []
    for line in merges_path.read_text(encoding="utf-8").splitlines():
        if line:
            a, b = line.split(" ")
            pairs.append((a, b))
    return pairs


def fixture_200_words() -> str:
    words = " ".join(seed_lines("en")).split()[:200]
    assert len(words) == 200
    return " ".join(words)


class TestWhitespaceCounter:
    def test_empty(self, ws_counter):
        assert ws_counter.count("") == 0

    def test_two_words(self, ws_counter):
        assert ws_counter.count("hello world") == 2

    def test_runs_not_chars(self, ws_counter):
        assert ws_counter.count("  a\t\tbb\n ccc  ") == 3

    def test_determinism(self, ws_counter):
        text = "the same text, counted twice"
        assert ws_counter.encode(text) == ws_counter.encode(text)

    def test_eos_id_never_collides(self, ws_counter):
        rng = random.Random(1)
        words = [f"w{rng.randrange(10**6)}" for _ in range(5000)]
        ids = ws_counter.encode(" ".join(words))
        assert ws_counter.eos_id not in ids

    def test_encode_equals_hashing_every_word(self, ws_counter):
        rng = random.Random(3)
        words = seed_lines("en")[:50] + ["", "  ", "\t\n", "é", "\u00a0x"]
        for _ in range(300):  # the second pass over a text hits the cache
            text = " ".join(rng.choice(words) for _ in range(rng.randrange(30)))
            assert ws_counter.encode(text) == [_word_id(w) for w in text.split()]
            assert ws_counter.encode(text) == [_word_id(w) for w in text.split()]

    def test_word_cache_never_grows_past_its_cap(self):
        counter = WhitespaceCounter()
        assert counter._word_ids.cap == tokenizer.WORD_MEMO_CAP == 100_000
        words = [f"w{i}" for i in range(100_050)]
        text = " ".join(words)
        for _ in range(2):  # past the cap, the second pass hashes again
            assert counter.encode(text) == [_word_id(w) for w in words]
            assert len(counter._word_ids) == 100_000
        assert "w99999" in counter._word_ids and "w100000" not in counter._word_ids
        assert counter.fingerprint == "ws:1"

    def test_concat_count_monotone(self, ws_counter):
        rng = random.Random(2)
        alphabet = "ab \t\n"
        for _ in range(500):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(20)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(20)))
            assert ws_counter.count(a + b) >= max(
                ws_counter.count(a), ws_counter.count(b))


class TestBpeCounter:
    def test_empty(self, bpe_counter):
        assert bpe_counter.count("") == 0

    def test_fixture_matches_frozen_oracle_value(self, bpe_counter):
        assert bpe_counter.count(fixture_200_words()) == FIXTURE_BPE_COUNT

    def test_against_oracle_word_by_word(self, bpe_counter):
        merges = load_merges()
        for line in seed_lines("en")[:40]:
            for word in line.split():
                expected = len(oracle_bpe_tokens(word, merges))
                assert bpe_counter.count(word) == expected, word

    def test_determinism(self, bpe_counter):
        text = fixture_200_words()
        assert bpe_counter.encode(text) == bpe_counter.encode(text)

    def test_concat_count_monotone_on_corpus(self, bpe_counter):
        lines = seed_lines("en")[:100]
        for a, b in zip(lines, lines[1:]):
            assert bpe_counter.count(a + b) >= max(
                bpe_counter.count(a), bpe_counter.count(b))

    def test_unknown_chars_map_to_unk(self, bpe_counter):
        ids = bpe_counter.encode("日本語")
        assert ids and all(i == bpe_counter.unk_id for i in ids[:-1])

    def test_fingerprint_tracks_files(self, tmp_path, bpe_counter):
        vocab, merges = tmp_path / "v.txt", tmp_path / "m.txt"
        vocab.write_text("<unk>\n<eos>\na\nb\n</w>\nab\nab</w>\n", encoding="utf-8")
        merges.write_text("a b\nab </w>\n", encoding="utf-8")
        small = BpeCounter(vocab, merges)
        assert small.fingerprint.startswith("bpe:")
        assert small.fingerprint != bpe_counter.fingerprint
        assert BpeCounter(vocab, merges).fingerprint == small.fingerprint
        merges.write_text("a b\n", encoding="utf-8")
        assert BpeCounter(vocab, merges).fingerprint != small.fingerprint

    def test_word_memo_stops_at_its_cap(self, bpe_counter):
        counter = BpeCounter(*bundled_bpe_paths())
        assert counter._word_ids.cap == 100_000
        words = [f"w{i}" for i in range(100_050)]
        first = counter.encode(" ".join(words))
        assert len(counter._word_ids) == 100_000
        merges = load_merges()
        past_cap = [counter.token_to_id.get(sym, counter.unk_id)
                    for w in words[-50:] for sym in oracle_bpe_tokens(w, merges)]
        assert first[-len(past_cap):] == past_cap
        assert counter.encode(" ".join(words)) == first
        assert len(counter._word_ids) == 100_000
        assert counter.fingerprint == bpe_counter.fingerprint

    @pytest.mark.parametrize("line", ["a b c", "ab", "a  b", "a "])
    def test_malformed_merges_line_names_file_and_line(self, tmp_path, line):
        vocab, merges = tmp_path / "v.txt", tmp_path / "m.txt"
        vocab.write_text("<unk>\n<eos>\na\nb\n", encoding="utf-8")
        merges.write_text(f"a b\n\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3 .*" + re.escape(f"{line!r} in {merges}")):
            BpeCounter(vocab, merges)

    def test_missing_specials_rejected(self, tmp_path):
        (tmp_path / "v.txt").write_text("a\nb\n", encoding="utf-8")
        (tmp_path / "m.txt").write_text("a b\n", encoding="utf-8")
        with pytest.raises(ValueError, match="<unk>"):
            BpeCounter(tmp_path / "v.txt", tmp_path / "m.txt")


def test_bounded_memo_stores_at_most_cap_keys():
    calls = []

    def square(key):
        calls.append(key)
        return key * key

    memo = BoundedMemo(square, 3)
    assert [memo[k] for k in (1, 2, 1, 3, 4, 4, 2)] == [1, 4, 1, 9, 16, 16, 4]
    # each stored key is computed once; 4, past the cap, on each lookup
    assert calls == [1, 2, 3, 4, 4]
    assert memo == {1: 1, 2: 4, 3: 9}
