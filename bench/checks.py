"""Output checks against the generator's ground truth or a property of the
method, never against a stored copy of an earlier output.

The checks read the program's files with ``json`` and ``struct`` alone, so a
fault in the program's own readers cannot hide a fault in its writers. Each
raises CheckFailed with the first difference it finds.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import Counter
from pathlib import Path

import numpy as np

PACK_HEADER = struct.Struct("<4sIII16x")  # magic, version, sequence length, dtype
PACK_MAGIC = b"TWPK"
SEQUENCE_LENGTH = 2048
WHITESPACE_FINGERPRINT = "ws:1"


class CheckFailed(Exception):
    """An output differs from what the inputs and the method imply."""


def iter_jsonl(path: Path):
    """Rows of a JSONL file, one at a time, without a ``_header`` line.

    The checks stream their inputs so that the run's peak memory stays the
    program's, not the checks'.
    """
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                if not row.get("_header"):
                    yield row


def _ids(path: Path) -> list[str]:
    return [row["id"] for row in iter_jsonl(path)]


def check_removed(docs: list[dict], kept_path: Path, duplicate_ids: list[str]) -> None:
    """The documents missing from the kept corpus are exactly the planted
    duplicates, and the rest keep their input order."""
    kept = _ids(kept_path)
    planted = set(duplicate_ids)
    removed = {d["id"] for d in docs} - set(kept)
    if removed != planted:
        raise CheckFailed(
            f"removed ids differ from the planted duplicates: "
            f"{len(removed - planted)} removed but not planted, "
            f"{len(planted - removed)} planted but kept")
    if kept != [d["id"] for d in docs if d["id"] not in planted]:
        raise CheckFailed("kept ids are repeated, unknown or out of input order")


def check_echo_translations(out_dir: Path, sources: list[dict],
                            targets: list[str]) -> None:
    """Every (doc, target) pair is present in input order, and carries the
    source's tokens: echo returns the source and every seed sentence ends
    in terminal punctuation, so trimming drops nothing. No failure is
    recorded."""
    for tgt in targets:
        path = out_dir / f"{tgt}.jsonl"
        expected = [f"{d['id']}:{tgt}" for d in sources]
        got = _ids(path)
        if got != expected:
            missing = len(set(expected) - set(got))
            raise CheckFailed(
                f"{tgt}: {len(got)} documents for {len(expected)} sources, "
                f"{missing} missing, or out of input order")
        for src, row in zip(sources, iter_jsonl(path)):
            if row["lang"] != tgt or row["text"].split() != src["text"].split():
                raise CheckFailed(f"{row['id']}: tokens or language differ from the source")
    failures = out_dir / "failures.jsonl"
    if failures.exists() and failures.read_text(encoding="utf-8").strip():
        raise CheckFailed(f"{failures} records failures")


def check_mix_budgets(mixed_path: Path, sources: dict[str, list[str]]) -> None:
    """Each source's realised tokens lie in [budget, budget + longest doc).

    ``sources`` maps a language to the texts of its source corpus. The budget
    is the smallest source total, as the mixer's default picks it.
    """
    counts = {lang: [len(t.split()) for t in texts] for lang, texts in sources.items()}
    budget = min(sum(c) for c in counts.values())
    realised: Counter[str] = Counter()
    for row in iter_jsonl(mixed_path):
        realised[row["lang"]] += len(row["text"].split())
    for lang, c in counts.items():
        if not budget <= realised[lang] < budget + max(c):
            raise CheckFailed(
                f"mix source {lang}: {realised[lang]} tokens outside "
                f"[{budget}, {budget + max(c)})")
    extra = set(realised) - set(counts)
    if extra:
        raise CheckFailed(f"mixed corpus holds unknown languages {sorted(extra)}")


def _word_id(word: str) -> int:
    # the whitespace counter's documented ids: 32-bit blake2b, 0 kept for EOS
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=4).digest()
    return 1 + int.from_bytes(digest, "little") % (2**32 - 1)


def _token_stream(mixed_path: Path):
    ids: dict[str, int] = {}
    for row in iter_jsonl(mixed_path):
        for word in row["text"].split():
            wid = ids.get(word)
            if wid is None:
                wid = ids[word] = _word_id(word)
            yield wid
        yield 0


def check_pack(bin_path: Path, manifest_path: Path, mixed_path: Path) -> None:
    """Decode ``tokens.bin`` with ``struct``: doc tokens + EOS must equal
    sequences x 2048 + remainder, and the stored ids must be the mixed
    corpus's word ids with one EOS after each document, in order."""
    fingerprint = json.loads(manifest_path.read_text(encoding="utf-8"))["tokenizer_fingerprint"]
    if fingerprint != WHITESPACE_FINGERPRINT:
        raise CheckFailed(f"pack used tokenizer {fingerprint!r}, expected {WHITESPACE_FINGERPRINT}")
    with open(bin_path, "rb") as fh:
        header = fh.read(PACK_HEADER.size)
        if len(header) < PACK_HEADER.size:
            raise CheckFailed("tokens.bin is shorter than its header")
        magic, version, seq_len, dtype = PACK_HEADER.unpack(header)
        if (magic, version, seq_len, dtype) != (PACK_MAGIC, 1, SEQUENCE_LENGTH, 4):
            raise CheckFailed(f"bad header {(magic, version, seq_len, dtype)}")
        payload = bin_path.stat().st_size - PACK_HEADER.size
        if payload % (seq_len * 4):
            raise CheckFailed(f"payload of {payload} bytes is not whole sequences")
        sequences = payload // (seq_len * 4)
        total = sum(len(row["text"].split()) + 1 for row in iter_jsonl(mixed_path))
        remainder = total - sequences * seq_len
        if not 0 <= remainder < seq_len:
            raise CheckFailed(
                f"{total} doc tokens + EOS do not fill {sequences} sequences "
                f"with a remainder below {seq_len}")
        expected = _token_stream(mixed_path)
        block = 64 * seq_len
        for start in range(0, sequences * seq_len, block):
            stored = np.frombuffer(fh.read(block * 4), dtype="<u4")
            want = np.fromiter(expected, dtype=np.uint32, count=stored.size)
            diff = np.flatnonzero(stored != want)
            if diff.size:
                raise CheckFailed(f"token id at position {start + diff[0]} differs")


def check_kept_clusters(kept_path: Path, docs: list[dict], truth: dict) -> None:
    """Kept ids are the smallest id of each planted cluster plus every
    singleton, in input order."""
    expected = {min(c) for c in truth["clusters"]} | set(truth["singletons"])
    kept = _ids(kept_path)
    if kept != [d["id"] for d in docs if d["id"] in expected]:
        extra = len(set(kept) - expected)
        raise CheckFailed(
            f"{len(kept)} kept ids for {len(expected)} expected: "
            f"{extra} unexpected, {len(expected - set(kept))} missing, or out of order")


def check_probe(percentages: dict[str, float], obtained: int,
                evidence: list[dict], truth: dict) -> None:
    """Pair evidence flags exactly the planted pairs, and each language's
    share matches the generator's languages; only a planted pair may be
    labelled as one of its own languages or as others."""
    languages = truth["languages"]
    planted = truth["pair_indices"]
    flagged = sorted(e["index"] for e in evidence)
    if flagged != planted:
        raise CheckFailed(
            f"pair evidence at {len(flagged)} indices, planted {len(planted)}; "
            f"first difference {sorted(set(flagged) ^ set(planted))[:5]}")
    if obtained != len(languages):
        raise CheckFailed(f"{obtained} generations obtained of {len(languages)}")
    counts = {label: round(p * obtained / 100) for label, p in percentages.items()}
    single = Counter(lang for lang in languages if isinstance(lang, str))
    allowed = Counter(lang for pair in languages if isinstance(pair, list) for lang in pair)
    allowed["others"] = len(planted)
    excess = {label: counts.get(label, 0) - single[label] for label in set(counts) | set(single)}
    bad = {label: n for label, n in excess.items() if not 0 <= n <= allowed[label]}
    if bad or sum(excess.values()) != len(planted):
        raise CheckFailed(f"language counts {counts} do not match the generator: {bad or excess}")
