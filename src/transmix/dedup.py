"""MinHash near-duplicate detection with LSH banding.

Texts are normalized (lowercased, punctuation stripped, whitespace
collapsed; the ``str.translate`` table is a ``BoundedMemo`` of up to 65,536
code points) and shingled into word 5-grams hashed to 64 bits. Signatures are
128 per-permutation minima; banding at 16 bands x 8 rows generates candidate
pairs, which are confirmed against the similarity threshold before
union-find clustering. All randomness derives from one seed, recorded in the
cluster manifest so runs are comparable.

``dedup_corpus`` reads its documents once and keeps no text once signed:
``_forkpool`` signs batches of 64 in forked workers, at most one per batch.
Each language has one LSH index, the one store of its ids and signature
rows: each signature is copied into a 1 KB ``uint64`` row of one 256-row
block in RAM. Full blocks go to a temporary file under ``TMPDIR`` (a
RAM-backed ``TMPDIR`` keeps them in RAM), and the index keeps 128 B per
document in RAM, a 64-bit key per band. ``exact`` verification also keeps
each document's shingles as one sorted ``uint64`` array. The index buckets
each band by sorting its keys, and clustering state is kept only for ids
that share a bucket. Each joined 5-gram is hashed with 8-byte blake2b, so
signatures, kept ids and manifests depend on neither layout nor workers.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from collections import defaultdict
from functools import lru_cache, partial
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from ._forkpool import ordered_map
from .corpus import Document, open_output
from .tokenizer import BoundedMemo

__all__ = [
    "normalize_words",
    "shingle_set",
    "MinHashSignature",
    "signature",
    "estimate_jaccard",
    "exact_jaccard",
    "LshIndex",
    "dedup_corpus",
    "DedupResult",
]

NUM_HASHES = 128
BANDS = 16
ROWS = 8
SHINGLE_SIZE = 5
DEFAULT_THRESHOLD = 0.8


# code points the str.translate table below remembers
_DROP_CAP = 65_536


def _kept_code(code: int) -> int | None:
    """A code point's ``str.translate`` entry: None deletes ``_`` and every
    character that is neither alphanumeric nor whitespace."""
    ch = chr(code)
    return code if ch != "_" and (ch.isalnum() or ch.isspace()) else None


_DROP = BoundedMemo(_kept_code, _DROP_CAP)


def normalize_words(text: str) -> list[str]:
    """Lowercase, strip punctuation/symbols, collapse whitespace."""
    return text.lower().translate(_DROP).split()


# copied per shingle: a copy hashes like a new blake2b(digest_size=8) but
# skips parsing the parameters
_BLAKE2B_64 = hashlib.blake2b(digest_size=8)


def shingle_set(text: str, n: int = SHINGLE_SIZE) -> set[int]:
    """64-bit hashes of normalized word n-grams.

    A shingle's hash is the little-endian 8-byte blake2b digest of its words
    joined by single spaces, in UTF-8. Documents shorter than n words fall
    back to the singleton shingle of the whole normalized text.
    """
    words = normalize_words(text)
    if not words:
        return set()
    # The words are encoded once and each n-gram is a slice of the buffer.
    # Normalized words hold no whitespace and UTF-8 puts no 0x20 byte inside
    # a character, so the buffer's 0x20 bytes are exactly the word breaks.
    buf = " ".join(words).encode("utf-8")
    if len(words) < n:
        starts, ends = [0], [len(buf)]
    else:
        spaces = np.flatnonzero(np.frombuffer(buf, dtype=np.uint8) == 0x20)
        starts = [0, *(spaces[:len(words) - n] + 1).tolist()]
        ends = [*spaces[n - 1:].tolist(), len(buf)]
    digests = []
    for start, end in zip(starts, ends):
        h = _BLAKE2B_64.copy()
        h.update(buf[start:end])
        digests.append(h.digest())
    return set(np.frombuffer(b"".join(digests), dtype="<u8").tolist())


@dataclass(frozen=True)
class MinHashSignature:
    """128 per-permutation minima over a document's shingle set."""

    values: tuple[int, ...]
    seed: int

    def __post_init__(self) -> None:
        if len(self.values) != NUM_HASHES:
            raise ValueError(f"signature must have {NUM_HASHES} values")


@lru_cache(maxsize=8)
def _hash_params(seed: int, num_hashes: int = NUM_HASHES) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    # odd multipliers for a multiply-shift family on the 2^64 ring
    a = rng.integers(1, 2**63, size=num_hashes, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    b = rng.integers(0, 2**63, size=num_hashes, dtype=np.uint64)
    return a, b


def signature(doc: Document | str, seed: int = 0,
              shingle_size: int = SHINGLE_SIZE) -> MinHashSignature:
    """MinHash signature of a document (or raw text)."""
    text = doc.text if isinstance(doc, Document) else doc
    shingles = shingle_set(text, shingle_size)
    if not shingles:
        raise ValueError("cannot sign a document that is empty after normalization")
    return _sign(shingles, seed)


def _sign(shingles: set[int], seed: int) -> MinHashSignature:
    row = np.empty(NUM_HASHES, dtype=np.uint64)
    scratch = np.empty((min(len(shingles), _SIGN_BLOCK), NUM_HASHES), dtype=np.uint64)
    _sign_into(shingles, seed, row, scratch)
    return _row_signature(row, seed)


# shingles per block of the a * x + b scratch (128 x 128 x 8 B = 128 KB)
_SIGN_BLOCK = 128
_BATCH = 64  # documents a batch of signing work holds


def _sign_into(shingles: set[int] | np.ndarray, seed: int, out: np.ndarray,
               scratch: np.ndarray) -> None:
    """Write the MinHash of a non-empty shingle set (or uint64 array of
    distinct shingles) into the row ``out``.

    Hash i of shingle x is ``a[i] * x + b[i]`` mod 2^64. It is computed for
    one block of shingles at a time in ``scratch``, a ``(k, NUM_HASHES)``
    uint64 buffer, and ``out`` carries the running minimum across blocks.
    """
    a, b = _hash_params(seed)
    x = shingles if isinstance(shingles, np.ndarray) else _shingle_array(shingles)
    width = scratch.shape[0]
    for lo in range(0, len(x), width):
        column = x[lo:lo + width, None]
        block = scratch[:len(column)]
        np.multiply(column, a, out=block)
        np.add(block, b, out=block)
        if lo:
            np.minimum(out, block.min(axis=0), out=out)
        else:
            block.min(axis=0, out=out)


def _shingle_array(shingles: set[int]) -> np.ndarray:
    return np.fromiter(shingles, dtype=np.uint64, count=len(shingles))


def _row_signature(row: np.ndarray, seed: int) -> MinHashSignature:
    return MinHashSignature(values=tuple(row.tolist()), seed=seed)


def estimate_jaccard(a: MinHashSignature, b: MinHashSignature) -> float:
    """Fraction of agreeing signature positions; unbiased Jaccard estimate."""
    if a.seed != b.seed:
        raise ValueError(f"signatures use different seeds ({a.seed} vs {b.seed})")
    return sum(1 for x, y in zip(a.values, b.values) if x == y) / NUM_HASHES


def exact_jaccard(text_a: str, text_b: str, n: int = SHINGLE_SIZE) -> float:
    return _array_jaccard(np.sort(_shingle_array(shingle_set(text_a, n))),
                          np.sort(_shingle_array(shingle_set(text_b, n))))


def _array_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard similarity of two sorted arrays of distinct shingles."""
    shared = np.intersect1d(a, b, assume_unique=True).size
    union = len(a) + len(b) - shared
    return shared / union if union else 1.0  # two empty sets are equal


# signature rows in an index's block in RAM (256 x 1 KB)
_ROW_BLOCK = 256
_ROW_BYTES = NUM_HASHES * 8
_FMIX = (np.uint64(0xFF51AFD7ED558CCD), np.uint64(0xC4CEB9FE1A85EC53))  # murmur3 fmix64


class LshIndex:
    """Banded index over signatures: 16 bands x 8 rows by default.

    Two documents become a candidate pair iff all rows of some band agree.
    Rows are signed into one block of ``_ROW_BLOCK`` uint64 rows in RAM.
    When a full block needs another row, the index keeps a 64-bit key of
    each band of its rows, writes the rows to an unnamed temporary file and
    reuses the block; ``close()`` or a ``with`` block closes the file. Each
    band is bucketed by sorting its keys. Two band values share a key with a
    chance of about 2^-64, which only adds a candidate pair to verify.
    """

    def __init__(self, bands: int = BANDS, rows: int = ROWS) -> None:
        if bands * rows != NUM_HASHES:
            raise ValueError(f"bands*rows must equal {NUM_HASHES}")
        self.bands = bands
        self.rows = rows
        self._ids: list[str] = []
        self._block = np.empty((_ROW_BLOCK, NUM_HASHES), dtype=np.uint64)
        self._keys: list[np.ndarray] = []  # (len(self._block), bands) per spilled block
        self._spilled = 0  # rows written to the file
        self._file: BinaryIO | None = None

    def __enter__(self) -> "LshIndex":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Close (and so delete) the file of spilled rows, if one was opened."""
        if self._file is not None:
            self._file.close()

    def add(self, doc_id: str, sig: MinHashSignature) -> None:
        self._append(doc_id)[:] = sig.values

    def _append(self, doc_id: str) -> np.ndarray:
        """Add ``doc_id`` and return its row, for the caller to fill."""
        i = len(self._ids) - self._spilled
        if i == len(self._block):
            if self._file is None:
                self._file = tempfile.TemporaryFile()
            offset = self._spilled * _ROW_BYTES
            if os.pwrite(self._file.fileno(), self._block, offset) != self._block.nbytes:
                raise OSError("short write of signature rows to the temporary file")
            self._keys.append(self._band_keys(self._block))
            self._spilled, i = len(self._ids), 0
        self._ids.append(doc_id)
        return self._block[i]

    def _band_keys(self, block: np.ndarray) -> np.ndarray:
        """A 64-bit key of each band of each row: per value, xor it in, then fmix64."""
        values = block.reshape(len(block), self.bands, self.rows)
        keys = np.zeros((len(block), self.bands), dtype=np.uint64)
        for r in range(self.rows):
            keys ^= values[:, :, r]
            for multiplier in _FMIX:
                keys ^= keys >> np.uint64(33)
                keys *= multiplier
            keys ^= keys >> np.uint64(33)
        return keys

    def row(self, i: int) -> np.ndarray:
        """The signature row added ``i``-th, counting from 0."""
        if i >= self._spilled:
            return self._block[i - self._spilled]
        return np.frombuffer(os.pread(self._file.fileno(), _ROW_BYTES, i * _ROW_BYTES), np.uint64)

    def buckets(self, row_of: dict[str, int] | None = None) -> Iterator[list[str]]:
        """Each band's buckets of two or more ids, band by band.

        A bucket's ids are sorted and the buckets of one band come in the
        order of their ids, so the sequence depends only on the ids and
        signatures added, not on the order they were added in. If given,
        ``row_of`` is updated to map each id in a bucket to its row index
        (see ``row``).
        """
        n = len(self._ids)
        if not n:
            return
        keys = [*self._keys, self._band_keys(self._block[:n - self._spilled])]
        for band in range(self.bands):
            column = np.concatenate([block[:, band] for block in keys])
            order = np.argsort(column, kind="stable")
            ordered = column[order]
            # a run of equal keys starts at 0 and wherever a key differs from the last
            starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
            del column, ordered
            ends = np.append(starts[1:], n)
            shared = ends - starts > 1
            table = []
            for lo, hi in zip(starts[shared].tolist(), ends[shared].tolist()):
                rows = order[lo:hi].tolist()
                if row_of is not None:
                    row_of.update((self._ids[i], i) for i in rows)
                ids = sorted({self._ids[i] for i in rows})
                if len(ids) > 1:
                    table.append(ids)
            yield from sorted(table)

    def candidate_pairs(self) -> set[tuple[str, str]]:
        return {(ids[i], ids[j])
                for ids in self.buckets()
                for i in range(len(ids))
                for j in range(i + 1, len(ids))}


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # smaller id wins so clustering is input-order invariant
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


@dataclass
class DedupResult:
    kept_ids: list[str]
    removed_ids: set[str]
    kept_positions: list[int]  # where each kept id was in the input
    clusters: list[dict] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def write_manifest(self, path: str | Path) -> None:
        with open_output(path) as fh:
            fh.write(json.dumps({"_header": True, **self.params}) + "\n")
            for cluster in self.clusters:
                fh.write(json.dumps(cluster, ensure_ascii=False) + "\n")


def dedup_corpus(
    docs: Sequence[Document] | Iterable[Document],
    threshold: float = DEFAULT_THRESHOLD,
    seed: int = 0,
    exact: bool = False,
    bands: int = BANDS,
    rows: int = ROWS,
    shingle_size: int = SHINGLE_SIZE,
) -> DedupResult:
    """Cluster near-duplicates and keep one representative per cluster.

    Candidates from the LSH index are confirmed iff their similarity exceeds
    the threshold (signature estimate by default; exact shingle Jaccard when
    ``exact`` is set, for audits). Confirmed pairs are merged by union-find
    and the lexicographically smallest id of each cluster is kept, which also
    makes the kept set independent of input order. A cluster of n documents
    lists in ``estimates`` the n - 1 ``[a, b, score]`` pairs that joined it.
    Each language is deduped independently, so translations of one document
    into several languages are all kept. Documents that are empty after
    normalization are kept unconditionally.

    ``docs`` is iterated once, and a text is held only until it is signed.
    """
    order: dict[str, None] = {}  # every id, in input order
    indexes: dict[str, LshIndex] = {}  # by language
    # by language, for ``exact``: each document's sorted shingles, by row
    arrays: dict[str, list[np.ndarray]] = {}
    removed: set[str] = set()
    clusters: list[dict] = []
    failed: list[Exception] = []
    batches = ordered_map(partial(_sign_batch, seed=seed, shingle_size=shingle_size,
                                  exact=exact), _read_batches(docs, order, failed))
    try:
        for keys, sigs, shingles in batches:
            for (doc_id, lang), sig in zip(keys, sigs):
                index = indexes.get(lang)
                if index is None:
                    index = indexes[lang] = LshIndex(bands=bands, rows=rows)
                index._append(doc_id)[:] = sig
            for (_, lang), x in zip(keys, shingles):
                arrays.setdefault(lang, []).append(x)
        if failed:
            raise failed[0]

        for lang in sorted(indexes):
            with indexes.pop(lang) as index:
                lang_removed, lang_clusters = _dedup_group(index, arrays.pop(lang, None),
                                                           seed, threshold)
            removed |= lang_removed
            clusters.extend(lang_clusters)
    finally:
        batches.close()
        for index in indexes.values():
            index.close()

    kept_positions = [i for i, doc_id in enumerate(order) if doc_id not in removed]
    kept_ids = [doc_id for doc_id in order if doc_id not in removed]
    params = {
        "seed": seed,
        "threshold": threshold,
        "num_hashes": NUM_HASHES,
        "bands": bands,
        "rows": rows,
        "shingle_size": shingle_size,
        "verification": "exact" if exact else "estimate",
    }
    return DedupResult(kept_ids=kept_ids, removed_ids=removed,
                       kept_positions=kept_positions, clusters=clusters, params=params)


def _read_batches(docs: Iterable[Document], order: dict, failed: list) -> Iterator[list]:
    """``(id, lang, text)`` lists of ``_BATCH`` documents, each id added to ``order``.
    An error reading ``docs`` ends the lists and is appended to ``failed``."""
    batch = []
    try:
        for doc in docs:
            if doc.id in order:
                raise ValueError(f"duplicate document id {doc.id!r}")
            order[doc.id] = None
            batch.append((doc.id, doc.lang, doc.text))
            if len(batch) == _BATCH:
                full, batch = batch, []
                yield full
    except Exception as exc:  # noqa: BLE001 - the caller raises it
        failed.append(exc)
    if batch:
        yield batch


def _sign_batch(batch: list, seed: int, shingle_size: int, exact: bool) -> tuple:
    """The ``(id, lang)`` of each document not empty after normalization, their
    ``(k, NUM_HASHES)`` signatures and, for ``exact``, sorted shingle arrays."""
    keys, arrays = [], []
    sigs = np.empty((len(batch), NUM_HASHES), dtype=np.uint64)
    scratch = np.empty((_SIGN_BLOCK, NUM_HASHES), dtype=np.uint64)
    for doc_id, lang, text in batch:
        shingles = shingle_set(text, shingle_size)
        if shingles:
            if exact:
                arrays.append(np.sort(_shingle_array(shingles)))
            _sign_into(arrays[-1] if exact else shingles, seed, sigs[len(keys)], scratch)
            keys.append((doc_id, lang))
    return keys, sigs[:len(keys)], arrays


def _dedup_group(index: LshIndex, shingles: list[np.ndarray] | None, seed: int,
                 threshold: float) -> tuple[set[str], list[dict]]:
    """Cluster one language's signed documents. ``shingles`` holds each
    row's sorted shingle array for exact verification, or is ``None``."""
    row_of: dict[str, int] = {}  # filled only with the ids that share a bucket

    def score(a: str, b: str) -> float:
        i, j = row_of[a], row_of[b]
        if shingles is not None:
            return _array_jaccard(shingles[i], shingles[j])
        return estimate_jaccard(_row_signature(index.row(i), seed),
                                _row_signature(index.row(j), seed))

    uf, edges = _join_candidates(index.buckets(row_of), score, threshold)
    members: dict[str, list[str]] = defaultdict(list)
    for doc_id in list(uf.parent):
        members[uf.find(doc_id)].append(doc_id)
    estimates: dict[str, list[list]] = defaultdict(list)
    for a, b, s in sorted(edges):
        estimates[uf.find(a)].append([a, b, round(s, 4)])

    removed: set[str] = set()
    clusters: list[dict] = []
    for root in sorted(members):
        group_ids = sorted(members[root])
        if len(group_ids) < 2:
            continue
        removed.update(group_ids[1:])
        clusters.append({"kept": group_ids[0], "removed": group_ids[1:],
                         "estimates": estimates[root]})
    return removed, clusters


def _join_candidates(
    buckets: Iterable[list[str]],
    score: Callable[[str, str], float],
    threshold: float,
) -> tuple[_UnionFind, list[tuple[str, str, float]]]:
    """Union-find over the candidate pairs whose score exceeds the threshold.

    Returns the union-find and the ``(a, b, score)`` pairs that joined two
    components. Each bucket's earlier members are kept grouped by root, and a
    member is scored against each other group only until one pair passes:
    its remaining pairs into that group could only join components that are
    already one. A passing pair (a, b) of a bucket therefore always ends up
    joined, through a or through a member of a's group, so the components
    equal those of scoring every candidate pair. A pair that fails is never
    scored again.
    """
    uf = _UnionFind()
    edges: list[tuple[str, str, float]] = []
    rejected: set[tuple[str, str]] = set()

    def join_first_match(members: list[str], doc_id: str) -> bool:
        for other in members:
            if (other, doc_id) in rejected:
                continue
            s = score(other, doc_id)
            if s > threshold:
                uf.union(other, doc_id)
                edges.append((other, doc_id, s))
                return True
            rejected.add((other, doc_id))
        return False

    for bucket in buckets:
        groups: dict[str, list[str]] = {}
        for doc_id in bucket:
            group = groups.pop(uf.find(doc_id), [])
            for root in list(groups):
                if join_first_match(groups[root], doc_id):
                    other = groups.pop(root)
                    if len(other) > len(group):
                        group, other = other, group  # extend the longer list
                    group.extend(other)
            group.append(doc_id)
            groups[uf.find(doc_id)] = group
    return uf, edges
