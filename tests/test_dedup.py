"""MinHash/LSH tests against an independent tuple-shingle oracle.

The oracle computes exact Jaccard over word 5-gram tuples (no hashing at
all), so it shares nothing with the signature path. Statistical tests pin
their seeds: the 3-sigma and recall bounds are tight enough that a correct
estimator still trips them for a few percent of random seeds.
"""

import hashlib
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from conftest import seed_lines
from transmix import dedup
from transmix.corpus import Document
from transmix.dedup import (
    LshIndex,
    MinHashSignature,
    dedup_corpus,
    estimate_jaccard,
    normalize_words,
    shingle_set,
    signature,
)
from transmix.tokenizer import BoundedMemo

NUM_HASHES = 128


# ---- independent oracle -----------------------------------------------------

def oracle_shingles(text: str, n: int = 5) -> set[tuple[str, ...]]:
    words = []
    for raw in text.lower().split():
        cleaned = "".join(c for c in raw if c.isalnum())
        if cleaned:
            words.append(cleaned)
    if not words:
        return set()
    if len(words) < n:
        return {tuple(words)}
    return {tuple(words[i:i + n]) for i in range(len(words) - n + 1)}


def oracle_jaccard(a: str, b: str) -> float:
    sa, sb = oracle_shingles(a), oracle_shingles(b)
    return len(sa & sb) / len(sa | sb)


def planted_pair(shared_k: int, suffix_s: int, uid: int) -> tuple[str, str]:
    """Two docs sharing a word core: exact J = K / (K + 2s) by construction."""
    core = [f"c{uid}x{i}" for i in range(shared_k + 4)]
    sa = [f"a{uid}x{i}" for i in range(suffix_s)]
    sb = [f"b{uid}x{i}" for i in range(suffix_s)]
    return " ".join(core + sa), " ".join(core + sb)


def test_oracle_matches_planted_construction():
    a, b = planted_pair(160, 20, 0)
    assert oracle_jaccard(a, b) == pytest.approx(0.8)
    a, b = planted_pair(180, 10, 1)
    assert oracle_jaccard(a, b) == pytest.approx(0.9)


def test_package_shingles_agree_with_oracle_on_counts():
    rng = random.Random(3)
    for _ in range(50):
        words = [f"w{rng.randrange(50)}" for _ in range(rng.randint(1, 40))]
        text = " ".join(words)
        assert len(shingle_set(text)) == len(oracle_shingles(text))
    assert normalize_words("Hello,  WORLD!") == ["hello", "world"]


def loop_normalize_words(text: str) -> list[str]:
    """Reference: keep alphanumerics, turn whitespace into spaces, drop the rest."""
    cleaned = []
    for ch in text.lower():
        if ch.isalnum():
            cleaned.append(ch)
        elif ch.isspace():
            cleaned.append(" ")
    return "".join(cleaned).split()


def test_normalize_words_matches_loop_on_every_code_point():
    # "a" between code points: a kept one joins its neighbours into a word,
    # a dropped one joins them without itself, whitespace splits them
    text = "a" + "a".join(map(chr, range(0x110000))) + "a"
    assert normalize_words(text) == loop_normalize_words(text)


# ---- signatures -------------------------------------------------------------

class TestSignature:
    def test_identical_texts_identical_signatures(self):
        text = "five words make one shingle here at least"
        assert signature(text, seed=7) == signature(text, seed=7)

    def test_case_and_punctuation_invariance(self):
        a = "The Harbour lights, were visible; from the cliff top."
        b = "the harbour lights were visible from the cliff top"
        assert signature(a, seed=7) == signature(b, seed=7)

    def test_length_is_128(self):
        assert len(signature("some words for a tiny document", seed=0).values) == 128

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            signature("...", seed=0)

    def test_small_doc_whole_text_shingle(self):
        assert len(shingle_set("only three words")) == 1
        assert shingle_set("only three words") == shingle_set("Only, THREE words!")

    def test_mismatched_seeds_rejected(self):
        a = signature("some words for one tiny document", seed=1)
        b = signature("some words for one tiny document", seed=2)
        with pytest.raises(ValueError):
            estimate_jaccard(a, b)

    def test_self_similarity_is_one(self):
        s = signature("a b c d e f g h i j", seed=0)
        assert estimate_jaccard(s, s) == 1.0

    def test_symmetry(self):
        a, b = planted_pair(50, 25, 9)
        sa, sb = signature(a, seed=3), signature(b, seed=3)
        assert estimate_jaccard(sa, sb) == estimate_jaccard(sb, sa)

    def test_disjoint_docs_estimate_zero(self):
        rng = random.Random(8)
        for i in range(20):
            a = " ".join(f"a{i}x{j}" for j in range(40))
            b = " ".join(f"b{i}x{j}" for j in range(40))
            est = estimate_jaccard(signature(a, seed=4), signature(b, seed=4))
            assert est == 0.0

    def test_planted_085_pair_within_bound(self):
        # 3 sigma at J=0.85 is 0.095; bound rounded up for seed variation
        a, b = planted_pair(170, 15, 77)
        jx = oracle_jaccard(a, b)
        assert jx == pytest.approx(0.85)
        est = estimate_jaccard(signature(a, seed=18), signature(b, seed=18))
        assert abs(est - jx) <= 0.12

    def test_unbiasedness_over_seeds(self):
        a, b = planted_pair(100, 50, 55)  # J = 0.5
        jx = oracle_jaccard(a, b)
        ests = [estimate_jaccard(signature(a, seed=s), signature(b, seed=s))
                for s in range(60)]
        mean = sum(ests) / len(ests)
        sigma = math.sqrt(jx * (1 - jx) / NUM_HASHES)
        assert abs(mean - jx) <= 3 * sigma / math.sqrt(len(ests)) + 0.01

    def test_mean_absolute_error_200_trials(self):
        # module contract: MAE <= 0.03 vs the exact-Jaccard oracle
        errs = []
        for uid in range(200):
            a, b = planted_pair(160, 20, 1000 + uid)
            jx = oracle_jaccard(a, b)
            est = estimate_jaccard(signature(a, seed=18), signature(b, seed=18))
            errs.append(abs(est - jx))
        assert sum(errs) / len(errs) <= 0.03


# ---- LSH + clustering -------------------------------------------------------

def make_corpus_with_plants(rng, buckets, n_unique):
    docs, pairs = [], {}
    uid = 0
    for name, k, s, count in buckets:
        for _ in range(count):
            a, b = planted_pair(k, s, uid)
            ida, idb = f"p{uid:04d}a", f"p{uid:04d}b"
            docs += [Document(id=ida, lang="en", text=a),
                     Document(id=idb, lang="en", text=b)]
            pairs.setdefault(name, []).append((ida, idb, oracle_jaccard(a, b)))
            uid += 1
    for i in range(n_unique):
        words = [f"u{i}w{j}" for j in range(rng.randint(30, 120))]
        docs.append(Document(id=f"uniq{i:04d}", lang="en", text=" ".join(words)))
    rng.shuffle(docs)
    return docs, pairs


def near_duplicate_families(rng, families, size):
    """Each family edits one 200-word base at random spots, so its pairs
    spread over similarities on both sides of 0.8."""
    docs = []
    for f in range(families):
        base = [f"f{f}w{j}" for j in range(200)]
        for m in range(size):
            words = base[:]
            for _ in range(rng.randint(0, 6)):
                words[rng.randrange(len(words))] = f"e{f}x{m}x{rng.randrange(10**6)}"
            docs.append(Document(id=f"fam{f}m{m:02d}", lang="en", text=" ".join(words)))
    return docs


@pytest.fixture
def shingle_calls(monkeypatch):
    """Counters of ``dedup.shingle_set`` calls, all and those made in other
    processes (signing workers), shared with forked children."""
    ctx = multiprocessing.get_context("fork")
    calls, in_workers = ctx.Value("i", 0), ctx.Value("i", 0)
    parent = os.getpid()

    def counting(text, n=5):
        with calls.get_lock():
            calls.value += 1
        if os.getpid() != parent:
            with in_workers.get_lock():
                in_workers.value += 1
        return shingle_set(text, n)

    monkeypatch.setattr(dedup, "shingle_set", counting)
    return calls, in_workers


def find_root(parent, x):
    while parent[x] != x:
        x = parent[x]
    return x


def all_pairs_roots(ids, pairs, passes):
    """Reference clustering: join every pair that passes; the smallest id of
    each component is its root."""
    parent = {x: x for x in ids}
    for a, b in pairs:
        if passes(a, b):
            ra, rb = find_root(parent, a), find_root(parent, b)
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find_root(parent, x) for x in ids}


def cluster_roots(result):
    root = {}
    for cluster in result.clusters:
        for member in [cluster["kept"]] + cluster["removed"]:
            root[member] = cluster["kept"]
    return root


class TestLshIndex:
    def test_band_collision_requires_identical_rows(self):
        index = LshIndex()
        a, b = planted_pair(190, 5, 31)
        index.add("a", signature(a, seed=0))
        index.add("b", signature(b, seed=0))
        index.add("c", signature(" ".join(f"z{i}" for i in range(60)), seed=0))
        pairs = index.candidate_pairs()
        assert ("a", "b") in pairs
        assert not any("c" in p for p in pairs)

    def test_buckets_independent_of_insertion_order(self):
        docs = near_duplicate_families(random.Random(28), families=3, size=10)
        sigs = [(doc.id, signature(doc, seed=0)) for doc in docs]
        indexes = [LshIndex(), LshIndex()]
        for doc_id, sig in sigs:
            indexes[0].add(doc_id, sig)
        for doc_id, sig in reversed(sigs):
            indexes[1].add(doc_id, sig)
        buckets = list(indexes[0].buckets())
        assert buckets == list(indexes[1].buckets())
        assert all(len(ids) > 1 and ids == sorted(set(ids)) for ids in buckets)

    def test_band_keys_tell_reordered_and_xor_equal_rows_apart(self):
        # a key blind to the order of a band's rows, or one that combined
        # them by xor or by addition alone, would bucket these together
        rng = random.Random(79)
        base = [rng.getrandbits(64) for _ in range(NUM_HASHES)]
        d = rng.getrandbits(64)
        variants = {"base": base, "swapped": list(base), "xor": list(base), "sum": list(base)}
        for lo in range(0, NUM_HASHES, 8):
            variants["swapped"][lo:lo + 2] = base[lo + 1], base[lo]
            variants["xor"][lo:lo + 2] = base[lo] ^ d, base[lo + 1] ^ d
            variants["sum"][lo:lo + 2] = (base[lo] + d) % 2**64, (base[lo + 1] - d) % 2**64
        entries = [(doc_id, tuple(values)) for doc_id, values in variants.items()]
        index = LshIndex()
        for doc_id, values in entries:
            index.add(doc_id, MinHashSignature(values=values, seed=0))
        assert reference_buckets(entries) == []
        assert list(index.buckets()) == []

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            LshIndex(bands=10, rows=10)


class TestDedupCorpus:
    def test_unique_docs_all_kept(self):
        rng = random.Random(21)
        docs, _ = make_corpus_with_plants(rng, [], 10)
        result = dedup_corpus(docs, seed=0)
        assert sorted(result.kept_ids) == sorted(d.id for d in docs)
        assert result.clusters == []

    def test_three_exact_copies_one_cluster(self):
        text = " ".join(f"w{i}" for i in range(50))
        docs = [Document(id=f"copy{i}", lang="en", text=text) for i in range(3)]
        docs += [Document(id=f"u{i}", lang="en",
                          text=" ".join(f"u{i}w{j}" for j in range(50)))
                 for i in range(7)]
        result = dedup_corpus(docs, seed=0)
        assert len(result.kept_ids) == 8
        assert len(result.clusters) == 1
        assert result.clusters[0]["kept"] == "copy0"
        assert result.clusters[0]["removed"] == ["copy1", "copy2"]

    def test_high_j_pairs_clustered_low_j_never(self):
        rng = random.Random(22)
        buckets = [("0.95", 190, 5, 25), ("0.90", 180, 10, 25),
                   ("0.50", 100, 50, 25), ("0.30", 60, 70, 25)]
        docs, pairs = make_corpus_with_plants(rng, buckets, 100)
        result = dedup_corpus(docs, threshold=0.8, seed=0)
        root = cluster_roots(result)
        high = pairs["0.95"] + pairs["0.90"]
        hit = sum(1 for a, b, _ in high if root.get(a) and root.get(a) == root.get(b))
        assert hit / len(high) >= 0.99
        for name in ("0.50", "0.30"):
            for a, b, _ in pairs[name]:
                assert not (root.get(a) and root.get(a) == root.get(b))

    def test_input_order_invariance(self):
        rng = random.Random(23)
        buckets = [("0.95", 190, 5, 10), ("0.90", 180, 10, 10)]
        docs, _ = make_corpus_with_plants(rng, buckets, 40)
        docs += near_duplicate_families(random.Random(26), families=4, size=12)
        result_a = dedup_corpus(docs, seed=5)
        shuffled = docs[:]
        rng.shuffle(shuffled)
        result_b = dedup_corpus(shuffled, seed=5)
        assert set(result_a.kept_ids) == set(result_b.kept_ids)
        assert result_a.clusters == result_b.clusters

    def test_identical_docs_verified_once_per_merge(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append(1)
            return estimate_jaccard(a, b)

        monkeypatch.setattr(dedup, "estimate_jaccard", counting)
        n = 200
        text = " ".join(f"w{i}" for i in range(60))
        docs = [Document(id=f"copy{i:03d}", lang="en", text=text) for i in range(n)]
        result = dedup_corpus(docs, seed=0)
        assert result.kept_ids == ["copy000"]
        assert len(calls) == n - 1
        assert len(result.clusters[0]["estimates"]) == n - 1

    @pytest.mark.parametrize("exact", [False, True], ids=["estimate", "exact"])
    def test_each_document_shingled_once(self, monkeypatch, shingle_calls, exact):
        # three batches, so two signing workers share the calls
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rng = random.Random(25)
        docs, _ = make_corpus_with_plants(rng, [("0.95", 190, 5, 10)], 150)
        docs.append(Document(id="empty", lang="en", text="..."))
        result = dedup_corpus(docs, seed=0, exact=exact)
        calls, in_workers = shingle_calls
        assert in_workers.value
        assert calls.value == len(docs)
        assert "empty" in result.kept_ids
        assert result.removed_ids

    def test_join_candidates_equals_scoring_every_pair(self):
        # random buckets and score tables: members that join two groups of
        # one bucket, and pairs that share a single bucket, both occur
        rng = random.Random(29)
        for _ in range(300):
            ids = [f"d{i:02d}" for i in range(rng.randint(2, 14))]
            buckets = [sorted(rng.sample(ids, rng.randint(2, len(ids))))
                       for _ in range(rng.randint(1, 4))]
            table = {(a, b): rng.random() for a in ids for b in ids if a < b}
            calls = []

            def score(a, b):
                calls.append((a, b))
                return table[(a, b)]

            uf, edges = dedup._join_candidates(buckets, score, 0.6)
            pairs = {(a, b) for bucket in buckets for a in bucket for b in bucket if a < b}
            expected = all_pairs_roots(ids, pairs, lambda a, b: table[(a, b)] > 0.6)
            assert {x: uf.find(x) for x in ids} == expected
            assert len(edges) == len(ids) - len(set(expected.values()))
            assert all(table[(a, b)] == s > 0.6 for a, b, s in edges)
            assert len(calls) == len(set(calls)) and set(calls) <= pairs

    def test_clusters_equal_all_pairs_verification(self):
        docs = near_duplicate_families(random.Random(27), families=6, size=15)
        threshold, seed = 0.8, 4
        sigs = {doc.id: signature(doc, seed=seed) for doc in docs}
        index = LshIndex()
        for doc_id, sig in sigs.items():
            index.add(doc_id, sig)
        pairs = index.candidate_pairs()
        scores = {(a, b): estimate_jaccard(sigs[a], sigs[b]) for a, b in pairs}
        roots = all_pairs_roots(sigs, pairs, lambda a, b: scores[(a, b)] > threshold)
        members = defaultdict(list)
        for doc_id in sorted(sigs):
            members[roots[doc_id]].append(doc_id)
        expected = sorted(group for group in members.values() if len(group) > 1)
        # the corpus exercises both outcomes of verification
        assert len(expected) >= 6 and min(scores.values()) <= threshold

        result = dedup_corpus(docs, threshold=threshold, seed=seed)
        assert [[c["kept"], *c["removed"]] for c in result.clusters] == expected
        for cluster in result.clusters:
            # the merge edges form a spanning tree of the cluster
            group = [cluster["kept"], *cluster["removed"]]
            assert len(cluster["estimates"]) == len(group) - 1
            assert all(round(scores[(a, b)], 4) == s > threshold
                       for a, b, s in cluster["estimates"])
            tree = all_pairs_roots(group, [(a, b) for a, b, _ in cluster["estimates"]],
                                   lambda a, b: True)
            assert set(tree.values()) == {cluster["kept"]}

    def test_no_doc_in_two_clusters(self):
        rng = random.Random(24)
        buckets = [("0.95", 190, 5, 20)]
        docs, _ = make_corpus_with_plants(rng, buckets, 30)
        result = dedup_corpus(docs, seed=1)
        seen = set()
        for cluster in result.clusters:
            members = {cluster["kept"], *cluster["removed"]}
            assert not members & seen
            seen |= members

    def test_exact_flag_uses_oracle_grade_verification(self):
        # a pair just above threshold: estimate may wobble, exact never does
        a, b = planted_pair(165, 20, 404)  # J = 165/205 = 0.8048...
        docs = [Document(id="a", lang="en", text=a),
                Document(id="b", lang="en", text=b)]
        jx = oracle_jaccard(a, b)
        assert jx > 0.8
        result = dedup_corpus(docs, threshold=0.8, seed=0, exact=True)
        if result.clusters:  # clustered unless LSH missed the candidate
            assert result.clusters[0]["estimates"][0][2] == pytest.approx(jx, abs=1e-4)

    def test_manifest_written_with_params_header(self, tmp_path):
        text = " ".join(f"w{i}" for i in range(50))
        docs = [Document(id="a", lang="en", text=text),
                Document(id="b", lang="en", text=text)]
        result = dedup_corpus(docs, seed=9)
        path = tmp_path / "clusters.jsonl"
        result.write_manifest(path)
        import json
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["seed"] == 9 and header["num_hashes"] == 128
        assert json.loads(lines[1])["kept"] == "a"

    def test_duplicate_ids_rejected(self):
        docs = [Document(id="a", lang="en", text="x y z"),
                Document(id="a", lang="en", text="x y z")]
        with pytest.raises(ValueError):
            dedup_corpus(docs)

    def test_transitive_closure_chains_into_one_cluster(self):
        # edit chain: B rewrites A's head, C rewrites B's tail, so both links
        # sit above the threshold while the A-C endpoints fall below it
        base = [f"k{i}" for i in range(400)]
        b_words = [f"h{i}" for i in range(30)] + base[30:]
        c_words = b_words[:-30] + [f"t{i}" for i in range(30)]
        docs = [Document(id="a", lang="en", text=" ".join(base)),
                Document(id="b", lang="en", text=" ".join(b_words)),
                Document(id="c", lang="en", text=" ".join(c_words))]
        assert oracle_jaccard(docs[0].text, docs[1].text) > 0.85
        assert oracle_jaccard(docs[1].text, docs[2].text) > 0.85
        assert oracle_jaccard(docs[0].text, docs[2].text) < 0.75
        result = dedup_corpus(docs, threshold=0.8, seed=3, exact=True)
        assert len(result.clusters) == 1
        assert result.clusters[0]["kept"] == "a"
        assert result.clusters[0]["removed"] == ["b", "c"]

    def test_languages_deduped_independently(self):
        # identical text under different language tags is intentionally kept:
        # multiway-parallel corpora hold translations of one document per
        # language, and only same-language near-duplicates collapse
        text = " ".join(f"w{i}" for i in range(60))
        docs = [Document(id="a:en", lang="en", text=text),
                Document(id="a:fr", lang="fr", text=text),
                Document(id="b:en", lang="en", text=text)]
        result = dedup_corpus(docs, seed=0)
        assert sorted(result.kept_ids) == ["a:en", "a:fr"]
        assert result.removed_ids == {"b:en"}


# ---- equivalence with the per-shingle, per-tuple reference -------------------
#
# The reference is the straightforward form of the same scheme: each n-gram
# joined into a str and hashed on its own, each signature a tuple, each LSH
# band a dict keyed by tuples. The matrix path must match it bit for bit.

def reference_shingle_set(text: str, n: int = 5) -> set[int]:
    def hash64(s: str) -> int:
        return int.from_bytes(
            hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "little")

    words = normalize_words(text)
    if not words:
        return set()
    if len(words) < n:
        return {hash64(" ".join(words))}
    return {hash64(" ".join(words[i:i + n])) for i in range(len(words) - n + 1)}


def reference_sign(shingles: set[int], seed: int) -> tuple[int, ...]:
    a, b = dedup._hash_params(seed)
    x = np.fromiter(shingles, dtype=np.uint64, count=len(shingles))
    with np.errstate(over="ignore"):
        hashed = a[:, None] * x[None, :] + b[:, None]
    return tuple(hashed.min(axis=1).tolist())


def reference_buckets(entries, bands: int = 16, rows: int = 8) -> list[list[str]]:
    tables = [defaultdict(list) for _ in range(bands)]
    for doc_id, values in entries:
        for band in range(bands):
            tables[band][tuple(values[band * rows:(band + 1) * rows])].append(doc_id)
    out = []
    for table in tables:
        band = [sorted(set(ids)) for ids in table.values() if len(ids) > 1]
        out.extend(sorted(ids for ids in band if len(ids) > 1))
    return out


def colliding_entries(rng, bands, rows):
    """302 (id, values) entries of random signatures, with band collisions
    forced among them, an exact copy and an id added twice."""
    sigs = {f"s{i:03d}": [rng.getrandbits(64) for _ in range(NUM_HASHES)]
            for i in range(300)}
    ids = list(sigs)
    for _ in range(400):
        # force collisions: copy a whole band, or all of it but its first
        # or its last row, from one signature to another
        a, b = rng.sample(ids, 2)
        lo = rng.randrange(bands) * rows
        hi = lo + rows
        miss = rng.random()
        if miss < 0.15:
            lo += 1
        elif miss < 0.3:
            hi -= 1
        sigs[b][lo:hi] = sigs[a][lo:hi]
    sigs["copy"] = list(sigs["s000"])
    entries = [(doc_id, tuple(values)) for doc_id, values in sigs.items()]
    entries.append(("s001", tuple(sigs["s001"])))  # the same id twice
    entries.append(("s002", tuple(rng.getrandbits(64) for _ in range(NUM_HASHES))))
    rng.shuffle(entries)
    return entries


def reference_dedup_corpus(docs, threshold=0.8, seed=0, exact=False):
    """Kept ids and clusters of the tuple path; clustering is shared."""
    groups = defaultdict(list)
    for doc in docs:
        groups[doc.lang].append(doc)
    removed, clusters = set(), []
    for lang in sorted(groups):
        sigs, sets = {}, {}
        for doc in groups[lang]:
            shingles = reference_shingle_set(doc.text)
            if shingles:
                sigs[doc.id] = reference_sign(shingles, seed)
                sets[doc.id] = shingles

        def score(a, b):
            if exact:
                return len(sets[a] & sets[b]) / len(sets[a] | sets[b])
            return sum(x == y for x, y in zip(sigs[a], sigs[b])) / NUM_HASHES

        uf, edges = dedup._join_candidates(
            reference_buckets(sigs.items()), score, threshold)
        members = defaultdict(list)
        for doc_id in sigs:
            members[uf.find(doc_id)].append(doc_id)
        estimates = defaultdict(list)
        for a, b, s in sorted(edges):
            estimates[uf.find(a)].append([a, b, round(s, 4)])
        for root in sorted(members):
            group = sorted(members[root])
            if len(group) > 1:
                removed.update(group[1:])
                clusters.append({"kept": group[0], "removed": group[1:],
                                 "estimates": estimates[root]})
    return [doc.id for doc in docs if doc.id not in removed], clusters


FUZZ_WORDS = [
    "harbour", "Straße", "STRASSE", "ß", "ẞig", "café", "naïve", "Ærøskøbing",
    "İstanbul", "Ĳssel", "ﬁne", "東京", "中文字", "ひらがな", "한국어", "😀", "a😀b",
    "👩\u200d👩\u200d👧", "2024", "٣٤", "3.14", "x_y", "_", "__init__", "--", "...",
    "?!", "«»", "¿Qué?", "l'été", "e-mail", "Ω", "µ", "½", "\u0301",
]
PUNCT_WORDS = ["--", "...", "?!", "«»", "😀", "_", "__", "\u0301", "%"]
SPACES = [" ", "  ", "\t", "\n", "\r\n", "\u00a0", "\u3000", "\u2028", "\x0b", "\x1c"]
EDGE_TEXTS = [
    "", "   ", "\t\n", "...", "😀 !! _", "one", "a b c d", "a b c d e",
    "a\tb\nc\u00a0d\u3000e f", "Straße ß ẞ STRASSE strasse", "東京 大阪 京都 名古屋 札幌 福岡",
    "x_y z_w _ a__b c d e", "  lead and trail spaces here  ", "w w w w w w w w",
]


def fuzz_text(rng: random.Random) -> str:
    kind = rng.random()
    if kind < 0.1:
        words = [rng.choice(PUNCT_WORDS) for _ in range(rng.randint(0, 6))]
    else:
        if kind < 0.25:
            count = rng.randint(1, 4)
        elif kind < 0.35:
            count = rng.randint(600, 1200)  # more than one signing block
        else:
            count = rng.randint(5, 80)
        words = [rng.choice(FUZZ_WORDS) if rng.random() < 0.5 else f"w{rng.randrange(40)}"
                 for _ in range(count)]
    return rng.choice(["", " ", "\n"]) + "".join(w + rng.choice(SPACES) for w in words)


def fuzz_texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return EDGE_TEXTS + [fuzz_text(rng) for _ in range(count)]


class TestMatrixPathEqualsReference:
    def test_shingle_set_on_fuzzed_text(self):
        texts = fuzz_texts(41, 400)
        sizes = [len(normalize_words(text)) for text in texts]
        # the fuzz reaches every kind of document
        assert 0 in sizes and any(0 < n < 5 for n in sizes)
        assert any(n > 600 for n in sizes)
        assert any(t and not normalize_words(t) for t in texts)
        for text in texts:
            for n in (1, 3, 5, 8):
                assert shingle_set(text, n) == reference_shingle_set(text, n), (text, n)

    def test_signature_on_fuzzed_text(self):
        texts = [t for t in fuzz_texts(42, 200) if normalize_words(t)]
        assert any(len(reference_shingle_set(t)) > dedup._SIGN_BLOCK for t in texts)
        for text in texts:
            for seed in (0, 7):
                assert signature(text, seed=seed).values == \
                    reference_sign(reference_shingle_set(text), seed)

    @pytest.mark.parametrize("width", [1, 3, 512, 1000, 1500])
    def test_sign_carries_the_minimum_across_blocks(self, width):
        rng = random.Random(43)
        shingles = {rng.getrandbits(64) for _ in range(1000)}
        out = np.empty(NUM_HASHES, dtype=np.uint64)
        dedup._sign_into(shingles, 5, out, np.empty((width, NUM_HASHES), dtype=np.uint64))
        assert tuple(out.tolist()) == reference_sign(shingles, 5)

    @pytest.mark.parametrize("bands,rows", [(16, 8), (32, 4), (8, 16)])
    def test_lsh_buckets(self, bands, rows):
        entries = colliding_entries(random.Random(47 + bands), bands, rows)
        with LshIndex(bands=bands, rows=rows) as index:
            assert 1 < len(entries) / dedup._ROW_BLOCK < 2  # a full block and a part of one
            for doc_id, values in entries:
                index.add(doc_id, MinHashSignature(values=values, seed=0))
            expected = reference_buckets(entries, bands, rows)
            assert any(len(ids) > 2 for ids in expected)
            assert list(index.buckets()) == expected
            assert list(index.buckets()) == expected  # buckets() can be called again

    @pytest.mark.parametrize("row_block", [1, 7, 256])
    def test_lsh_buckets_after_more_adds(self, row_block, monkeypatch):
        # the second half collides with rows of the first, which by then
        # are written out, and with rows still in the block in RAM
        monkeypatch.setattr(dedup, "_ROW_BLOCK", row_block)
        entries = colliding_entries(random.Random(61), 16, 8)
        half = len(entries) // 2
        with LshIndex() as index:
            for start, end in [(0, half), (half, len(entries))]:
                for doc_id, values in entries[start:end]:
                    index.add(doc_id, MinHashSignature(values=values, seed=0))
                expected = reference_buckets(entries[:end])
                assert any(len(ids) > 2 for ids in expected)
                assert list(index.buckets()) == expected
                assert list(index.buckets()) == expected

    @pytest.mark.parametrize("row_block", [1, 7, 256])
    def test_rows_read_back_from_the_file_and_the_block(self, row_block, monkeypatch):
        monkeypatch.setattr(dedup, "_ROW_BLOCK", row_block)
        rng = random.Random(67)
        rows = [tuple(rng.getrandbits(64) for _ in range(NUM_HASHES)) for _ in range(600)]
        with LshIndex() as index:
            for i, values in enumerate(rows):
                index.add(f"r{i:03d}", MinHashSignature(values=values, seed=0))
                # the first row, written out from the second block on, and the newest
                assert tuple(index.row(0).tolist()) == rows[0]
                assert tuple(index.row(i).tolist()) == values
            spilled = (len(rows) - 1) // row_block * row_block
            assert 0 < spilled < len(rows)
            assert os.fstat(index._file.fileno()).st_size == spilled * NUM_HASHES * 8
            assert [tuple(index.row(i).tolist()) for i in range(len(rows))] == rows
        assert index._file.closed

    def test_index_holds_one_block_of_rows(self):
        # 4,096 rows are 4 MB; the index keeps one 256-row block (256 KB)
        # and 16 x 8 B of band keys per row (512 KB)
        rng = random.Random(71)
        sigs = [MinHashSignature(values=tuple(rng.getrandbits(64) for _ in range(NUM_HASHES)),
                                 seed=0) for _ in range(64)]
        ids = [f"d{i:04d}" for i in range(4096)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with LshIndex() as index:
                for i, doc_id in enumerate(ids):
                    index.add(doc_id, sigs[i % len(sigs)])
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 1 << 20

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("exact", [False, True], ids=["estimate", "exact"])
    def test_dedup_corpus_on_planted_corpora(self, seed, exact):
        rng = random.Random(100 + seed)
        plants = [("0.95", 190, 5, 6), ("0.90", 180, 10, 6), ("0.80", 160, 20, 6),
                  ("0.50", 100, 50, 4)]
        docs, _ = make_corpus_with_plants(rng, plants, 20)
        docs += near_duplicate_families(rng, families=3, size=8)
        for i, text in enumerate(fuzz_texts(200 + seed, 40)):
            docs.append(Document(id=f"z{i:03d}", lang=rng.choice(["en", "fr"]), text=text))
            words = text.split()
            if len(words) > 20:  # a one-word edit of a fuzzed document
                words[rng.randrange(len(words))] = "edited"
                docs.append(Document(id=f"z{i:03d}e", lang="en", text=" ".join(words)))
        rng.shuffle(docs)

        result = dedup_corpus(docs, threshold=0.8, seed=seed, exact=exact)
        kept, clusters = reference_dedup_corpus(docs, threshold=0.8, seed=seed, exact=exact)
        assert len(clusters) >= 10
        assert result.kept_ids == kept
        assert result.clusters == clusters
        assert result.params == {
            "seed": seed, "threshold": 0.8, "num_hashes": 128, "bands": 16, "rows": 8,
            "shingle_size": 5, "verification": "exact" if exact else "estimate",
        }


@pytest.mark.parametrize("exact, row_block", [
    pytest.param(exact, row_block, id=mode + ("" if row_block == dedup._ROW_BLOCK
                                              else f"-block{row_block}"))
    for exact, mode in [(False, "estimate"), (True, "exact")]
    for row_block in [dedup._ROW_BLOCK, 1, 7]])
def test_dedup_corpus_reads_a_one_shot_stream(exact, row_block, monkeypatch):
    # the documents are read once; clusters cover more than one row block,
    # and with 7-row blocks each language's last block is only partly filled
    monkeypatch.setattr(dedup, "_ROW_BLOCK", row_block)
    rng = random.Random(59)
    docs, _ = make_corpus_with_plants(rng, [("0.95", 190, 5, 40), ("0.80", 160, 20, 30)], 400)
    docs += near_duplicate_families(rng, families=4, size=10)
    for i, text in enumerate(fuzz_texts(60, 30)):
        docs.append(Document(id=f"z{i:03d}", lang=rng.choice(["en", "fr"]), text=text))
    rng.shuffle(docs)
    assert len(docs) > 2 * row_block
    if row_block == 7:
        signed = [d.lang for d in docs if normalize_words(d.text)]
        assert all(signed.count(lang) % 7 for lang in ("en", "fr"))

    result = dedup_corpus((doc for doc in docs), threshold=0.8, seed=3, exact=exact)
    kept, clusters = reference_dedup_corpus(docs, threshold=0.8, seed=3, exact=exact)
    assert len(clusters) >= 30
    assert result.kept_ids == kept
    assert [docs[i].id for i in result.kept_positions] == kept
    assert result.clusters == clusters


@pytest.mark.parametrize("failure", ["none", "read", "score"])
def test_dedup_corpus_closes_the_files_of_its_indexes(failure, monkeypatch):
    # 7-row blocks, so both languages' indexes write rows out
    monkeypatch.setattr(dedup, "_ROW_BLOCK", 7)
    opened = []
    original = dedup.tempfile.TemporaryFile

    def temporary_file():
        opened.append(original())
        return opened[-1]

    monkeypatch.setattr(dedup.tempfile, "TemporaryFile", temporary_file)
    rng = random.Random(73)
    docs, _ = make_corpus_with_plants(rng, [("0.95", 190, 5, 10)], 40)
    docs += [Document(id=f"f{i:02d}", lang="fr", text=" ".join(rng.sample(seed_lines("fr"), 3)))
             for i in range(20)]

    def stream():
        yield from docs
        if failure == "read":
            raise OSError("input gone")

    if failure == "score":
        def score(a, b):
            raise RuntimeError("scoring failed")
        monkeypatch.setattr(dedup, "estimate_jaccard", score)
    if failure == "none":
        assert dedup_corpus(stream(), seed=0).removed_ids
    else:
        with pytest.raises(OSError if failure == "read" else RuntimeError):
            dedup_corpus(stream(), seed=0)
    assert len(opened) == 2
    assert all(fh.closed for fh in opened)


def signing_corpus(n):
    """``n`` documents: planted pairs, near-duplicate families and distinct
    documents in English, distinct French ones, and one empty document."""
    rng = random.Random(89)
    docs, _ = make_corpus_with_plants(rng, [("0.95", 190, 5, 60), ("0.80", 160, 20, 40)], 250)
    docs += near_duplicate_families(rng, families=4, size=10)
    docs += [Document(id=f"fr{i:03d}", lang="fr", text=" ".join(rng.sample(seed_lines("fr"), 3)))
             for i in range(110)]
    rng.shuffle(docs)
    docs = docs[:n - 1]
    docs.insert(n // 2, Document(id="empty", lang="en", text="..."))
    return docs


@pytest.mark.parametrize("n", [63, 64, 65, 129, 600])  # 600: more rows than _ROW_BLOCK
@pytest.mark.parametrize("exact", [False, True], ids=["estimate", "exact"])
def test_signing_workers_give_the_in_process_result(n, exact, monkeypatch, shingle_calls):
    docs = signing_corpus(n)
    calls, in_workers = shingle_calls
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    in_process = dedup_corpus(iter(docs), seed=4, exact=exact)
    assert calls.value == n and not in_workers.value
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forked = dedup_corpus(iter(docs), seed=4, exact=exact)
    # a pool starts only once a second batch is read
    assert bool(in_workers.value) == (n > dedup._BATCH)
    assert calls.value == 2 * n
    assert "empty" in forked.kept_ids
    if n == 600:
        assert sum(d.lang == "en" for d in docs) > dedup._ROW_BLOCK
        assert len(forked.clusters) >= 50
    for name in ("kept_ids", "removed_ids", "kept_positions", "clusters", "params"):
        assert getattr(forked, name) == getattr(in_process, name), name


def test_no_signing_worker_starts_while_another_thread_runs(monkeypatch, shingle_calls):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    docs = signing_corpus(200)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        result = dedup_corpus(docs, seed=0)
    finally:
        stop.set()
        thread.join(timeout=5)
    assert not thread.is_alive()
    calls, in_workers = shingle_calls
    assert calls.value == len(docs) and not in_workers.value
    assert result.removed_ids


def test_ctrl_c_in_the_input_stops_the_signing_workers(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(dedup, "_ROW_BLOCK", 7)  # so the indexes open their files
    opened = []
    original = dedup.tempfile.TemporaryFile

    def temporary_file():
        opened.append(original())
        return opened[-1]

    monkeypatch.setattr(dedup.tempfile, "TemporaryFile", temporary_file)
    workers, interrupted = [], []

    def stream():
        # Ctrl-C sends SIGINT to the workers too, which must carry on
        for i, doc in enumerate(signing_corpus(600)):
            if i == 300:
                workers.extend(multiprocessing.active_children())
                for worker in workers:
                    os.kill(worker.pid, signal.SIGINT)
                time.sleep(0.2)
            if i == 500:
                interrupted.append(i)
                raise KeyboardInterrupt
            yield doc

    with pytest.raises(KeyboardInterrupt):
        dedup_corpus(stream(), seed=0)
    assert interrupted
    assert len(workers) == 2
    assert not multiprocessing.active_children()
    assert [worker.exitcode for worker in workers] == [0, 0]  # shut down, not interrupted
    assert opened and all(fh.closed for fh in opened)


# a dedup whose input kills its process once the signing workers have started
KILLED_DEDUP = """
import multiprocessing, os, signal, sys
from transmix.corpus import Document
from transmix.dedup import dedup_corpus

os.sched_getaffinity = lambda pid: {0, 1}

def stream():
    for i in range(10_000):
        if i == 300:
            with open(sys.argv[1], "w") as fh:
                fh.write(" ".join(str(p.pid) for p in multiprocessing.active_children()))
            os.kill(os.getpid(), signal.SIGKILL)
        yield Document(id=f"d{i}", lang="en", text=f"word{i} " * 40)

dedup_corpus(stream())
"""


def running(pid):
    """Whether ``pid`` is a process that is neither gone nor a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_signing_workers_exit_when_their_parent_is_killed(tmp_path):
    pids_file = tmp_path / "workers"
    src = str(Path(dedup.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", KILLED_DEDUP, str(pids_file)],
                           env=env, timeout=60)
    assert child.returncode == -signal.SIGKILL
    pids = [int(pid) for pid in pids_file.read_text().split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 5
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not any(map(running, pids))


def test_normalize_memo_stops_at_its_cap():
    assert isinstance(dedup._DROP, BoundedMemo) and dedup._DROP.cap == 65_536
    # every code point, so the table sees far more than its cap
    text = "".join(map(chr, range(0x110000)))
    lowered = text.lower()
    expected = "".join(c for c in lowered
                       if c != "_" and (c.isalnum() or c.isspace())).split()
    for _ in range(2):  # past the cap, entries are computed on each lookup
        assert normalize_words(text) == expected
        assert len(dedup._DROP) == 65_536


def test_dedup_corpus_memory_per_document_is_bounded():
    # the index keeps 128 B of band keys per document and one block of 1 KB
    # rows; the text was loaded before tracing starts, so the peak counts
    # only what dedup holds
    rng = random.Random(53)
    lines = seed_lines("en")
    docs = []
    for i in range(2000):
        if i % 10 == 9:  # a near-duplicate of the document before it
            words = docs[-1].text.split()
            words[rng.randrange(len(words))] = "edited"
            text = " ".join(words)
        else:
            text = " ".join(rng.sample(lines, rng.randint(4, 8)))
        docs.append(Document(id=f"m{i:04d}", lang="en", text=text))
    dedup_corpus(docs[:20], seed=0)  # first use imports numpy.random
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = dedup_corpus(docs, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.removed_ids) >= 150
    assert (peak - base) / len(docs) <= 2048
