"""MinHash/LSH tests against an independent tuple-shingle oracle.

The oracle computes exact Jaccard over word 5-gram tuples (no hashing at
all), so it shares nothing with the signature path. Statistical tests pin
their seeds: the 3-sigma and recall bounds are tight enough that a correct
estimator still trips them for a few percent of random seeds.
"""

import math
import random
from collections import defaultdict

import pytest

from transmix import dedup
from transmix.corpus import Document
from transmix.dedup import (
    LshIndex,
    dedup_corpus,
    estimate_jaccard,
    normalize_words,
    shingle_set,
    signature,
)

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
    def test_each_document_shingled_once(self, monkeypatch, exact):
        calls = []

        def counting(text, n=5):
            calls.append(text)
            return shingle_set(text, n)

        monkeypatch.setattr(dedup, "shingle_set", counting)
        rng = random.Random(25)
        docs, _ = make_corpus_with_plants(rng, [("0.95", 190, 5, 10)], 20)
        docs.append(Document(id="empty", lang="en", text="..."))
        result = dedup_corpus(docs, seed=0, exact=exact)
        assert len(calls) == len(docs)
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
