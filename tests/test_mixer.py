"""Balanced sampling, interleaving, and stage composition tests."""

import hashlib
import json
import random
from collections import Counter

import pytest

from transmix.corpus import Document, _parse_line, read_corpus, write_corpus
from transmix.mixer import (
    MixtureError,
    balanced_sample,
    compose_stage,
    derive_seed,
    interleave,
)
from transmix.tokenizer import WhitespaceCounter

# frozen from a dev run; guards cross-platform / cross-run byte stability
GOLDEN_SAMPLE_SHA256 = (
    "404f82d2923379d46c2039276ca830f7e6f30e69ebc427c95acf001a8a10e367")

# chi-square critical value, df=9, p=0.01
CHI2_CRIT_DF9 = 21.666


def uniform_docs(count, tokens_per_doc, lang="en", prefix="d"):
    return [Document(id=f"{prefix}{i:04d}", lang=lang,
                     text=" ".join(f"{prefix}{i}w{j}" for j in range(tokens_per_doc)))
            for i in range(count)]


class TestBalancedSample:
    def test_budget_equals_total_returns_everything(self, ws_counter):
        docs = uniform_docs(20, 10)
        sample = balanced_sample(docs, 200, ws_counter, seed=1)
        assert sorted(d.id for d in sample) == sorted(d.id for d in docs)
        assert [d.id for d in sample] != [d.id for d in docs]  # shuffled

    def test_ceiling_arithmetic(self, ws_counter):
        docs = uniform_docs(100, 10)
        sample = balanced_sample(docs, 55, ws_counter, seed=3)
        assert len(sample) == 6

    def test_overshoot_bound(self, ws_counter):
        rng = random.Random(6)
        docs = [Document(id=f"v{i}", lang="en",
                         text=" ".join(["x"] * rng.randint(1, 30)))
                for i in range(200)]
        max_len = 30
        for seed in range(5):
            sample = balanced_sample(docs, 500, ws_counter, seed=seed)
            total = sum(ws_counter.count(d.text) for d in sample)
            assert 500 <= total < 500 + max_len

    def test_shortfall_error_names_the_gap(self, ws_counter):
        docs = uniform_docs(3, 10)
        with pytest.raises(MixtureError, match="short by 70"):
            balanced_sample(docs, 100, ws_counter, seed=0)

    def test_golden_file(self, ws_counter):
        docs = [Document(id=f"g{i:03d}", lang="en",
                         text=" ".join(f"t{i}w{j}" for j in range(5 + (i * 7) % 20)))
                for i in range(100)]
        sample = balanced_sample(docs, budget=400, counter=ws_counter, seed=2024)
        payload = "".join(d.to_json() + "\n" for d in sample).encode("utf-8")
        assert hashlib.sha256(payload).hexdigest() == GOLDEN_SAMPLE_SHA256

    def test_without_replacement(self, ws_counter):
        docs = uniform_docs(50, 4)
        sample = balanced_sample(docs, 150, ws_counter, seed=9)
        assert len({d.id for d in sample}) == len(sample)


class TestInterleave:
    def test_single_doc(self):
        doc = Document(id="only", lang="en", text="x")
        assert list(interleave([[doc]], seed=0)) == [doc]

    def test_conservation(self):
        a = uniform_docs(1000, 1, prefix="a")
        b = uniform_docs(1000, 1, prefix="b")
        mixed = list(interleave([a, b], seed=4))
        assert Counter(d.id for d in mixed) == Counter(d.id for d in a + b)

    def test_seed_determinism(self):
        a = uniform_docs(100, 1, prefix="a")
        b = uniform_docs(100, 1, prefix="b")
        first = [d.id for d in interleave([a, b], seed=11)]
        second = [d.id for d in interleave([a, b], seed=11)]
        third = [d.id for d in interleave([a, b], seed=12)]
        assert first == second
        assert first != third

    def test_a_large_mix_is_uniform_from_first_to_last_tenth(self):
        # more than 100,000 items: each corpus keeps its input share at both
        # ends of the output, not only in the middle
        sizes = [60_000, 30_000, 20_000, 10_000]
        corpora = [[c] * n for c, n in enumerate(sizes)]
        mixed = list(interleave(corpora))
        tenth = len(mixed) // 10
        for part in (mixed[:tenth], mixed[-tenth:]):
            counts = Counter(part)
            for c, n in enumerate(sizes):
                assert abs(counts[c] / tenth - n / len(mixed)) <= 0.02, (c, counts)

    def test_empty_corpora_are_skipped(self):
        assert sorted(interleave([[], ["a", "b"], [], ["c"], []], seed=3)) == ["a", "b", "c"]

    def test_positions_uniform_chi_square(self):
        # pool positions of corpus-a docs over 50 seeded shuffles; 10 bins
        a = uniform_docs(200, 1, prefix="a")
        b = uniform_docs(200, 1, prefix="b")
        n = len(a) + len(b)
        bins = [0] * 10
        for seed in range(50):
            mixed = interleave([a, b], seed=seed)
            for pos, doc in enumerate(mixed):
                if doc.id.startswith("a"):
                    bins[pos * 10 // n] += 1
        expected = sum(bins) / len(bins)
        chi2 = sum((obs - expected) ** 2 / expected for obs in bins)
        assert chi2 < CHI2_CRIT_DF9, f"chi2={chi2:.2f}, bins={bins}"

    def test_no_translation_pair_adjacency_bias(self):
        # parallel fixture: doc i and its "translation" share the index
        en = uniform_docs(200, 1, prefix="en", lang="en")
        fr = [Document(id=f"fr{d.id[2:]}", lang="fr", text=d.text) for d in en]
        n = len(en) + len(fr)
        adjacent = 0
        runs = 50
        for seed in range(runs):
            mixed = list(interleave([en, fr], seed=seed))
            for i in range(len(mixed) - 1):
                if mixed[i].id[2:] == mixed[i + 1].id[2:]:
                    adjacent += 1
        expected = runs * len(en) * 2 / n  # P(specific pair adjacent) = 2/n
        assert abs(adjacent - expected) < 5 * expected ** 0.5 + 5


class TestComposeStage:
    def write_sources(self, tmp_path, sizes, tokens_per_doc=10):
        entries = []
        for lang, count in sizes.items():
            docs = uniform_docs(count, tokens_per_doc, lang=lang, prefix=lang)
            path = tmp_path / f"{lang}.jsonl"
            write_corpus(path, docs)
            entries.append((lang, str(path)))
        return entries

    def test_equal_budgets_realized_within_one_doc(self, tmp_path, ws_counter):
        entries = self.write_sources(
            tmp_path, {"en": 100, "fr": 120, "de": 90, "es": 110})
        _, manifest = compose_stage(entries, ws_counter, budget=500, seed=7)
        realized = [v["tokens"] for v in manifest["sources"].values()]
        assert max(realized) - min(realized) < 10  # one doc = 10 tokens
        assert all(v >= 500 for v in realized)

    def test_conservation_union_of_samples(self, tmp_path, ws_counter):
        entries = self.write_sources(tmp_path, {"en": 50, "fr": 50})
        mixed, manifest = compose_stage(entries, ws_counter, budget=200, seed=1)
        mixed = list(mixed)
        assert len(mixed) == manifest["output_docs"]
        assert len(mixed) == sum(v["docs"] for v in manifest["sources"].values())
        assert len({json.loads(line)["id"] for line in mixed}) == len(mixed)

    def test_default_budget_is_the_smallest_source_total(self, tmp_path, ws_counter):
        entries = self.write_sources(tmp_path, {"en": 40, "fr": 25, "de": 31})
        _, manifest = compose_stage(entries, ws_counter, seed=4)
        assert {v["budget"] for v in manifest["sources"].values()} == {250}
        assert manifest["sources"]["fr"]["docs"] == 25
        assert all(250 <= v["tokens"] < 260 for v in manifest["sources"].values())

    def test_shortfall_fails_before_any_output(self, tmp_path, ws_counter):
        entries = self.write_sources(tmp_path, {"en": 100, "fr": 2})
        with pytest.raises(MixtureError, match="fr: have 20, need 500"):
            compose_stage(entries, ws_counter, budget=500)

    def test_a_source_with_no_tokens_fails_without_a_budget(self, tmp_path, ws_counter):
        entries = self.write_sources(tmp_path, {"en": 10, "fr": 0, "de": 3})
        write_corpus(tmp_path / "es.jsonl", [Document(id="e", lang="es", text=" ")])
        entries.append(("es", str(tmp_path / "es.jsonl")))
        with pytest.raises(MixtureError, match=r"^sources with no tokens: 'fr', 'es'$"):
            compose_stage(entries, ws_counter)
        with pytest.raises(MixtureError, match="fr: have 0, need 20; es: have 0, need 20"):
            compose_stage(entries, ws_counter, budget=20)

    def test_no_sources_or_two_of_one_name_rejected(self, tmp_path, ws_counter):
        with pytest.raises(MixtureError, match="the mix has no sources"):
            compose_stage([], ws_counter)
        [(_, path)] = self.write_sources(tmp_path, {"en": 5})
        with pytest.raises(MixtureError, match="has two sources named 'en'"):
            compose_stage([("en", path), ("fr", path), ("en", path)], ws_counter)

    def test_seed_determinism_end_to_end(self, tmp_path, ws_counter):
        entries = self.write_sources(tmp_path, {"en": 60, "fr": 60})
        first, _ = compose_stage(entries, ws_counter, budget=300, seed=42)
        second, _ = compose_stage(entries, ws_counter, budget=300, seed=42)
        assert list(first) == list(second)

    def test_counts_each_document_once_and_samples_like_balanced_sample(
            self, tmp_path, ws_counter):
        rng = random.Random(5)
        entries = []
        for lang in ("en", "fr"):
            docs = [Document(id=f"{lang}{i}", lang=lang,
                             text=" ".join(["w"] * rng.randint(1, 40)))
                    for i in range(80)]
            write_corpus(tmp_path / f"{lang}.jsonl", docs)
            entries.append((lang, str(tmp_path / f"{lang}.jsonl")))

        class CountingCounter(type(ws_counter)):
            calls = 0

            def count(self, text):
                CountingCounter.calls += 1
                return super().count(text)

        mixed, manifest = compose_stage(entries, CountingCounter(), budget=600, seed=9)
        assert CountingCounter.calls == 160
        mixed = list(mixed)
        for name, path in entries:
            docs = [d for d in map(_parse_line, mixed) if d.lang == name]
            expected = balanced_sample(
                read_corpus(path), 600, ws_counter,
                seed=derive_seed(9, f"sample:{name}"))
            assert sorted(d.id for d in docs) == sorted(d.id for d in expected)
            realized = manifest["sources"][name]
            assert realized["tokens"] == sum(ws_counter.count(d.text) for d in expected)
            assert realized["docs"] == len(expected)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(0, "mix") == derive_seed(0, "mix")
    assert derive_seed(0, "mix") != derive_seed(0, "dedup")
    assert derive_seed(0, "mix") != derive_seed(1, "mix")


class TestMixedCorpus:
    def compose(self, tmp_path):
        rng = random.Random(17)
        entries = []
        for lang in ("en", "fr", "de", "es"):
            docs = [Document(id=f"{lang}{i}", lang=lang,
                             text=" ".join(["w"] * rng.randint(1, 40)))
                    for i in range(300)]
            path = tmp_path / f"{lang}.jsonl"
            write_corpus(path, docs)
            entries.append((lang, str(path)))
        return entries, compose_stage(entries, WhitespaceCounter(), budget=5000, seed=5)

    def test_order_equals_interleaving_the_sampled_documents(self, tmp_path):
        entries, (mixed, manifest) = self.compose(tmp_path)
        samples = [balanced_sample(read_corpus(path), 5000, WhitespaceCounter(),
                                   seed=derive_seed(5, f"sample:{name}"))
                   for name, path in entries]
        expected = list(interleave(samples, seed=derive_seed(5, "interleave")))
        mixed = list(mixed)
        assert mixed == [d.to_json() for d in expected]
        assert len(mixed) == manifest["output_docs"] == len(expected) > 900

    def test_partly_consumed_view_leaks_no_file_handle(self, tmp_path, monkeypatch):
        import transmix.corpus as corpus_mod

        opened = []

        def tracking_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            opened.append(fh)
            return fh

        _, (mixed, _) = self.compose(tmp_path)
        monkeypatch.setattr(corpus_mod, "open", tracking_open, raising=False)
        it = iter(mixed)
        for _ in range(300):  # into the second block of documents read back
            next(it)
        assert opened and all(fh.closed for fh in opened)
        del it
        assert all(fh.closed for fh in opened)
