"""Language ID, prior probing, and translation-pair detection tests."""

import hashlib
import itertools
import json
import math
import random
from collections import Counter

import pytest

from transmix import probe
from transmix.probe import (
    NgramLanguageModel,
    bundled_seed_paths,
    classify_language,
    detect_translation_pair,
    probe_prior,
    train_langid,
)
from transmix.translate import BackendResult

from conftest import MALFORMED_MODELS, malformed_model_file, seed_lines

LANGS = ("en", "fr", "de", "es")


def split_seeds():
    """Train on the first 228 lines, hold out the next 100, per language.

    The seed files are grouped three lines per source sentence, so cutting at
    a multiple of three keeps held-out sentences disjoint from training.
    """
    train, held = {}, {}
    for lang in LANGS:
        lines = seed_lines(lang)
        train[lang] = "\n".join(lines[:228])
        held[lang] = lines[228:328]
    return train, held


# tests of scoring through the row tables carry "tables" in their ids
ON_ROW_TABLES = pytest.mark.parametrize("rows", ["tables"])


@pytest.fixture(scope="module")
def model():
    train, _ = split_seeds()
    return train_langid(train)


@pytest.fixture(scope="module")
def held_out():
    _, held = split_seeds()
    return held


class TestTrainLangid:
    def test_insufficient_seed_text_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            train_langid({"en": "too short"})

    def test_bundled_seeds_exist_for_all_languages(self):
        assert set(bundled_seed_paths()) == set(LANGS)

    def test_single_language_model_predicts_it_or_other(self):
        single = train_langid({"fr": "\n".join(seed_lines("fr")[:250])})
        assert classify_language("Le train arrive en gare.", single).label == "fr"
        assert classify_language("12345 67890", single).label == "other"

    def test_round_trip_serialization(self, model, tmp_path):
        path = tmp_path / "langid.json"
        model.save(path)
        loaded = NgramLanguageModel.load(path)
        for text in ("The tide turned quickly.", "La marée monte vite.",
                     "Die Flut kommt schnell.", "La marea sube rápido."):
            assert classify_language(text, loaded).label == \
                classify_language(text, model).label


def reference_log_prob(model, lang, text):
    """The per-gram ``math.log`` scoring that the precomputed tables replaced."""
    total = 0.0
    for n in (1, 2, 3):
        counts = model.counts[lang][n]
        denom = model.totals[lang][n] + model.vocab_sizes[n]
        for i in range(len(text) - n + 1):
            total += math.log((counts.get(text[i:i + n], 0) + 1) / denom)
    return total / len(text)


def test_log_prob_tables_equal_per_gram_logs_bit_for_bit(model, held_out, tmp_path):
    path = tmp_path / "langid.json"
    model.save(path)
    loaded = NgramLanguageModel.load(path)
    texts = [line for lines in held_out.values() for line in lines[:25]]
    texts += ["x", "Ω", "qqq zzz", "12 ab", "\t\n"]
    for text in texts:
        for lang in model.languages:
            expected = reference_log_prob(model, lang, text)
            assert model.log_probs(text)[lang] == expected
            assert loaded.log_probs(text)[lang] == expected


def test_classify_scores_equal_per_language_reference(model, held_out, tmp_path):
    path = tmp_path / "langid.json"
    model.save(path)
    loaded = NgramLanguageModel.load(path)
    texts = [line for lines in held_out.values() for line in lines[25:40]]
    texts += ["\n\n".join(held_out["fr"][:3] + held_out["de"][:3]), "x", "ab"]
    for text in texts:
        expected = {lang: reference_log_prob(model, lang, text) for lang in model.languages}
        assert model.log_probs(text) == expected
        assert classify_language(text, model).scores == expected
        assert classify_language(text, loaded).scores == expected


# Gram pairs whose codes would coincide if code points were packed 20 or 22
# bits each: (U+0000, U+100000) and (U+0001, U+0000) as 2-grams at 20 bits;
# U+100000 shifted out of a 3-gram at 22 bits, leaving the code of "\x00ab".
TWIN_SEEN = "\x00\U00100000 \U00100000ab"
TWIN_UNSEEN = ["\x01\x00", "\x00ab"]
EDGE_TEXTS = [
    "\U0001F600", "a\U0001F600b", "\U0010FFFF\U00010000",
    *TWIN_UNSEEN, "\x01\x00\U00100000", "z\x00ab", TWIN_SEEN,
    "\ud800", "a\ud800b", "\ud800\udc00", "\udfff\ud800",
    "e\u0301", "\u0301\u0301\u0301", "\x00", "a\x00b\x00", "\x00\x00\x00",
    "x", "\u00e9", "ab", "\u03a9\u00df", "abc", "\t\n ",
]
# texts none of whose 1-, 2- or 3-grams occur in the edge models' training text
ALL_UNSEEN = ["\u2603", "\u2603\u2604\u2605\u2606", "\U0001F680" * 5, "\u014b\U0001F681\u014b"]


def edge_training_texts():
    return {
        "en": "\n".join(seed_lines("en")[:60]) + " e\u0301\U0001F600 " + TWIN_SEEN,
        "fr": "\n".join(seed_lines("fr")[:60]) + " \u00e9\u0301\x00\x00 \U0001F600\U0001F601",
    }


@pytest.fixture(scope="module")
def edge_models(tmp_path_factory):
    """A model trained on astral-plane, combining and NUL characters, and the
    same model saved and loaded again."""
    model = NgramLanguageModel()
    for lang, text in edge_training_texts().items():
        model.add_language(lang, text)
    model.finalize()
    path = tmp_path_factory.mktemp("edge") / "langid.json"
    model.save(path)
    return model, NgramLanguageModel.load(path)


def assert_scores_equal_reference(models, texts):
    for text in texts:
        for scored in models:
            expected = {lang: reference_log_prob(scored, lang, text)
                        for lang in scored.languages}
            assert scored.log_probs(text) == expected, repr(text)
            if any(ch.isalpha() for ch in text):
                assert classify_language(text, scored).scores == expected, repr(text)


@ON_ROW_TABLES
def test_edge_case_texts_score_like_per_gram_logs(rows, edge_models):
    model, _ = edge_models
    assert all(twin not in model.counts[lang][len(twin)]
               for twin in TWIN_UNSEEN for lang in model.languages)
    assert_scores_equal_reference(edge_models, EDGE_TEXTS + ALL_UNSEEN)


def surrogate_model():
    model = NgramLanguageModel()
    model.add_language("en", "\n".join(seed_lines("en")[:30]) + " \ud800x\udfff\ud800")
    model.add_language("de", "\n".join(seed_lines("de")[:30]) + " \udc00\ud800")
    model.finalize()
    return model


SURROGATE_TEXTS = EDGE_TEXTS + ["x\ud800", "\udfff\ud800q"]


@ON_ROW_TABLES
def test_lone_surrogates_in_training_text_score_like_per_gram_logs(rows):
    assert_scores_equal_reference([surrogate_model()], SURROGATE_TEXTS)


def test_model_with_lone_surrogates_round_trips_through_its_file(tmp_path):
    model = surrogate_model()
    path = tmp_path / "langid.json"
    model.save(path)
    loaded = NgramLanguageModel.load(path)
    assert loaded.counts == model.counts
    assert [loaded.log_probs(t) for t in SURROGATE_TEXTS] == \
        [model.log_probs(t) for t in SURROGATE_TEXTS]


def test_all_unseen_texts_score_each_languages_unseen_log(edge_models):
    model, _ = edge_models
    for text in ALL_UNSEEN:
        for n in (1, 2, 3):
            grams = {text[i:i + n] for i in range(len(text) - n + 1)}
            assert all(grams.isdisjoint(model.counts[lang][n]) for lang in model.languages)
    assert_scores_equal_reference(edge_models, ALL_UNSEEN)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
def test_texts_across_block_boundaries_score_like_per_gram_logs(
        block, edge_models, model, held_out, monkeypatch):
    monkeypatch.setattr(probe, "_BLOCK", block)
    texts = EDGE_TEXTS + [held_out["de"][0], " ".join(held_out["es"][:3])]
    assert_scores_equal_reference(edge_models, texts)
    assert_scores_equal_reference([model], texts[-2:])


def test_text_longer_than_a_block_scores_like_per_gram_logs(model, held_out):
    text = " ".join(itertools.islice(itertools.cycle(held_out["fr"]), 400))
    assert len(text) > probe._BLOCK
    assert_scores_equal_reference([model], [text[:probe._BLOCK + 1000]])


@ON_ROW_TABLES
def test_loaded_model_with_grams_missing_from_lower_orders(rows, tmp_path):
    # "abx" holds "x", which is in no 1-gram count; "qrs" and "zzc" start with
    # "qr" and "zz", which are in no 2-gram count, nor are "q", "r", "s", "z"
    counts = {
        "en": {"1": {"a": 3, "b": 2}, "2": {"ab": 2, "ba": 1}, "3": {"abx": 1, "qrs": 2}},
        "fr": {"1": {"b": 1, "c": 4}, "2": {"cc": 3}, "3": {"ccc": 2, "zzc": 1}},
    }
    path = tmp_path / "langid.json"
    path.write_text(json.dumps({"orders": [1, 2, 3], "vocab_sizes": {"1": 4, "2": 4, "3": 5},
                                "counts": counts}), encoding="utf-8")
    loaded = NgramLanguageModel.load(path)
    assert_scores_equal_reference([loaded], [
        "abx", "qrs", "zzc", "x", "qr", "xqrsab", "abxqrszzccc", "qrsqrs", "zz zzc",
        "ab\U0001F600qrs", "cab\ud800qrsx"])


def test_model_of_a_large_alphabet_is_refused_at_finalize():
    # 1,499 characters make row tables of more than _TABLE_CAP entries
    rng = random.Random(3)
    alphabet = [chr(0x4E00 + k) for k in range(1500)]
    model = NgramLanguageModel()
    for lang in ("zh", "ja"):
        model.add_language(lang, "".join(rng.choice(alphabet) for _ in range(6000)))
    with pytest.raises(ValueError) as raised:
        model.finalize()
    assert str(raised.value) == ("the row tables would hold 22,476,469 entries, over the cap "
                                 "of 4,194,304, for an alphabet of 1,499 characters")
    with pytest.raises(RuntimeError, match=r"finalize\(\)"):
        model.log_probs("\u4e00\u4e01")


def test_model_with_no_languages_is_refused_at_finalize():
    with pytest.raises(ValueError, match="^the model has no languages$"):
        NgramLanguageModel().finalize()


def last_code_point_model():
    model = NgramLanguageModel()
    model.add_language("en", "\n".join(seed_lines("en")[:30]) + " a\U0010FFFFb")
    model.add_language("fr", "\n".join(seed_lines("fr")[:30]) + " \U0010FFFF\U0010FFFF")
    model.finalize()
    return model


@ON_ROW_TABLES
def test_rank_table_of_the_last_code_point_counts_toward_the_cap(rows, monkeypatch):
    model = last_code_point_model()
    tables = model._row_tables
    assert len(tables.rank) == 0x10FFFF + 2
    entries = sum(table.size for table in (
        tables.rank, tables.one, tables.two, tables.prefix, tables.three))
    assert entries <= probe._TABLE_CAP
    monkeypatch.setattr(probe, "_TABLE_CAP", entries - 1)
    with pytest.raises(ValueError, match=f"would hold {entries:,} entries, over the cap of "
                       f"{entries - 1:,}, "):
        last_code_point_model()
    # the bundled model's largest code point is U+0153
    assert len(train_langid()._row_tables.rank) < 1000
    assert_scores_equal_reference([model], [
        "\U0010FFFF", "a\U0010FFFFb", "\U0010FFFF\U0010FFFF\U0010FFFF", "\U0010FFFE",
        "x\U0010FFFEy\U0010FFFF", "\U0001F600\U0010FFFF\ud800", seed_lines("fr")[40]])


def test_saved_model_file_is_unchanged(tmp_path):
    # sha256 of the file that a model trained on the bundled seeds saves: the
    # model file format, which files saved by earlier versions rely on
    path = tmp_path / "langid.json"
    train_langid().save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "e768c751d6c9bc511cbf7f78b84e63232253fc620f15cf40432597da2f824d77")


def test_scoring_before_finalize_asks_for_finalize():
    model = NgramLanguageModel()
    model.add_language("en", "the quick brown fox")
    with pytest.raises(RuntimeError, match=r"finalize\(\)"):
        model.log_probs("the fox")
    model.finalize()
    assert set(model.log_probs("the fox")) == {"en"}
    model.add_language("fr", "le renard brun")
    with pytest.raises(RuntimeError, match=r"finalize\(\)"):
        model.log_probs("the fox")
    with pytest.raises(RuntimeError, match=r"finalize\(\)"):
        classify_language("the fox", model)
    model.finalize()
    assert model.languages == ["en", "fr"]
    assert set(classify_language("the fox", model).scores) == {"en", "fr"}


def reference_counts(calls):
    """The string-gram ``Counter.update`` counting that gram codes replaced,
    over (language, text) training calls in order."""
    counts = {}
    for lang, text in calls:
        per_order = counts.setdefault(lang, {n: Counter() for n in (1, 2, 3)})
        for n, counter in per_order.items():
            counter.update(text[i:i + n] for i in range(len(text) - n + 1))
    return counts


def assert_counts_equal_reference(model, calls):
    expected = reference_counts(calls)
    assert model.counts == expected
    # key order too: it is the order of the saved file
    assert [(lang, n, list(c.items())) for lang, per_order in model.counts.items()
            for n, c in per_order.items()] == \
        [(lang, n, list(c.items())) for lang, per_order in expected.items()
         for n, c in per_order.items()]
    assert model.totals == {lang: {n: sum(c.values()) for n, c in per_order.items()}
                            for lang, per_order in expected.items()}


def trained(calls):
    model = NgramLanguageModel()
    for lang, text in calls:
        model.add_language(lang, text)
    model.finalize()
    return model


def test_repeated_training_counts_like_counter_update(tmp_path):
    en, fr = seed_lines("en"), seed_lines("fr")
    calls = [
        ("en", "\n".join(en[:40])),
        ("fr", "\n".join(fr[:40]) + " \U0001F600"),
        # old grams, in a new order, and new grams after them
        ("en", "\n".join(reversed(en[20:60])) + " qxzj \u00e9\U0001F601"),
        ("fr", ""),
        ("en", "zz"),
    ]
    model = trained(calls)
    assert_counts_equal_reference(model, calls)
    expected = reference_counts(calls)
    path = tmp_path / "langid.json"
    model.save(path)
    payload = {
        "orders": [1, 2, 3],
        "vocab_sizes": {str(n): 1 + len(set().union(*(per[n] for per in expected.values())))
                        for n in (1, 2, 3)},
        "counts": {lang: {str(n): dict(c) for n, c in per_order.items()}
                   for lang, per_order in expected.items()},
    }
    assert path.read_bytes() == json.dumps(payload, ensure_ascii=False).encode("utf-8")
    assert_scores_equal_reference([model, NgramLanguageModel.load(path)],
                                  [en[70], fr[70], "qxzj zz", "\U0001F600\U0001F601"])


def test_counts_of_empty_short_and_surrogate_texts_like_counter_update(tmp_path):
    model = NgramLanguageModel()
    calls = []
    for lang, text in [("en", ""), ("en", "a"), ("de", "ab"), ("en", "ab"),
                       ("de", "\U0001F600\ud800x\udfff\U0010FFFF\ud800\udc00"),
                       ("en", "\udc00\ud800\U0001F600a"), ("de", "")]:
        model.add_language(lang, text)
        calls.append((lang, text))
        # each read sees every call so far: training refreshes the view
        assert_counts_equal_reference(model, calls)
    model.finalize()
    path = tmp_path / "langid.json"
    model.save(path)
    loaded = NgramLanguageModel.load(path)
    assert_counts_equal_reference(loaded, calls)
    assert_scores_equal_reference([model, loaded], [
        "ab", "\ud800\udc00", "x\udfff\U0010FFFF", "\U0001F600a", "q"])


def test_counts_are_read_only():
    model = trained([("en", "the quick brown fox")])
    with pytest.raises(AttributeError):
        model.counts = {}


@pytest.mark.parametrize("problem", MALFORMED_MODELS)
def test_malformed_model_file_is_a_value_error_naming_it(tmp_path, problem):
    path = malformed_model_file(tmp_path, problem)
    with pytest.raises(ValueError) as raised:
        NgramLanguageModel.load(path)
    assert str(raised.value) == f"{path}: {MALFORMED_MODELS[problem]}"


class TestClassifyLanguage:
    def test_held_out_accuracy(self, model, held_out):
        correct = total = 0
        for lang, sentences in held_out.items():
            for sent in sentences:
                total += 1
                correct += classify_language(sent, model).label == lang
        assert total == 400
        assert correct / total >= 0.95

    def test_german_example(self, model):
        score = classify_language(
            "Der Himmel ist blau und die Wiese ist grün.", model)
        assert score.label == "de"

    def test_digits_only_is_other(self, model):
        assert classify_language("12345 67890", model).label == "other"

    def test_empty_is_other(self, model):
        assert classify_language("", model).label == "other"

    def test_short_text_flagged_low_confidence(self, model):
        assert classify_language("Oui merci.", model).low_confidence
        assert not classify_language(
            "Merci beaucoup pour votre aide précieuse aujourd'hui.", model
        ).low_confidence

    def test_determinism(self, model):
        text = "El puerto estaba tranquilo por la mañana."
        a = classify_language(text, model)
        b = classify_language(text, model)
        assert a.scores == b.scores and a.label == b.label

    def test_training_line_order_does_not_move_predictions(self, held_out):
        train, _ = split_seeds()
        shuffled = {}
        rng = random.Random(17)
        for lang, text in train.items():
            lines = text.splitlines()
            rng.shuffle(lines)
            shuffled[lang] = "\n".join(lines)
        base = train_langid(train)
        permuted = train_langid(shuffled)
        diffs = 0
        total = 0
        for lang, sentences in held_out.items():
            for sent in sentences:
                total += 1
                if classify_language(sent, base).label != \
                        classify_language(sent, permuted).label:
                    diffs += 1
        assert diffs / total <= 0.01


class ReplayBackend:
    """Cycles deterministically through canned generations."""

    def __init__(self, texts, fail_every=0):
        self.texts = itertools.cycle(texts)
        self.calls = 0
        self.fail_every = fail_every

    def complete(self, prompt, max_tokens=0, temperature=1.0):
        self.calls += 1
        if self.fail_every and self.calls % self.fail_every == 0:
            return BackendResult(error="synthetic refusal")
        return BackendResult(text=next(self.texts))


class TestProbePrior:
    def test_fifty_fifty_mock(self, model):
        fr = " ".join(seed_lines("fr")[:3])
        es = " ".join(seed_lines("es")[:3])
        backend = ReplayBackend([fr, es])
        report, _ = probe_prior(backend, model, n=100, max_tokens=300,
                                temperature=1.0)
        assert report.percentages["fr"] == 50.0
        assert report.percentages["es"] == 50.0
        assert report.percentages["en"] == 0.0

    def test_percentages_sum_to_100(self, model):
        texts = [" ".join(seed_lines(lang)[i:i + 2])
                 for lang in LANGS for i in (0, 30, 60)]
        texts.append("9999 8888 7777")  # classifies as other
        backend = ReplayBackend(list(texts))
        report, _ = probe_prior(backend, model, n=512, max_tokens=300,
                                temperature=1.0)
        assert report.obtained == 512
        assert sum(report.percentages.values()) == pytest.approx(100.0, abs=0.1)

    def test_backend_failures_reduce_obtained(self, model):
        backend = ReplayBackend([" ".join(seed_lines("de")[:2])], fail_every=4)
        report, _ = probe_prior(backend, model, n=100, max_tokens=300,
                                temperature=1.0)
        assert report.requested == 100
        assert report.obtained == 75
        assert sum(report.percentages.values()) == pytest.approx(100.0, abs=0.1)

    def test_report_records_protocol_params(self, model):
        backend = ReplayBackend([" ".join(seed_lines("en")[:2])])
        report, _ = probe_prior(backend, model, n=8, max_tokens=300,
                                temperature=1.0, seed=31)
        assert report.max_tokens == 300 and report.temperature == 1.0
        assert report.seed == 31

    def test_translation_pair_percentage_and_evidence(self, model):
        pair_text = ("English: The bridge reopens in May after repairs.\n"
                     "French: Le pont rouvre en mai après les travaux.")
        mono = " ".join(seed_lines("de")[:3])
        backend = ReplayBackend([pair_text, mono])
        report, evidence = probe_prior(backend, model, n=50, max_tokens=300,
                                       temperature=1.0)
        assert report.translation_pair_percent == 50.0
        assert evidence and evidence[0]["rule"] == "name_prefix"

    def test_language_names_read_once_per_probe(self, model, monkeypatch):
        reads = []
        real = probe.load_language_names
        monkeypatch.setattr(probe, "load_language_names",
                            lambda: reads.append(1) or real())
        pair_text = "English: The bridge reopens.\nFrench: Le pont rouvre."
        report, _ = probe_prior(ReplayBackend([pair_text]), model, n=20)
        assert report.translation_pair_percent == 100.0
        assert len(reads) == 1


class TestDetectTranslationPair:
    def test_name_prefix_format(self, model):
        text = ("English: The hotel lies close to the old harbour wall.\n"
                "Czech: Hotel stojí blízko staré přístavní zdi.")
        found, why = detect_translation_pair(text, model)
        assert found and why["rule"] == "name_prefix"
        assert why["names"] == ["Czech", "English"]

    def test_tab_separated_bilingual_line(self, model):
        text = ("The update requires a newer phone model.\t"
                "* La mise à jour nécessite un téléphone plus récent.")
        found, why = detect_translation_pair(text, model)
        assert found and why["rule"] == "tab_bilingual"
        assert set(why["labels"]) == {"en", "fr"}

    def test_alternating_blocks(self, model):
        en_para = " ".join(seed_lines("en")[:4])
        de_para = " ".join(seed_lines("de")[:4])
        text = f"{en_para}\n\n{de_para}\n\n{en_para}\n\n{de_para}"
        found, why = detect_translation_pair(text, model)
        assert found and why["rule"] == "alternating_blocks"
        assert set(why["labels"]) == {"en", "de"}

    def test_monolingual_paragraph_is_false(self, model):
        text = " ".join(seed_lines("fr")[:6])
        found, why = detect_translation_pair(text, model)
        assert not found and why is None

    def test_hundred_monolingual_fixtures_all_false(self, model):
        rng = random.Random(23)
        for _ in range(100):
            lang = rng.choice(LANGS)
            lines = seed_lines(lang)
            start = rng.randrange(len(lines) - 6)
            text = "\n".join(lines[start:start + rng.randint(2, 6)])
            found, _ = detect_translation_pair(text, model)
            assert not found, text

    def test_single_language_with_high_margin_never_a_pair(self, model):
        for lang in LANGS:
            text = " ".join(seed_lines(lang)[:5])
            score = classify_language(text, model)
            if score.margin >= 0.6:
                found, _ = detect_translation_pair(text, model)
                assert not found
