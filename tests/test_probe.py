"""Language ID, prior probing, and translation-pair detection tests."""

import itertools
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

from conftest import seed_lines

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


class Reference:
    """The string-gram scoring that gram codes and precomputed tables
    replaced, read from ``reference_counts`` of the (language, text) training
    calls, not from the model under test. Each order's vocabulary size is one
    more than the number of its distinct grams over all languages."""

    def __init__(self, calls):
        self.counts = reference_counts(calls)
        self.totals = {lang: {n: sum(c.values()) for n, c in per_order.items()}
                       for lang, per_order in self.counts.items()}
        self.vocab_sizes = {n: 1 + len(set().union(*(per[n] for per in self.counts.values())))
                            for n in (1, 2, 3)}

    def log_prob(self, lang, text):
        """The per-gram ``math.log`` average log-probability of the text."""
        total = 0.0
        for n in (1, 2, 3):
            counts = self.counts[lang][n]
            denom = self.totals[lang][n] + self.vocab_sizes[n]
            for i in range(len(text) - n + 1):
                total += math.log((counts.get(text[i:i + n], 0) + 1) / denom)
        return total / len(text)


def reference_counts(calls):
    """The string-gram ``Counter.update`` counting that gram codes replaced,
    over (language, text) training calls in order."""
    counts = {}
    for lang, text in calls:
        per_order = counts.setdefault(lang, {n: Counter() for n in (1, 2, 3)})
        for n, counter in per_order.items():
            counter.update(text[i:i + n] for i in range(len(text) - n + 1))
    return counts


def trained(calls):
    model = NgramLanguageModel()
    for lang, text in calls:
        model.add_language(lang, text)
    model.finalize()
    return model


def assert_scores_equal_reference(model, reference, texts):
    assert model.totals == reference.totals
    assert model.vocab_sizes == reference.vocab_sizes
    for text in texts:
        expected = {lang: reference.log_prob(lang, text) for lang in model.languages}
        assert model.log_probs(text) == expected, repr(text)
        if any(ch.isalpha() for ch in text):
            assert classify_language(text, model).scores == expected, repr(text)


@pytest.fixture(scope="module")
def model():
    train, _ = split_seeds()
    return train_langid(train)


@pytest.fixture(scope="module")
def reference():
    train, _ = split_seeds()
    return Reference(sorted(train.items()))  # train_langid's order


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


def test_log_prob_tables_equal_per_gram_logs_bit_for_bit(model, reference, held_out):
    texts = [line for lines in held_out.values() for line in lines[:25]]
    texts += ["x", "Ω", "qqq zzz", "12 ab", "\t\n"]
    assert_scores_equal_reference(model, reference, texts)


def test_classify_scores_equal_per_language_reference(model, reference, held_out):
    texts = [line for lines in held_out.values() for line in lines[25:40]]
    texts += ["\n\n".join(held_out["fr"][:3] + held_out["de"][:3]), "x", "ab"]
    assert all(any(ch.isalpha() for ch in text) for text in texts)  # so classify is checked
    assert_scores_equal_reference(model, reference, texts)


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
# texts none of whose 1-, 2- or 3-grams occur in the edge model's training text
ALL_UNSEEN = ["\u2603", "\u2603\u2604\u2605\u2606", "\U0001F680" * 5, "\u014b\U0001F681\u014b"]


def edge_training_calls():
    return [
        ("en", "\n".join(seed_lines("en")[:60]) + " e\u0301\U0001F600 " + TWIN_SEEN),
        ("fr", "\n".join(seed_lines("fr")[:60]) + " \u00e9\u0301\x00\x00 \U0001F600\U0001F601"),
    ]


@pytest.fixture(scope="module")
def edge_model():
    """A model trained on astral-plane, combining and NUL characters, and
    the reference scoring of its training calls."""
    calls = edge_training_calls()
    return trained(calls), Reference(calls)


@ON_ROW_TABLES
def test_edge_case_texts_score_like_per_gram_logs(rows, edge_model):
    model, reference = edge_model
    assert all(twin not in reference.counts[lang][len(twin)]
               for twin in TWIN_UNSEEN for lang in model.languages)
    assert_scores_equal_reference(model, reference, EDGE_TEXTS + ALL_UNSEEN)


SURROGATE_CALLS = [
    ("en", "\n".join(seed_lines("en")[:30]) + " \ud800x\udfff\ud800"),
    ("de", "\n".join(seed_lines("de")[:30]) + " \udc00\ud800"),
]
SURROGATE_TEXTS = EDGE_TEXTS + ["x\ud800", "\udfff\ud800q"]


@ON_ROW_TABLES
def test_lone_surrogates_in_training_text_score_like_per_gram_logs(rows):
    assert_scores_equal_reference(trained(SURROGATE_CALLS), Reference(SURROGATE_CALLS),
                                  SURROGATE_TEXTS)


def test_all_unseen_texts_score_each_languages_unseen_log(edge_model):
    model, reference = edge_model
    for text in ALL_UNSEEN:
        for n in (1, 2, 3):
            grams = {text[i:i + n] for i in range(len(text) - n + 1)}
            assert all(grams.isdisjoint(reference.counts[lang][n]) for lang in model.languages)
    assert_scores_equal_reference(model, reference, ALL_UNSEEN)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
def test_texts_across_block_boundaries_score_like_per_gram_logs(
        block, edge_model, model, reference, held_out, monkeypatch):
    monkeypatch.setattr(probe, "_BLOCK", block)
    texts = EDGE_TEXTS + [held_out["de"][0], " ".join(held_out["es"][:3])]
    assert_scores_equal_reference(*edge_model, texts)
    assert_scores_equal_reference(model, reference, texts[-2:])


def test_text_longer_than_a_block_scores_like_per_gram_logs(model, reference, held_out):
    text = " ".join(itertools.islice(itertools.cycle(held_out["fr"]), 400))
    assert len(text) > probe._BLOCK
    assert_scores_equal_reference(model, reference, [text[:probe._BLOCK + 1000]])


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


LAST_CODE_POINT_CALLS = [
    ("en", "\n".join(seed_lines("en")[:30]) + " a\U0010FFFFb"),
    ("fr", "\n".join(seed_lines("fr")[:30]) + " \U0010FFFF\U0010FFFF"),
]


@ON_ROW_TABLES
def test_rank_table_of_the_last_code_point_counts_toward_the_cap(rows, monkeypatch):
    model = trained(LAST_CODE_POINT_CALLS)
    tables = model._row_tables
    assert len(tables.rank) == 0x10FFFF + 2
    entries = sum(table.size for table in (
        tables.rank, tables.one, tables.two, tables.prefix, tables.three))
    assert entries <= probe._TABLE_CAP
    monkeypatch.setattr(probe, "_TABLE_CAP", entries - 1)
    with pytest.raises(ValueError, match=f"would hold {entries:,} entries, over the cap of "
                       f"{entries - 1:,}, "):
        trained(LAST_CODE_POINT_CALLS)
    # the bundled model's largest code point is U+0153
    assert len(train_langid()._row_tables.rank) < 1000
    assert_scores_equal_reference(model, Reference(LAST_CODE_POINT_CALLS), [
        "\U0010FFFF", "a\U0010FFFFb", "\U0010FFFF\U0010FFFF\U0010FFFF", "\U0010FFFE",
        "x\U0010FFFEy\U0010FFFF", "\U0001F600\U0010FFFF\ud800", seed_lines("fr")[40]])


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


def test_repeated_training_counts_like_counter_update():
    en, fr = seed_lines("en"), seed_lines("fr")
    calls = [
        ("en", "\n".join(en[:40])),
        ("fr", "\n".join(fr[:40]) + " \U0001F600"),
        # old grams, in a new order, and new grams after them
        ("en", "\n".join(reversed(en[20:60])) + " qxzj \u00e9\U0001F601"),
        ("fr", ""),
        ("en", "zz"),
    ]
    # en[30] is counted twice: each call adds to its language's counts
    assert_scores_equal_reference(trained(calls), Reference(calls), [
        en[30], en[70], fr[70], "qxzj zz", "\U0001F600\U0001F601"])


def test_counts_of_empty_short_and_surrogate_texts_like_counter_update():
    model = NgramLanguageModel()
    calls = []
    for lang, text in [("en", ""), ("en", "a"), ("de", "ab"), ("en", "ab"),
                       ("de", "\U0001F600\ud800x\udfff\U0010FFFF\ud800\udc00"),
                       ("en", "\udc00\ud800\U0001F600a"), ("de", "")]:
        model.add_language(lang, text)
        calls.append((lang, text))
        # each finalize sees every call so far
        model.finalize()
        assert_scores_equal_reference(model, Reference(calls), [
            "ab", "\ud800\udc00", "x\udfff\U0010FFFF", "\U0001F600a", "q"])


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
