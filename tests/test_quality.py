"""Quality rule tests: planted violations checked against a per-doc oracle."""

import random

import pytest

from transmix import quality
from transmix.corpus import Document
from transmix.quality import (
    MAX_DUPLICATE_LINE_FRACTION,
    MAX_DUPLICATE_PARAGRAPH_FRACTION,
    QualityReport,
    RuleConfig,
    RuleResult,
    filter_corpus,
    gopher_filter,
    load_stopwords,
)

from conftest import seed_lines

GOOD_PARAGRAPH = (
    "The committee met early in the morning and reviewed the harbour plans "
    "in detail. Several members argued that the budget would not cover the "
    "repairs, and the chairman agreed to postpone the final decision. Local "
    "residents have asked for better lighting along the quay, and engineers "
    "will present a revised proposal with updated cost estimates before the "
    "next session opens in October."
)


def test_good_paragraph_kept_and_metrics_match_independent_counts():
    doc = Document(id="good", lang="en", text=GOOD_PARAGRAPH)
    report = gopher_filter(doc)
    assert report.keep and report.first_failed is None

    # independent metric computation
    words = GOOD_PARAGRAPH.split()
    by_rule = {r.rule: r.value for r in report.results}
    assert by_rule["word_count"] == len(words)
    assert by_rule["mean_word_length"] == pytest.approx(
        sum(len(w) for w in words) / len(words))
    assert by_rule["symbol_word_ratio"] == pytest.approx(
        (GOOD_PARAGRAPH.count("#")
         + GOOD_PARAGRAPH.count("…")
         + GOOD_PARAGRAPH.count("...")) / len(words))
    assert by_rule["alpha_word_fraction"] == pytest.approx(
        sum(1 for w in words if any(c.isalpha() for c in w)) / len(words))
    stops = load_stopwords("en")
    distinct = {w.strip('.,').lower() for w in words} & stops
    assert by_rule["stop_words"] == len(distinct)
    assert len(distinct) >= 2


def test_short_document_rejected_on_word_count_first():
    doc = Document(id="short", lang="en", text="only ten small words sit "
                                               "right here on this line")
    report = gopher_filter(doc)
    assert not report.keep
    assert report.first_failed == "word_count"
    # later rules are still measured
    assert {r.rule for r in report.results} >= {"alpha_word_fraction", "stop_words"}


def test_hash_document_fails_symbol_and_alpha_rules():
    doc = Document(id="hashes", lang="en", text=" ".join(["#"] * 60))
    report = gopher_filter(doc)
    failed = {r.rule for r in report.results if not r.passed}
    assert {"symbol_word_ratio", "alpha_word_fraction"} <= failed


def test_bullet_heavy_document_rejected():
    lines = [f"* item {i} follows here now" for i in range(40)]
    doc = Document(id="bullets", lang="en", text="\n".join(lines))
    report = gopher_filter(doc)
    by_rule = {r.rule: r for r in report.results}
    assert by_rule["bullet_line_fraction"].value == 1.0
    assert not by_rule["bullet_line_fraction"].passed


def test_ellipsis_line_fraction():
    text = "\n".join(
        ["the quick brown fox runs past the old mill today..."] * 4
        + ["the quick brown fox rests and watches the road."] * 6)
    doc = Document(id="dots", lang="en", text=text)
    report = gopher_filter(doc)
    by_rule = {r.rule: r for r in report.results}
    assert by_rule["ellipsis_line_fraction"].value == pytest.approx(0.4)
    assert not by_rule["ellipsis_line_fraction"].passed


def test_stop_word_rule_uses_language_list():
    text = " ".join(seed_lines("fr")[:12])
    doc = Document(id="fr", lang="fr", text=text)
    report = gopher_filter(doc)
    assert report.keep


def test_repetition_rules_disabled_by_default():
    doc = Document(id="rep", lang="en",
                   text="\n".join(["the same line of decent length here"] * 60))
    default = gopher_filter(doc)
    assert "duplicate_line_fraction" not in {r.rule for r in default.results}
    enabled = gopher_filter(doc, RuleConfig(check_repetition=True))
    by_rule = {r.rule: r for r in enabled.results}
    assert not by_rule["duplicate_line_fraction"].passed


def test_determinism():
    doc = Document(id="d", lang="en", text=GOOD_PARAGRAPH)
    assert gopher_filter(doc).to_dict() == gopher_filter(doc).to_dict()


def _relax(rules: RuleConfig, which: str) -> RuleConfig:
    from dataclasses import replace
    loosen = {
        "min_words": 0, "max_words": 10**9,
        "min_mean_word_length": 0.0, "max_mean_word_length": 1e9,
        "max_symbol_word_ratio": 1e9,
        "max_bullet_line_fraction": 1.0,
        "max_ellipsis_line_fraction": 1.0,
        "min_alpha_word_fraction": 0.0,
        "min_stop_words": 0,
    }
    return replace(rules, **{which: loosen[which]})


def test_relaxing_any_threshold_is_monotone():
    rng = random.Random(77)
    pool = seed_lines("en")
    fields = [
        "min_words", "max_words", "min_mean_word_length", "max_mean_word_length",
        "max_symbol_word_ratio", "max_bullet_line_fraction",
        "max_ellipsis_line_fraction", "min_alpha_word_fraction", "min_stop_words",
    ]
    for i in range(60):
        n = rng.randint(1, 12)
        text = " ".join(rng.choice(pool) for _ in range(n))
        if rng.random() < 0.3:
            text += " " + " ".join(["#"] * rng.randint(1, 30))
        doc = Document(id=f"d{i}", lang="en", text=text)
        base = gopher_filter(doc)
        for which in fields:
            relaxed = gopher_filter(doc, _relax(RuleConfig(), which))
            if base.keep:
                assert relaxed.keep, f"relaxing {which} flipped keep -> reject"


def oracle_verdict(doc: Document, stops: frozenset) -> bool:
    """Independent keep/reject decision, written without the module's helpers."""
    words = doc.text.split()
    if not 50 <= len(words) <= 100_000:
        return False
    if not words:
        return False
    mean = sum(map(len, words)) / len(words)
    if not 3.0 <= mean <= 10.0:
        return False
    sym = doc.text.count("#") + doc.text.count("…") + doc.text.count("...")
    if sym / len(words) > 0.1:
        return False
    lines = [l for l in doc.text.splitlines() if l.strip()]
    if lines:
        bullets = sum(l.strip().startswith(("•", "‣", "▪", "-", "*")) for l in lines)
        if bullets / len(lines) > 0.9:
            return False
        dots = sum(l.rstrip().endswith(("…", "...")) for l in lines)
        if dots / len(lines) > 0.3:
            return False
    alpha = sum(any(c.isalpha() for c in w) for w in words)
    if alpha / len(words) < 0.8:
        return False
    found = {w.strip("\"'.,;:!?()[]{}«»“”‘’-").lower() for w in words} & stops
    return len(found) >= 2


def test_partition_matches_oracle_on_planted_corpus():
    rng = random.Random(123)
    pool = seed_lines("en")
    docs = []
    for i in range(100):
        kind = rng.randrange(5)
        if kind == 0:  # too short
            text = " ".join(rng.choice(pool).split()[:8])
        elif kind == 1:  # symbol spam
            text = " ".join(rng.choice(pool) for _ in range(4)) + " " + " # " * 20
        elif kind == 2:  # numeric, no alpha
            text = " ".join(str(rng.randrange(10**6)) for _ in range(80))
        elif kind == 3:  # bullet list
            text = "\n".join("* " + rng.choice(pool) for _ in range(30))
        else:  # clean
            text = " ".join(rng.choice(pool) for _ in range(6))
        docs.append(Document(id=f"d{i:03d}", lang="en", text=text))

    stops = load_stopwords("en")
    kept, rejected = [], []
    for doc, report in filter_corpus(docs):
        (kept if report.keep else rejected).append(doc)
    assert len(kept) + len(rejected) == len(docs)
    assert [d.id for d in kept] == [d.id for d in docs if oracle_verdict(d, stops)]
    assert [d.id for d in rejected] == [d.id for d in docs
                                        if not oracle_verdict(d, stops)]


def test_empty_corpus():
    assert list(filter_corpus([])) == []


def reference_gopher_filter(doc, rules, stopwords):
    """The three-pass ``gopher_filter`` (a ``len`` sum, an ``isalpha`` scan and
    a stop-word strip per word) that the one pass over distinct words
    replaced, kept as the reference its reports must equal."""
    edges = "\"'.,;:!?()[]{}«»“”‘’-"
    words = doc.text.split()
    num_words = len(words)
    lines = [ln for ln in doc.text.splitlines() if ln.strip()]
    num_lines = len(lines)
    measured = {}
    measured["word_count"] = (
        float(num_words), rules.min_words <= num_words <= rules.max_words)
    mean_len = sum(len(w) for w in words) / num_words if num_words else 0.0
    measured["mean_word_length"] = (
        mean_len, rules.min_mean_word_length <= mean_len <= rules.max_mean_word_length)
    symbols = doc.text.count("#") + doc.text.count("…") + doc.text.count("...")
    symbol_ratio = symbols / num_words if num_words else 1.0
    measured["symbol_word_ratio"] = (symbol_ratio, symbol_ratio <= rules.max_symbol_word_ratio)
    bullet_frac = (
        sum(1 for ln in lines if ln.lstrip().startswith(("•", "‣", "▪", "-", "*")))
        / num_lines if num_lines else 0.0)
    measured["bullet_line_fraction"] = (
        bullet_frac, bullet_frac <= rules.max_bullet_line_fraction)
    ellipsis_frac = (
        sum(1 for ln in lines if ln.rstrip().endswith(("…", "..."))) / num_lines
        if num_lines else 0.0)
    measured["ellipsis_line_fraction"] = (
        ellipsis_frac, ellipsis_frac <= rules.max_ellipsis_line_fraction)
    alpha_frac = (
        sum(1 for w in words if any(c.isalpha() for c in w)) / num_words
        if num_words else 0.0)
    measured["alpha_word_fraction"] = (alpha_frac, alpha_frac >= rules.min_alpha_word_fraction)
    distinct_stops = {w for w in (w.strip(edges).lower() for w in words) if w in stopwords}
    measured["stop_words"] = (
        float(len(distinct_stops)), len(distinct_stops) >= rules.min_stop_words)
    if rules.check_repetition:
        def dup(items):
            return (len(items) - len(set(items))) / len(items) if items else 0.0
        measured["duplicate_line_fraction"] = (
            dup(lines), dup(lines) <= MAX_DUPLICATE_LINE_FRACTION)
        paragraphs = [p.strip() for p in doc.text.split("\n\n") if p.strip()]
        measured["duplicate_paragraph_fraction"] = (
            dup(paragraphs), dup(paragraphs) <= MAX_DUPLICATE_PARAGRAPH_FRACTION)
    report = QualityReport(doc_id=doc.id)
    for rule in rules.active_rules():
        value, passed = measured[rule]
        report.results.append(RuleResult(rule=rule, value=value, passed=passed))
    return report


def fuzz_document(rng, pool, lang, i):
    """Seed words mixed with case changes, edge punctuation, symbols, digits,
    bullets and ellipses, so that every rule passes or fails somewhere."""
    words = " ".join(rng.choice(pool) for _ in range(rng.randint(0, 12))).split()
    out = []
    for w in words:
        r = rng.random()
        if r < 0.1:
            w = w.upper()
        elif r < 0.2:
            w = rng.choice(["«", "\"", "(", "‘", "-"]) + w + rng.choice(["»", "\"", ")", "!", ".."])
        elif r < 0.25:
            w = rng.choice(["#", "...", "…", "12", "3,5", "--", "•", "ÆØÅ", "ℕ"])
        out.append(w)
        if rng.random() < 0.08:
            out.append(rng.choice(["\n", "\n\n", "\n* ", "\n- ", "...\n", " …\n"]))
    return Document(id=f"f{i}", lang=lang, text=" ".join(out))


@pytest.mark.parametrize("lang", ["en", "fr", "de", "es"])
def test_reports_equal_three_pass_reference_on_fuzz(lang):
    rng = random.Random(f"quality:{lang}")
    pool = seed_lines(lang)
    stops = load_stopwords(lang)
    configs = [RuleConfig(), RuleConfig(check_repetition=True, min_words=5)]
    kept = rejected = 0
    for i in range(400):
        doc = fuzz_document(rng, pool, lang, i)
        for rules in configs:
            report = gopher_filter(doc, rules, stops)
            assert report.to_dict() == reference_gopher_filter(doc, rules, stops).to_dict()
            kept += report.keep
            rejected += not report.keep
    assert kept > 50 and rejected > 50


def test_reports_equal_three_pass_reference_on_seed_documents():
    rules = RuleConfig()
    for lang in ("en", "fr", "de", "es"):
        lines = seed_lines(lang)
        stops = load_stopwords(lang)
        docs = [Document(id=f"{lang}{i}", lang=lang, text=" ".join(lines[i:i + n]))
                for n in (1, 3, 6, 12) for i in range(0, len(lines), 17)]
        docs.append(Document(id=f"{lang}-empty", lang=lang, text=""))
        for doc in docs:
            assert gopher_filter(doc, rules, stops).to_dict() == \
                reference_gopher_filter(doc, rules, stops).to_dict()


def test_word_cache_stops_at_its_cap(monkeypatch):
    memos = []
    real = quality.gopher_filter

    def spy(doc, rules, stopwords, word_memo):
        memos.append(word_memo)
        return real(doc, rules, stopwords, word_memo)

    monkeypatch.setattr(quality, "gopher_filter", spy)
    # the stop words come last, past the cap
    words = [f"Word{i}," for i in range(100_060)] + ["the", "and", "of"] * 5
    doc = Document(id="capped", lang="en", text=" ".join(words))
    expected = reference_gopher_filter(doc, RuleConfig(), load_stopwords("en")).to_dict()
    assert expected["keep"] is False and expected["rules"][-1]["value"] == 3.0
    # the second document reads the stored words back
    for _, report in filter_corpus([doc, doc]):
        assert report.to_dict() == expected
        assert len(memos[-1]) == 100_000
    assert memos[0] is memos[1] and memos[0].cap == 100_000
    assert "the" not in memos[0]


def test_filter_corpus_shares_one_word_cache(monkeypatch):
    caches = []
    real = quality.gopher_filter

    def spy(doc, rules, stopwords, word_cache):
        caches.append(word_cache)
        return real(doc, rules, stopwords, word_cache)

    monkeypatch.setattr(quality, "gopher_filter", spy)
    docs = [Document(id=f"d{i}", lang="en", text=GOOD_PARAGRAPH) for i in range(3)]
    assert all(report.keep for _, report in filter_corpus(docs))
    assert len(caches) == 3 and all(c is caches[0] for c in caches)
    assert "committee" in caches[0]
