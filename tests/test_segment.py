"""Sentence segmentation and chunking tests, with an independent greedy oracle."""

import random

import pytest

from transmix.corpus import Document
from transmix.segment import (
    CLOSERS,
    TERMINALS,
    Chunk,
    chunk_document,
    load_abbreviations,
    split_sentences,
)

from conftest import reference_split, seed_lines

# abbreviation-heavy sentences, five per language, to exercise the lists
TRICKY = {
    "en": [
        "Dr. Smith arrived late.",
        "The meeting starts at 5 p.m. sharp.",
        "She cited Fig. 3 in the report.",
        "Orders ship from the U.S. warehouse.",
        "We visited St. Ives in June.",
    ],
    "fr": [
        "M. Dubois est arrivé en retard.",
        "Voir p. 12 du rapport.",
        "Mme. Laurent habite à Lyon.",
        "Le Dr. Morel consulte le mardi.",
        "Il cite le chap. 5 du code.",
    ],
    "de": [
        "Dr. Weber kam zu spät.",
        "Das kostet ca. zwanzig Euro.",
        "Siehe Abb. 3 im Anhang.",
        "Die Sitzung beginnt am 3. Oktober.",
        "Der Zug fährt z.B. über Kassel.",
    ],
    "es": [
        "El Sr. García llegó tarde.",
        "La Dra. Ruiz atiende los martes.",
        "Véase la pág. 12 del informe.",
        "Vive en la Avda. de la Paz.",
        "El Ing. Torres firmó el plano.",
    ],
}


def reconstructable(text, sentences):
    """Spans ordered, non-overlapping, and separated by whitespace only."""
    pos = 0
    for s in sentences:
        if s.start < pos or not text[pos:s.start].isspace() and text[pos:s.start]:
            return False
        if text[s.start:s.end] != s.text:
            return False
        pos = s.end
    return not text[pos:].strip()


# pieces for fuzzed segmentation input: words, terminal runs, closers,
# German ordinals, and the whitespace the rules tell apart, blank lines included
FUZZ_PIECES = (
    ["word", "Word", "élan", "Über", "x", "3", "12", "3.14", "z.B.", "U.S.", "3.", "12.", "123."]
    + list(TERMINALS) + ["...", "?!", "!!!", "…", "..", ".…"]
    + list(CLOSERS) + ['."', ".)", "!»", "?”"]
    + [" ", " ", " ", "  ", "\t", "\r", "\n", "\n\n", "\n \t\r\n", " \n", "\r\n", "\u00a0",
       "\x85", "\u2028", "\u3000"]
)


def fuzz_text(rng, lang):
    pieces = FUZZ_PIECES + sorted(load_abbreviations(lang))[:40]
    return "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 40)))


@pytest.mark.parametrize("lang", ["en", "fr", "de", "es"])
def test_split_sentences_equals_the_per_character_loop(lang):
    rng = random.Random(f"split-{lang}")
    for _ in range(4000):
        text = fuzz_text(rng, lang)
        assert split_sentences(text, lang) == reference_split(text, lang), repr(text)
    for line in seed_lines(lang)[:300]:
        assert split_sentences(line, lang) == reference_split(line, lang)
    text = "\n\n".join(" ".join(seed_lines(lang)[i:i + 5]) for i in range(0, 300, 5))
    assert split_sentences(text, lang) == reference_split(text, lang)


class TestSplitSentences:
    def test_three_terminal_sentences(self):
        sents = split_sentences("A. B! C?")
        assert [s.text for s in sents] == ["A.", "B!", "C?"]
        assert all(s.terminal for s in sents)

    def test_unfinished_thought(self):
        sents = split_sentences("an unfinished thought")
        assert len(sents) == 1
        assert sents[0].terminal is False

    def test_empty_text(self):
        assert split_sentences("") == []

    def test_abbreviation_not_a_boundary(self):
        sents = split_sentences("Dr. Smith arrived. He left.", "en")
        assert [s.text for s in sents] == ["Dr. Smith arrived.", "He left."]

    def test_decimal_number_not_a_boundary(self):
        sents = split_sentences("Pi is roughly 3.14 for our purposes.")
        assert len(sents) == 1

    def test_closing_quote_belongs_to_sentence(self):
        sents = split_sentences('He said "stop." Then silence.')
        assert [s.text for s in sents] == ['He said "stop."', "Then silence."]
        assert sents[0].terminal

    def test_blank_line_forces_boundary(self):
        sents = split_sentences("no punctuation here\n\nAnd a sentence.")
        assert [s.terminal for s in sents] == [False, True]

    def test_ellipsis_then_lowercase_continues(self):
        sents = split_sentences("He paused... and went on.")
        assert len(sents) == 1

    def test_german_ordinal(self):
        sents = split_sentences("Die Sitzung beginnt am 3. Oktober.", "de")
        assert len(sents) == 1

    @pytest.mark.parametrize("lang", ["en", "fr", "de", "es"])
    def test_fixture_corpus_boundary_agreement(self, lang):
        # 45 seed sentences (every third line is an unexpanded base) plus the
        # five abbreviation-heavy ones: 50 hand-checked sentences per language
        expected = seed_lines(lang)[::3][:45] + TRICKY[lang]
        assert len(expected) == 50
        text = ""
        expected_ends = set()
        for sent in expected:
            if text:
                text += " "
            text += sent
            expected_ends.add(len(text))
        predicted_ends = {s.end for s in split_sentences(text, lang)}
        recall = len(predicted_ends & expected_ends) / len(expected_ends)
        precision = len(predicted_ends & expected_ends) / len(predicted_ends)
        assert recall >= 0.95, f"{lang}: boundary recall {recall:.3f}"
        assert precision >= 0.95, f"{lang}: boundary precision {precision:.3f}"

    def test_reconstruction_on_random_text(self):
        rng = random.Random(42)
        alphabet = 'abc DEF.!?… \n"\')('
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
            sents = split_sentences(text)
            assert reconstructable(text, sents), repr(text)

    def test_terminal_flag_definition(self):
        rng = random.Random(43)
        for _ in range(300):
            text = "".join(rng.choice('ab .!?…")') for _ in range(rng.randrange(1, 60)))
            for s in split_sentences(text):
                stripped = s.text.rstrip('"\')]}»›”’')
                assert s.terminal == (bool(stripped) and stripped[-1] in ".!?…")


def sentence_doc(rng, n_sentences, words_per_sentence=None):
    parts = []
    for _ in range(n_sentences):
        k = words_per_sentence or rng.randint(1, 12)
        words = [f"W{rng.randrange(10**6)}"] + [
            f"w{rng.randrange(10**6)}" for _ in range(k - 1)]
        parts.append(" ".join(words) + ".")
    return Document(id="d", lang="en", text=" ".join(parts))


def oracle_greedy(counts, limit):
    """Brute-force greedy grouping over per-sentence token counts."""
    groups, cur, cur_n = [], [], 0
    for i, n in enumerate(counts):
        if cur and cur_n + n > limit:
            groups.append(cur)
            cur, cur_n = [], 0
        cur.append(i)
        cur_n += n
    if cur:
        groups.append(cur)
    return groups


class TestChunkDocument:
    def test_four_sentences_of_100_tokens_limit_300(self, ws_counter):
        doc = sentence_doc(random.Random(0), 4, words_per_sentence=100)
        chunks = chunk_document(doc, ws_counter, limit=300)
        assert [len(c.sentences) for c in chunks] == [3, 1]
        assert chunks[0].token_count == 300

    def test_single_oversized_sentence(self, ws_counter):
        doc = sentence_doc(random.Random(1), 1, words_per_sentence=500)
        chunks = chunk_document(doc, ws_counter, limit=300)
        assert len(chunks) == 1
        assert chunks[0].token_count == 500

    def test_oversized_sentence_isolated_among_normal(self, ws_counter):
        text = "Aa bb. " + " ".join(["Big"] + ["x"] * 400) + ". Cc dd."
        doc = Document(id="d", lang="en", text=text)
        chunks = chunk_document(doc, ws_counter, limit=10)
        assert [len(c.sentences) for c in chunks] == [1, 1, 1]
        assert chunks[1].token_count == 401

    def test_empty_document(self, ws_counter):
        doc = Document(id="d", lang="en", text="")
        assert chunk_document(doc, ws_counter) == []

    def test_matches_oracle_on_random_docs(self, ws_counter):
        rng = random.Random(99)
        for _ in range(200):
            doc = sentence_doc(rng, rng.randint(1, 40))
            limit = rng.randint(1, 40)
            sents = split_sentences(doc.text, doc.lang)
            counts = [ws_counter.count(s.text) for s in sents]
            expected = oracle_greedy(counts, limit)
            chunks = chunk_document(doc, ws_counter, limit=limit)
            got = [[sents.index(s) for s in c.sentences] for c in chunks]
            assert got == expected

    def test_lossless_partition_and_budget(self, ws_counter):
        rng = random.Random(100)
        for _ in range(100):
            doc = sentence_doc(rng, rng.randint(0, 30))
            limit = rng.randint(5, 50)
            chunks = chunk_document(doc, ws_counter, limit=limit)
            flat = [s for c in chunks for s in c.sentences]
            assert flat == split_sentences(doc.text, doc.lang)
            for c in chunks:
                if len(c.sentences) >= 2:
                    assert c.token_count <= limit
            assert [c.index for c in chunks] == list(range(len(chunks)))

    def test_chunk_count_monotone_in_limit(self, ws_counter):
        rng = random.Random(101)
        for _ in range(50):
            doc = sentence_doc(rng, rng.randint(1, 25))
            counts = [
                len(chunk_document(doc, ws_counter, limit=limit))
                for limit in (5, 10, 20, 40, 80)
            ]
            assert counts == sorted(counts, reverse=True)

    def test_chunk_text_is_doc_slice(self, ws_counter):
        doc = sentence_doc(random.Random(5), 6, words_per_sentence=4)
        for chunk in chunk_document(doc, ws_counter, limit=8):
            assert chunk.text in doc.text
            assert isinstance(chunk, Chunk)

    def test_counter_can_be_bpe(self, bpe_counter):
        doc = Document(id="d", lang="en", text="The harbour lights. The old map.")
        chunks = chunk_document(doc, bpe_counter, limit=6)
        assert sum(len(c.sentences) for c in chunks) == 2
