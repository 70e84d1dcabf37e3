"""Translation pipeline tests: prompts, trimming, reassembly, resume."""

import json
import os
import random
import signal
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import transmix
from transmix.corpus import Document, read_corpus, write_corpus
from transmix.segment import CLOSERS, TERMINALS, load_abbreviations, split_sentences
from transmix.translate import (
    BackendResult,
    GenerationParams,
    HttpCompletionBackend,
    JournalCorruptError,
    MockCipherBackend,
    MockEchoBackend,
    PromptTemplate,
    TemplateError,
    build_prompt,
    cipher_map,
    complete_with_retries,
    translate_corpus,
    translate_document,
    trim_incomplete,
)

from conftest import reference_split

NO_SLEEP = lambda s: None  # noqa: E731 - keep test retries instant
FAST = GenerationParams(retries=3, backoff=0.0, max_in_flight=1)


class TestPromptTemplate:
    def test_renders_chunk_exactly_once(self):
        template = PromptTemplate()
        prompt = template.render("Hello there.", "fr")
        assert prompt.count("Hello there.") == 1
        assert prompt.startswith("[INST]") and prompt.endswith("[/INST]")
        assert "French" in prompt

    def test_target_language_word_is_the_only_difference(self):
        template = PromptTemplate()
        fr = template.render("Hello.", "fr")
        de = template.render("Hello.", "de")
        assert fr.replace("French", "German") == de

    def test_missing_source_slot_rejected_at_construction(self):
        with pytest.raises(TemplateError, match="SOURCE_TEXT"):
            PromptTemplate(instruction="Translate to {TARGET_LANGUAGE}:")

    def test_missing_target_slot_rejected(self):
        with pytest.raises(TemplateError, match="TARGET_LANGUAGE"):
            PromptTemplate(instruction="Translate this: {SOURCE_TEXT}")

    def test_unknown_target_language(self):
        with pytest.raises(TemplateError, match="target"):
            PromptTemplate().render("x", "xx")

    def test_extract_source_inverts_render(self):
        template = PromptTemplate()
        rng = random.Random(1)
        for _ in range(50):
            text = " ".join(f"w{rng.randrange(1000)}" for _ in range(10))
            tgt = rng.choice(["fr", "de", "es"])
            assert template.extract_source(template.render(text, tgt)) == text

    def test_build_prompt_rejects_same_language(self):
        with pytest.raises(TemplateError, match="both"):
            build_prompt("text", "en", "en")

    def test_chunk_text_embedded_verbatim_property(self):
        rng = random.Random(2)
        template = PromptTemplate()
        for _ in range(100):
            text = "".join(rng.choice("abc {}.!?\n ") for _ in range(60)).strip() or "x"
            prompt = build_prompt(text, "en", "es", template)
            assert prompt.count(text) >= 1


class TestMockBackends:
    def test_echo_returns_source(self):
        template = PromptTemplate()
        backend = MockEchoBackend(template)
        result = backend.complete(template.render("Some text here.", "fr"))
        assert result.ok and result.text == "Some text here."

    def test_cipher_is_reversible(self):
        template = PromptTemplate()
        backend = MockCipherBackend(template)
        result = backend.complete(template.render("Attack at dawn.", "de"))
        assert result.ok
        assert result.text != "Attack at dawn."
        assert cipher_map(result.text) == "Attack at dawn."

    def test_cipher_map_self_inverse(self):
        rng = random.Random(3)
        for _ in range(100):
            s = "".join(chr(rng.randrange(32, 500)) for _ in range(30))
            assert cipher_map(cipher_map(s)) == s

    def test_echo_fails_cleanly_on_foreign_prompt(self):
        backend = MockEchoBackend(PromptTemplate())
        result = backend.complete("a prompt from some other template")
        assert not result.ok and "source" in result.error


class TestTrimIncomplete:
    def test_quoted_rule_example(self):
        trimmed, dropped = trim_incomplete("La mer est bleue. Le ciel est", "fr")
        assert (trimmed, dropped) == ("La mer est bleue.", 1)

    def test_complete_single_sentence(self):
        assert trim_incomplete("Fertig!", "de") == ("Fertig!", 0)

    def test_all_incomplete(self):
        trimmed, dropped = trim_incomplete("nur ein angefangener gedanke", "de")
        assert trimmed == "" and dropped == 1

    def test_empty_input(self):
        assert trim_incomplete("", "en") == ("", 0)

    def test_matches_oracle_on_random_fixtures(self):
        rng = random.Random(4)
        alphabet = 'ab A.!?… \n"'
        for _ in range(200):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randrange(80)))
            assert trim_incomplete(raw, "en") == reference_trim(raw, "en")

    def test_idempotent_and_ends_terminal(self):
        rng = random.Random(5)
        alphabet = 'ab A.!?… \n")'
        for _ in range(500):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randrange(100)))
            trimmed, _ = trim_incomplete(raw, "en")
            again, dropped_again = trim_incomplete(trimmed, "en")
            assert again == trimmed and dropped_again == 0
            if trimmed:
                last = split_sentences(trimmed, "en")[-1]
                assert last.terminal


def reference_trim(raw, lang):
    """The split-every-output ``trim_incomplete`` that the terminal fast path
    replaced, kept as the reference it must equal; it splits with the
    independent oracle, so the fuzz checks the splitter too."""
    sentences = reference_split(raw, lang)
    keep = len(sentences)
    while keep > 0 and not sentences[keep - 1].terminal:
        keep -= 1
    dropped = len(sentences) - keep
    if keep == 0:
        return "", dropped
    return raw[:sentences[keep - 1].end], dropped


TRIM_LANGS = ("en", "fr", "de", "es")
# whitespace that str.rstrip() and str.isspace() both treat as such
TRIM_SPACES = [" ", "  ", "\n", "\n\n", "\n \t\n", "\t", "\r\n", "\u3000", "\x85",
               "\u2028", "\xa0"]


def fuzz_output(rng, abbreviations):
    """A backend output built from pieces that sit near the splitter's rules:
    terminal runs, closers after them, abbreviations, German ordinals,
    blank lines and unterminated tails."""
    pieces = []
    for _ in range(rng.randrange(12)):
        kind = rng.randrange(8)
        if kind == 0:
            pieces.append(rng.choice(["word", "Word", "le", "Der", "x1", "ñu", "3.14"]))
        elif kind == 1:
            pieces.append("".join(rng.choice(TERMINALS) for _ in range(rng.randint(1, 3))))
        elif kind == 2:
            pieces.append("".join(rng.choice(CLOSERS) for _ in range(rng.randint(1, 2))))
        elif kind == 3:
            pieces.append(rng.choice(abbreviations))
        elif kind == 4:
            pieces.append(f"{rng.randrange(100)}.")
        elif kind == 5:
            pieces.append(rng.choice(["…", "...", "?!", "!\u201d", ".\u00bb"]))
        else:
            pieces.append(rng.choice(TRIM_SPACES))
        if rng.random() < 0.6:
            pieces.append(rng.choice(TRIM_SPACES))
    return "".join(pieces)


class TestTrimFastPath:
    """The terminal fast path gives exactly what splitting every output gave."""

    @pytest.mark.parametrize("lang", TRIM_LANGS)
    def test_equals_split_reference_on_fuzz(self, lang):
        rng = random.Random(f"trim:{lang}")
        abbreviations = sorted(load_abbreviations(lang))
        for _ in range(3000):
            raw = fuzz_output(rng, abbreviations)
            assert trim_incomplete(raw, lang) == reference_trim(raw, lang), repr(raw)

    @pytest.mark.parametrize("raw, lang", [
        ("Done.  \n\t ", "en"),
        ("Done.\u3000\u2028", "en"),
        ('He said "stop."', "en"),
        ("Il a dit « non ! »", "fr"),
        ("(Fini.)\u201d ", "fr"),
        ("First one.\n\n\u00bb", "fr"),
        ("First one.\n\n\")\n", "en"),
        ("We met the Dr.", "en"),
        ("Bring fruit, veg, etc. ", "en"),
        ("Bring fruit, veg, etc.\n\n", "en"),
        ("Wir kommen am 3.", "de"),
        ("Wir kommen am 3. ", "de"),
        ("Am 3. Oktober", "de"),
        ("Y luego…", "es"),
        ("Y luego…… ", "es"),
        ("Y luego… y nada", "es"),
        ("", "en"),
        ("   \n\t ", "en"),
        ("Complete. Then an unfinished", "en"),
        ("Complete! \u00bb", "fr"),
        ("3.14", "en"),
    ])
    def test_equals_split_reference_on_edge_cases(self, raw, lang):
        assert trim_incomplete(raw, lang) == reference_trim(raw, lang)

    def test_terminal_output_is_not_split(self, monkeypatch):
        import transmix.translate as translate_mod

        calls = []

        def counting_split(*args, **kwargs):
            calls.append(args)
            return split_sentences(*args, **kwargs)

        monkeypatch.setattr(translate_mod, "split_sentences", counting_split)
        assert trim_incomplete("One. Two!\u201d \n", "en") == ("One. Two!\u201d", 0)
        assert calls == []
        assert trim_incomplete("One. Two", "en") == ("One.", 1)
        assert len(calls) == 1


class FlakyBackend:
    """Fails the first ``fail_times`` calls, then echoes."""

    def __init__(self, template, fail_times):
        self.inner = MockEchoBackend(template)
        self.fail_times = fail_times
        self.calls = 0

    def complete(self, prompt, max_tokens=0, temperature=0.0):
        self.calls += 1
        if self.calls <= self.fail_times:
            return BackendResult(error="synthetic outage")
        return self.inner.complete(prompt, max_tokens, temperature)


def test_retries_with_backoff_then_success():
    template = PromptTemplate()
    backend = FlakyBackend(template, fail_times=2)
    delays = []
    result = complete_with_retries(
        backend, template.render("Stable text.", "fr"), max_tokens=10,
        temperature=0.0, retries=3, backoff=1.0, sleep=delays.append)
    assert result.ok and result.text == "Stable text."
    assert delays == [1.0, 2.0]  # exponential from 1s


def test_retries_exhausted_returns_failure():
    backend = FlakyBackend(PromptTemplate(), fail_times=99)
    result = complete_with_retries(backend, "p", 10, 0.0, retries=3,
                                   backoff=1.0, sleep=NO_SLEEP)
    assert not result.ok and backend.calls == 3


class TestTranslateDocument:
    def test_echo_round_trip_modulo_separator(self, ws_counter):
        text = "The first fact. The second fact. The third fact."
        doc = Document(id="d1", lang="en", text=text)
        backend = MockEchoBackend(PromptTemplate())
        out, records = translate_document(
            doc, "fr", backend, counter=ws_counter, chunk_limit=4,
            params=FAST, sleep=NO_SLEEP)
        assert out is not None
        assert out.id == "d1:fr" and out.lang == "fr"
        assert out.text.split() == text.split()
        assert all(r.status == "ok" for r in records)

    def test_cipher_round_trip(self, ws_counter):
        text = "Nothing lasts. Everything changes. Stones remember."
        doc = Document(id="d2", lang="en", text=text)
        backend = MockCipherBackend(PromptTemplate())
        out, _ = translate_document(doc, "es", backend, counter=ws_counter,
                                    chunk_limit=100, params=FAST, sleep=NO_SLEEP)
        assert cipher_map(out.text).split() == text.split()

    def test_chunk_call_arithmetic(self, ws_counter):
        # 25 sentences x 40 tokens, limit 300 -> greedy chunks of 7,7,7,4
        sentences = []
        for i in range(25):
            words = [f"S{i}w{j}" for j in range(40)]
            sentences.append(" ".join(words) + ".")
        doc = Document(id="d3", lang="en", text=" ".join(sentences))
        backend = MockEchoBackend(PromptTemplate())
        out, records = translate_document(
            doc, "de", backend, counter=ws_counter, chunk_limit=300,
            params=FAST, sleep=NO_SLEEP)
        assert backend.calls == 4
        assert len(records) == 4
        assert out.text.split() == doc.text.split()

    def test_oversized_chunk_asks_for_twice_its_own_tokens(self, tmp_path, ws_counter):
        class Recording(MockEchoBackend):
            def __init__(self, template):
                super().__init__(template)
                self.max_tokens = []

            def complete(self, prompt, max_tokens=0, temperature=0.0):
                self.max_tokens.append(max_tokens)
                return super().complete(prompt, max_tokens, temperature)

        # a 450-word sentence is a chunk of its own at limit 300; the short
        # sentence after it makes a normal chunk
        long_sentence = " ".join(f"w{j}" for j in range(450)) + "."
        doc = Document(id="big", lang="en", text=long_sentence + " A short one.")
        backend = Recording(PromptTemplate())
        out, _ = translate_document(doc, "fr", backend, counter=ws_counter,
                                    chunk_limit=300, params=FAST, sleep=NO_SLEEP)
        assert backend.max_tokens == [900, 600]
        assert out.text.split() == doc.text.split()
        # a configured max_tokens is the floor
        backend = Recording(PromptTemplate())
        translate_document(doc, "fr", backend, counter=ws_counter, chunk_limit=300,
                           params=GenerationParams(max_tokens=1000, max_in_flight=1),
                           sleep=NO_SLEEP)
        assert backend.max_tokens == [1000, 1000]
        in_path = tmp_path / "in.jsonl"
        write_corpus(in_path, [doc, Document(id="small", lang="en", text="Tiny.")])
        manifest = translate_corpus(in_path, ["fr", "de"], Recording(PromptTemplate()),
                                    tmp_path / "out", counter=ws_counter, chunk_limit=300,
                                    params=FAST, sleep=NO_SLEEP)
        assert manifest.chunk_calls == 6
        assert manifest.oversized_chunks == 2  # one per committed pair of "big"

    def test_backend_failure_marks_document_failed(self, ws_counter):
        doc = Document(id="d4", lang="en", text="One fact. Two facts.")
        backend = FlakyBackend(PromptTemplate(), fail_times=99)
        out, records = translate_document(
            doc, "fr", backend, counter=ws_counter, params=FAST, sleep=NO_SLEEP)
        assert out is None
        assert [r.status for r in records] == ["failed"]
        assert records[0].error == "synthetic outage"

    def test_incomplete_chunks_trimmed_and_counted(self, ws_counter):
        class Truncating:
            def __init__(self, template):
                self.inner = MockEchoBackend(template)

            def complete(self, prompt, max_tokens=0, temperature=0.0):
                result = self.inner.complete(prompt, max_tokens, temperature)
                # cut the final sentence short of its period
                return BackendResult(text=result.text[:-1])

        doc = Document(id="d5", lang="en", text="First one. Second one.")
        out, records = translate_document(
            doc, "fr", Truncating(PromptTemplate()), counter=ws_counter,
            chunk_limit=1000, params=FAST, sleep=NO_SLEEP)
        assert out.text == "First one."
        assert records[0].status == "ok"
        assert records[0].dropped_sentences == 1

    def test_all_chunks_empty_yields_empty_document(self, ws_counter):
        class Useless:
            def complete(self, prompt, max_tokens=0, temperature=0.0):
                return BackendResult(text="never finishes a sentence")

        doc = Document(id="d6", lang="en", text="Something real.")
        out, records = translate_document(
            doc, "fr", Useless(), counter=ws_counter, params=FAST, sleep=NO_SLEEP)
        assert out is not None and out.text == ""
        assert [r.status for r in records] == ["empty"]

    def test_order_preserved_with_concurrency(self, ws_counter):
        sentences = [f"Chunk number {i} stands alone." for i in range(12)]
        doc = Document(id="d7", lang="en", text=" ".join(sentences))
        backend = MockEchoBackend(PromptTemplate())
        params = GenerationParams(retries=1, max_in_flight=8)
        out, _ = translate_document(doc, "es", backend, counter=ws_counter,
                                    chunk_limit=5, params=params, sleep=NO_SLEEP)
        assert out.text.split("\n") == sentences

    def test_echo_output_never_gains_tokens(self, ws_counter):
        # trimming only removes, so echo output token counts cannot grow
        rng = random.Random(71)
        backend = MockEchoBackend(PromptTemplate())
        for i in range(50):
            parts = []
            for s in range(rng.randint(1, 8)):
                words = [f"W{rng.randrange(10**4)}" for _ in range(rng.randint(1, 9))]
                parts.append(" ".join(words) + rng.choice([".", "!", "?", ""]))
            doc = Document(id=f"m{i}", lang="en", text=" ".join(parts))
            out, _ = translate_document(doc, "fr", backend, counter=ws_counter,
                                        chunk_limit=rng.choice([4, 10, 50]),
                                        params=FAST, sleep=NO_SLEEP)
            assert ws_counter.count(out.text) <= ws_counter.count(doc.text)


# ---- translate_corpus -------------------------------------------------------

def corpus_of(tmp_path, n_docs, sentences_per_doc=3):
    docs = []
    for i in range(n_docs):
        text = " ".join(f"Doc {i} sentence {j} content." for j in range(sentences_per_doc))
        docs.append(Document(id=f"doc{i:04d}", lang="en", text=text))
    path = tmp_path / "in.jsonl"
    write_corpus(path, docs)
    return path


class TestTranslateCorpus:
    def test_three_targets_full_run(self, tmp_path, ws_counter):
        in_path = corpus_of(tmp_path, 10)
        out_dir = tmp_path / "out"
        backend = MockEchoBackend(PromptTemplate())
        manifest = translate_corpus(
            in_path, ["fr", "de", "es"], backend, out_dir,
            counter=ws_counter, params=FAST, sleep=NO_SLEEP)
        assert manifest.ok == 30 and manifest.failed == 0
        for tgt in ("fr", "de", "es"):
            docs = list(read_corpus(out_dir / f"{tgt}.jsonl"))
            assert len(docs) == 10
            assert all(d.lang == tgt for d in docs)
            assert docs[0].id == "doc0000:" + tgt

    def test_repeated_target_is_refused_before_any_output(self, tmp_path, ws_counter):
        in_path = corpus_of(tmp_path, 3)
        backend = MockEchoBackend(PromptTemplate())
        with pytest.raises(ValueError, match="target 'fr' is given more than once"):
            translate_corpus(in_path, ["fr", "de", "fr"], backend, tmp_path / "out",
                             counter=ws_counter, params=FAST, sleep=NO_SLEEP)
        assert backend.calls == 0
        assert not (tmp_path / "out").exists()

    def test_one_failing_doc_recorded_not_lost(self, tmp_path, ws_counter):
        in_path = corpus_of(tmp_path, 10)
        out_dir = tmp_path / "out"

        class FailOn3(MockEchoBackend):
            def complete(self, prompt, max_tokens=0, temperature=0.0):
                if "Doc 3 " in prompt:
                    return BackendResult(error="synthetic")
                return super().complete(prompt, max_tokens, temperature)

        manifest = translate_corpus(
            in_path, ["fr"], FailOn3(PromptTemplate()), out_dir,
            counter=ws_counter, params=FAST, sleep=NO_SLEEP)
        assert manifest.ok == 9 and manifest.failed == 1
        out_ids = {d.id for d in read_corpus(out_dir / "fr.jsonl")}
        assert "doc0003:fr" not in out_ids and len(out_ids) == 9
        failures = [json.loads(l) for l in
                    (out_dir / "failures.jsonl").read_text().splitlines()]
        assert {f["doc_id"] for f in failures} == {"doc0003"}

    def test_existing_journal_requires_explicit_choice(self, tmp_path, ws_counter):
        in_path = corpus_of(tmp_path, 2)
        out_dir = tmp_path / "out"
        backend = MockEchoBackend(PromptTemplate())
        translate_corpus(in_path, ["fr"], backend, out_dir,
                         counter=ws_counter, params=FAST, sleep=NO_SLEEP)
        with pytest.raises(RuntimeError, match="resume"):
            translate_corpus(in_path, ["fr"], backend, out_dir,
                             counter=ws_counter, params=FAST, sleep=NO_SLEEP)

    def test_corrupt_journal_refuses_resume(self, tmp_path, ws_counter):
        in_path = corpus_of(tmp_path, 3)
        out_dir = tmp_path / "out"
        backend = MockEchoBackend(PromptTemplate())
        translate_corpus(in_path, ["fr"], backend, out_dir,
                         counter=ws_counter, params=FAST, sleep=NO_SLEEP)
        journal = out_dir / "journal.jsonl"
        lines = journal.read_text().splitlines()
        lines[0] = "garbage {{{"
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptError):
            translate_corpus(in_path, ["fr"], backend, out_dir, resume=True,
                             counter=ws_counter, params=FAST, sleep=NO_SLEEP)
        # restart wipes and recovers
        manifest = translate_corpus(in_path, ["fr"], backend, out_dir,
                                    restart=True, counter=ws_counter,
                                    params=FAST, sleep=NO_SLEEP)
        assert manifest.ok == 3

    @pytest.mark.parametrize("entry", [
        {"doc_id": "doc0000", "target": "fr"},
        {"doc_id": 0, "target": "fr", "status": "ok"},
        {"doc_id": "doc0000", "target": ["fr"], "status": "ok"},
        {"doc_id": "doc0000", "target": "fr", "status": "weird"},
    ], ids=["no_status", "int_doc_id", "list_target", "unknown_status"])
    def test_bad_journal_entry_refuses_resume_and_changes_nothing(
            self, tmp_path, ws_counter, entry):
        in_path = corpus_of(tmp_path, 3)
        out_dir = tmp_path / "out"
        backend = MockEchoBackend(PromptTemplate())
        translate_corpus(in_path, ["fr"], backend, out_dir,
                         counter=ws_counter, params=FAST, sleep=NO_SLEEP)
        journal = out_dir / "journal.jsonl"
        lines = journal.read_text().splitlines()
        lines[0] = json.dumps(entry)
        journal.write_text("\n".join(lines) + "\n")
        before = files_of(out_dir)
        with pytest.raises(JournalCorruptError, match=r"journal\.jsonl:1: "):
            translate_corpus(in_path, ["fr"], backend, out_dir, resume=True,
                             counter=ws_counter, params=FAST, sleep=NO_SLEEP)
        assert files_of(out_dir) == before

    @pytest.mark.parametrize("damage", ["deleted", "last_line_lost", "first_line_lost"])
    def test_resume_refuses_outputs_missing_journaled_lines(
            self, tmp_path, ws_counter, damage):
        in_path = corpus_of(tmp_path, 3)
        out_dir = tmp_path / "out"
        backend = MockEchoBackend(PromptTemplate())
        translate_corpus(in_path, ["fr", "de"], backend, out_dir,
                         counter=ws_counter, params=FAST, sleep=NO_SLEEP)
        out = out_dir / "fr.jsonl"
        lines = out.read_bytes().splitlines(keepends=True)
        if damage == "deleted":
            out.unlink()
        else:
            out.write_bytes(b"".join(lines[:-1] if damage == "last_line_lost" else lines[1:]))
        before = files_of(out_dir)
        with pytest.raises(JournalCorruptError, match=r"fr\.jsonl holds [02] of the 3 "):
            translate_corpus(in_path, ["fr", "de"], backend, out_dir, resume=True,
                             counter=ws_counter, params=FAST, sleep=NO_SLEEP)
        assert files_of(out_dir) == before

    def test_resume_refuses_failures_missing_journaled_pairs(self, tmp_path, ws_counter):
        in_path = corpus_of(tmp_path, 4)
        out_dir = tmp_path / "out"

        class FailOn1(MockEchoBackend):
            def complete(self, prompt, max_tokens=0, temperature=0.0):
                if "Doc 1 " in prompt:
                    return BackendResult(error="synthetic")
                return super().complete(prompt, max_tokens, temperature)

        translate_corpus(in_path, ["fr"], FailOn1(PromptTemplate()), out_dir,
                         counter=ws_counter, params=FAST, sleep=NO_SLEEP)
        (out_dir / "failures.jsonl").write_bytes(b"")
        before = files_of(out_dir)
        with pytest.raises(JournalCorruptError, match="failures"):
            translate_corpus(in_path, ["fr"], FailOn1(PromptTemplate()), out_dir,
                             resume=True, counter=ws_counter, params=FAST,
                             sleep=NO_SLEEP)
        assert files_of(out_dir) == before

    def test_resume_cuts_lines_flushed_but_not_journaled(self, tmp_path, ws_counter):
        # a crash after a pair's output and failure lines are flushed, before
        # its journal line, leaves lines the journal does not vouch for
        in_path = corpus_of(tmp_path, 8)
        names = ["fr.jsonl", "journal.jsonl", "failures.jsonl"]
        ref_dir, out_dir = tmp_path / "reference", tmp_path / "killed"
        translate_corpus(in_path, ["fr"], MockEchoBackend(PromptTemplate()),
                         ref_dir, counter=ws_counter, params=FAST, sleep=NO_SLEEP)
        with pytest.raises(Killed):
            translate_corpus(in_path, ["fr"], KillingBackend(PromptTemplate(), 5),
                             out_dir, counter=ws_counter, params=FAST,
                             sleep=NO_SLEEP)
        journaled = len((out_dir / "journal.jsonl").read_bytes().splitlines())
        assert journaled == 5
        with open(out_dir / "fr.jsonl", "ab") as fh:
            fh.write((ref_dir / "fr.jsonl").read_bytes().splitlines(keepends=True)[5])
        with open(out_dir / "failures.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"target": "fr", "doc_id": "doc0005", "chunk_index": 0,
                                 "status": "empty", "raw": "", "trimmed": "",
                                 "dropped_sentences": 1, "error": None}) + "\n")
        inodes = {name: (out_dir / name).stat().st_ino for name in names}
        translate_corpus(in_path, ["fr"], MockEchoBackend(PromptTemplate()),
                         out_dir, resume=True, counter=ws_counter, params=FAST,
                         sleep=NO_SLEEP)
        assert outputs(out_dir, names) == outputs(ref_dir, names)
        # cut in place: no file was replaced by a copy
        assert {name: (out_dir / name).stat().st_ino for name in names} == inodes
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(names)

    @pytest.mark.parametrize("kill_after", [1, 7, 16, 28])
    def test_kill_and_resume_byte_identical(self, tmp_path, ws_counter, kill_after):
        in_path = corpus_of(tmp_path, 12)
        targets = ["fr", "de"]

        class Killed(RuntimeError):
            pass

        class KillingBackend(MockEchoBackend):
            def __init__(self, template, fuse):
                super().__init__(template)
                self.fuse = fuse

            def complete(self, prompt, max_tokens=0, temperature=0.0):
                if self.calls >= self.fuse:
                    raise Killed()
                return super().complete(prompt, max_tokens, temperature)

        ref_dir = tmp_path / "reference"
        # chunk_limit 5 forces one call per sentence: 72 calls per full run
        translate_corpus(in_path, targets, MockEchoBackend(PromptTemplate()),
                         ref_dir, counter=ws_counter, chunk_limit=5,
                         params=FAST, sleep=NO_SLEEP)

        out_dir = tmp_path / f"killed{kill_after}"
        with pytest.raises(Killed):
            translate_corpus(in_path, targets,
                             KillingBackend(PromptTemplate(), kill_after),
                             out_dir, counter=ws_counter, chunk_limit=5,
                             params=FAST, sleep=NO_SLEEP)
        # simulate a torn final journal line from the crash
        with open(out_dir / "journal.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"doc_id": "doc')
        translate_corpus(in_path, targets, MockEchoBackend(PromptTemplate()),
                         out_dir, resume=True, counter=ws_counter, chunk_limit=5,
                         params=FAST, sleep=NO_SLEEP)

        for tgt in targets:
            assert (out_dir / f"{tgt}.jsonl").read_bytes() == \
                (ref_dir / f"{tgt}.jsonl").read_bytes()


# ---- the corpus-wide request window ------------------------------------------

WINDOW = GenerationParams(retries=3, backoff=0.0, max_in_flight=8)


class Killed(RuntimeError):
    pass


class KillingBackend(MockEchoBackend):
    """Echoes until ``fuse`` calls have been made, then raises."""

    def __init__(self, template, fuse):
        super().__init__(template)
        self.fuse = fuse

    def complete(self, prompt, max_tokens=0, temperature=0.0):
        if self.calls >= self.fuse:
            raise Killed()
        return super().complete(prompt, max_tokens, temperature)


def outputs(out_dir, names):
    return {name: (out_dir / name).read_bytes() for name in names}


def files_of(out_dir):
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


class TestRequestWindow:
    def test_window_spans_documents(self, tmp_path, ws_counter):
        # every call blocks until 8 are in flight at once; one-chunk documents
        # can only get there when the window holds several documents
        in_path = corpus_of(tmp_path, 16, sentences_per_doc=1)
        barrier = threading.Barrier(8, timeout=10)

        class Gathering(MockEchoBackend):
            def complete(self, prompt, max_tokens=0, temperature=0.0):
                barrier.wait()
                return super().complete(prompt, max_tokens, temperature)

        manifest = translate_corpus(
            in_path, ["fr", "de", "es"], Gathering(PromptTemplate()),
            tmp_path / "out", counter=ws_counter, params=WINDOW, sleep=NO_SLEEP)
        assert manifest.ok == 48 and manifest.failed == 0
        assert not barrier.broken

    @pytest.mark.parametrize("kill_after", [1, 7, 16, 28, 50])
    def test_kill_and_resume_with_window_matches_serial(
            self, tmp_path, ws_counter, kill_after):
        in_path = corpus_of(tmp_path, 12)
        targets = ["fr", "de"]
        names = ["fr.jsonl", "de.jsonl", "journal.jsonl", "failures.jsonl"]
        ref_dir = tmp_path / "reference"
        translate_corpus(in_path, targets, MockEchoBackend(PromptTemplate()),
                         ref_dir, counter=ws_counter, chunk_limit=5,
                         params=FAST, sleep=NO_SLEEP)

        out_dir = tmp_path / "killed"
        with pytest.raises(Killed):
            translate_corpus(in_path, targets,
                             KillingBackend(PromptTemplate(), kill_after),
                             out_dir, counter=ws_counter, chunk_limit=5,
                             params=WINDOW, sleep=NO_SLEEP)
        with open(out_dir / "journal.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"doc_id": "doc')
        translate_corpus(in_path, targets, MockEchoBackend(PromptTemplate()),
                         out_dir, resume=True, counter=ws_counter, chunk_limit=5,
                         params=WINDOW, sleep=NO_SLEEP)
        assert outputs(out_dir, names) == outputs(ref_dir, names)

    def test_failure_behind_finished_documents_commits_in_order(
            self, tmp_path, ws_counter):
        in_path = corpus_of(tmp_path, 12)
        names = ["fr.jsonl", "journal.jsonl", "failures.jsonl"]

        class FailOn2(MockEchoBackend):
            def __init__(self, template, wait_for_later):
                super().__init__(template)
                self.wait_for_later = wait_for_later
                self.later_done = threading.Event()
                self.waited = False

            def complete(self, prompt, max_tokens=0, temperature=0.0):
                if "Doc 2 " in prompt:
                    if self.wait_for_later:
                        self.waited = self.later_done.wait(timeout=5)
                    return BackendResult(error="synthetic")
                result = super().complete(prompt, max_tokens, temperature)
                if "Doc 6 " in prompt:
                    self.later_done.set()
                return result

        translate_corpus(in_path, ["fr"], FailOn2(PromptTemplate(), False),
                         tmp_path / "serial", counter=ws_counter, params=FAST,
                         sleep=NO_SLEEP)
        backend = FailOn2(PromptTemplate(), True)
        manifest = translate_corpus(in_path, ["fr"], backend, tmp_path / "window",
                                    counter=ws_counter, params=WINDOW,
                                    sleep=NO_SLEEP)
        assert backend.waited  # doc 6 was back before doc 2 failed
        assert manifest.ok == 11 and manifest.failed == 1
        assert outputs(tmp_path / "window", names) == \
            outputs(tmp_path / "serial", names)

    def test_stress_many_workers_commit_like_serial(self, tmp_path, ws_counter):
        # 16 worker loops on a small host, with a short switch interval:
        # a lost or misrouted result would change the outputs or hang
        import sys
        import time

        in_path = corpus_of(tmp_path, 40)
        names = ["fr.jsonl", "de.jsonl", "journal.jsonl", "failures.jsonl"]
        translate_corpus(in_path, ["fr", "de"], MockEchoBackend(PromptTemplate()),
                         tmp_path / "serial", counter=ws_counter, chunk_limit=5,
                         params=FAST, sleep=NO_SLEEP)
        rng = random.Random(3)

        class Jittery(MockEchoBackend):
            def complete(self, prompt, max_tokens=0, temperature=0.0):
                time.sleep(rng.random() * 0.002)
                return super().complete(prompt, max_tokens, temperature)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            backend = Jittery(PromptTemplate())
            started = time.monotonic()
            translate_corpus(in_path, ["fr", "de"], backend, tmp_path / "window",
                             counter=ws_counter, chunk_limit=5, sleep=NO_SLEEP,
                             params=GenerationParams(retries=1, max_in_flight=16))
        finally:
            sys.setswitchinterval(interval)
        assert time.monotonic() - started < 30
        assert backend.calls == 40 * 2 * 3  # three 5-token chunks a document
        assert outputs(tmp_path / "window", names) == outputs(tmp_path / "serial", names)

    def test_each_document_chunked_once(self, tmp_path, ws_counter, monkeypatch):
        import transmix.translate as translate_mod

        calls = []
        original = translate_mod.chunk_document

        def counting(doc, *args, **kwargs):
            calls.append(doc.id)
            return original(doc, *args, **kwargs)

        monkeypatch.setattr(translate_mod, "chunk_document", counting)
        in_path = corpus_of(tmp_path, 5)
        out_dir = tmp_path / "out"
        translate_corpus(in_path, ["fr", "de", "es"], MockEchoBackend(PromptTemplate()),
                         out_dir, counter=ws_counter, params=WINDOW, sleep=NO_SLEEP)
        assert calls == [f"doc{i:04d}" for i in range(5)]
        calls.clear()
        manifest = translate_corpus(in_path, ["fr", "de", "es"],
                                    MockEchoBackend(PromptTemplate()), out_dir,
                                    resume=True, counter=ws_counter, params=WINDOW,
                                    sleep=NO_SLEEP)
        assert calls == [] and manifest.skipped_resume == 15

    def test_one_thread_pool_per_corpus_run(self, tmp_path, ws_counter, monkeypatch):
        import transmix.translate as translate_mod

        pools = []

        class CountedPool(translate_mod.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(translate_mod, "ThreadPoolExecutor", CountedPool)
        translate_corpus(corpus_of(tmp_path, 6), ["fr", "de"],
                         MockEchoBackend(PromptTemplate()), tmp_path / "out",
                         counter=ws_counter, chunk_limit=5, params=WINDOW,
                         sleep=NO_SLEEP)
        assert len(pools) == 1

    def test_resume_keeps_lines_holding_unicode_line_separators(
            self, tmp_path, ws_counter):
        # U+2028 and U+0085 stay raw inside JSON strings; resume must not
        # split output lines on them
        docs = [Document(id=f"u{i}", lang="en",
                         text=f"Part {i} one. Part two.\x85Part three.")
                for i in range(6)]
        in_path = tmp_path / "in.jsonl"
        write_corpus(in_path, docs)
        ref_dir, out_dir = tmp_path / "reference", tmp_path / "killed"
        translate_corpus(in_path, ["fr"], MockEchoBackend(PromptTemplate()),
                         ref_dir, counter=ws_counter, params=FAST, sleep=NO_SLEEP)
        with pytest.raises(Killed):
            translate_corpus(in_path, ["fr"], KillingBackend(PromptTemplate(), 4),
                             out_dir, counter=ws_counter, params=FAST,
                             sleep=NO_SLEEP)
        translate_corpus(in_path, ["fr"], MockEchoBackend(PromptTemplate()),
                         out_dir, resume=True, counter=ws_counter, params=FAST,
                         sleep=NO_SLEEP)
        assert (out_dir / "fr.jsonl").read_bytes() == (ref_dir / "fr.jsonl").read_bytes()


# translates argv[1] into fr and de under argv[2], flushing every three
# pairs, and kills itself with SIGKILL at the journal write of the third
# flush: after that flush's output lines, before its journal lines
KILLED_TRANSLATE = """
import os, signal, sys
from transmix import translate
from transmix.tokenizer import WhitespaceCounter

translate._COMMIT_PAIRS, translate._COMMIT_SECONDS = 3, 3600.0
open_store = translate._RunStore.__init__

def killing_store(self, *args):
    open_store(self, *args)
    write, calls = self.journal.write, []

    def killing_write(text):
        calls.append(text)
        if len(calls) == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return write(text)

    self.journal.write = killing_write

translate._RunStore.__init__ = killing_store
translate.translate_corpus(
    sys.argv[1], ["fr", "de"], translate.MockEchoBackend(translate.PromptTemplate()),
    sys.argv[2], counter=WhitespaceCounter(), chunk_limit=5,
    params=translate.GenerationParams(retries=1, backoff=0.0, max_in_flight=8))
"""


def test_kill_between_output_and_journal_flush_resumes_like_serial(tmp_path, ws_counter):
    in_path = corpus_of(tmp_path, 12)
    names = ["fr.jsonl", "de.jsonl", "journal.jsonl", "failures.jsonl"]
    ref_dir, out_dir = tmp_path / "serial", tmp_path / "killed"
    translate_corpus(in_path, ["fr", "de"], MockEchoBackend(PromptTemplate()), ref_dir,
                     counter=ws_counter, chunk_limit=5, params=FAST, sleep=NO_SLEEP)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(transmix.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", KILLED_TRANSLATE, str(in_path),
                            str(out_dir)], env=env, timeout=60)
    assert child.returncode == -signal.SIGKILL
    lines = {name: len((out_dir / name).read_bytes().splitlines()) for name in names}
    # two flushes journaled; the third flush's output lines are on disk
    assert lines["journal.jsonl"] == 6
    assert lines["fr.jsonl"] + lines["de.jsonl"] == 9
    translate_corpus(in_path, ["fr", "de"], MockEchoBackend(PromptTemplate()), out_dir,
                     resume=True, counter=ws_counter, chunk_limit=5, params=WINDOW,
                     sleep=NO_SLEEP)
    assert outputs(out_dir, names) == outputs(ref_dir, names)


@pytest.mark.parametrize("backend_cls", [MockEchoBackend, MockCipherBackend])
def test_mock_call_count_is_exact_under_threads(backend_cls):
    import sys

    template = PromptTemplate()
    backend = backend_cls(template)
    prompt = template.render("Count me.", "fr")
    per_thread, n_threads = 2000, 8

    def hammer():
        for _ in range(per_thread):
            backend.complete(prompt)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert backend.calls == per_thread * n_threads


# ---- HTTP backend -----------------------------------------------------------

class _Server:
    def __init__(self, handler):
        self.httpd = HTTPServer(("127.0.0.1", 0), handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.httpd.server_address[1]}/v1/completions"

    def stop(self):
        self.httpd.shutdown()
        self.httpd.server_close()


# (prompt marker, status, Retry-After header or None) of completion_server's errors
ERROR_REPLIES = [
    ("FAIL", 500, None), ("REFUSE", 400, None),
    ("BUSY", 429, "7"), ("UNAVAILABLE", 503, " 7 "), ("BRIEF", 429, "1"),
    ("CRASH", 500, "7"), ("DATED", 429, "Wed, 21 Oct 2026 07:28:00 GMT"),
    ("GARBLED", 503, "7.5"), ("FOREVER", 429, "9" * 10),
]


@pytest.fixture
def completion_server():
    received = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            body = json.loads(self.rfile.read(length).decode("utf-8"))
            received.append(body)
            for marker, status, retry_after in ERROR_REPLIES:
                if marker in body["prompt"]:
                    self.send_response(status)
                    if retry_after is not None:
                        self.send_header("Retry-After", retry_after)
                    self.end_headers()
                    return
            payload = {"choices": [{"text": "Une réponse complète."}]}
            data = json.dumps(payload).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = _Server(Handler)
    yield server, received
    server.stop()


class TestHttpBackend:
    def test_wire_format_and_response_path(self, completion_server):
        server, received = completion_server
        backend = HttpCompletionBackend(server.url, model="test-model")
        result = backend.complete("Translate this.", max_tokens=64, temperature=0.25)
        assert result.ok and result.text == "Une réponse complète."
        assert received[-1] == {
            "model": "test-model",
            "prompt": "Translate this.",
            "max_tokens": 64,
            "temperature": 0.25,
        }

    def test_http_error_is_typed_failure(self, completion_server):
        server, _ = completion_server
        backend = HttpCompletionBackend(server.url, model="m")
        result = backend.complete("FAIL please")
        assert not result.ok and "500" in result.error

    @pytest.mark.parametrize("prompt, status, requests, delays", [
        ("FAIL please", "500", 3, [1.0, 2.0]),  # a server error may pass on a retry
        ("REFUSE please", "400", 1, []),  # a 400 refuses the request itself
    ])
    def test_only_retryable_http_errors_are_retried(self, completion_server,
                                                     prompt, status, requests, delays):
        server, received = completion_server
        backend = HttpCompletionBackend(server.url, model="m")
        slept = []
        result = complete_with_retries(backend, prompt, 10, 0.0, retries=3, backoff=1.0,
                                       sleep=slept.append)
        assert not result.ok and status in result.error
        assert (len(received), slept) == (requests, delays)

    def test_retries_wait_as_long_as_retry_after_asks(self, completion_server):
        server, received = completion_server
        backend = HttpCompletionBackend(server.url, model="m")
        for prompt, retry_after, delays in [
            ("BUSY please", 7.0, [7.0, 7.0]),
            ("UNAVAILABLE please", 7.0, [7.0, 7.0]),
            ("BRIEF please", 1.0, [1.0, 2.0]),  # the backoff when it is the longer wait
            ("CRASH please", None, [1.0, 2.0]),  # a 500 asks for no wait
            ("DATED please", None, [1.0, 2.0]),  # an HTTP-date is ignored
            ("GARBLED please", None, [1.0, 2.0]),
            ("FOREVER please", None, [1.0, 2.0]),  # more than time.sleep takes
        ]:
            assert backend.complete(prompt).retry_after == retry_after, prompt
            received.clear()
            slept = []
            result = complete_with_retries(backend, prompt, 10, 0.0, retries=3, backoff=1.0,
                                           sleep=slept.append)
            assert not result.ok and result.retryable, prompt
            assert (len(received), slept) == (3, delays), prompt

    def test_bad_response_path(self, completion_server):
        server, _ = completion_server
        backend = HttpCompletionBackend(server.url, model="m",
                                        response_path="data.0.nope")
        result = backend.complete("hello")
        assert not result.ok and "nope" in result.error

    def test_document_translation_over_http(self, completion_server, ws_counter):
        server, _ = completion_server
        backend = HttpCompletionBackend(server.url, model="m")
        doc = Document(id="h", lang="en", text="A sentence to send away.")
        out, records = translate_document(doc, "fr", backend, counter=ws_counter,
                                          params=FAST, sleep=NO_SLEEP)
        assert out.text == "Une réponse complète."
        assert records[0].status == "ok"

    @pytest.mark.parametrize("response_path", ["choices.0.text", "choices.0.nope"])
    def test_backend_built_from_config(self, completion_server, tmp_path, response_path):
        from transmix.cli import main
        from transmix.config import load_config

        server, received = completion_server
        ini = tmp_path / "pipeline.ini"
        ini.write_text(
            f"[translate]\ntargets = fr\nbackend = http-completion\nendpoint = {server.url}\n"
            f"model = wmt-model\nresponse_path = {response_path}\ntimeout = 7.5\n"
            "retries = 1\n", encoding="utf-8")
        backend = load_config(ini).make_backend()
        assert isinstance(backend, HttpCompletionBackend)
        assert (backend.endpoint, backend.model, backend.response_path, backend.timeout) == (
            server.url, "wmt-model", response_path, 7.5)

        write_corpus(tmp_path / "in.jsonl",
                     [Document(id="h", lang="en", text="A sentence to send away.")])
        out = tmp_path / "out"
        assert main(["translate", str(tmp_path / "in.jsonl"), "--out-dir", str(out),
                     "--config", str(ini)]) == 0
        assert received[-1]["model"] == "wmt-model"
        translated = [d.text for d in read_corpus(out / "fr.jsonl")]
        failures = (out / "failures.jsonl").read_text(encoding="utf-8")
        if response_path == "choices.0.text":
            assert translated == ["Une réponse complète."] and failures == ""
        else:
            assert translated == [] and "'choices.0.nope'" in failures

    def test_prior_probe_over_http(self, completion_server):
        from transmix.probe import probe_prior, train_langid

        server, received = completion_server
        backend = HttpCompletionBackend(server.url, model="m")
        model = train_langid()
        report, _ = probe_prior(backend, model, n=6, max_tokens=300,
                                temperature=1.0)
        assert report.obtained == 6
        assert report.percentages["fr"] == 100.0  # canned reply is French
        assert received[-1]["prompt"] == ""  # unconditional generation
        assert received[-1]["max_tokens"] == 300
        assert received[-1]["temperature"] == 1.0
