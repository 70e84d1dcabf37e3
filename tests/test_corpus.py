"""Corpus I/O, statistics, and the Table-style consistency identity."""

import json
import os
import random

import pytest

from transmix.corpus import (
    CorpusFormatError,
    CorpusRereadError,
    Document,
    ReadError,
    _parse_line,
    compute_stats,
    consistent,
    implied_doc_count,
    open_output,
    read_at,
    read_back_lines,
    read_corpus,
    scan_corpus,
    TwoPassCorpus,
    write_corpus,
)


def test_document_rejects_empty_id():
    with pytest.raises(ValueError):
        Document(id="", lang="en", text="x")


def test_document_rejects_unknown_lang():
    with pytest.raises(ValueError):
        Document(id="a", lang="xx", text="x")


class TestReadCorpus:
    def test_three_valid_lines_in_order(self, make_corpus):
        docs = [Document(id=f"d{i}", lang="en", text=f"text {i}") for i in range(3)]
        path = make_corpus(docs)
        assert [d.id for d in read_corpus(path)] == ["d0", "d1", "d2"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        errors = []
        assert list(read_corpus(path, on_error=errors.append)) == []
        assert errors == []

    def test_lenient_mode_reports_malformed_line(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        good = Document(id="ok", lang="fr", text="bonjour").to_json()
        path.write_text(good + "\n{not json}\n", encoding="utf-8")
        errors = []
        docs = list(read_corpus(path, on_error=errors.append))
        assert [d.id for d in docs] == ["ok"]
        assert len(errors) == 1
        assert errors[0].line_no == 2

    def test_strict_mode_aborts(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "lang": "en"}\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="text"):
            list(read_corpus(path, strict=True))

    def test_strict_mode_rejects_duplicate_ids(self, make_corpus):
        docs = [Document(id="same", lang="en", text="a"),
                Document(id="same", lang="en", text="b")]
        path = make_corpus(docs)
        with pytest.raises(CorpusFormatError, match="duplicate"):
            list(read_corpus(path, strict=True))
        # lenient mode streams both and leaves policy to the consumer
        assert len(list(read_corpus(path))) == 2

    def test_lenient_mode_reports_a_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        lines = [Document(id=f"d{i}", lang="fr", text="café").to_json() for i in range(3)]
        path.write_bytes(b"\n".join([lines[0].encode(), lines[1].encode("latin-1"),
                                     lines[2].encode()]) + b"\n")
        errors = []
        assert [d.id for d in read_corpus(path, on_error=errors.append)] == ["d0", "d2"]
        assert [(e.line_no, e.raw) for e in errors] == [(2, lines[1].replace("é", "�"))]
        assert "can't decode byte 0xe9" in errors[0].message

    def test_strict_mode_aborts_on_a_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        doc = Document(id="d0", lang="fr", text="café").to_json()
        path.write_bytes(doc.encode() + b"\n" + doc.encode("latin-1") + b"\n")
        with pytest.raises(CorpusFormatError) as raised:
            list(read_corpus(path, strict=True))
        assert str(raised.value).startswith(f"{path}:2: 'utf-8' codec can't decode byte 0xe9")

    def test_header_line_skipped_and_readable(self, make_corpus):
        header = json.dumps({"_header": True, "tokenizer_fingerprint": "ws:1"})
        path = make_corpus([header, Document(id="d0", lang="en", text="t")])
        assert [d.id for d in read_corpus(path, strict=True)] == ["d0"]


def test_round_trip_field_for_field(tmp_path):
    rng = random.Random(7)
    docs = [
        Document(
            id=f"d{i}",
            lang=rng.choice(["en", "fr", "de", "es", "other"]),
            text=" ".join(f"w{rng.randrange(100)}" for _ in range(rng.randint(1, 30))),
            source="unit-test" if rng.random() < 0.5 else None,
        )
        for i in range(50)
    ]
    path = tmp_path / "roundtrip.jsonl"
    write_corpus(path, docs)
    assert list(read_corpus(path)) == docs


def test_unicode_survives_round_trip(tmp_path):
    doc = Document(id="u", lang="de", text="Grüße aus Köln — ß, ü, €")
    path = tmp_path / "u.jsonl"
    write_corpus(path, [doc])
    assert "Grüße" in path.read_text(encoding="utf-8")  # not escaped
    assert list(read_corpus(path)) == [doc]


def text_in_mode(mode, text):
    return text.encode("utf-8") if mode == "wb" else text


@pytest.mark.parametrize("mode", ["w", "wb"])
def test_open_output_names_the_file_once_it_is_written(tmp_path, mode):
    path = tmp_path / "out.jsonl"
    with open_output(path, mode) as fh:
        fh.write(text_in_mode(mode, "Grüße\n"))
        assert not path.exists()
    assert path.read_bytes() == "Grüße\n".encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]


@pytest.mark.parametrize("mode", ["w", "wb"])
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_open_output_that_fails_leaves_the_earlier_file(tmp_path, mode, error):
    path = tmp_path / "out.jsonl"
    with open_output(path, mode) as fh:
        fh.write(text_in_mode(mode, "first\n"))
    with pytest.raises(error):
        with open_output(path, mode) as fh:
            fh.write(text_in_mode(mode, "second, torn"))
            raise error
    assert path.read_bytes() == b"first\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]


@pytest.mark.parametrize("kind", ["directory", "fifo", "symlink"])
def test_open_output_refuses_a_target_that_is_not_a_regular_file(tmp_path, kind):
    # a rename would replace it, as it would replace the link /dev/stdout
    path = tmp_path / "out"
    if kind == "directory":
        path.mkdir()
    elif kind == "fifo":
        os.mkfifo(path)
    else:
        (tmp_path / "target").write_text("kept\n", encoding="utf-8")
        path.symlink_to("target")
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(FileExistsError, match="not a regular file"):
        with open_output(path):
            pass
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert {"directory": path.is_dir, "fifo": path.is_fifo, "symlink": path.is_symlink}[kind]()
    if kind == "symlink":
        assert path.read_text(encoding="utf-8") == "kept\n"


def reference_read_corpus(path, strict=False, on_error=None):
    """The text-mode reader the byte reader replaced, kept as the reference."""
    seen_ids = set() if strict else None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line_no == 1:
                try:
                    obj = json.loads(line)
                    if isinstance(obj, dict) and obj.get("_header"):
                        continue
                except json.JSONDecodeError:
                    pass
            try:
                doc = _parse_line(line)
                if seen_ids is not None:
                    if doc.id in seen_ids:
                        raise ValueError(f"duplicate document id {doc.id!r}")
                    seen_ids.add(doc.id)
                yield doc
            except (ValueError, KeyError) as exc:
                if strict:
                    raise CorpusFormatError(f"{path}:{line_no}: {exc}") from exc
                if on_error is not None:
                    on_error(ReadError(line_no=line_no, message=str(exc), raw=line))


# characters that text mode keeps inside a line but str.strip() or
# str.splitlines() treat as whitespace or breaks
INLINE_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\u3000"]
BLANKS = ["", " ", "\t", "  \t ", *INLINE_BREAKS]
MALFORMED = ["{not json}", "[1, 2]", '{"id": "x", "lang": "en"}', '"text"',
             '{"id": "", "lang": "en", "text": "t"}', '{"id": "a", "lang": "xx", "text": "t"}',
             '{"_header": true}x']


def fuzz_corpus_bytes(rng: random.Random) -> bytes:
    lines = []
    if rng.random() < 0.5:
        lines.append(json.dumps({"_header": True, "tokenizer_fingerprint": "ws:1"}))
    for i in range(rng.randint(0, 40)):
        kind = rng.random()
        if kind < 0.15:
            lines.append(rng.choice(BLANKS))
        elif kind < 0.25:
            lines.append(rng.choice(MALFORMED))
        elif kind < 0.3:
            lines.append(json.dumps({"_header": True}))  # a header not on line 1
        else:
            words = [rng.choice(["w", "ü", "東京", "😀", *INLINE_BREAKS, "\r", "\n"])
                     for _ in range(rng.randint(1, 8))]
            doc_id = f"d{rng.randrange(30)}"  # some ids repeat
            line = json.dumps({"id": doc_id, "lang": rng.choice(["en", "fr"]),
                               "text": "".join(words)}, ensure_ascii=False)
            lines.append(rng.choice(["", " ", "\u3000"]) + line + rng.choice(["", " \t"]))
    ends = [rng.choice(["\n", "\r\n", "\r"]) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and rng.random() < 0.3:
        text = text[:-len(ends[-1])]  # no terminator on the last line
    return text.encode("utf-8")


def outcome(reader, path, strict):
    errors = []
    try:
        docs = list(reader(path, strict=strict, on_error=errors.append))
    except CorpusFormatError as exc:
        return "raised", str(exc), errors
    return docs, None, errors


class TestByteReader:
    def test_equals_text_mode_reader_on_fuzzed_files(self, tmp_path):
        rng = random.Random(61)
        path = tmp_path / "fuzz.jsonl"
        seen = set()
        for _ in range(400):
            data = fuzz_corpus_bytes(rng)
            path.write_bytes(data)
            for strict in (False, True):
                expected = outcome(reference_read_corpus, path, strict)
                assert outcome(read_corpus, path, strict) == expected, data
                seen.add((strict, expected[0] == "raised", bool(expected[2])))
            scanned = list(scan_corpus(path))
            assert [doc for _, _, doc in scanned] == list(reference_read_corpus(path))
            assert [_parse_line(line) for _, line, _ in scanned] == \
                [doc for _, _, doc in scanned]
            assert read_at(path, [off for off, _, _ in scanned]) == \
                [line for _, line, _ in scanned]
            assert read_at(path, [off for off, _, _ in reversed(scanned)]) == \
                [line for _, line, _ in reversed(scanned)]
        # the fuzz reaches errors, strict aborts and clean files
        assert {(False, False, True), (True, True, False), (False, False, False)} <= seen

    @pytest.mark.parametrize("data", [
        b"", b"\r", b"\n", b"\r\n", b"\r\r\n", b"\n\r", b"x\r", b"x\r\r", b"x",
        '{"id": "a", "lang": "en", "text": "t"}\r\r{bad}\r\n\u2028\n'.encode(),
        '{"id": "a", "lang": "en", "text": "t"}\r{bad}\r'.encode(),
    ])
    def test_equals_text_mode_reader_on_line_ends(self, tmp_path, data):
        path = tmp_path / "ends.jsonl"
        path.write_bytes(data)
        assert outcome(read_corpus, path, False) == outcome(reference_read_corpus, path, False)

    def test_offsets_point_at_the_lines(self, tmp_path):
        docs = [Document(id=f"d{i}", lang="en", text=f"t{i}\u2028x") for i in range(3)]
        lines = [d.to_json().encode() for d in docs]
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\r\n".join(lines[:2]) + b"\r\r" + lines[2])
        offsets = [off for off, _, _ in scan_corpus(path)]
        assert offsets == [0, len(lines[0]) + 2, len(lines[0]) + len(lines[1]) + 4]
        assert read_at(path, offsets[::-1]) == [d.to_json() for d in docs[::-1]]
        assert read_at(path, [path.stat().st_size]) == [""]


class TestTwoPassCorpus:
    def docs(self, count):
        rng = random.Random(29)
        return [Document(id=f"d{i}", lang="en",
                         text=" ".join(rng.choice(["a", "bb", "c\u2028c"]) for _ in range(9)))
                for i in range(count)]

    def test_read_back_of_shuffled_indices_equals_the_first_pass(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [json.dumps({"_header": True}), *self.docs(600)])
        src = TwoPassCorpus(path)
        first = list(src.documents())
        assert len(src) == len(first) == 600
        indices = list(range(600)) + [5, 5, 599]
        random.Random(3).shuffle(indices)
        lines = [d.to_json() for d in first]  # write_corpus wrote these lines
        assert src.read_back(indices) == [lines[i] for i in indices]
        assert src.read_back([]) == []
        # 600 lines: three blocks
        assert list(read_back_lines([src], range(600))) == lines

    def test_a_moved_line_is_a_changed_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, self.docs(4))
        src = TwoPassCorpus(path)
        list(src.documents())
        st = path.stat()
        # the same size, every line one byte later: the offsets of the first
        # pass land on line ends, which hold no document
        path.write_bytes(b" " + path.read_bytes()[:-1])
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        with pytest.raises(CorpusRereadError, match="changed between reads"):
            src.read_back([2])


class TestComputeStats:
    def test_single_doc(self, ws_counter):
        stats = compute_stats(
            [Document(id="a", lang="en", text="one two three four five "
                                              "six seven eight nine ten")],
            ws_counter)
        row = stats.per_language["en"]
        assert (row.token_total, row.doc_count, row.avg_doc_length) == (10, 1, 10.0)

    def test_matches_independent_summation(self, ws_counter):
        rng = random.Random(11)
        docs, expected = [], {}
        for i in range(100):
            lang = rng.choice(["en", "fr", "de", "es"])
            n = rng.randint(1, 80)
            docs.append(Document(id=f"d{i}", lang=lang, text=" ".join(["tok"] * n)))
            tot, cnt = expected.get(lang, (0, 0))
            expected[lang] = (tot + n, cnt + 1)
        stats = compute_stats(docs, ws_counter)
        for lang, (tot, cnt) in expected.items():
            row = stats.per_language[lang]
            assert (row.token_total, row.doc_count) == (tot, cnt)
            assert row.avg_doc_length == pytest.approx(tot / cnt)
        overall = stats.overall
        assert overall.token_total == sum(t for t, _ in expected.values())
        assert overall.doc_count == 100

    def test_order_independent(self, ws_counter):
        rng = random.Random(12)
        docs = [Document(id=f"d{i}", lang=rng.choice(["en", "fr"]),
                         text=" ".join(["x"] * rng.randint(1, 20)))
                for i in range(60)]
        a = compute_stats(docs, ws_counter)
        shuffled = docs[:]
        rng.shuffle(shuffled)
        b = compute_stats(shuffled, ws_counter)
        assert a.per_language == b.per_language

    def test_consistency_identity(self, ws_counter):
        rng = random.Random(13)
        docs = [Document(id=f"d{i}", lang="es",
                         text=" ".join(["t"] * rng.randint(1, 99)))
                for i in range(200)]
        stats = compute_stats(docs, ws_counter)
        row = stats.per_language["es"]
        assert consistent(row.token_total, row.doc_count, row.avg_doc_length)

    def test_report_shape(self, ws_counter):
        stats = compute_stats(
            [Document(id="a", lang="fr", text="un deux trois")], ws_counter)
        report = stats.to_report()
        assert report["fr"] == {"tokens": 3, "docs": 1, "avg_doc_length": 3.0}
        assert report["total"]["docs"] == 1
        assert json.dumps(report)  # serializable


def test_implied_doc_count_identity():
    # per-language (tokens, average length) pairs from the published corpus card
    rows = {
        "en": (63.4e9, 1171.5),
        "fr": (76.3e9, 1408.7),
        "de": (73.9e9, 1365.4),
        "es": (72.9e9, 1383.3),
        "total": (286.5e9, 1338.6),
    }
    for tokens, avg in rows.values():
        implied = implied_doc_count(tokens, avg)
        assert abs(implied - tokens / avg) / (tokens / avg) < 0.005
        assert consistent(tokens, round(implied), avg)
    en_docs = implied_doc_count(*rows["en"])
    assert en_docs == pytest.approx(54e6, rel=0.02)
