"""Sequence packing tests against a naive materialize-everything oracle."""

import random
import time

import numpy as np
import pytest

from transmix.corpus import Document
from transmix.pack import (
    DTYPE_U32,
    HEADER,
    MAGIC,
    VERSION,
    PackFormatError,
    PackManifest,
    pack_stream,
    sequence_count,
    unpack_inspect,
)


def oracle_pack(docs, counter, length):
    """Naive reference: build the full token vector, then slice."""
    stream = []
    skipped = 0
    for doc in docs:
        ids = counter.encode(doc.text)
        if not ids:
            skipped += 1
            continue
        stream.extend(ids)
        stream.append(counter.eos_id)
    n_seq = len(stream) // length
    sequences = [stream[i * length:(i + 1) * length] for i in range(n_seq)]
    remainder = len(stream) - n_seq * length
    return sequences, remainder, skipped


def doc_of(n_tokens, i=0):
    return Document(id=f"d{i}", lang="en",
                    text=" ".join(f"t{i}x{j}" for j in range(n_tokens)))


class TestPackStream:
    def test_two_1023_token_docs_fill_one_sequence(self, ws_counter, tmp_path):
        docs = [doc_of(1023, 0), doc_of(1023, 1)]
        manifest = pack_stream(docs, ws_counter, tmp_path / "t.bin",
                               sequence_length=2048)
        assert manifest.sequence_count == 1
        assert manifest.dropped_remainder == 0
        assert manifest.eos_count == 2
        assert manifest.total_doc_tokens == 2046

    def test_empty_stream(self, ws_counter, tmp_path):
        manifest = pack_stream([], ws_counter, tmp_path / "t.bin")
        assert manifest.sequence_count == 0
        assert manifest.identity_holds()

    def test_empty_documents_skipped_and_counted(self, ws_counter, tmp_path):
        docs = [doc_of(10, 0), Document(id="e", lang="en", text="   "), doc_of(5, 1)]
        manifest = pack_stream(docs, ws_counter, tmp_path / "t.bin",
                               sequence_length=8)
        assert manifest.skipped_empty_docs == 1
        assert manifest.eos_count == 2

    def test_matches_naive_oracle_on_random_streams(self, ws_counter, tmp_path):
        rng = random.Random(31)
        for trial in range(25):
            docs = [doc_of(rng.randint(0, 40), i) for i in range(rng.randint(0, 30))]
            length = rng.choice([8, 16, 32, 64])
            path = tmp_path / f"t{trial}.bin"
            manifest = pack_stream(docs, ws_counter, path, sequence_length=length)
            expected_seqs, remainder, skipped = oracle_pack(docs, ws_counter, length)
            got = unpack_inspect(path, len(expected_seqs) + 1, expected_length=length)
            assert got == expected_seqs
            assert manifest.sequence_count == len(expected_seqs)
            assert manifest.dropped_remainder == remainder
            assert manifest.skipped_empty_docs == skipped
            assert manifest.identity_holds()

    def test_huge_document_packs_in_linear_time(self, ws_counter, tmp_path):
        # one document of 2M tokens is about 1,000 sequences; copying the
        # rest of the buffer once per sequence made this quadratic
        text = " ".join(f"w{i % 1000}" for i in range(2_000_000))
        start = time.process_time()
        ids = ws_counter.encode(text)
        encode_s = time.process_time() - start
        path = tmp_path / "t.bin"
        start = time.process_time()
        manifest = pack_stream([Document(id="huge", lang="en", text=text)], ws_counter,
                               path, sequence_length=2048)
        pack_s = time.process_time() - start
        assert pack_s < 3 * encode_s
        assert manifest.sequence_count == (len(ids) + 1) // 2048
        payload = path.read_bytes()[32:]
        assert payload == np.asarray(ids[:len(payload) // 4], dtype="<u4").tobytes()

    def test_identity_violation_raises(self, ws_counter, tmp_path, monkeypatch):
        monkeypatch.setattr(PackManifest, "identity_holds", lambda self: False)
        with pytest.raises(RuntimeError, match="token conservation identity violated"):
            pack_stream([doc_of(10)], ws_counter, tmp_path / "t.bin")

    def test_eos_between_consecutive_docs(self, ws_counter, tmp_path):
        docs = [doc_of(3, i) for i in range(20)]
        path = tmp_path / "t.bin"
        pack_stream(docs, ws_counter, path, sequence_length=16)
        flat = [t for seq in unpack_inspect(path, 100) for t in seq]
        # every doc contributes 3 ids then one EOS: positions 3, 7, 11, ...
        for k in range(len(flat) // 4):
            segment = flat[k * 4:(k + 1) * 4]
            assert segment[3] == ws_counter.eos_id
            assert ws_counter.eos_id not in segment[:3]

    def test_byte_identical_across_runs(self, ws_counter, tmp_path):
        docs = [doc_of(17, i) for i in range(50)]
        pack_stream(docs, ws_counter, tmp_path / "a.bin", sequence_length=64)
        pack_stream(docs, ws_counter, tmp_path / "b.bin", sequence_length=64)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_manifest_records_fingerprint_and_length(self, ws_counter, tmp_path):
        manifest = pack_stream([doc_of(4)], ws_counter, tmp_path / "t.bin",
                               sequence_length=4)
        assert manifest.tokenizer_fingerprint == ws_counter.fingerprint
        assert manifest.sequence_length == 4

    def test_batch_token_arithmetic(self):
        # 2048-token sequences x 1024-sequence batches: ~2.1M tokens each step
        assert 2048 * 1024 == 2_097_152
        assert abs(2048 * 1024 - 2.0e6) / 2.0e6 < 0.05


class TestUnpackInspect:
    def test_round_trip(self, ws_counter, tmp_path):
        docs = [doc_of(10, i) for i in range(10)]
        path = tmp_path / "t.bin"
        pack_stream(docs, ws_counter, path, sequence_length=16)
        first = unpack_inspect(path, 2)
        assert len(first) == 2
        assert all(len(seq) == 16 for seq in first)

    def test_truncated_file_is_an_error(self, ws_counter, tmp_path):
        docs = [doc_of(10, i) for i in range(10)]
        path = tmp_path / "t.bin"
        pack_stream(docs, ws_counter, path, sequence_length=16)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(PackFormatError, match="truncated"):
            unpack_inspect(path, 1)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(PackFormatError, match="magic"):
            unpack_inspect(path, 1)

    def test_header_length_mismatch(self, ws_counter, tmp_path):
        path = tmp_path / "t.bin"
        pack_stream([doc_of(10)], ws_counter, path, sequence_length=8)
        with pytest.raises(PackFormatError, match="sequence length"):
            unpack_inspect(path, 1, expected_length=2048)

    def test_short_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"TWPK")
        with pytest.raises(PackFormatError, match="short"):
            unpack_inspect(path, 1)

    def test_readers_agree_on_a_cut_file(self, ws_counter, tmp_path):
        # 63 whole sequences, then the last one cut 10 bytes short
        path = tmp_path / "tokens.bin"
        manifest = pack_stream([doc_of(63 * 16 - 1)], ws_counter, path, sequence_length=16)
        assert manifest.sequence_count == sequence_count(path) == 63
        path.write_bytes(path.read_bytes()[:-10])
        for read in (sequence_count, lambda p: unpack_inspect(p, 63)):
            with pytest.raises(PackFormatError, match="truncated"):
                read(path)

    def test_header_sequence_length_below_two(self, tmp_path):
        path = tmp_path / "zero.bin"
        path.write_bytes(HEADER.pack(MAGIC, VERSION, 0, DTYPE_U32))
        for read in (sequence_count, lambda p: unpack_inspect(p, 1)):
            with pytest.raises(PackFormatError, match="below 2"):
                read(path)

    def test_sequence_count_helper(self, ws_counter, tmp_path):
        path = tmp_path / "t.bin"
        manifest = pack_stream([doc_of(100, i) for i in range(5)], ws_counter,
                               path, sequence_length=32)
        assert sequence_count(path) == manifest.sequence_count


def test_pack_with_bpe_counter(bpe_counter, tmp_path):
    docs = [Document(id="b", lang="en",
                     text="The harbour lights were visible from the cliff.")]
    path = tmp_path / "bpe.bin"
    manifest = pack_stream(docs, bpe_counter, path, sequence_length=8)
    assert manifest.identity_holds()
    seqs = unpack_inspect(path, manifest.sequence_count)
    ids = bpe_counter.encode(docs[0].text) + [bpe_counter.eos_id]
    flat = [t for seq in seqs for t in seq]
    assert flat == ids[:len(flat)]
