"""EOS-separated fixed-length sequence packing into a binary token file.

Each document is tokenized, followed by one EOS id, and the concatenation is
chopped into consecutive fixed-length sequences; the final partial sequence
is dropped and counted. File layout: a 32-byte header (magic ``TWPK``,
version, sequence length, dtype code, reserved padding) followed by
little-endian uint32 token ids.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import Document, open_output
from .tokenizer import TokenCounter

__all__ = [
    "PackManifest",
    "PackFormatError",
    "pack_stream",
    "unpack_inspect",
    "DEFAULT_SEQUENCE_LENGTH",
]

MAGIC = b"TWPK"
VERSION = 1
DTYPE_U32 = 4  # bytes per token id
HEADER = struct.Struct("<4sIII16x")  # magic, version, seq length, dtype code
DEFAULT_SEQUENCE_LENGTH = 2048


class PackFormatError(ValueError):
    """Bad magic, version, header mismatch, or truncated payload."""


@dataclass
class PackManifest:
    sequence_length: int
    sequence_count: int = 0
    total_doc_tokens: int = 0
    eos_count: int = 0
    dropped_remainder: int = 0
    skipped_empty_docs: int = 0
    tokenizer_fingerprint: str = ""

    def identity_holds(self) -> bool:
        """total doc tokens + EOS count == sequences x L + remainder."""
        return (
            self.total_doc_tokens + self.eos_count
            == self.sequence_count * self.sequence_length + self.dropped_remainder
            and 0 <= self.dropped_remainder < self.sequence_length
        )


def pack_stream(
    docs: Iterable[Document],
    counter: TokenCounter,
    path: str | Path,
    sequence_length: int = DEFAULT_SEQUENCE_LENGTH,
) -> PackManifest:
    """Pack a document stream into a binary token file; returns the manifest.

    Document order is preserved; every non-empty document contributes its
    tokens plus exactly one EOS separator. Documents that tokenize to zero
    tokens are skipped and counted.
    """
    if sequence_length < 2:
        raise ValueError("sequence_length must be >= 2")
    manifest = PackManifest(
        sequence_length=sequence_length,
        tokenizer_fingerprint=counter.fingerprint,
    )
    eos = counter.eos_id
    buffer: list[int] = []
    with open_output(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, VERSION, sequence_length, DTYPE_U32))
        for doc in docs:
            ids = counter.encode(doc.text)
            if not ids:
                manifest.skipped_empty_docs += 1
                continue
            manifest.total_doc_tokens += len(ids)
            manifest.eos_count += 1
            buffer.extend(ids)
            buffer.append(eos)
            full = len(buffer) // sequence_length
            if full:
                # every complete sequence in one write; only the remainder,
                # shorter than one sequence, stays buffered
                cut = full * sequence_length
                fh.write(np.asarray(buffer[:cut], dtype="<u4").tobytes())
                del buffer[:cut]
                manifest.sequence_count += full
        manifest.dropped_remainder = len(buffer)
        if not manifest.identity_holds():
            raise RuntimeError("token conservation identity violated")
    return manifest


def _read_header(fh) -> int:
    """The sequence length of an open pack file, once its header is valid and
    its payload a whole number of sequences."""
    raw = fh.read(HEADER.size)
    if len(raw) < HEADER.size:
        raise PackFormatError("file too short for header")
    magic, version, seq_len, dtype = HEADER.unpack(raw)
    if magic != MAGIC:
        raise PackFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise PackFormatError(f"unsupported version {version}")
    if dtype != DTYPE_U32:
        raise PackFormatError(f"unsupported token dtype code {dtype}")
    if seq_len < 2:
        raise PackFormatError(f"header sequence length {seq_len} is below 2")
    payload_bytes = os.fstat(fh.fileno()).st_size - HEADER.size
    seq_bytes = seq_len * DTYPE_U32
    if payload_bytes % seq_bytes != 0:
        raise PackFormatError(
            f"truncated file: {payload_bytes} payload bytes is not a "
            f"multiple of {seq_bytes}")
    return seq_len


def unpack_inspect(
    path: str | Path,
    n: int,
    expected_length: int | None = None,
) -> list[list[int]]:
    """Decode the first n sequences back to token-id lists.

    Raises PackFormatError on bad magic/version, on a header sequence length
    that differs from ``expected_length``, and on a payload that is not a
    whole number of sequences (truncation).
    """
    path = Path(path)
    with open(path, "rb") as fh:
        seq_len = _read_header(fh)
        if expected_length is not None and seq_len != expected_length:
            raise PackFormatError(
                f"header sequence length {seq_len} != expected {expected_length}")
        seq_bytes = seq_len * DTYPE_U32
        out: list[list[int]] = []
        for _ in range(n):
            raw = fh.read(seq_bytes)
            if not raw:
                break
            if len(raw) < seq_bytes:
                raise PackFormatError("unexpected EOF inside a sequence")
            out.append(np.frombuffer(raw, dtype="<u4").astype(int).tolist())
    return out


def sequence_count(path: str | Path) -> int:
    """Number of sequences stored in a pack file; raises PackFormatError
    where ``unpack_inspect`` does, on a truncated payload too."""
    path = Path(path)
    with open(path, "rb") as fh:
        seq_len = _read_header(fh)
    return (path.stat().st_size - HEADER.size) // (seq_len * DTYPE_U32)
