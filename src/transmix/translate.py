"""Chunked document translation against a completion backend.

Documents are segmented into token-budgeted chunks, each chunk is rendered
into an instruction-wrapped prompt, sent to a backend, and the raw output is
trimmed back to the last complete sentence before the chunks are rejoined in
order. Corpus runs are resumable through an append-only checkpoint journal;
failed documents land in a failure manifest instead of being silently lost.
"""

from __future__ import annotations

import json
import os
import queue
import sys
import threading
import time
import urllib.request
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .corpus import Document, read_corpus
from .segment import (DEFAULT_CHUNK_LIMIT, Chunk, chunk_document, is_terminal_text,
                      split_sentences)
from .tokenizer import TokenCounter, WhitespaceCounter

__all__ = [
    "LANGUAGE_NAMES",
    "PromptTemplate",
    "TemplateError",
    "BackendResult",
    "MockEchoBackend",
    "MockCipherBackend",
    "HttpCompletionBackend",
    "GenerationParams",
    "TranslationRecord",
    "JournalCorruptError",
    "build_prompt",
    "trim_incomplete",
    "translate_document",
    "translate_corpus",
    "cipher_map",
]

LANGUAGE_NAMES = {"en": "English", "fr": "French", "de": "German", "es": "Spanish"}

DEFAULT_INSTRUCTION = (
    "Translate the following text from English to {TARGET_LANGUAGE}. "
    "Reply with the {TARGET_LANGUAGE} translation only, without commentary:"
    "\n\n{SOURCE_TEXT}"
)

DEFAULT_RESPONSE_PATH = "choices.0.text"  # where HttpCompletionBackend finds the text
DEFAULT_HTTP_TIMEOUT = 60.0  # seconds


class TemplateError(ValueError):
    """Template missing a slot, or an unknown target language."""


@dataclass(frozen=True)
class PromptTemplate:
    """Instruction wrapper with {TARGET_LANGUAGE} and {SOURCE_TEXT} slots.

    The default wording is a workable starting point, not canonical; adjust
    it per serving setup through the config file.
    """

    instruction: str = DEFAULT_INSTRUCTION
    wrapper_open: str = "[INST]"
    wrapper_close: str = "[/INST]"

    def __post_init__(self) -> None:
        if self.instruction.count("{SOURCE_TEXT}") != 1:
            raise TemplateError("instruction must contain {SOURCE_TEXT} exactly once")
        if "{TARGET_LANGUAGE}" not in self.instruction:
            raise TemplateError("instruction must contain {TARGET_LANGUAGE}")

    def render(self, source_text: str, tgt: str) -> str:
        if tgt not in LANGUAGE_NAMES:
            raise TemplateError(f"no language name configured for target {tgt!r}")
        body = self.instruction.replace("{TARGET_LANGUAGE}", LANGUAGE_NAMES[tgt])
        body = body.replace("{SOURCE_TEXT}", source_text)
        return f"{self.wrapper_open} {body} {self.wrapper_close}"

    def extract_source(self, prompt: str) -> str | None:
        """Invert render(): recover the embedded source text, if possible."""
        for tgt in LANGUAGE_NAMES:
            body = self.instruction.replace("{TARGET_LANGUAGE}", LANGUAGE_NAMES[tgt])
            prefix, suffix = body.split("{SOURCE_TEXT}")
            full_prefix = f"{self.wrapper_open} {prefix}"
            full_suffix = f"{suffix} {self.wrapper_close}"
            if prompt.startswith(full_prefix) and prompt.endswith(full_suffix):
                return prompt[len(full_prefix):len(prompt) - len(full_suffix)]
        return None


def build_prompt(chunk: Chunk | str, src: str, tgt: str,
                 template: PromptTemplate | None = None) -> str:
    """Render a chunk into a complete prompt for the backend."""
    if src == tgt:
        raise TemplateError(f"source and target language are both {src!r}")
    template = template or PromptTemplate()
    text = chunk.text if isinstance(chunk, Chunk) else chunk
    return template.render(text, tgt)


@dataclass(frozen=True)
class BackendResult:
    text: str | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.text is not None


class _MockBackend:
    """Recovers the prompt's embedded source text and transforms it.

    ``calls`` counts requests under a lock, since the request window calls
    from several threads at once.
    """

    kind: str

    def __init__(self, template: PromptTemplate | None = None) -> None:
        self.template = template or PromptTemplate()
        self.calls = 0
        self._lock = threading.Lock()

    def transform(self, source: str) -> str:
        return source

    def complete(self, prompt: str, max_tokens: int = 0,
                 temperature: float = 0.0) -> BackendResult:
        with self._lock:
            self.calls += 1
        source = self.template.extract_source(prompt)
        if source is None:
            return BackendResult(
                error=f"{self.kind.removeprefix('mock-')} backend could not "
                      "locate source text")
        return BackendResult(text=self.transform(source))


class MockEchoBackend(_MockBackend):
    """Returns the prompt's embedded source text unchanged. For tests/dry runs."""

    kind = "mock-echo"


def cipher_map(text: str) -> str:
    """Deterministic reversible letter mapping (self-inverse rot13)."""
    out = []
    for ch in text:
        if "a" <= ch <= "z":
            out.append(chr((ord(ch) - 97 + 13) % 26 + 97))
        elif "A" <= ch <= "Z":
            out.append(chr((ord(ch) - 65 + 13) % 26 + 65))
        else:
            out.append(ch)
    return "".join(out)


class MockCipherBackend(_MockBackend):
    """Applies a reversible character cipher to the source text.

    Simulates a language change while keeping round-trip equality testable:
    cipher_map(output) recovers the input.
    """

    kind = "mock-cipher"

    def transform(self, source: str) -> str:
        return cipher_map(source)


class HttpCompletionBackend:
    """OpenAI-compatible completions client over plain HTTP.

    Sends ``POST {endpoint}`` with JSON ``{model, prompt, max_tokens,
    temperature}``; the response field holding the generated text is
    addressed by a dotted path (list indices as integers), default
    ``choices.0.text``.
    """

    kind = "http-completion"

    def __init__(self, endpoint: str, model: str,
                 response_path: str = DEFAULT_RESPONSE_PATH,
                 timeout: float = DEFAULT_HTTP_TIMEOUT) -> None:
        self.endpoint = endpoint
        self.model = model
        self.response_path = response_path
        self.timeout = timeout

    def complete(self, prompt: str, max_tokens: int = 256,
                 temperature: float = 0.0) -> BackendResult:
        payload = json.dumps({
            "model": self.model,
            "prompt": prompt,
            "max_tokens": max_tokens,
            "temperature": temperature,
        }).encode("utf-8")
        req = urllib.request.Request(
            self.endpoint, data=payload,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = json.loads(resp.read().decode("utf-8"))
        except Exception as exc:  # noqa: BLE001 - network errors become typed failures
            return BackendResult(error=f"{type(exc).__name__}: {exc}")
        try:
            value = _walk_path(body, self.response_path)
        except (KeyError, IndexError, TypeError):
            return BackendResult(
                error=f"response has no field at path {self.response_path!r}")
        if not isinstance(value, str):
            return BackendResult(
                error=f"field at {self.response_path!r} is not a string")
        return BackendResult(text=value)


def _walk_path(obj, path: str):
    for part in path.split("."):
        obj = obj[int(part)] if part.isdigit() else obj[part]
    return obj


@dataclass(frozen=True)
class GenerationParams:
    max_tokens: int = 0  # 0 = twice the chunk token budget; see _chunk_request
    temperature: float = 0.0
    retries: int = 3
    backoff: float = 1.0
    max_in_flight: int = 32

    def resolve_max_tokens(self, chunk_limit: int) -> int:
        return self.max_tokens if self.max_tokens > 0 else 2 * chunk_limit


def complete_with_retries(
    backend,
    prompt: str,
    max_tokens: int,
    temperature: float,
    retries: int = 3,
    backoff: float = 1.0,
    sleep: Callable[[float], None] = time.sleep,
) -> BackendResult:
    """Call the backend up to ``retries`` times with exponential backoff."""
    result = BackendResult(error="no attempts made")
    delay = backoff
    for attempt in range(max(1, retries)):
        result = backend.complete(prompt, max_tokens=max_tokens,
                                  temperature=temperature)
        if result.ok:
            return result
        if attempt + 1 < retries:
            sleep(delay)
            delay *= 2
    return result


@dataclass
class TranslationRecord:
    """Per-chunk outcome, kept for the failure manifest and audits."""

    doc_id: str
    chunk_index: int
    status: str  # ok | failed | empty
    raw: str = ""
    trimmed: str = ""
    dropped_sentences: int = 0
    error: str | None = None


def trim_incomplete(raw: str, lang: str) -> tuple[str, int]:
    """Drop trailing sentences that never reached terminal punctuation.

    Returns the trimmed prefix (cut at a sentence boundary) and the number of
    sentences removed. Input with no complete sentence trims to "".
    Only output that does not end in a complete sentence is split: otherwise
    the last sentence is a suffix of ``raw.rstrip()`` that holds its final
    terminal run and closers, so it is terminal and nothing is dropped.
    """
    stripped = raw.rstrip()
    if is_terminal_text(stripped):
        return stripped, 0
    sentences = split_sentences(raw, lang)
    keep = len(sentences)
    while keep > 0 and not sentences[keep - 1].terminal:
        keep -= 1
    dropped = len(sentences) - keep
    if keep == 0:
        return "", dropped
    return raw[:sentences[keep - 1].end], dropped


def _chunk_request(backend, template: PromptTemplate, chunk_limit: int,
                   params: GenerationParams, sleep: Callable[[float], None]):
    """Return request(doc, tgt, chunk): one chunk's prompt sent with retries.

    A chunk asks for ``params.resolve_max_tokens(chunk_limit)`` tokens,
    or for twice its own token count if that is more: a sentence longer than
    the limit is a chunk of its own, and its output must not be cut short.
    """
    floor = params.resolve_max_tokens(chunk_limit)

    def request(doc: Document, tgt: str, chunk: Chunk) -> BackendResult:
        prompt = build_prompt(chunk, doc.lang, tgt, template)
        return complete_with_retries(
            backend, prompt, max_tokens=max(floor, 2 * chunk.token_count),
            temperature=params.temperature, retries=params.retries,
            backoff=params.backoff, sleep=sleep)

    return request


class _Pair:
    """One (doc, target) pair in the request window, with its chunk results
    as they come back."""

    __slots__ = ("doc", "tgt", "chunks", "results", "pending")

    def __init__(self, doc: Document, tgt: str, chunks: list[Chunk]) -> None:
        self.doc = doc
        self.tgt = tgt
        self.chunks = chunks
        self.results: list = [None] * len(chunks)
        self.pending = len(chunks)


def _in_order(
    pairs: Iterable[tuple[Document, str, list[Chunk]]],
    request: Callable[[Document, str, Chunk], BackendResult],
    max_in_flight: int,
) -> Iterator[tuple[Document, str, list[Chunk], list[BackendResult]]]:
    """Send every chunk of every (doc, target, chunks) pair through one
    thread pool and yield each pair with its chunk results, in input order.

    At most ``max_in_flight`` worker loops run in the pool, taking
    ``(pair, chunk index)`` requests from one queue and putting the results
    on another, so at most that many requests run at once, from any
    documents. At most ``max_in_flight`` pairs are held uncommitted, so
    memory is bounded by the window; ``pairs`` is read only as the window
    needs refilling. A request that raised re-raises when its pair's turn
    comes: every earlier pair has been yielded and no later one is, and
    requests not yet started are cancelled.
    """
    limit = max(1, max_in_flight)
    source = iter(pairs)
    window: deque[_Pair] = deque()
    unsent: queue.SimpleQueue[tuple[_Pair, int] | None] = queue.SimpleQueue()
    done: queue.SimpleQueue[tuple[_Pair, int, object]] = queue.SimpleQueue()
    sent = 0

    def work() -> None:
        while (job := unsent.get()) is not None:
            pair, i = job
            try:
                result = request(pair.doc, pair.tgt, pair.chunks[i])
            except BaseException as exc:  # noqa: BLE001 - re-raised in order below
                result = exc
            done.put((pair, i, result))

    pool = ThreadPoolExecutor(max_workers=limit)
    workers: list[Future] = []
    try:
        while True:
            while len(window) < limit:
                item = next(source, None)
                if item is None:
                    break
                pair = _Pair(*item)
                window.append(pair)
                for i in range(len(pair.chunks)):
                    unsent.put((pair, i))
                sent += len(pair.chunks)
                while len(workers) < min(limit, sent):
                    workers.append(pool.submit(work))
            # an empty window after a refill means the input is used up
            if not window:
                return
            head = window[0]
            if head.pending == 0:
                window.popleft()
                for result in head.results:
                    if isinstance(result, BaseException):
                        raise result
                yield head.doc, head.tgt, head.chunks, head.results
                continue  # refill before blocking: the commit freed a slot
            pair, i, result = done.get()
            pair.results[i] = result
            pair.pending -= 1
    finally:
        try:  # cancel the requests not yet started, then stop each worker
            while True:
                unsent.get_nowait()
        except queue.Empty:
            pass
        for _ in workers:
            unsent.put(None)
        pool.shutdown()
        for worker in workers:
            worker.result()


def _assemble(doc: Document, tgt: str, chunks: list[Chunk], results: list[BackendResult],
              ) -> tuple[Document | None, list[TranslationRecord]]:
    """Trim each chunk's output and join the pieces in chunk order."""
    records: list[TranslationRecord] = []
    pieces: list[str] = []
    failed = False
    for chunk, result in zip(chunks, results):
        if not result.ok:
            records.append(TranslationRecord(
                doc_id=doc.id, chunk_index=chunk.index, status="failed",
                error=result.error))
            failed = True
            continue
        trimmed, dropped = trim_incomplete(result.text, tgt)
        if not trimmed:
            records.append(TranslationRecord(
                doc_id=doc.id, chunk_index=chunk.index, status="empty",
                raw=result.text, dropped_sentences=dropped))
            continue
        records.append(TranslationRecord(
            doc_id=doc.id, chunk_index=chunk.index, status="ok",
            raw=result.text, trimmed=trimmed, dropped_sentences=dropped))
        pieces.append(trimmed)

    if failed:
        return None, records
    out = Document(
        id=f"{doc.id}:{tgt}",
        lang=tgt,
        text="\n".join(pieces),
        source=doc.source,
    )
    return out, records


def translate_document(
    doc: Document,
    tgt: str,
    backend,
    template: PromptTemplate | None = None,
    counter: TokenCounter | None = None,
    chunk_limit: int = DEFAULT_CHUNK_LIMIT,
    params: GenerationParams | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[Document | None, list[TranslationRecord]]:
    """Translate one document chunk by chunk and reassemble in chunk order.

    This is the request window of ``translate_corpus`` run over a single
    document: up to ``params.max_in_flight`` chunks are in flight at once,
    and outputs are merged by index, so the result is deterministic.
    Returns (document, records); the document is None when any chunk failed
    after retries, and the records then carry the error. Chunks whose
    trimmed output is empty are skipped but recorded.
    """
    template = template or PromptTemplate()
    params = params or GenerationParams()
    counter = counter or WhitespaceCounter()
    chunks = chunk_document(doc, counter, chunk_limit)
    request = _chunk_request(backend, template, chunk_limit, params, sleep)
    [(_, _, _, results)] = _in_order([(doc, tgt, chunks)], request,
                                     params.max_in_flight)
    return _assemble(doc, tgt, chunks, results)


class JournalCorruptError(RuntimeError):
    """The checkpoint journal is unreadable, or the files it vouches for lack
    lines it records; resume needs an explicit restart."""


def _prefix(path: Path, key: Callable[[object], object]) -> tuple[list, int, int]:
    """Read the longest prefix of whole lines of a JSONL file whose objects
    ``key`` maps to a value (not None; KeyError and TypeError refuse too).

    Returns the values, the prefix's length in bytes and the number of lines
    after it; a missing file is empty. Lines are split on "\\n" only, so a
    raw U+2028 stays inside its JSON string, and a torn last line is after.
    """
    values: list = []
    size = after = 0
    if path.exists():
        with open(path, "rb") as fh:
            for line in fh:
                try:
                    value = key(json.loads(line)) if line.endswith(b"\n") else None
                except (ValueError, KeyError, TypeError):
                    value = None
                if value is None:
                    after = 1 + sum(1 for _ in fh)
                    break
                values.append(value)
                size += len(line)
    return values, size, after


def _journal_entry(obj) -> tuple[str, str, bool] | None:
    doc_id, tgt, status = obj["doc_id"], obj["target"], obj["status"]
    valid = isinstance(doc_id, str) and isinstance(tgt, str) and status in ("ok", "failed")
    return (doc_id, tgt, status == "ok") if valid else None


_COMMIT_PAIRS = 256  # pairs held before a commit flushes them
_COMMIT_SECONDS = 1.0  # or seconds since the last flush


class _RunStore(ExitStack):
    """The files of one translate run, open for appending until the store is
    closed: an output corpus per target, ``failures.jsonl`` and the journal.

    Opening it wipes them (restart), refuses (a journal exists, no resume)
    or cuts each in place to what the journal vouches for: only its last
    line may be bad (a torn write), each output must start with the ok
    documents it journals for that target, in journal order, and
    ``failures.jsonl`` with lines covering every pair it journals as
    failed; what follows was flushed by an unjournaled pair. Any other
    state raises JournalCorruptError before a file is changed. ``done``
    holds the journaled (doc id, target) pairs.
    """

    def __init__(self, out_dir: Path, targets: Sequence[str], resume: bool,
                 restart: bool) -> None:
        super().__init__()
        out_dir.mkdir(parents=True, exist_ok=True)
        journal_path, failures_path = out_dir / "journal.jsonl", out_dir / "failures.jsonl"
        out_paths = {tgt: out_dir / f"{tgt}.jsonl" for tgt in targets}
        if restart:
            for p in [journal_path, failures_path, *out_paths.values()]:
                p.unlink(missing_ok=True)
        elif journal_path.exists() and not resume:
            raise RuntimeError(f"{journal_path} exists; pass resume=True to continue "
                               "or restart=True to start over")
        entries, size, after = _prefix(journal_path, _journal_entry)
        if after > 1:
            raise JournalCorruptError(f"{journal_path}:{len(entries) + 1}: corrupt "
                                      "journal line; rerun with restart")
        self.done = {(doc_id, tgt) for doc_id, tgt, _ in entries}
        cuts = [(journal_path, size)]
        for tgt, path in out_paths.items():
            vouched = [f"{doc_id}:{tgt}" for doc_id, t, ok in entries if ok and t == tgt]
            wanted = set(vouched)
            ids, size, _ = _prefix(path, lambda obj: obj["id"] if obj["id"] in wanted else None)
            if ids != vouched:
                raise JournalCorruptError(f"{path} holds {len(ids)} of the {len(vouched)} "
                                          "documents journaled as ok; rerun with restart")
            cuts.append((path, size))
        recorded, size, _ = _prefix(failures_path, lambda obj: (
            pair if (pair := (obj["doc_id"], obj["target"])) in self.done else None))
        if {(doc_id, tgt) for doc_id, tgt, ok in entries if not ok} - set(recorded):
            raise JournalCorruptError(f"{failures_path} lacks pairs journaled as failed; "
                                      "rerun with restart")
        for path, size in [*cuts, (failures_path, size)]:
            if path.exists() and path.stat().st_size > size:
                with open(path, "r+b") as fh:
                    fh.truncate(size)
                    os.fsync(fh.fileno())
        self.outputs = {tgt: self.enter_context(open(p, "a", encoding="utf-8"))
                        for tgt, p in out_paths.items()}
        self.failures = self.enter_context(open(failures_path, "a", encoding="utf-8"))
        self.journal = self.enter_context(open(journal_path, "a", encoding="utf-8"))
        self._held: list[str] = []  # journal lines of the pairs not yet flushed
        self._flushed_at = time.monotonic()
        self.callback(self.flush)  # runs before the files close, on an error too

    def commit(self, doc_id: str, tgt: str, translated: Document | None,
               records: list[TranslationRecord]) -> None:
        """Write a pair's output line (none if it failed) and its failure
        lines, and hold its journal line until ``flush``, which also runs
        when the store closes."""
        if translated is not None:
            self.outputs[tgt].write(translated.to_json() + "\n")
        for record in records:
            if record.status != "ok":
                self.failures.write(json.dumps({"target": tgt, **asdict(record)},
                                               ensure_ascii=False) + "\n")
        status = "ok" if translated is not None else "failed"
        self._held.append(json.dumps(
            {"doc_id": doc_id, "target": tgt, "status": status}) + "\n")
        if (len(self._held) >= _COMMIT_PAIRS
                or time.monotonic() - self._flushed_at >= _COMMIT_SECONDS):
            self.flush()

    def flush(self) -> None:
        """Flush the output and failure lines of the held pairs, and only
        then write and flush their journal lines, so that no journal line
        reaches the OS before the lines it vouches for."""
        for fh in [*self.outputs.values(), self.failures]:
            fh.flush()
        held, self._held = self._held, []  # so an error below cannot write them twice
        self.journal.write("".join(held))
        self.journal.flush()
        self._flushed_at = time.monotonic()


@dataclass
class TranslateManifest:
    targets: list[str]
    docs_in: int = 0
    ok: int = 0
    failed: int = 0
    skipped_resume: int = 0
    chunk_calls: int = 0
    oversized_chunks: int = 0  # chunks over the chunk limit: one sentence each
    dropped_sentences: int = 0


def translate_corpus(
    in_path: str | Path,
    targets: Sequence[str],
    backend,
    out_dir: str | Path,
    template: PromptTemplate | None = None,
    counter: TokenCounter | None = None,
    chunk_limit: int = DEFAULT_CHUNK_LIMIT,
    params: GenerationParams | None = None,
    resume: bool = False,
    restart: bool = False,
    sleep: Callable[[float], None] = time.sleep,
    strict: bool = False,
) -> TranslateManifest:
    """Translate a corpus into one output corpus per target, resumably.

    Each document is chunked once, and its chunks are requested for every
    target it still needs. ``params.max_in_flight`` bounds the requests in
    flight across the whole corpus, not per document: one request window
    spans documents and targets, and the input is read only as the window
    needs refilling, so memory is bounded by the window. A (doc, target)
    pair is committed once all its chunks are back and every earlier pair
    is committed: its output line and failure lines are written, and its
    line in ``journal.jsonl`` only after they are flushed (see
    ``_RunStore.commit``), at the latest when the run ends or fails.

    Journaled pairs are skipped on resume, which first cuts every file back
    to what the journal vouches for (``_RunStore``), so interrupted runs
    continue to byte-identical output.
    Failed documents are excluded from the output corpora and recorded in
    ``failures.jsonl``; a pair journaled as failed is not retried on resume
    (wipe with restart to retry). An existing journal requires an explicit
    choice: resume to continue, restart to wipe. An exception raised by the
    backend stops the run after the last pair before it is committed.
    ``strict`` is as in ``read_corpus``. A target given more than once is a
    ``ValueError``.
    """
    for tgt in targets:
        if targets.count(tgt) > 1:
            raise ValueError(f"target {tgt!r} is given more than once")
    template = template or PromptTemplate()
    params = params or GenerationParams()
    counter = counter or WhitespaceCounter()
    manifest = TranslateManifest(targets=list(targets))

    def pairs(done: set[tuple[str, str]]) -> Iterator[tuple[Document, str, list[Chunk]]]:
        for doc in read_corpus(in_path, strict=strict):
            manifest.docs_in += 1
            todo = [tgt for tgt in targets if (doc.id, tgt) not in done]
            manifest.skipped_resume += len(targets) - len(todo)
            if todo:
                chunks = chunk_document(doc, counter, chunk_limit)
                for tgt in todo:
                    yield doc, tgt, chunks

    request = _chunk_request(backend, template, chunk_limit, params, sleep)
    started = time.monotonic()
    with _RunStore(Path(out_dir), targets, resume, restart) as store, \
            closing(_in_order(pairs(store.done), request, params.max_in_flight)) as results:
        for doc, tgt, chunks, chunk_results in results:
            translated, records = _assemble(doc, tgt, chunks, chunk_results)
            store.commit(doc.id, tgt, translated, records)
            manifest.chunk_calls += len(records)
            manifest.oversized_chunks += sum(c.token_count > chunk_limit for c in chunks)
            manifest.dropped_sentences += sum(r.dropped_sentences for r in records)
            if translated is not None:
                manifest.ok += 1
            else:
                manifest.failed += 1
    elapsed = time.monotonic() - started
    rate = manifest.ok / elapsed if elapsed > 0 else float("inf")
    print(f"translate: {manifest.ok} ok, {manifest.failed} failed, "
          f"{manifest.skipped_resume} skipped ({rate:.1f} docs/s)",
          file=sys.stderr)
    return manifest
