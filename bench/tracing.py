"""Spans around the program's public functions, recorded from outside it.

Installing the tracer replaces each listed function or method with a
wrapper, in every ``transmix`` module that holds it under some name (for
example ``translate`` imports ``split_sentences`` and ``chunk_document``
directly). A span is (index, name, parent, start, end, work): ``parent`` is
the span open on the same thread when this one began (-1 for none), and
``work`` is a size the layer metric needs, such as characters split or ids
encoded. Spans stay in memory until the run ends. Generator functions get
one span per item they produce, so a stream's time is its own and not its
consumer's.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

FIELDS = ("index", "name", "parent", "start", "end", "work")


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _sized(args, kwargs, result) -> float:
    docs = _arg(args, kwargs, 0, "docs")
    return len(docs) if hasattr(docs, "__len__") else 0


# (module, function or Class.method, span name, work measure or a kind)
TARGETS = [
    ("transmix.config", "load_config", "config.load", None),
    ("transmix.cli", "run_filter", "cli.filter", None),
    ("transmix.cli", "run_dedup", "cli.dedup", None),
    ("transmix.cli", "run_translate", "cli.translate", None),
    ("transmix.cli", "run_mix", "cli.mix", None),
    ("transmix.cli", "run_pack", "cli.pack", None),
    ("transmix.corpus", "read_corpus", "corpus.read", "items"),
    ("transmix.corpus", "write_corpus", "corpus.write", None),
    ("transmix.segment", "split_sentences", "segment.split",
     lambda a, k, r: len(_arg(a, k, 0, "text"))),
    ("transmix.segment", "chunk_document", "segment.chunk", None),
    ("transmix.tokenizer", "WhitespaceCounter.encode", "tokenizer.encode",
     lambda a, k, r: len(r)),
    ("transmix.tokenizer", "WhitespaceCounter.count", "tokenizer.count", None),
    ("transmix.tokenizer", "BpeCounter.encode", "tokenizer.encode",
     lambda a, k, r: len(r)),
    ("transmix.tokenizer", "BpeCounter.count", "tokenizer.count", None),
    ("transmix.translate", "translate_corpus", "translate.corpus", "cpu"),
    ("transmix.translate", "translate_document", "translate.document", None),
    ("transmix.translate", "complete_with_retries", "translate.backend", None),
    ("transmix.translate", "trim_incomplete", "translate.trim", None),
    ("transmix.quality", "gopher_filter", "quality.filter", None),
    ("transmix.dedup", "dedup_corpus", "dedup.corpus", _sized),
    ("transmix.dedup", "signature", "dedup.signature", None),
    ("transmix.dedup", "shingle_set", "dedup.shingle", None),
    ("transmix.dedup", "estimate_jaccard", "dedup.verify", None),
    ("transmix.dedup", "exact_jaccard", "dedup.verify", None),
    ("transmix.dedup", "LshIndex.candidate_pairs", "dedup.candidates",
     lambda a, k, r: len(r)),
    ("transmix.mixer", "compose_stage", "mixer.compose", None),
    ("transmix.mixer", "balanced_sample", "mixer.sample", None),
    ("transmix.mixer", "interleave", "mixer.interleave", "items"),
    ("transmix.pack", "pack_stream", "pack.pack",
     lambda a, k, r: os.path.getsize(_arg(a, k, 2, "path"))),
    ("transmix.probe", "train_langid", "probe.train", None),
    ("transmix.probe", "classify_language", "probe.classify",
     lambda a, k, r: len(_arg(a, k, 0, "text"))),
    ("transmix.probe", "detect_translation_pair", "probe.pair_check", None),
]


class Tracer:
    """Records spans while installed; install and uninstall around each
    traced round."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.rows = array("d")
        self._count = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [-1]
        return stack

    def _wrap(self, fn, name: str, work):
        nid = self._name_id(name)
        rows, count, stack_of, now = self.rows, self._count, self._stack, time.perf_counter
        cpu = work == "cpu"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            idx = next(count)
            parent = stack[-1]
            stack.append(idx)
            c0 = time.process_time() if cpu else 0.0
            t0 = now()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = now()
                stack.pop()
                if cpu:
                    w = time.process_time() - c0
                elif work is not None and ok:
                    w = work(args, kwargs, result)
                else:
                    w = 0.0
                # one extend per span keeps rows whole when threads interleave
                rows.extend((idx, nid, parent, t0, t1, w))

        return traced

    def _wrap_items(self, fn, name: str):
        nid = self._name_id(name)
        rows, count, stack_of, now = self.rows, self._count, self._stack, time.perf_counter

        def items(it):
            while True:
                stack = stack_of()
                idx = next(count)
                parent = stack[-1]
                stack.append(idx)
                t0 = now()
                produced = 0.0
                try:
                    item = next(it)
                    produced = 1.0
                except StopIteration:
                    return
                finally:
                    t1 = now()
                    stack.pop()
                    rows.extend((idx, nid, parent, t0, t1, produced))
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return items(iter(fn(*args, **kwargs)))

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "transmix" or n.startswith("transmix.")]
        for module_name, attr, name, work in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, name, work))
                continue
            original = getattr(owner, attr)
            wrapper = (self._wrap_items(original, name) if work == "items"
                       else self._wrap(original, name, work))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def table(self) -> dict[str, np.ndarray]:
        data = np.frombuffer(self.rows, dtype=np.float64).reshape(-1, len(FIELDS))
        data = data[np.argsort(data[:, 0], kind="stable")]
        return {f: data[:, i] for i, f in enumerate(FIELDS)}

    def save(self, path: Path, workload: str) -> None:
        """Write the spans as CSV after a ``#`` line of JSON that names the
        workload and maps name ids to span names."""
        t = self.table()
        header = json.dumps({"workload": workload, "names": self.names})
        np.savetxt(path, np.column_stack([t[f] for f in FIELDS]),
                   fmt=["%d", "%d", "%d", "%.9f", "%.9f", "%.9g"], delimiter=",",
                   header=header + "\n" + ",".join(FIELDS))


class Spans:
    """Queries over a span table for deriving layer metrics."""

    def __init__(self, table: dict[str, np.ndarray], names: list[str]) -> None:
        self.t = table
        self.names = names
        self.dur = table["end"] - table["start"]

    def mask(self, name: str, within: str | None = None) -> np.ndarray:
        m = self.t["name"] == (self.names.index(name) if name in self.names else -1)
        if within is not None:
            m &= self.inside(within)
        return m

    def inside(self, container: str) -> np.ndarray:
        """Spans that lie within some span of ``container``, on any thread."""
        m = np.zeros(self.dur.size, dtype=bool)
        c = self.mask(container)
        for s, e in zip(self.t["start"][c], self.t["end"][c]):
            m |= (self.t["start"] >= s) & (self.t["end"] <= e)
        return m

    def total(self, name: str, within: str | None = None) -> float:
        return float(self.dur[self.mask(name, within)].sum())

    def count(self, name: str, within: str | None = None) -> int:
        return int(self.mask(name, within).sum())

    def work(self, name: str, within: str | None = None) -> float:
        return float(self.t["work"][self.mask(name, within)].sum())

    def child_total(self, parent: str, children: tuple[str, ...]) -> float:
        """Summed duration of direct children with the given names."""
        parents = self.t["index"][self.mask(parent)]
        m = np.isin(self.t["parent"], parents)
        m &= np.isin(self.t["name"], [self.names.index(c) for c in children if c in self.names])
        return float(self.dur[m].sum())

    def covered(self, container: str, names: tuple[str, ...]) -> float:
        """Wall time within ``container`` spans covered by any of ``names``."""
        m = np.zeros(self.dur.size, dtype=bool)
        for name in names:
            m |= self.mask(name, container)
        starts, ends = self.t["start"][m], self.t["end"][m]
        order = np.argsort(starts)
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in zip(starts[order].tolist(), ends[order].tolist()):
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        return covered

    def peak_overlap(self, name: str) -> int:
        m = self.mask(name)
        if not m.any():
            return 0
        times = np.concatenate([self.t["start"][m], self.t["end"][m]])
        deltas = np.concatenate([np.ones(m.sum()), -np.ones(m.sum())])
        order = np.lexsort((deltas, times))  # at equal times, ends first
        return int(np.cumsum(deltas[order]).max())


UNITS = {
    **{f"cli.{stage}_s": "s" for stage in ("filter", "dedup", "translate", "mix", "pack")},
    "corpus.read_s": "s",
    "corpus.write_s": "s",
    "corpus.docs_parsed_per_input_doc": "ratio",
    "segment.split_s": "s",
    "segment.chars_per_s": "chars/s",
    "segment.split_calls_per_pair": "ratio",
    "segment.chunk_calls_per_doc": "ratio",
    "tokenizer.encode_s": "s",
    "tokenizer.encode_words_per_s": "words/s",
    "tokenizer.count_s": "s",
    "tokenizer.count_calls_per_doc": "ratio",
    "translate.backend_calls": "count",
    "translate.in_flight_peak": "requests",
    "translate.in_flight_mean": "requests",
    "translate.cpu_s": "s",
    "translate.self_s": "s",
    "quality.filter_s": "s",
    "quality.docs_per_s": "docs/s",
    "dedup.signature_s": "s",
    "dedup.signatures_per_s": "docs/s",
    "dedup.shingle_calls_per_doc": "ratio",
    "dedup.candidate_pairs": "count",
    "dedup.verify_calls": "count",
    "dedup.cluster_s": "s",
    "dedup.manifest_bytes": "bytes",
    "dedup.merge_yield": "ratio",
    "mixer.compose_s": "s",
    "mixer.sample_s": "s",
    "mixer.interleave_s": "s",
    "pack.pack_s": "s",
    "pack.tokens_per_s": "tokens/s",
    "pack.bytes_written": "bytes",
    "probe.train_s": "s",
    "probe.classify_calls": "count",
    "probe.classify_chars_per_s": "chars/s",
    "probe.pair_check_s": "s",
    "config.load_s": "s",
    "trace.overhead_pct": "%",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(sp: Spans, rounds: int, facts: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    Times and counts are per round; rates and per-document ratios are taken
    over all traced rounds. ``facts`` holds what the workload knows from its
    inputs and outputs: ``input_docs`` per round, and for workloads that run
    dedup through the CLI, ``manifest_bytes`` and ``merges`` (documents in
    clusters minus clusters) per round.
    """
    r = rounds
    m: dict[str, float] = {}
    for stage in ("filter", "dedup", "translate", "mix", "pack"):
        m[f"cli.{stage}_s"] = sp.total(f"cli.{stage}") / r
    m["corpus.read_s"] = sp.total("corpus.read") / r
    m["corpus.write_s"] = sp.total("corpus.write") / r
    m["corpus.docs_parsed_per_input_doc"] = _ratio(
        sp.work("corpus.read"), facts["input_docs"] * r)

    split_s = sp.total("segment.split")
    m["segment.split_s"] = split_s / r
    m["segment.chars_per_s"] = _ratio(sp.work("segment.split"), split_s)
    m["segment.split_calls_per_pair"] = _ratio(
        sp.count("segment.split"), sp.count("translate.document"))
    m["segment.chunk_calls_per_doc"] = _ratio(
        sp.count("segment.chunk"), sp.work("corpus.read", within="translate.corpus"))

    encode_s = sp.total("tokenizer.encode")
    m["tokenizer.encode_s"] = encode_s / r
    m["tokenizer.encode_words_per_s"] = _ratio(sp.work("tokenizer.encode"), encode_s)
    m["tokenizer.count_s"] = sp.total("tokenizer.count") / r
    m["tokenizer.count_calls_per_doc"] = _ratio(
        sp.count("tokenizer.count", within="cli.mix"), sp.work("mixer.interleave"))

    translate_s = sp.total("translate.corpus")
    m["translate.backend_calls"] = sp.count("translate.backend") / r
    m["translate.in_flight_peak"] = sp.peak_overlap("translate.backend")
    m["translate.in_flight_mean"] = _ratio(sp.total("translate.backend"), translate_s)
    m["translate.cpu_s"] = sp.work("translate.corpus") / r
    m["translate.self_s"] = (translate_s - sp.covered(
        "translate.corpus",
        ("translate.backend", "segment.split", "segment.chunk", "translate.trim"))) / r

    filter_s = sp.total("quality.filter")
    m["quality.filter_s"] = filter_s / r
    m["quality.docs_per_s"] = _ratio(sp.count("quality.filter"), filter_s)

    signature_s = sp.total("dedup.signature")
    m["dedup.signature_s"] = signature_s / r
    m["dedup.signatures_per_s"] = _ratio(sp.count("dedup.signature"), signature_s)
    m["dedup.shingle_calls_per_doc"] = _ratio(
        sp.count("dedup.shingle"), sp.work("dedup.corpus"))
    m["dedup.candidate_pairs"] = sp.work("dedup.candidates") / r
    m["dedup.verify_calls"] = sp.count("dedup.verify") / r
    m["dedup.cluster_s"] = (sp.total("dedup.corpus") - sp.child_total(
        "dedup.corpus", ("dedup.signature", "dedup.shingle"))) / r
    m["dedup.manifest_bytes"] = facts.get("manifest_bytes", 0)
    m["dedup.merge_yield"] = _ratio(facts.get("merges", 0) * r, sp.count("dedup.verify"))

    m["mixer.compose_s"] = sp.total("mixer.compose") / r
    m["mixer.sample_s"] = sp.total("mixer.sample") / r
    m["mixer.interleave_s"] = sp.total("mixer.interleave") / r

    pack_s = sp.total("pack.pack")
    written = sp.work("pack.pack")
    m["pack.pack_s"] = pack_s / r
    header_bytes = 32 * sp.count("pack.pack")
    m["pack.tokens_per_s"] = _ratio((written - header_bytes) / 4, pack_s)
    m["pack.bytes_written"] = written / r

    m["probe.train_s"] = _ratio(sp.total("probe.train"), sp.count("probe.train"))
    classify_s = sp.total("probe.classify")
    m["probe.classify_calls"] = sp.count("probe.classify") / r
    m["probe.classify_chars_per_s"] = _ratio(sp.work("probe.classify"), classify_s)
    m["probe.pair_check_s"] = sp.total("probe.pair_check") / r

    m["config.load_s"] = _ratio(sp.total("config.load"), sp.count("config.load"))
    return m
