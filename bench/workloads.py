"""The four workloads: inputs, program set-up, one round of work, checks.

A workload drives transmix only through its public functions and
``cli.main``. ``prepare`` builds the inputs from the seed (benchmark work,
never timed), ``setup`` does what the program does before it reads its first
input, ``run_round`` is one timed batch, and ``check`` compares that batch's
outputs with the ground truth. Every round repeats the same operations on
the same inputs, so ``units`` is the same for every round.
"""

from __future__ import annotations

from pathlib import Path

import gen
from backends import GenerationBackend, LatencyBackend
from checks import (check_echo_translations, check_kept_clusters, check_mix_budgets,
                    check_pack, check_probe, check_removed, iter_jsonl)
from transmix import cli, config, probe, translate


class Workload:
    name = ""
    dedup_manifest: str | None = None  # clusters.jsonl, relative to a round's output

    def __init__(self, seed: int, **sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.units = 0
        self.input_docs = 0

    def prepare(self, workdir: Path) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, out: Path) -> int:
        """Run one batch into ``out``; return the number of failed units."""
        raise NotImplementedError

    def check(self, out: Path) -> None:
        raise NotImplementedError

    def note(self, rounds: int, wall_s: float) -> str | None:
        """A line about the run for the human summary, if the workload has one."""
        return None

    def layer_facts(self, out: Path) -> dict:
        facts = {"input_docs": self.input_docs}
        if self.dedup_manifest:
            path = out / self.dedup_manifest
            facts["manifest_bytes"] = path.stat().st_size
            facts["merges"] = sum(len(c["removed"]) for c in iter_jsonl(path))
        return facts


class _CorpusWorkload(Workload):
    make_corpus = None

    def prepare(self, workdir: Path) -> None:
        self.docs, self.truth = self.make_corpus(self.seed, **self.sizes)
        self.corpus = workdir / "corpus.jsonl"
        gen.write_jsonl(self.corpus, self.docs)
        self.units = self.input_docs = len(self.docs)


class PipelineEcho(_CorpusWorkload):
    """``transmix pipeline --seed 7`` with the default config on the
    baseline corpus: whitespace counter, mock-echo backend."""

    name = "pipeline-echo"
    make_corpus = staticmethod(gen.pipeline_corpus)
    dedup_manifest = "02_dedup/clusters.jsonl"

    def setup(self) -> None:
        cfg = config.load_config()
        cfg.make_counter()
        cfg.make_backend()
        self.targets = list(cfg.targets)

    def run_round(self, out: Path) -> int:
        rc = cli.main(["pipeline", str(self.corpus), "--out-dir", str(out), "--seed", "7"])
        return 0 if rc == 0 else self.units

    def check(self, out: Path) -> None:
        check_removed(self.docs, out / "02_dedup" / "kept.jsonl", self.truth["duplicate_ids"])
        planted = set(self.truth["duplicate_ids"])
        kept = [d for d in self.docs if d["id"] not in planted]
        check_echo_translations(out / "03_translate", kept, self.targets)
        texts = [d["text"] for d in kept]
        check_mix_budgets(out / "04_mix" / "mixed.jsonl",
                          {lang: texts for lang in ["en", *self.targets]})
        check_pack(out / "05_pack" / "tokens.bin", out / "05_pack" / "manifest.json",
                   out / "04_mix" / "mixed.jsonl")


class TranslateLatency(_CorpusWorkload):
    """``translate_corpus`` against an echo backend with 20 ms per call: the
    request window sets the time, the CPU layers barely matter."""

    name = "translate-latency"
    make_corpus = staticmethod(gen.latency_corpus)
    latency_s = 0.020

    def setup(self) -> None:
        cfg = config.load_config()
        self.cfg = cfg
        self.counter = cfg.make_counter()
        self.template = cfg.make_template()
        self.params = cfg.generation_params()
        self.backend = LatencyBackend(translate.MockEchoBackend(self.template),
                                      latency_s=self.latency_s)
        self.units = self.input_docs * len(cfg.targets)

    def run_round(self, out: Path) -> int:
        manifest = translate.translate_corpus(
            self.corpus, targets=self.cfg.targets, backend=self.backend, out_dir=out,
            template=self.template, counter=self.counter,
            chunk_limit=self.cfg.chunk_limit, params=self.params)
        return manifest.failed

    def check(self, out: Path) -> None:
        check_echo_translations(out, self.docs, list(self.cfg.targets))

    def note(self, rounds: int, wall_s: float) -> str:
        b = self.backend
        calls = b.calls / rounds
        window = self.params.max_in_flight
        return (f"{calls:.0f} backend calls a round: serial bound {calls * self.latency_s:.2f} s, "
                f"ideal {calls * self.latency_s / window:.2f} s with {window} in flight; "
                f"in flight peak {b.peak_in_flight}, mean {b.busy_s / wall_s:.2f}")


class DedupClusters(_CorpusWorkload):
    """``transmix dedup`` on one boilerplate cluster, a few dozen small
    clusters and distinct background documents."""

    name = "dedup-clusters"
    make_corpus = staticmethod(gen.cluster_corpus)
    dedup_manifest = "clusters.jsonl"

    def setup(self) -> None:
        config.load_config()

    def run_round(self, out: Path) -> int:
        rc = cli.main(["dedup", str(self.corpus), "--out-dir", str(out)])
        return 0 if rc == 0 else self.units

    def check(self, out: Path) -> None:
        check_kept_clusters(out / "kept.jsonl", self.docs, self.truth)


class ProbePrior(Workload):
    """``probe_prior(n=512)`` over pre-built generations with planted
    translation pairs; language-ID training is part of set-up."""

    name = "probe-prior"

    def prepare(self, workdir: Path) -> None:
        self.texts, self.truth = gen.probe_generations(self.seed, **self.sizes)
        self.units = len(self.texts)

    def setup(self) -> None:
        self.cfg = config.load_config()
        self.model = probe.train_langid()
        self.backend = GenerationBackend(self.texts)

    def run_round(self, out: Path) -> int:
        self.report, self.evidence = probe.probe_prior(
            self.backend, self.model, n=self.units,
            max_tokens=self.cfg.probe_max_tokens,
            temperature=self.cfg.probe_temperature, seed=self.seed)
        return self.units - self.report.obtained

    def check(self, out: Path) -> None:
        check_probe(self.report.percentages, self.report.obtained, self.evidence, self.truth)


WORKLOADS = {w.name: w for w in (PipelineEcho, TranslateLatency, DedupClusters, ProbePrior)}
