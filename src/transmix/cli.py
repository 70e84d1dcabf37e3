"""Command-line front-end and end-to-end stage orchestration.

Exit codes: 0 on success, 1 on a stage failure (partial artifacts retained
with a FAILED marker in the failing stage's directory, and in the run's
root for ``pipeline``), 2 on usage or configuration errors. Every stage
directory gets the resolved config snapshot and a stage manifest, so runs
are reproducible and auditable.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Iterator

from . import corpus as corpus_mod
from . import dedup as dedup_mod
from . import mixer as mixer_mod
from . import pack as pack_mod
from . import probe as probe_mod
from . import quality as quality_mod
from . import translate as translate_mod
from .config import ConfigError, PipelineConfig, load_config
from .corpus import TwoPassCorpus, read_back_lines, read_corpus, scan_corpus, write_corpus
from .mixer import derive_seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transmix",
        description="Build balanced multilingual pretraining corpora.")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="INI config file")
    shared.add_argument("--seed", type=int, help="global random seed")
    shared.add_argument("--workers", type=int,
                        help="translate requests in flight at once, across "
                             "the whole corpus (sets translate.max_in_flight)")
    shared.add_argument("--strict", action="store_true",
                        help="abort on malformed input lines")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", parents=[shared],
                       help="per-language corpus statistics")
    p.add_argument("input")
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("filter", parents=[shared],
                       help="quality-filter a corpus")
    p.add_argument("input")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("dedup", parents=[shared],
                       help="near-duplicate removal")
    p.add_argument("input")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--exact", action="store_true",
                   help="verify candidates with exact shingle Jaccard")

    p = sub.add_parser("translate", parents=[shared],
                       help="translate a corpus into the configured targets")
    p.add_argument("input")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--restart", action="store_true")

    p = sub.add_parser("mix", parents=[shared],
                       help="balanced sample + shuffle the configured sources")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("pack", parents=[shared],
                       help="pack a corpus into a binary token file")
    p.add_argument("input")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("probe", parents=[shared],
                       help="measure a backend's language prior")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("pipeline", parents=[shared],
                       help="filter -> dedup -> translate -> mix -> pack")
    p.add_argument("input")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--restart", action="store_true")
    p.add_argument("--exact", action="store_true")
    return parser


def _apply_cli_overrides(config: PipelineConfig, args: argparse.Namespace) -> None:
    if args.seed is not None:
        config.seed = args.seed
    if args.workers is not None:
        config.max_in_flight = args.workers
    if args.strict:
        config.strict = True


@contextmanager
def _stage(path: Path, config: PipelineConfig) -> Iterator[Path]:
    """The directory of one stage, made, with the resolved config written and
    a stale FAILED removed. An exception, ``KeyboardInterrupt`` included,
    leaves ``FAILED`` there, naming it, and goes on."""
    path.mkdir(parents=True, exist_ok=True)
    config.write_snapshot(path / "resolved_config.json")
    (path / "FAILED").unlink(missing_ok=True)
    try:
        yield path
    except BaseException as exc:
        (path / "FAILED").write_text(f"{type(exc).__name__}: {exc}\n", encoding="utf-8")
        raise


def _write_json(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=2, ensure_ascii=False) + "\n",
                    encoding="utf-8")


# ---- stages ---------------------------------------------------------------

def run_stats(config: PipelineConfig, input_path: str, out: str | None) -> None:
    stats = corpus_mod.compute_stats(
        read_corpus(input_path, strict=config.strict), config.make_counter())
    report = json.dumps(stats.to_report(), indent=2, ensure_ascii=False)
    if out:
        Path(out).write_text(report + "\n", encoding="utf-8")
    else:
        print(report)


def run_filter(config: PipelineConfig, input_path: str, stage_dir: Path) -> Path:
    kept_path = stage_dir / "kept.jsonl"
    rejected_path = stage_dir / "rejected.jsonl"
    counts = {"in": 0, "kept": 0, "rejected": 0}
    # a kept document is written as the line it was read from
    scanned, to_filter = itertools.tee(scan_corpus(input_path, strict=config.strict))
    reports = quality_mod.filter_corpus(
        (doc for _, _, doc in to_filter), config.quality, config.stopword_dir or None)
    with open(kept_path, "w", encoding="utf-8") as kept_fh, \
            open(rejected_path, "w", encoding="utf-8") as rej_fh:
        for (_, line, _), (_, report) in zip(scanned, reports):
            counts["in"] += 1
            if report.keep:
                counts["kept"] += 1
                kept_fh.write(line + "\n")
            else:
                counts["rejected"] += 1
                rej_fh.write(json.dumps({
                    "doc": json.loads(line),
                    "report": report.to_dict(),
                }, ensure_ascii=False) + "\n")
    _write_json(stage_dir / "manifest.json", {
        "stage": "filter", **counts,
        "rules": list(config.quality.active_rules()),
    })
    return kept_path


def run_dedup(config: PipelineConfig, input_path: str, stage_dir: Path,
              exact: bool) -> Path:
    # The input is read twice, and no document is held in between: the
    # first pass signs every document, the second copies the kept lines.
    src = TwoPassCorpus(input_path, strict=config.strict)
    result = dedup_mod.dedup_corpus(
        src.documents(),
        threshold=config.dedup_threshold,
        seed=derive_seed(config.seed, "dedup"),
        exact=exact,
        bands=config.dedup_bands,
        rows=config.dedup_rows,
        shingle_size=config.shingle_size,
    )
    kept_path = stage_dir / "kept.jsonl"
    write_corpus(kept_path, read_back_lines([src], result.kept_positions))
    result.write_manifest(stage_dir / "clusters.jsonl")
    _write_json(stage_dir / "manifest.json", {
        "stage": "dedup", "in": len(src), "kept": len(result.kept_ids),
        "removed": len(result.removed_ids), "clusters": len(result.clusters),
        **result.params,
    })
    return kept_path


def run_translate(config: PipelineConfig, input_path: str, stage_dir: Path,
                  resume: bool, restart: bool) -> dict[str, Path]:
    manifest = translate_mod.translate_corpus(
        input_path,
        targets=config.targets,
        backend=config.make_backend(),
        out_dir=stage_dir,
        template=config.make_template(),
        counter=config.make_counter(),
        chunk_limit=config.chunk_limit,
        params=config.generation_params(),
        resume=resume,
        restart=restart,
        abbreviation_dir=config.abbreviation_dir or None,
        strict=config.strict,
    )
    _write_json(stage_dir / "manifest.json", {"stage": "translate", **asdict(manifest)})
    return {tgt: stage_dir / f"{tgt}.jsonl" for tgt in config.targets}


def run_mix(config: PipelineConfig, sources: list[tuple[str, str]],
            stage_dir: Path) -> Path:
    # no budget: compose_stage gives each source the smallest source's total
    mixed, manifest = mixer_mod.compose_stage(
        sources, config.make_counter(), budget=config.mix_budget_per_source or None,
        seed=derive_seed(config.seed, "mix"), buffer_size=config.mix_buffer_size,
        strict=config.strict)
    out_path = stage_dir / "mixed.jsonl"
    write_corpus(out_path, mixed)
    _write_json(stage_dir / "manifest.json", manifest)
    return out_path


def run_pack(config: PipelineConfig, input_path: str, stage_dir: Path) -> Path:
    counter = config.make_counter()
    out_path = stage_dir / "tokens.bin"
    manifest = pack_mod.pack_stream(
        read_corpus(input_path, strict=config.strict), counter, out_path,
        sequence_length=config.sequence_length)
    _write_json(stage_dir / "manifest.json", asdict(manifest))
    return out_path


def run_probe(config: PipelineConfig, stage_dir: Path) -> None:
    if config.probe_model_path:
        model = probe_mod.NgramLanguageModel.load(config.probe_model_path)
    else:
        model = probe_mod.train_langid()
    report, evidence = probe_mod.probe_prior(
        config.make_backend(), model,
        n=config.probe_n,
        max_tokens=config.probe_max_tokens,
        temperature=config.probe_temperature,
        seed=derive_seed(config.seed, "probe"),
    )
    _write_json(stage_dir / "prior_report.json", asdict(report))
    with open(stage_dir / "translation_pairs.jsonl", "w", encoding="utf-8") as fh:
        for record in evidence:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    _write_json(stage_dir / "manifest.json", {"stage": "probe", **asdict(report)})


def run_pipeline(config: PipelineConfig, input_path: str, out_dir: Path,
                 resume: bool, restart: bool, exact: bool) -> None:
    with _stage(out_dir / "01_filter", config) as stage_dir:
        kept = run_filter(config, input_path, stage_dir)
    with _stage(out_dir / "02_dedup", config) as stage_dir:
        kept = run_dedup(config, str(kept), stage_dir, exact=exact)
    sources: list[tuple[str, str]] = [("source", str(kept))]
    if config.targets:
        with _stage(out_dir / "03_translate", config) as stage_dir:
            translated = run_translate(config, str(kept), stage_dir,
                                       resume=resume, restart=restart)
        sources += [(tgt, str(path)) for tgt, path in sorted(translated.items())]
    with _stage(out_dir / "04_mix", config) as stage_dir:
        mixed = run_mix(config, sources, stage_dir)
    with _stage(out_dir / "05_pack", config) as stage_dir:
        run_pack(config, str(mixed), stage_dir)


# ---- entry point ----------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        _apply_cli_overrides(config, args)
        config.validate()  # again, for the values the flags set
        if args.command == "stats":
            run_stats(config, args.input, args.out)
        else:
            if args.command == "mix" and not config.mix_sources:
                raise ConfigError(["mix.sources: required by transmix mix "
                                   "(sources = name:path, ...)"])
            with _stage(Path(args.out_dir), config) as stage_dir:
                if args.command == "filter":
                    run_filter(config, args.input, stage_dir)
                elif args.command == "dedup":
                    run_dedup(config, args.input, stage_dir, exact=args.exact)
                elif args.command == "translate":
                    run_translate(config, args.input, stage_dir,
                                  resume=args.resume, restart=args.restart)
                elif args.command == "mix":
                    run_mix(config, config.mix_sources, stage_dir)
                elif args.command == "pack":
                    run_pack(config, args.input, stage_dir)
                elif args.command == "probe":
                    run_probe(config, stage_dir)
                elif args.command == "pipeline":
                    run_pipeline(config, args.input, stage_dir,
                                 resume=args.resume, restart=args.restart,
                                 exact=args.exact)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - process boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
