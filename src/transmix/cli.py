"""Command-line front-end and end-to-end stage orchestration.

Exit codes: 0 on success, 1 on a stage failure or SIGTERM, 2 on usage or
configuration errors. A failed stage leaves FAILED in its directory, and in
the run's root for ``pipeline``. Each ``run_*`` stage writes its outputs
through ``corpus.open_output``, which names a file only once it is whole,
and returns its manifest; ``_stage`` alone writes ``resolved_config.json``,
``FAILED`` and, when the stage succeeds, ``manifest.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import signal
import sys
import threading
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable

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


def _stage(path: Path, config: PipelineConfig, run: Callable[..., dict | None],
           *args: Any, **kwargs: Any) -> None:
    """Run ``run(config, *args, path, **kwargs)`` in the stage directory
    ``path``: made, with the resolved config written and a stale FAILED and
    manifest removed. The dict ``run`` returns is written to manifest.json,
    last. An exception, ``KeyboardInterrupt`` included, leaves ``FAILED``
    there, naming it, and goes on."""
    path.mkdir(parents=True, exist_ok=True)
    _write_json(path / "resolved_config.json", asdict(config))
    (path / "FAILED").unlink(missing_ok=True)
    (path / "manifest.json").unlink(missing_ok=True)
    try:
        manifest = run(config, *args, path, **kwargs)
        if manifest is not None:
            _write_json(path / "manifest.json", manifest)
    except BaseException as exc:
        (path / "FAILED").write_text(f"{type(exc).__name__}: {exc}\n", encoding="utf-8")
        raise


def _write_json(path: Path, record: dict) -> None:
    with corpus_mod.open_output(path) as fh:
        fh.write(json.dumps(record, indent=2, ensure_ascii=False) + "\n")


# ---- stages ---------------------------------------------------------------

def run_stats(config: PipelineConfig, input_path: str, out: str | None) -> None:
    stats = corpus_mod.compute_stats(
        read_corpus(input_path, strict=config.strict), config.make_counter())
    if out:
        _write_json(Path(out), stats.to_report())
    else:
        print(json.dumps(stats.to_report(), indent=2, ensure_ascii=False))


def run_filter(config: PipelineConfig, input_path: str, stage_dir: Path) -> dict:
    counts = {"in": 0, "kept": 0, "rejected": 0}
    # a kept document is written as the line it was read from
    scanned, to_filter = itertools.tee(scan_corpus(input_path, strict=config.strict))
    reports = quality_mod.filter_corpus((doc for _, _, doc in to_filter), config.quality)
    with corpus_mod.open_output(stage_dir / "kept.jsonl") as kept_fh, \
            corpus_mod.open_output(stage_dir / "rejected.jsonl") as rej_fh:
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
    return {"stage": "filter", **counts, "rules": list(config.quality.active_rules())}


def run_dedup(config: PipelineConfig, input_path: str, stage_dir: Path,
              exact: bool) -> dict:
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
    write_corpus(stage_dir / "kept.jsonl", read_back_lines([src], result.kept_positions))
    result.write_manifest(stage_dir / "clusters.jsonl")
    return {
        "stage": "dedup", "in": len(src), "kept": len(result.kept_ids),
        "removed": len(result.removed_ids), "clusters": len(result.clusters),
        **result.params,
    }


def run_translate(config: PipelineConfig, input_path: str, stage_dir: Path,
                  resume: bool, restart: bool) -> dict:
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
        strict=config.strict,
    )
    return {"stage": "translate", **asdict(manifest)}


def run_mix(config: PipelineConfig, sources: list[tuple[str, str]],
            stage_dir: Path) -> dict:
    # no budget: compose_stage gives each source the smallest source's total
    mixed, manifest = mixer_mod.compose_stage(
        sources, config.make_counter(), budget=config.mix_budget_per_source or None,
        seed=derive_seed(config.seed, "mix"), strict=config.strict)
    write_corpus(stage_dir / "mixed.jsonl", mixed)
    return {"stage": "mix", **manifest}


def run_pack(config: PipelineConfig, input_path: str, stage_dir: Path) -> dict:
    manifest = pack_mod.pack_stream(
        read_corpus(input_path, strict=config.strict), config.make_counter(),
        stage_dir / "tokens.bin", sequence_length=config.sequence_length)
    return asdict(manifest)


def run_probe(config: PipelineConfig, stage_dir: Path) -> dict:
    report, evidence = probe_mod.probe_prior(
        config.make_backend(), probe_mod.train_langid(),
        n=config.probe_n,
        max_tokens=config.probe_max_tokens,
        temperature=config.probe_temperature,
        seed=derive_seed(config.seed, "probe"),
    )
    _write_json(stage_dir / "prior_report.json", asdict(report))
    write_corpus(stage_dir / "translation_pairs.jsonl",
                 (json.dumps(record, ensure_ascii=False) for record in evidence))
    return {"stage": "probe", **asdict(report)}


def run_pipeline(config: PipelineConfig, input_path: str, out_dir: Path,
                 resume: bool, restart: bool, exact: bool) -> None:
    # a rerun that fails must not leave a later stage of the last run looking finished
    for stage in ("01_filter", "02_dedup", "03_translate", "04_mix", "05_pack"):
        (out_dir / stage / "manifest.json").unlink(missing_ok=True)
    _stage(out_dir / "01_filter", config, run_filter, input_path)
    _stage(out_dir / "02_dedup", config, run_dedup,
           str(out_dir / "01_filter" / "kept.jsonl"), exact=exact)
    kept = str(out_dir / "02_dedup" / "kept.jsonl")
    sources = [("source", kept)]
    if config.targets:
        _stage(out_dir / "03_translate", config, run_translate, kept,
               resume=resume, restart=restart)
        sources += [(tgt, str(out_dir / "03_translate" / f"{tgt}.jsonl"))
                    for tgt in sorted(config.targets)]
    _stage(out_dir / "04_mix", config, run_mix, sources)
    _stage(out_dir / "05_pack", config, run_pack, str(out_dir / "04_mix" / "mixed.jsonl"))


# ---- entry point ----------------------------------------------------------

def _terminated(signum: int, frame: object) -> None:
    raise SystemExit(f"terminated by {signal.Signals(signum).name}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # SIGTERM ends the command as Ctrl-C does: _stage marks the stage FAILED.
    # Only the main thread may set a handler; callers in-process get theirs back.
    on_main_thread = threading.current_thread() is threading.main_thread()
    if on_main_thread:
        previous = signal.signal(signal.SIGTERM, _terminated)
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
            out_dir = Path(args.out_dir)
            if args.command == "filter":
                _stage(out_dir, config, run_filter, args.input)
            elif args.command == "dedup":
                _stage(out_dir, config, run_dedup, args.input, exact=args.exact)
            elif args.command == "translate":
                _stage(out_dir, config, run_translate, args.input,
                       resume=args.resume, restart=args.restart)
            elif args.command == "mix":
                _stage(out_dir, config, run_mix, config.mix_sources)
            elif args.command == "pack":
                _stage(out_dir, config, run_pack, args.input)
            elif args.command == "probe":
                _stage(out_dir, config, run_probe)
            elif args.command == "pipeline":
                _stage(out_dir, config, run_pipeline, args.input,
                       resume=args.resume, restart=args.restart, exact=args.exact)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - process boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if on_main_thread:
            signal.signal(signal.SIGTERM, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
