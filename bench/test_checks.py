"""Each output check accepts a good output and rejects a corrupted copy.

Good outputs come from running the workloads at small sizes. Run with:

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import (CheckFailed, check_echo_translations, check_kept_clusters,  # noqa: E402
                    check_mix_budgets, check_pack, check_probe, check_removed)
from workloads import DedupClusters, PipelineEcho, ProbePrior, TranslateLatency  # noqa: E402


def _run(workload, work: Path) -> Path:
    work.mkdir(parents=True, exist_ok=True)
    workload.prepare(work)
    workload.setup()
    out = work / "out"
    assert workload.run_round(out) == 0
    return out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    workload = PipelineEcho(seed=3, n_docs=120)
    return workload, _run(workload, tmp_path_factory.mktemp("pipeline"))


@pytest.fixture
def pipeline_copy(pipeline, tmp_path):
    workload, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return workload, copy


def _kept_sources(workload) -> list[dict]:
    planted = set(workload.truth["duplicate_ids"])
    return [d for d in workload.docs if d["id"] not in planted]


def _rewrite_lines(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def test_good_pipeline_output_passes(pipeline):
    workload, out = pipeline
    workload.check(out)


def test_extra_kept_duplicate_rejected(pipeline_copy):
    workload, out = pipeline_copy
    dup_id = workload.truth["duplicate_ids"][0]
    dup = next(d for d in workload.docs if d["id"] == dup_id)
    kept = out / "02_dedup" / "kept.jsonl"
    _rewrite_lines(kept, lambda lines: lines + [json.dumps(dup) + "\n"])
    with pytest.raises(CheckFailed, match="removed ids differ"):
        check_removed(workload.docs, kept, workload.truth["duplicate_ids"])


def test_dropped_translation_rejected(pipeline_copy):
    workload, out = pipeline_copy
    _rewrite_lines(out / "03_translate" / "de.jsonl", lambda lines: lines[:5] + lines[6:])
    with pytest.raises(CheckFailed, match="missing"):
        check_echo_translations(out / "03_translate", _kept_sources(workload), ["fr", "de", "es"])


def test_reordered_translations_rejected(pipeline_copy):
    workload, out = pipeline_copy
    _rewrite_lines(out / "03_translate" / "fr.jsonl",
                   lambda lines: [lines[1], lines[0]] + lines[2:])
    with pytest.raises(CheckFailed, match="out of input order"):
        check_echo_translations(out / "03_translate", _kept_sources(workload), ["fr", "de", "es"])


def test_edited_translation_rejected(pipeline_copy):
    workload, out = pipeline_copy
    path = out / "03_translate" / "es.jsonl"

    def edit(lines):
        row = json.loads(lines[3])
        row["text"] = row["text"].replace(" ", " extra ", 1)
        return lines[:3] + [json.dumps(row, ensure_ascii=False) + "\n"] + lines[4:]

    _rewrite_lines(path, edit)
    with pytest.raises(CheckFailed, match="tokens or language differ"):
        check_echo_translations(out / "03_translate", _kept_sources(workload), ["fr", "de", "es"])


def test_recorded_failure_rejected(pipeline_copy):
    workload, out = pipeline_copy
    (out / "03_translate" / "failures.jsonl").write_text(
        json.dumps({"target": "fr", "doc_id": "d00001", "status": "failed"}) + "\n")
    with pytest.raises(CheckFailed, match="records failures"):
        check_echo_translations(out / "03_translate", _kept_sources(workload), ["fr", "de", "es"])


def test_dropped_mixed_doc_rejected(pipeline_copy):
    workload, out = pipeline_copy
    mixed = out / "04_mix" / "mixed.jsonl"
    _rewrite_lines(mixed, lambda lines: lines[:-1])
    texts = [d["text"] for d in _kept_sources(workload)]
    with pytest.raises(CheckFailed, match="outside"):
        check_mix_budgets(mixed, {lang: texts for lang in ("en", "fr", "de", "es")})


def test_flipped_token_rejected(pipeline_copy):
    _, out = pipeline_copy
    path = out / "05_pack" / "tokens.bin"
    raw = bytearray(path.read_bytes())
    raw[32 + 4 * 1000] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckFailed, match="differs"):
        check_pack(path, out / "05_pack" / "manifest.json", out / "04_mix" / "mixed.jsonl")


def test_truncated_pack_rejected(pipeline_copy):
    _, out = pipeline_copy
    path = out / "05_pack" / "tokens.bin"
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(CheckFailed, match="not whole sequences"):
        check_pack(path, out / "05_pack" / "manifest.json", out / "04_mix" / "mixed.jsonl")


def test_dropped_sequence_rejected(pipeline_copy):
    _, out = pipeline_copy
    path = out / "05_pack" / "tokens.bin"
    path.write_bytes(path.read_bytes()[:-2048 * 4])
    with pytest.raises(CheckFailed, match="do not fill"):
        check_pack(path, out / "05_pack" / "manifest.json", out / "04_mix" / "mixed.jsonl")


def test_translate_latency_dropped_pair_rejected(tmp_path):
    workload = TranslateLatency(seed=4, n_docs=12)
    workload.latency_s = 0.0
    out = _run(workload, tmp_path)
    workload.check(out)
    assert workload.backend.calls >= 12 * 3
    _rewrite_lines(out / "fr.jsonl", lambda lines: lines[:-1])
    with pytest.raises(CheckFailed, match="missing"):
        workload.check(out)


def test_dedup_clusters_extra_kept_rejected(tmp_path):
    workload = DedupClusters(seed=5, boilerplate=30, small_clusters=4, background=40)
    out = _run(workload, tmp_path)
    workload.check(out)
    kept = out / "kept.jsonl"
    extra = max(workload.truth["clusters"][0])
    extra_doc = next(d for d in workload.docs if d["id"] == extra)
    _rewrite_lines(kept, lambda lines: lines + [json.dumps(extra_doc) + "\n"])
    with pytest.raises(CheckFailed, match="1 unexpected"):
        check_kept_clusters(kept, workload.docs, workload.truth)


def test_dedup_clusters_missing_representative_rejected(tmp_path):
    workload = DedupClusters(seed=6, boilerplate=30, small_clusters=4, background=40)
    out = _run(workload, tmp_path)
    first = min(workload.truth["clusters"][1])
    kept = out / "kept.jsonl"
    _rewrite_lines(kept, lambda lines: [ln for ln in lines if json.loads(ln)["id"] != first])
    with pytest.raises(CheckFailed, match="1 missing"):
        check_kept_clusters(kept, workload.docs, workload.truth)


@pytest.fixture(scope="module")
def probe_run(tmp_path_factory):
    workload = ProbePrior(seed=7, lang_counts={"en": 8, "fr": 4, "de": 4, "es": 4}, n_pairs=4)
    _run(workload, tmp_path_factory.mktemp("probe"))
    return workload


def test_good_probe_output_passes(probe_run):
    probe_run.check(None)


def test_missed_pair_rejected(probe_run):
    w = probe_run
    with pytest.raises(CheckFailed, match="pair evidence"):
        check_probe(w.report.percentages, w.report.obtained, w.evidence[1:], w.truth)


def test_shifted_language_share_rejected(probe_run):
    w = probe_run
    step = 100.0 / w.report.obtained
    shifted = dict(w.report.percentages, fr=w.report.percentages["fr"] - step,
                   de=w.report.percentages["de"] + step)
    with pytest.raises(CheckFailed, match="language counts"):
        check_probe(shifted, w.report.obtained, w.evidence, w.truth)
