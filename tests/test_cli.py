"""CLI subcommand and pipeline orchestration tests."""

import json
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import transmix
from transmix.cli import main
from transmix.corpus import Document, read_corpus, write_corpus
from transmix.pack import PackManifest, unpack_inspect
from transmix.tokenizer import bundled_bpe_paths

from conftest import seed_lines


def pipeline_docs(count, rng=None):
    """Documents long and clean enough to pass the quality rules."""
    rng = rng or random.Random(55)
    pool = seed_lines("en")
    docs = []
    for i in range(count):
        lines = [pool[rng.randrange(len(pool))] for _ in range(8)]
        docs.append(Document(id=f"doc{i:05d}", lang="en", text=" ".join(lines)))
    return docs


# runs ``transmix`` with argv[4:], signing in two workers, and sends itself
# the signal argv[2] names on entering run_mix ("mix"), on the 100th
# signature dedup indexes ("dedup") or on the 100th document pack encodes
# ("pack"), having written to argv[3] how many child processes it had then
KILL_AT = """
import multiprocessing, os, signal, sys, time
from transmix import cli, dedup, tokenizer

os.sched_getaffinity = lambda pid: {0, 1}
point, signame, children = sys.argv[1:4]

def kill():
    with open(children, "w") as fh:
        fh.write(str(len(multiprocessing.active_children())))
    os.kill(os.getpid(), getattr(signal, signame))
    time.sleep(60)
    sys.exit(f"{signame} did not end the run")

def kill_on_call(cls, name, n):
    method, calls = getattr(cls, name), []

    def counted(*args):
        calls.append(None)
        if len(calls) == n:
            kill()
        return method(*args)

    setattr(cls, name, counted)

if point == "mix":
    cli.run_mix = lambda *args: kill()
elif point == "dedup":
    kill_on_call(dedup.LshIndex, "_append", 100)
else:  # only pack encodes
    kill_on_call(tokenizer.WhitespaceCounter, "encode", 100)
sys.exit(cli.main(sys.argv[4:]))
"""


def tree_bytes(root):
    """The bytes of every file under ``root``, by its path relative to it."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def running_with(text):
    """The pids of live processes whose command line holds ``text``; a forked
    child keeps its parent's command line."""
    pids = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            if text.encode() in (entry / "cmdline").read_bytes():
                pids.append(int(entry.name))
        except OSError:
            pass  # it ended while we looked
    return pids


@pytest.fixture
def small_corpus(tmp_path):
    path = tmp_path / "in.jsonl"
    write_corpus(path, pipeline_docs(30))
    return path


def read_manifest(stage_dir):
    return json.loads((stage_dir / "manifest.json").read_text(encoding="utf-8"))


class TestStats:
    def test_matches_hand_computation(self, tmp_path, capsys):
        docs = [
            Document(id="a", lang="en", text="one two three"),
            Document(id="b", lang="en", text="four five"),
            Document(id="c", lang="fr", text="un deux trois quatre"),
        ]
        path = tmp_path / "in.jsonl"
        write_corpus(path, docs)
        assert main(["stats", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["en"] == {"tokens": 5, "docs": 2, "avg_doc_length": 2.5}
        assert report["fr"] == {"tokens": 4, "docs": 1, "avg_doc_length": 4.0}
        assert report["total"]["tokens"] == 9

    def test_out_file(self, tmp_path, small_corpus):
        out = tmp_path / "stats.json"
        assert main(["stats", str(small_corpus), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["total"]["docs"] == 30


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_config_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[translate]\nbackend = warp\n", encoding="utf-8")
    assert main(["stats", "x.jsonl", "--config", str(bad)]) == 2
    assert "translate.backend" in capsys.readouterr().err


def test_malformed_bpe_merges_exit_2_before_any_stage(tmp_path, capsys):
    vocab, merges = bundled_bpe_paths()
    bad = tmp_path / "merges.txt"
    bad.write_text(merges.read_text(encoding="utf-8") + "a b c\n", encoding="utf-8")
    ini = tmp_path / "bpe.ini"
    ini.write_text(f"[corpus]\ntokenizer = bpe\nbpe_vocab = {vocab}\nbpe_merges = {bad}\n",
                   encoding="utf-8")
    corpus = tmp_path / "in.jsonl"
    write_corpus(corpus, pipeline_docs(5))
    out = tmp_path / "run"
    assert main(["pipeline", str(corpus), "--config", str(ini), "--out-dir", str(out)]) == 2
    assert f"'a b c' in {bad}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_is_stage_failure(tmp_path):
    assert main(["filter", str(tmp_path / "ghost.jsonl"),
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert (tmp_path / "out" / "FAILED").exists()


def test_a_failed_rerun_leaves_no_stale_manifest(tmp_path, small_corpus):
    out = tmp_path / "filtered"
    assert main(["filter", str(small_corpus), "--out-dir", str(out)]) == 0
    assert read_manifest(out)["kept"] == 30
    bad = tmp_path / "bad.jsonl"
    bad.write_text(pipeline_docs(1)[0].to_json() + "\nnot json\n", encoding="utf-8")
    assert main(["filter", str(bad), "--out-dir", str(out), "--strict"]) == 1
    assert (out / "FAILED").exists()
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("stage", ["filter", "dedup", "translate", "mix", "pack"])
def test_a_stage_subcommand_writes_the_manifest_of_that_pipeline_stage(
        tmp_path, small_corpus, stage):
    run = tmp_path / "run"
    assert main(["pipeline", str(small_corpus), "--out-dir", str(run), "--seed", "7"]) == 0
    if stage == "mix":
        ini = tmp_path / "mix.ini"
        sources = [f"source:{run / '02_dedup' / 'kept.jsonl'}"] + [
            f"{tgt}:{run / '03_translate' / f'{tgt}.jsonl'}" for tgt in ("de", "es", "fr")]
        ini.write_text(f"[mix]\nsources = {', '.join(sources)}\n", encoding="utf-8")
        args = ["mix", "--config", str(ini)]
    else:
        read = {"filter": small_corpus, "dedup": run / "01_filter" / "kept.jsonl",
                "translate": run / "02_dedup" / "kept.jsonl",
                "pack": run / "04_mix" / "mixed.jsonl"}[stage]
        args = [stage, str(read)]
    out = tmp_path / stage
    assert main([*args, "--out-dir", str(out), "--seed", "7"]) == 0
    [in_pipeline] = run.glob(f"0?_{stage}")
    assert (out / "manifest.json").read_bytes() == (in_pipeline / "manifest.json").read_bytes()


def test_filter_subcommand_partitions(tmp_path):
    docs = pipeline_docs(10) + [
        Document(id="tiny", lang="en", text="way too short")]
    path = tmp_path / "in.jsonl"
    write_corpus(path, docs)
    out = tmp_path / "filtered"
    assert main(["filter", str(path), "--out-dir", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["in"] == 11
    assert manifest["kept"] == 10 and manifest["rejected"] == 1
    rejected = [json.loads(l) for l in (out / "rejected.jsonl").read_text().splitlines()]
    assert rejected[0]["doc"]["id"] == "tiny"
    assert rejected[0]["report"]["first_failed"] == "word_count"
    assert (out / "resolved_config.json").exists()


def test_dedup_subcommand_removes_copies(tmp_path):
    docs = pipeline_docs(10)
    docs.append(Document(id="zzcopy", lang="en", text=docs[0].text))
    path = tmp_path / "in.jsonl"
    write_corpus(path, docs)
    out = tmp_path / "deduped"
    assert main(["dedup", str(path), "--out-dir", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["in"] == 11 and manifest["kept"] == 10
    clusters = (out / "clusters.jsonl").read_text().splitlines()
    assert json.loads(clusters[1])["removed"] == ["zzcopy"]


def test_dedup_exact_flag_recorded_in_manifests(tmp_path):
    path = tmp_path / "in.jsonl"
    write_corpus(path, pipeline_docs(6))
    out = tmp_path / "audited"
    assert main(["dedup", str(path), "--out-dir", str(out), "--exact"]) == 0
    assert read_manifest(out)["verification"] == "exact"
    header = json.loads((out / "clusters.jsonl").read_text().splitlines()[0])
    assert header["verification"] == "exact"


def test_strict_flag_aborts_on_malformed_line(tmp_path, capsys):
    path = tmp_path / "in.jsonl"
    good = pipeline_docs(3)
    path.write_text(
        "\n".join(d.to_json() for d in good) + "\nnot json at all\n",
        encoding="utf-8")
    assert main(["stats", str(path), "--strict"]) == 1
    capsys.readouterr()
    # lenient default skips the bad line and keeps going
    assert main(["stats", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total"]["docs"] == 3


@pytest.mark.parametrize("stage, bad_fields, error", [
    pytest.param(stage, bad_fields, error, id=stage + suffix)
    for suffix, bad_fields, error in [
        # "\ud800" alone decodes to a str that UTF-8 cannot encode
        ("", {"text": "\ud800"}, "'utf-8' codec can't encode character '\\ud800'"),
        ("-text-not-a-string", {"text": 5}, "text is not a string"),
        ("-id-not-a-string", {"id": None}, "id is not a string")]
    for stage in ["filter", "dedup", "translate", "mix", "pack"]])
def test_a_lone_surrogate_escape_is_a_malformed_line(tmp_path, stage, bad_fields, error, capsys):
    # the escaped pair "\ud83d\ude00" is one character and stays
    docs = pipeline_docs(5)
    lines = [d.to_json() for d in docs[:4]]
    lines.append(json.dumps({"id": "pair", "lang": "en", "text": docs[4].text + " \U0001F600"}))
    lines.append(json.dumps({"id": "lone", "lang": "en", "text": "lone words", **bad_fields}))
    assert "\\ud83d\\ude00" in lines[4]
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ini = tmp_path / "mix.ini"
    ini.write_text(f"[mix]\nsources = a:{path}\n", encoding="utf-8")

    def args(out):
        out.mkdir()
        if stage == "mix":
            return ["mix", "--config", str(ini), "--out-dir", str(out)]
        return [stage, str(path), "--out-dir", str(out)]

    out = tmp_path / "lenient"
    assert main(args(out)) == 0
    if stage == "pack":
        assert read_manifest(out)["eos_count"] == 5
    else:
        written = "".join(p.read_text(encoding="utf-8") for p in out.glob("*.jsonl"))
        assert '"pair' in written and '"lone' not in written
    capsys.readouterr()
    assert main([*args(tmp_path / "strict"), "--strict"]) == 1
    assert f"in.jsonl:6: {error}" in capsys.readouterr().err


def test_translate_subcommand_mock_echo(tmp_path, small_corpus):
    out = tmp_path / "translated"
    assert main(["translate", str(small_corpus), "--out-dir", str(out)]) == 0
    for tgt in ("fr", "de", "es"):
        assert len(list(read_corpus(out / f"{tgt}.jsonl"))) == 30
    assert read_manifest(out)["ok"] == 90


def test_mix_subcommand_uses_configured_sources(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_corpus(a, pipeline_docs(20, random.Random(1)))
    write_corpus(b, pipeline_docs(20, random.Random(2)))
    ini = tmp_path / "mix.ini"
    ini.write_text(f"[mix]\nsources = a:{a}, b:{b}\nbudget_per_source = 500\n",
                   encoding="utf-8")
    out = tmp_path / "mixed"
    assert main(["mix", "--config", str(ini), "--out-dir", str(out)]) == 0
    manifest = read_manifest(out)
    assert set(manifest["sources"]) == {"a", "b"}
    assert all(v["tokens"] >= 500 for v in manifest["sources"].values())
    assert (out / "mixed.jsonl").exists()


def test_mix_refuses_two_sources_of_one_name(tmp_path, capsys):
    a1 = tmp_path / "a1.jsonl"
    a2 = tmp_path / "a2.jsonl"
    write_corpus(a1, pipeline_docs(30, random.Random(1)))
    write_corpus(a2, pipeline_docs(30, random.Random(2)))
    ini = tmp_path / "mix.ini"
    ini.write_text(f"[mix]\nsources = a:{a1}, a:{a2}\n", encoding="utf-8")
    out = tmp_path / "mixed"
    assert main(["mix", "--config", str(ini), "--out-dir", str(out)]) == 2
    assert "mix.sources: 'a' is given more than once" in capsys.readouterr().err
    assert not out.exists()


def test_mix_without_sources_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "mixed"
    assert main(["mix", "--out-dir", str(out)]) == 2
    assert "mix.sources: required" in capsys.readouterr().err
    assert not out.exists()  # no stage directory, so no FAILED marker


def test_mix_default_budget_reads_each_source_once(tmp_path, monkeypatch):
    import transmix.cli as cli_mod
    import transmix.corpus as corpus_mod
    from transmix.config import load_config
    from transmix.corpus import _parse_line as parse_line, read_at, scan_corpus
    from transmix.tokenizer import WhitespaceCounter

    sources = []
    for name, count in (("a", 20), ("b", 14), ("c", 17)):
        path = tmp_path / f"{name}.jsonl"
        write_corpus(path, pipeline_docs(count, random.Random(count)))
        sources.append((name, str(path)))
    reads, counted, read_back, parsed = [], [], [], []

    def counting_read(path, *args, **kwargs):
        reads.append(str(path))
        return read_corpus(path, *args, **kwargs)

    def counting_scan(path, *args, **kwargs):
        reads.append(str(path))
        return scan_corpus(path, *args, **kwargs)

    def counting_read_at(path, offsets):
        offsets = list(offsets)
        read_back.extend((str(path), offset) for offset in offsets)
        return read_at(path, offsets)

    def counting_parse(line):
        parsed.append(line)
        return parse_line(line)

    class CountingCounter(WhitespaceCounter):
        def count(self, text):
            counted.append(text)
            return super().count(text)

    monkeypatch.setattr(cli_mod, "read_corpus", counting_read)
    monkeypatch.setattr(corpus_mod, "scan_corpus", counting_scan)
    monkeypatch.setattr(corpus_mod, "read_at", counting_read_at)
    monkeypatch.setattr(corpus_mod, "_parse_line", counting_parse)
    config = load_config(None)
    assert config.mix_budget_per_source == 0  # the smallest-source default
    monkeypatch.setattr(config, "make_counter", CountingCounter)
    out = tmp_path / "mixed"
    out.mkdir()
    manifest = cli_mod.run_mix(config, sources, out)

    assert sorted(reads) == sorted(path for _, path in sources)
    assert len(counted) == 20 + 14 + 17
    assert len(parsed) == 20 + 14 + 17  # no line read back is parsed again
    totals = {name: sum(WhitespaceCounter().count(d.text) for d in read_corpus(path))
              for name, path in sources}
    assert {v["budget"] for v in manifest["sources"].values()} == {min(totals.values())}
    # only the sampled documents are read back, each once
    assert len(set(read_back)) == len(read_back) == manifest["output_docs"]


def test_dedup_parses_each_input_line_once(tmp_path, monkeypatch):
    import transmix.corpus as corpus_mod

    docs = pipeline_docs(12)
    docs += [Document(id=f"copy{i}", lang="en", text=d.text) for i, d in enumerate(docs[:3])]
    path = tmp_path / "in.jsonl"
    write_corpus(path, docs)
    parsed = []
    parse_line = corpus_mod._parse_line

    def counting_parse(line):
        parsed.append(line)
        return parse_line(line)

    monkeypatch.setattr(corpus_mod, "_parse_line", counting_parse)
    out = tmp_path / "out"
    assert main(["dedup", str(path), "--out-dir", str(out)]) == 0
    assert read_manifest(out)["kept"] == 12
    assert sorted(parsed) == sorted(d.to_json() for d in docs)


def test_pack_subcommand(tmp_path, small_corpus):
    out = tmp_path / "packed"
    assert main(["pack", str(small_corpus), "--out-dir", str(out)]) == 0
    manifest = PackManifest(**read_manifest(out))
    assert manifest.identity_holds()
    assert unpack_inspect(out / "tokens.bin", 1,
                          expected_length=manifest.sequence_length)


def test_pack_identity_violation_fails_the_stage(tmp_path, small_corpus, monkeypatch, capsys):
    monkeypatch.setattr(PackManifest, "identity_holds", lambda self: False)
    out = tmp_path / "packed"
    assert main(["pack", str(small_corpus), "--out-dir", str(out)]) == 1
    assert "token conservation identity violated" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert sorted(p.name for p in out.iterdir()) == ["FAILED", "resolved_config.json"]


def test_probe_subcommand_with_echo_backend_records_zero_obtained(tmp_path):
    # the echo backend cannot serve empty prompts: every call fails, and the
    # report must say so rather than fabricate samples
    ini = tmp_path / "probe.ini"
    ini.write_text("[probe]\nn = 8\n", encoding="utf-8")
    out = tmp_path / "probe"
    assert main(["probe", "--config", str(ini), "--out-dir", str(out)]) == 0
    report = json.loads((out / "prior_report.json").read_text())
    assert report["requested"] == 8 and report["obtained"] == 0
    assert read_manifest(out) == {"stage": "probe", **report}


class TestPipeline:
    def run_pipeline(self, tmp_path, name, seed="7", extra=()):
        in_path = tmp_path / "in.jsonl"
        if not in_path.exists():
            write_corpus(in_path, pipeline_docs(40))
        out = tmp_path / name
        code = main(["pipeline", str(in_path), "--out-dir", str(out),
                     "--seed", seed, *extra])
        return code, out

    def test_all_stage_artifacts_present(self, tmp_path):
        code, out = self.run_pipeline(tmp_path, "run1")
        assert code == 0
        for stage in ("01_filter", "02_dedup", "03_translate", "04_mix", "05_pack"):
            assert (out / stage / "manifest.json").exists(), stage
            assert (out / stage / "resolved_config.json").exists(), stage
        pack = PackManifest(**read_manifest(out / "05_pack"))
        assert pack.identity_holds()
        assert not (out / "FAILED").exists()

    def test_no_silent_data_loss(self, tmp_path):
        code, out = self.run_pipeline(tmp_path, "run1")
        assert code == 0
        filt = read_manifest(out / "01_filter")
        assert filt["in"] == filt["kept"] + filt["rejected"]
        dd = read_manifest(out / "02_dedup")
        assert dd["in"] == filt["kept"]
        assert dd["in"] == dd["kept"] + dd["removed"]
        tr = read_manifest(out / "03_translate")
        assert tr["docs_in"] == dd["kept"]
        assert tr["ok"] + tr["failed"] == tr["docs_in"] * 3  # three targets

    def test_reproducible_byte_identical(self, tmp_path):
        _, out_a = self.run_pipeline(tmp_path, "runA")
        _, out_b = self.run_pipeline(tmp_path, "runB")
        assert (out_a / "05_pack" / "tokens.bin").read_bytes() == \
            (out_b / "05_pack" / "tokens.bin").read_bytes()
        assert read_manifest(out_a / "05_pack") == read_manifest(out_b / "05_pack")
        assert read_manifest(out_a / "04_mix") == read_manifest(out_b / "04_mix")

    def test_token_counts_come_from_the_active_counter(self, tmp_path, capsys):
        # a token_count key in a line is an extra key: copied, never trusted
        in_path = tmp_path / "in.jsonl"
        write_corpus(in_path, [
            json.dumps({**json.loads(d.to_json()), "token_count": 999 if i % 2 else "12"})
            for i, d in enumerate(pipeline_docs(40))])
        code, out = self.run_pipeline(tmp_path, "run")
        assert code == 0
        mixed = out / "04_mix" / "mixed.jsonl"
        lines = mixed.read_text(encoding="utf-8").splitlines()
        assert any('"token_count": 999' in line for line in lines)
        assert any('"token_count": "12"' in line for line in lines)
        assert main(["stats", str(mixed)]) == 0
        stats = json.loads(capsys.readouterr().out)
        mix = read_manifest(out / "04_mix")
        assert stats["total"]["docs"] == mix["output_docs"]
        assert stats["total"]["tokens"] == sum(v["tokens"] for v in mix["sources"].values())
        assert stats["total"]["tokens"] == read_manifest(out / "05_pack")["total_doc_tokens"]

    def test_no_targets_mixes_the_source_alone(self, tmp_path):
        ini = tmp_path / "pipeline.ini"
        ini.write_text("[translate]\ntargets =\n", encoding="utf-8")
        code, out = self.run_pipeline(tmp_path, "run", extra=("--config", str(ini)))
        assert code == 0
        assert not (out / "03_translate").exists()
        mix = read_manifest(out / "04_mix")
        assert list(mix["sources"]) == ["source"]
        assert mix["output_docs"] == read_manifest(out / "02_dedup")["kept"]
        assert read_manifest(out / "05_pack")["total_doc_tokens"] == \
            mix["sources"]["source"]["tokens"]

    def test_a_failed_stage_and_the_run_root_are_marked_until_resumed(
            self, tmp_path, monkeypatch):
        from transmix.config import PipelineConfig
        from transmix.translate import MockEchoBackend

        class Killed(RuntimeError):
            pass

        class KillingEcho(MockEchoBackend):
            def complete(self, prompt, max_tokens=0, temperature=0.0):
                if self.calls >= 20:
                    raise Killed("backend gone")
                return super().complete(prompt, max_tokens, temperature)

        original = PipelineConfig.make_backend
        monkeypatch.setattr(PipelineConfig, "make_backend",
                            lambda self: KillingEcho(self.make_template()))
        code, out = self.run_pipeline(tmp_path, "run")
        assert code == 1
        for marked in (out, out / "03_translate"):
            assert (marked / "FAILED").read_text() == "Killed: backend gone\n"
        for stage in ("01_filter", "02_dedup"):
            assert not (out / stage / "FAILED").exists()
        assert not (out / "04_mix").exists()

        monkeypatch.setattr(PipelineConfig, "make_backend", original)
        code, out = self.run_pipeline(tmp_path, "run", extra=("--resume",))
        assert code == 0
        assert not (out / "FAILED").exists()
        assert not (out / "03_translate" / "FAILED").exists()

    def test_a_translation_with_no_tokens_fails_the_mix(self, tmp_path, monkeypatch):
        # with no budget set, an empty source would balance the mix to 0 tokens
        from transmix.config import PipelineConfig
        from transmix.translate import BackendResult, MockEchoBackend

        class Unreachable(MockEchoBackend):
            def complete(self, prompt, max_tokens=0, temperature=0.0):
                return BackendResult(error="URLError: connection refused")

        monkeypatch.setattr(PipelineConfig, "make_backend",
                            lambda self: Unreachable(self.make_template()))
        ini = tmp_path / "pipeline.ini"
        ini.write_text("[translate]\nretries = 1\n", encoding="utf-8")
        code, out = self.run_pipeline(tmp_path, "run", extra=("--config", str(ini)))
        assert code == 1
        assert (out / "04_mix" / "FAILED").read_text() == \
            "MixtureError: sources with no tokens: 'de', 'es', 'fr'\n"
        assert not (out / "04_mix" / "mixed.jsonl").exists()
        assert not (out / "05_pack" / "tokens.bin").exists()

    def test_a_failed_rerun_leaves_no_manifest_of_a_later_stage(self, tmp_path):
        code, out = self.run_pipeline(tmp_path, "run", seed="7")
        assert code == 0
        # another seed, no --resume: translate refuses the journal it finds
        code, out = self.run_pipeline(tmp_path, "run", seed="8")
        assert code == 1
        assert (out / "03_translate" / "FAILED").exists()
        for stage in ("01_filter", "02_dedup"):  # rerun with seed 8
            assert (out / stage / "manifest.json").exists(), stage
            config = json.loads((out / stage / "resolved_config.json").read_text())
            assert config["seed"] == 8
        for stage in ("03_translate", "04_mix", "05_pack"):
            assert not (out / stage / "manifest.json").exists(), stage

    def test_ctrl_c_marks_the_stage_and_the_run_root(self, tmp_path, monkeypatch):
        from transmix import mixer

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(mixer, "compose_stage", interrupted)
        with pytest.raises(KeyboardInterrupt):
            self.run_pipeline(tmp_path, "run")
        out = tmp_path / "run"
        for marked in (out, out / "04_mix"):
            assert (marked / "FAILED").read_text() == "KeyboardInterrupt: \n"
        for stage in ("01_filter", "02_dedup", "03_translate"):
            assert not (out / stage / "FAILED").exists()
        assert not (out / "05_pack").exists()

    def kill_pipeline_at(self, tmp_path, point, signame):
        """Runs ``pipeline`` on 150 documents into ``tmp_path / "run"`` in a
        child that sends itself ``signame`` at ``point`` (see KILL_AT)."""
        in_path = tmp_path / "in.jsonl"
        write_corpus(in_path, pipeline_docs(150))
        out = tmp_path / "run"
        children = tmp_path / "children"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            str(Path(transmix.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", KILL_AT, point, signame, str(children),
             "pipeline", str(in_path), "--out-dir", str(out), "--seed", "7"],
            env=env, capture_output=True, text=True, timeout=300)
        return proc, out, children

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    @pytest.mark.parametrize("point, stage", [
        ("mix", "04_mix"), ("dedup", "02_dedup"), ("pack", "05_pack")])
    def test_sigterm_marks_the_stage_and_the_run_root(self, tmp_path, point, stage):
        proc, out, children = self.kill_pipeline_at(tmp_path, point, "SIGTERM")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.endswith("terminated by SIGTERM\n")
        for marked in (out, out / stage):
            assert (marked / "FAILED").read_text() == "SystemExit: terminated by SIGTERM\n"
        assert not (out / stage / "manifest.json").exists()
        assert int(children.read_text()) == (2 if point == "dedup" else 0)
        assert running_with(str(out)) == []
        # the stage removed what it had half written
        assert not (out / "05_pack" / "tokens.bin").exists()
        assert list(out.rglob("*.partial")) == []

    def test_sigkill_in_pack_leaves_no_tokens_file_and_resume_finishes(self, tmp_path):
        proc, out, _ = self.kill_pipeline_at(tmp_path, "pack", "SIGKILL")
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert not (out / "05_pack" / "tokens.bin").exists()
        assert (out / "05_pack" / "tokens.bin.partial").exists()

        in_path = str(tmp_path / "in.jsonl")
        assert main(["pipeline", in_path, "--out-dir", str(out), "--seed", "7",
                     "--resume"]) == 0
        clean = tmp_path / "clean"
        assert main(["pipeline", in_path, "--out-dir", str(clean), "--seed", "7"]) == 0
        resumed, expected = tree_bytes(out), tree_bytes(clean)
        assert [name for name in resumed if name.endswith(".partial")] == []
        # a resume counts only this invocation's translations
        per_invocation = ("ok", "skipped_resume", "chunk_calls")
        translate = [json.loads(files.pop("03_translate/manifest.json"))
                     for files in (resumed, expected)]
        for manifest in translate:
            for key in per_invocation:
                manifest.pop(key)
        assert translate[0] == translate[1]
        assert resumed == expected

    def test_seed_changes_pack_output(self, tmp_path):
        _, out_a = self.run_pipeline(tmp_path, "runA", seed="7")
        _, out_b = self.run_pipeline(tmp_path, "runB", seed="8")
        assert (out_a / "05_pack" / "tokens.bin").read_bytes() != \
            (out_b / "05_pack" / "tokens.bin").read_bytes()


# ---- two-pass stages: bounded memory, inputs read twice ----------------------

def lined_docs(lang, count, seed, lines_per_doc=(10, 30), dup_every=10):
    """``count`` documents of seed lines, about 90 characters a line; every
    ``dup_every``-th is a one-word edit of the one before it."""
    rng = random.Random(seed)
    lines = seed_lines(lang)
    docs = []
    for i in range(count):
        if dup_every and i % dup_every == dup_every - 1:
            words = docs[-1].text.split()
            words[rng.randrange(len(words))] = "edited"
            text = " ".join(words)
        else:
            text = " ".join(rng.choice(lines) for _ in range(rng.randint(*lines_per_doc)))
        docs.append(Document(id=f"{lang}{i:05d}", lang=lang, text=text))
    return docs


def traced_peak(run):
    """What ``run()`` returns, and its peak traced memory, in bytes above
    what it started with."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("exact", [False, True], ids=["estimate", "exact"])
def test_dedup_memory_per_input_document_is_bounded(tmp_path, exact):
    # the stage holds signatures (and for exact, shingle arrays), not text
    from transmix import cli as cli_mod
    from transmix.config import load_config
    from transmix.dedup import shingle_set

    config = load_config(None)
    docs = lined_docs("en", 2000, seed=71, lines_per_doc=(4, 8))  # short: tracing is slow
    path = tmp_path / "in.jsonl"
    write_corpus(path, docs)
    write_corpus(tmp_path / "warm.jsonl", docs[:20])
    cli_mod.run_dedup(config, str(tmp_path / "warm.jsonl"), tmp_path, exact)
    out = tmp_path / "out"
    out.mkdir()
    manifest, peak = traced_peak(lambda: cli_mod.run_dedup(config, str(path), out, exact))
    assert manifest["in"] == 2000 and manifest["removed"] >= 150
    allowed = 1536 * len(docs)
    if exact:
        allowed += 10 * sum(len(shingle_set(d.text)) for d in docs)
    assert peak <= allowed, f"{peak / len(docs):.0f} B per doc"


def test_mix_memory_per_input_document_is_bounded(tmp_path):
    # four sources are scanned for offsets and counts; no text is held
    from transmix import cli as cli_mod
    from transmix.config import load_config

    config = load_config(None)
    sources = []
    for lang in ("en", "fr", "de", "es"):
        path = tmp_path / f"{lang}.jsonl"
        write_corpus(path, lined_docs(lang, 500, seed=len(sources), dup_every=0))
        sources.append((lang, str(path)))
    out = tmp_path / "out"
    out.mkdir()
    cli_mod.run_mix(config, [(n, p) for n, p in sources[:1]], out)  # warm up
    manifest, peak = traced_peak(lambda: cli_mod.run_mix(config, sources, out))
    assert manifest["output_docs"] >= 1500
    assert peak <= 1536 * 2000, f"{peak / 2000:.0f} B per doc"


def test_dedup_and_mix_refuse_a_pipe(tmp_path):
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)  # opening it would block: the stages must not try
    assert main(["dedup", str(fifo), "--out-dir", str(tmp_path / "d")]) == 1
    assert "not a regular file" in (tmp_path / "d" / "FAILED").read_text()
    assert not (tmp_path / "d" / "kept.jsonl").exists()
    ini = tmp_path / "mix.ini"
    ini.write_text(f"[mix]\nsources = a:{fifo}\n", encoding="utf-8")
    assert main(["mix", "--config", str(ini), "--out-dir", str(tmp_path / "m")]) == 1
    assert "not a regular file" in (tmp_path / "m" / "FAILED").read_text()
    assert not (tmp_path / "m" / "mixed.jsonl").exists()


def test_dedup_refuses_an_input_changed_between_passes(tmp_path, monkeypatch):
    import transmix.dedup as dedup_mod

    path = tmp_path / "in.jsonl"
    write_corpus(path, pipeline_docs(12))
    original = dedup_mod.dedup_corpus

    def then_append(docs, **kwargs):
        result = original(docs, **kwargs)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(Document(id="late", lang="en", text="appended").to_json() + "\n")
        return result

    monkeypatch.setattr(dedup_mod, "dedup_corpus", then_append)
    out = tmp_path / "out"
    assert main(["dedup", str(path), "--out-dir", str(out)]) == 1
    assert "changed between reads" in (out / "FAILED").read_text()
    assert not (out / "kept.jsonl").exists()

    # same size and mtime, other text: the documents read again do not match
    write_corpus(path, pipeline_docs(12))

    def then_swap(docs, **kwargs):
        result = original(docs, **kwargs)
        st = os.stat(path)
        text = path.read_text(encoding="utf-8")
        assert "The" in text
        path.write_text(text.replace("The", "Teh"), encoding="utf-8")
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        return result

    monkeypatch.setattr(dedup_mod, "dedup_corpus", then_swap)
    assert main(["dedup", str(path), "--out-dir", str(out)]) == 1
    assert "not the one first read" in (out / "FAILED").read_text()


def test_mix_refuses_a_source_changed_before_it_is_read_back(tmp_path):
    from transmix.corpus import CorpusRereadError
    from transmix.mixer import compose_stage
    from transmix.tokenizer import WhitespaceCounter

    docs = pipeline_docs(12)
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        write_corpus(path, docs)
    sources = [(p.stem, str(p)) for p in paths]
    mixed, _ = compose_stage(sources, WhitespaceCounter(), seed=3)
    with open(paths[0], "a", encoding="utf-8") as fh:
        fh.write(docs[0].to_json() + "\n")
    with pytest.raises(CorpusRereadError, match="changed between reads"):
        list(mixed)

    # same size and mtime, other text: the documents read back do not match
    mixed, _ = compose_stage(sources, WhitespaceCounter(), seed=3)
    st = os.stat(paths[1])
    swapped = paths[1].read_text(encoding="utf-8").replace("The", "Teh")
    paths[1].write_text(swapped, encoding="utf-8")
    os.utime(paths[1], ns=(st.st_atime_ns, st.st_mtime_ns))
    with pytest.raises(CorpusRereadError, match="not the one first read"):
        list(mixed)


def test_dedup_and_mix_take_a_source_field_of_any_json_type(tmp_path):
    docs = pipeline_docs(6)
    path = tmp_path / "in.jsonl"
    path.write_text("".join(json.dumps({**json.loads(d.to_json()), "source": ["a", {"b": 1}]})
                            + "\n" for d in docs), encoding="utf-8")
    assert main(["dedup", str(path), "--out-dir", str(tmp_path / "d")]) == 0
    assert len(list(read_corpus(tmp_path / "d" / "kept.jsonl"))) == 6
    ini = tmp_path / "mix.ini"
    ini.write_text(f"[mix]\nsources = a:{path}\n", encoding="utf-8")
    assert main(["mix", "--config", str(ini), "--out-dir", str(tmp_path / "m")]) == 0
    assert read_manifest(tmp_path / "m")["output_docs"] == 6


def test_filter_dedup_and_mix_copy_kept_lines_as_read(tmp_path):
    # extra keys, another key order, escapes, CRLF ends and leading spaces
    # all survive: a kept document is written as its stripped input line
    docs = pipeline_docs(6)
    objs = [
        {"url": "https://example.org/0", "id": docs[0].id, "lang": "en",
         "text": docs[0].text, "score": 3.25, "dump": "CC-MAIN-2024-10"},
        {"text": docs[1].text, "lang": "en", "id": docs[1].id},
        {"id": docs[2].id, "lang": "en", "text": docs[2].text + " caf\u00e9"},
        {"score": 2, "id": docs[3].id, "text": docs[3].text, "lang": "en"},
        {"id": docs[4].id, "lang": "en", "text": docs[4].text, "source": "fineweb-edu"},
        {"id": docs[5].id, "lang": "en", "text": docs[5].text, "token_count": 7},
    ]
    lines = [json.dumps(obj) for obj in objs]  # ASCII: "\u00e9", not "é"
    assert "caf\\u00e9" in lines[2]
    path = tmp_path / "in.jsonl"
    path.write_bytes("".join(pad + line + end for line, pad, end in zip(
        lines, ["  ", "", "\t", "", " ", ""], ["\r\n", "\n", "\r\n", "\n", "\r\n", "\n"])
    ).encode("utf-8"))

    def written(file):
        return file.read_text(encoding="utf-8").splitlines()

    assert main(["filter", str(path), "--out-dir", str(tmp_path / "f")]) == 0
    assert written(tmp_path / "f" / "kept.jsonl") == lines
    assert main(["dedup", str(path), "--out-dir", str(tmp_path / "d")]) == 0
    assert written(tmp_path / "d" / "kept.jsonl") == lines
    ini = tmp_path / "mix.ini"
    ini.write_text(f"[mix]\nsources = a:{path}\n", encoding="utf-8")
    assert main(["mix", "--config", str(ini), "--out-dir", str(tmp_path / "m")]) == 0
    assert sorted(written(tmp_path / "m" / "mixed.jsonl")) == sorted(lines)
