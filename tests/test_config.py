"""Configuration loading, env overrides, and validation diagnostics."""

import configparser
import re
from dataclasses import fields
from pathlib import Path

import pytest

from transmix.cli import main
from transmix.config import ConfigError, PipelineConfig, load_config
from transmix.config import _OPTIONS
from transmix.quality import RuleConfig
from transmix.tokenizer import bundled_bpe_paths
from transmix.translate import LANGUAGE_NAMES, GenerationParams, MockCipherBackend, MockEchoBackend


def test_defaults_without_a_file():
    config = load_config(None)
    assert config.seed == 0
    assert config.targets == ["fr", "de", "es"]
    assert config.dedup_threshold == 0.8
    assert config.sequence_length == 2048
    assert config.probe_n == 512 and config.probe_max_tokens == 300
    assert config.probe_temperature == 1.0


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/pipeline.ini")


def test_ini_values_parsed(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_text(
        "[run]\nseed = 99\n"
        "[segment]\nchunk_limit = 120\n"
        "[translate]\ntargets = fr\nbackend = mock-cipher\n"
        "[dedup]\nthreshold = 0.85\n"
        "[pack]\nsequence_length = 256\n",
        encoding="utf-8")
    config = load_config(path)
    assert config.seed == 99
    assert config.chunk_limit == 120
    assert config.targets == ["fr"]
    assert isinstance(config.make_backend(), MockCipherBackend)
    assert config.dedup_threshold == 0.85
    assert config.sequence_length == 256


def test_env_overrides_beat_file_values(tmp_path, monkeypatch):
    path = tmp_path / "pipeline.ini"
    path.write_text("[dedup]\nthreshold = 0.8\n", encoding="utf-8")
    monkeypatch.setenv("TWP_DEDUP_THRESHOLD", "0.9")
    monkeypatch.setenv("TWP_RUN_SEED", "123")
    config = load_config(path)
    assert config.dedup_threshold == 0.9
    assert config.seed == 123


def test_validation_collects_field_level_problems(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_text(
        "[translate]\nbackend = teleport\n"
        "[dedup]\nbands = 4\nrows = 4\n"
        "[pack]\nsequence_length = 1\n",
        encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    message = str(err.value)
    assert "translate.backend" in message
    assert "dedup.bands" in message
    assert "pack.sequence_length" in message


def test_bad_numeric_value_reported_with_field_name(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_text("[run]\nseed = not-a-number\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="run.seed"):
        load_config(path)


def test_bpe_tokenizer_requires_existing_files(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_text("[corpus]\ntokenizer = bpe\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bpe_vocab"):
        load_config(path)

    vocab, merges = bundled_bpe_paths()
    path.write_text(
        f"[corpus]\ntokenizer = bpe\nbpe_vocab = {vocab}\nbpe_merges = {merges}\n",
        encoding="utf-8")
    config = load_config(path)
    assert config.make_counter().mode == "bpe"


def test_validate_builds_a_counter_only_for_bpe(monkeypatch):
    built = []
    monkeypatch.setattr(PipelineConfig, "make_counter",
                        lambda self: built.append(self.tokenizer))
    PipelineConfig().validate()
    assert built == []
    vocab, merges = bundled_bpe_paths()
    PipelineConfig(tokenizer="bpe", bpe_vocab=str(vocab), bpe_merges=str(merges)).validate()
    assert built == ["bpe"]


def test_instruction_override_validated(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_text(
        "[translate]\ninstruction = no slots at all\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="translate.instruction"):
        load_config(path)


def test_snapshot_is_json_ready(tmp_path):
    from transmix.corpus import Document, write_corpus

    path = tmp_path / "in.jsonl"
    write_corpus(path, [Document(id="d", lang="en", text="a few words")])
    out = tmp_path / "filtered"
    assert main(["filter", str(path), "--out-dir", str(out)]) == 0
    import json
    snap = json.loads((out / "resolved_config.json").read_text(encoding="utf-8"))
    assert snap["seed"] == 0
    assert snap["quality"]["min_words"] == 50


def test_mix_sources_parsing(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_text(
        "[mix]\nsources = en:data/en.jsonl, fr:data/fr.jsonl\n", encoding="utf-8")
    config = load_config(path)
    assert config.mix_sources == [("en", "data/en.jsonl"), ("fr", "data/fr.jsonl")]


def test_default_backend_is_echo():
    assert isinstance(PipelineConfig().make_backend(), MockEchoBackend)


def test_unknown_keys_rejected_with_their_names(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_text("[dedup]\ntreshold = 0.9\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"dedup\.treshold: unknown option"):
        load_config(path)
    # an option removed from the table is no longer accepted either
    path.write_text("[run]\nseed = 3\nworkers = 4\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"run\.workers: unknown option"):
        load_config(path)
    path.write_text("[dedupe]\nthreshold = 0.9\n[DEFAULT]\nseed = 1\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.problems == ["dedupe: unknown section", "DEFAULT: unknown section"]


def test_removed_mix_buffer_size_option_exits_2(tmp_path, monkeypatch, capsys):
    # the mix shuffles exactly; it has no buffer to size
    path = tmp_path / "pipeline.ini"
    path.write_text("[mix]\nbuffer_size = 100000\n", encoding="utf-8")
    args = ["mix", "--out-dir", str(tmp_path / "out"), "--config"]
    assert main([*args, str(path)]) == 2
    assert "mix.buffer_size: unknown option" in capsys.readouterr().err
    path.write_text("", encoding="utf-8")
    monkeypatch.setenv("TWP_MIX_BUFFER_SIZE", "100000")
    assert main([*args, str(path)]) == 2
    assert "TWP_MIX_BUFFER_SIZE: unknown environment override" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, option, command", [
    ("segment", "abbreviation_dir", "translate"), ("quality", "stopword_dir", "filter")])
@pytest.mark.parametrize("source", ["ini", "env"])
def test_removed_language_list_option_exits_2(
        tmp_path, monkeypatch, capsys, section, option, command, source):
    # the segmenter and the stop-word rule read only the bundled lists
    path = tmp_path / "pipeline.ini"
    path.write_text(f"[{section}]\n" + (f"{option} = {tmp_path}\n" if source == "ini" else ""),
                    encoding="utf-8")
    env_name = f"TWP_{section}_{option}".upper()
    if source == "env":
        monkeypatch.setenv(env_name, str(tmp_path))
    assert main([command, str(tmp_path / "in.jsonl"), "--out-dir", str(tmp_path / "out"),
                 "--config", str(path)]) == 2
    assert (f"{section}.{option}: unknown option" if source == "ini" else
            f"{env_name}: unknown environment override") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_removed_probe_model_path_option_exits_2(tmp_path, monkeypatch, capsys):
    # the probe always trains its language model from the bundled seeds
    path = tmp_path / "pipeline.ini"
    path.write_text("[probe]\nmodel_path = x\n", encoding="utf-8")
    args = ["probe", "--out-dir", str(tmp_path / "out"), "--config"]
    assert main([*args, str(path)]) == 2
    assert "probe.model_path: unknown option" in capsys.readouterr().err
    path.write_text("", encoding="utf-8")
    monkeypatch.setenv("TWP_PROBE_MODEL_PATH", "x")
    assert main([*args, str(path)]) == 2
    assert "TWP_PROBE_MODEL_PATH: unknown environment override" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("endpoint", [
    "localhost:8000/v1/completions", "ftp://localhost/v1/completions", "http:///v1/completions",
    "http://[::1/v1/completions", "/v1/completions"])
@pytest.mark.parametrize("source", ["ini", "env"])
def test_endpoint_that_is_not_an_http_url_exits_2(
        tmp_path, monkeypatch, capsys, endpoint, source):
    path = tmp_path / "pipeline.ini"
    path.write_text("[translate]\nbackend = http-completion\n" + (
        f"endpoint = {endpoint}\n" if source == "ini" else ""), encoding="utf-8")
    if source == "env":
        monkeypatch.setenv("TWP_TRANSLATE_ENDPOINT", endpoint)
    message = f"translate.endpoint: must be an http:// or https:// URL, got {endpoint!r}"
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.problems == [message]
    assert main(["translate", str(tmp_path / "in.jsonl"), "--out-dir", str(tmp_path / "out"),
                 "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_http_and_https_endpoints_load(tmp_path):
    path = tmp_path / "pipeline.ini"
    for endpoint in ("http://localhost:8000/v1/completions", "https://example.org/v1"):
        path.write_text(f"[translate]\nbackend = http-completion\nendpoint = {endpoint}\n",
                        encoding="utf-8")
        assert load_config(path).endpoint == endpoint


def test_removed_translate_enabled_option_exits_2(tmp_path, capsys):
    # an empty "targets =" turns translation off; "enabled" is no option
    path = tmp_path / "pipeline.ini"
    path.write_text("[translate]\nenabled = true\n", encoding="utf-8")
    assert main(["pipeline", str(tmp_path / "in.jsonl"), "--config", str(path),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "translate.enabled: unknown option" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

def test_example_ini_states_the_table_defaults():
    example = Path(__file__).resolve().parent.parent / "pipeline.example.ini"
    assert load_config(example) == load_config(None) == PipelineConfig()
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(example, encoding="utf-8")
    pairs = {(s, o) for s in parser.sections() for o in parser.options(s)}
    assert pairs == {(section, option) for section, option, *_ in _OPTIONS}


def test_translate_generation_options_are_generation_params(tmp_path):
    # each GenerationParams field is a [translate] option with its default
    options = {(section, option) for section, option, *_ in _OPTIONS}
    assert {("translate", f.name) for f in fields(GenerationParams)} <= options
    assert PipelineConfig().generation_params() == GenerationParams()
    path = tmp_path / "pipeline.ini"
    path.write_text("[translate]\nmax_tokens = 64\ntemperature = 0.5\nretries = 2\n"
                    "backoff = 0.25\nmax_in_flight = 4\n", encoding="utf-8")
    assert load_config(path).generation_params() == GenerationParams(
        max_tokens=64, temperature=0.5, retries=2, backoff=0.25, max_in_flight=4)


@pytest.mark.parametrize("text, line", [
    ("[dedup]\nthreshold = 0.9\nthreshold = 0.7\n", 3),  # an option given twice
    ("threshold = 0.9\n[dedup]\n", 1),  # a key before any section header
], ids=["duplicate_option", "missing_section_header"])
def test_malformed_ini_is_config_error_naming_file_and_line(tmp_path, capsys, text, line):
    path = tmp_path / "pipeline.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    [problem] = err.value.problems
    assert "pipeline.ini" in problem and re.search(rf"\bline:? {line}\b", problem)
    assert main(["filter", str(tmp_path / "in.jsonl"), "--out-dir", str(tmp_path / "out"),
                 "--config", str(path)]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_non_utf8_ini_is_config_error(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_bytes(b"[dedup]\nthreshold = 0.9 \xff\n")
    with pytest.raises(ConfigError, match=r"pipeline\.ini: not UTF-8 text"):
        load_config(path)


def test_unknown_env_override_rejected_with_its_name(monkeypatch):
    monkeypatch.setenv("TWP_DEDUP_TRESHOLD", "0.9")
    monkeypatch.setenv("TWP_RUN_WORKERS", "4")
    monkeypatch.setenv("TWP_DEDUP_THRESHOLD", "0.9")  # a known one is still taken
    with pytest.raises(ConfigError) as err:
        load_config(None)
    assert err.value.problems == ["TWP_DEDUP_TRESHOLD: unknown environment override",
                                  "TWP_RUN_WORKERS: unknown environment override"]


OUT_OF_RANGE = [("translate", "max_in_flight", "0"), ("translate", "timeout", "0"),
                ("translate", "temperature", "-1"), ("dedup", "shingle_size", "0"),
                ("mix", "budget_per_source", "-1"), ("probe", "temperature", "-2"),
                ("probe", "max_tokens", "-5"), ("quality", "min_words", "-1"),
                ("quality", "min_mean_word_length", "-0.5"),
                ("quality", "max_symbol_word_ratio", "-0.1"), ("quality", "min_stop_words", "-1"),
                ("quality", "max_bullet_line_fraction", "1.5"),
                ("quality", "max_ellipsis_line_fraction", "-0.1"),
                ("quality", "min_alpha_word_fraction", "1.5")]


@pytest.mark.parametrize("section, option, value, source", [
    *((section, option, value, source)
      for section, option, value in OUT_OF_RANGE for source in ("ini", "env")),
    ("translate", "max_in_flight", "0", "workers")])
def test_out_of_range_option_is_config_error(
        tmp_path, monkeypatch, capsys, section, option, value, source):
    path = tmp_path / "pipeline.ini"
    path.write_text(f"[{section}]\n" + (f"{option} = {value}\n" if source == "ini" else ""),
                    encoding="utf-8")
    if source == "env":
        monkeypatch.setenv(f"TWP_{section}_{option}".upper(), value)
    args = ["filter", str(tmp_path / "in.jsonl"), "--out-dir", str(tmp_path / "out"),
            "--config", str(path)]
    if source == "workers":
        load_config(path)  # valid until --workers sets the option
        args += ["--workers", value]
    else:
        with pytest.raises(ConfigError) as err:
            load_config(path)
        [problem] = err.value.problems
        assert problem.startswith(f"{section}.{option}: must be ")
    assert main(args) == 2
    assert f"{section}.{option}: must be " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


BOUNDS = [(section, option, is_rule, name, side, bound)
          for section, option, name, _, is_rule, low, high in _OPTIONS
          for side, bound in (("low", low), ("high", high)) if bound is not None]


@pytest.mark.parametrize("section, option, is_rule, name, side, bound", BOUNDS,
                         ids=[f"{s}.{o}-{side}" for s, o, _, _, side, _ in BOUNDS])
@pytest.mark.parametrize("source", ["ini", "env"])
def test_a_value_just_past_a_declared_bound_exits_2(
        tmp_path, monkeypatch, capsys, section, option, is_rule, name, side, bound, source):
    default = getattr(PipelineConfig().quality if is_rule else PipelineConfig(), name)
    step = 1 if isinstance(default, int) else 0.01
    path = tmp_path / "pipeline.ini"

    def set_option(value):
        path.write_text(f"[{section}]\n" + (f"{option} = {value}\n" if source == "ini" else ""),
                        encoding="utf-8")
        if source == "env":
            monkeypatch.setenv(f"TWP_{section}_{option}".upper(), str(value))

    set_option(bound - step if side == "low" else bound + step)
    assert main(["filter", str(tmp_path / "in.jsonl"), "--out-dir", str(tmp_path / "out"),
                 "--config", str(path)]) == 2
    assert f"{section}.{option}: must be " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    set_option(bound)
    config = load_config(path)
    assert getattr(config.quality if is_rule else config, name) == bound


def test_quality_options_are_the_rule_config_fields():
    assert [(section, option, name) for section, option, name, _, is_rule, *_ in _OPTIONS
            if is_rule] == [("quality", f.name, f.name) for f in fields(RuleConfig)]
    assert not [option for section, option, _, _, is_rule, *_ in _OPTIONS
                if section == "quality" and not is_rule]


FLOAT_OPTIONS = [("translate", "timeout"), ("translate", "temperature"),
                 ("translate", "backoff"), ("dedup", "threshold"), ("probe", "temperature"),
                 ("quality", "min_mean_word_length"), ("quality", "max_mean_word_length"),
                 ("quality", "max_symbol_word_ratio"), ("quality", "max_bullet_line_fraction"),
                 ("quality", "max_ellipsis_line_fraction"), ("quality", "min_alpha_word_fraction")]


@pytest.mark.parametrize("section, option", FLOAT_OPTIONS)
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("source", ["ini", "env"])
def test_a_float_option_that_is_not_finite_exits_2(
        tmp_path, monkeypatch, capsys, section, option, value, source):
    # NaN passes every range check, and a backoff of inf overflows time.sleep
    path = tmp_path / "pipeline.ini"
    path.write_text(f"[{section}]\n" + (f"{option} = {value}\n" if source == "ini" else ""),
                    encoding="utf-8")
    if source == "env":
        monkeypatch.setenv(f"TWP_{section}_{option}".upper(), value)
    assert main(["filter", str(tmp_path / "in.jsonl"), "--out-dir", str(tmp_path / "out"),
                 "--config", str(path)]) == 2
    assert f"{section}.{option}: not a finite number: '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_repeated_target_is_config_error(tmp_path, capsys):
    path = tmp_path / "pipeline.ini"
    path.write_text("[translate]\ntargets = fr, de, fr\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.problems == ["translate.targets: 'fr' is given more than once"]
    assert main(["translate", str(tmp_path / "in.jsonl"), "--out-dir", str(tmp_path / "out"),
                 "--config", str(path)]) == 2
    assert "translate.targets: 'fr' is given more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("low, high, low_value, high_value", [
    ("min_words", "max_words", "100", "10"),
    ("min_mean_word_length", "max_mean_word_length", "6.0", "5.0")])
def test_quality_maximum_below_its_minimum_is_config_error(
        tmp_path, capsys, low, high, low_value, high_value):
    # no document can pass such a rule
    path = tmp_path / "pipeline.ini"
    path.write_text(f"[quality]\n{low} = {low_value}\n{high} = {high_value}\n",
                    encoding="utf-8")
    message = f"quality.{high}: must be >= quality.{low} ({low_value}), got {high_value}"
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.problems == [message]
    assert main(["filter", str(tmp_path / "in.jsonl"), "--out-dir", str(tmp_path / "out"),
                 "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    path.write_text(f"[quality]\n{low} = {low_value}\n{high} = {low_value}\n",
                    encoding="utf-8")
    load_config(path)  # a rule whose bounds meet still loads


def test_bad_mix_sources_entry_is_config_error(tmp_path, capsys):
    path = tmp_path / "pipeline.ini"
    for sources, problem in [
            ("a:x.jsonl, a:x.jsonl", "mix.sources: 'a' is given more than once"),
            ("a:", "mix.sources: expected name:path, got 'a:'"),
            (":x.jsonl", "mix.sources: expected name:path, got ':x.jsonl'")]:
        path.write_text(f"[mix]\nsources = {sources}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.problems == [problem]
        assert main(["mix", "--out-dir", str(tmp_path / "out"), "--config", str(path)]) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_targets_are_the_languages_a_prompt_can_name(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_text("[translate]\ntargets = it\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.problems == ["translate.targets: unknown language 'it'"]
    for lang in LANGUAGE_NAMES:
        path.write_text(f"[translate]\ntargets = {lang}\n", encoding="utf-8")
        assert load_config(path).targets == [lang]


@pytest.mark.parametrize("option, value", [("backoff", "-1"), ("max_tokens", "-5")])
@pytest.mark.parametrize("source", ["env", "ini"])
def test_negative_backoff_or_max_tokens_is_config_error(
        tmp_path, monkeypatch, capsys, option, value, source):
    path = tmp_path / "pipeline.ini"
    path.write_text("[translate]\n" + (f"{option} = {value}\n" if source == "ini" else ""),
                    encoding="utf-8")
    if source == "env":
        monkeypatch.setenv(f"TWP_TRANSLATE_{option.upper()}", value)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    [problem] = err.value.problems
    assert problem.startswith(f"translate.{option}: must be >= 0")
    assert main(["filter", str(tmp_path / "in.jsonl"), "--out-dir", str(tmp_path / "out"),
                 "--config", str(path)]) == 2
    assert "invalid configuration" in capsys.readouterr().err
