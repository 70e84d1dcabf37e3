"""Pipeline configuration: one INI-style file, env-var overrides, full
validation up front, and a resolved snapshot written next to every artifact.

Any option can be overridden with ``TWP_<SECTION>_<OPTION>`` environment
variables (e.g. ``TWP_DEDUP_THRESHOLD=0.85``), which is how cluster batch
jobs inject settings without editing files.
"""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .quality import RuleConfig
from .tokenizer import BpeCounter, TokenCounter, WhitespaceCounter
from .translate import (
    DEFAULT_INSTRUCTION,
    GenerationParams,
    HttpCompletionBackend,
    MockCipherBackend,
    MockEchoBackend,
    PromptTemplate,
    TemplateError,
)

__all__ = ["PipelineConfig", "ConfigError", "load_config"]

ENV_PREFIX = "TWP"

BACKEND_KINDS = ("mock-echo", "mock-cipher", "http-completion")
TOKENIZER_MODES = ("whitespace", "bpe")


class ConfigError(ValueError):
    """Invalid configuration, with field-level diagnostics."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = problems
        super().__init__("invalid configuration:\n" +
                         "\n".join(f"  - {p}" for p in problems))


@dataclass
class PipelineConfig:
    # run
    seed: int = 0
    strict: bool = False
    # corpus
    tokenizer: str = "whitespace"
    bpe_vocab: str = ""
    bpe_merges: str = ""
    # segment
    chunk_limit: int = 300
    abbreviation_dir: str = ""
    # translate
    translate_enabled: bool = True
    targets: list[str] = field(default_factory=lambda: ["fr", "de", "es"])
    backend: str = "mock-echo"
    endpoint: str = ""
    model: str = ""
    response_path: str = "choices.0.text"
    http_timeout: float = 60.0
    max_tokens: int = 0
    temperature: float = 0.0
    retries: int = 3
    backoff: float = 1.0
    max_in_flight: int = 32
    wrapper_open: str = "[INST]"
    wrapper_close: str = "[/INST]"
    instruction: str = ""
    # quality
    quality: RuleConfig = field(default_factory=RuleConfig)
    stopword_dir: str = ""
    # dedup
    dedup_threshold: float = 0.8
    dedup_bands: int = 16
    dedup_rows: int = 8
    shingle_size: int = 5
    # mix
    mix_budget_per_source: int = 0  # 0 = smallest source total
    mix_buffer_size: int = 100_000
    mix_sources: list[tuple[str, str]] = field(default_factory=list)
    # pack
    sequence_length: int = 2048
    # probe
    probe_n: int = 512
    probe_max_tokens: int = 300
    probe_temperature: float = 1.0
    probe_model_path: str = ""

    def validate(self) -> None:
        problems: list[str] = []
        if self.tokenizer not in TOKENIZER_MODES:
            problems.append(
                f"corpus.tokenizer: {self.tokenizer!r} not in {TOKENIZER_MODES}")
        if self.tokenizer == "bpe":
            for name, value in [("corpus.bpe_vocab", self.bpe_vocab),
                                ("corpus.bpe_merges", self.bpe_merges)]:
                if not value:
                    problems.append(f"{name}: required when tokenizer = bpe")
                elif not Path(value).exists():
                    problems.append(f"{name}: file not found: {value}")
        if self.chunk_limit < 1:
            problems.append(f"segment.chunk_limit: must be >= 1, got {self.chunk_limit}")
        if self.abbreviation_dir and not Path(self.abbreviation_dir).is_dir():
            problems.append(
                f"segment.abbreviation_dir: not a directory: {self.abbreviation_dir}")
        if self.backend not in BACKEND_KINDS:
            problems.append(
                f"translate.backend: {self.backend!r} not in {BACKEND_KINDS}")
        if self.backend == "http-completion" and not self.endpoint:
            problems.append("translate.endpoint: required for the http backend")
        for tgt in self.targets:
            if tgt not in ("en", "fr", "de", "es"):
                problems.append(f"translate.targets: unknown language {tgt!r}")
        if self.retries < 1:
            problems.append("translate.retries: must be >= 1")
        if not (0.0 < self.dedup_threshold < 1.0):
            problems.append(
                f"dedup.threshold: must be in (0, 1), got {self.dedup_threshold}")
        if self.dedup_bands * self.dedup_rows != 128:
            problems.append(
                f"dedup.bands x dedup.rows must be 128, got "
                f"{self.dedup_bands}x{self.dedup_rows}")
        if self.sequence_length < 2:
            problems.append("pack.sequence_length: must be >= 2")
        if self.probe_n < 1:
            problems.append("probe.n: must be >= 1")
        try:
            self.make_template()
        except TemplateError as exc:
            problems.append(f"translate.instruction: {exc}")
        if problems:
            raise ConfigError(problems)

    # ---- factories -------------------------------------------------------

    def make_counter(self) -> TokenCounter:
        if self.tokenizer == "bpe":
            return BpeCounter(self.bpe_vocab, self.bpe_merges)
        return WhitespaceCounter()

    def make_template(self) -> PromptTemplate:
        return PromptTemplate(
            instruction=self.instruction or DEFAULT_INSTRUCTION,
            wrapper_open=self.wrapper_open,
            wrapper_close=self.wrapper_close,
        )

    def make_backend(self):
        template = self.make_template()
        if self.backend == "mock-echo":
            return MockEchoBackend(template)
        if self.backend == "mock-cipher":
            return MockCipherBackend(template)
        return HttpCompletionBackend(
            endpoint=self.endpoint, model=self.model,
            response_path=self.response_path, timeout=self.http_timeout)

    def generation_params(self) -> GenerationParams:
        return GenerationParams(
            max_tokens=self.max_tokens,
            temperature=self.temperature,
            retries=self.retries,
            backoff=self.backoff,
            max_in_flight=self.max_in_flight,
        )

    def snapshot(self) -> dict:
        data = asdict(self)
        data["quality"] = asdict(self.quality)
        return data

    def write_snapshot(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.snapshot(), indent=2, ensure_ascii=False) + "\n",
            encoding="utf-8")


def _env_override(section: str, option: str, fallback: str | None) -> str | None:
    return os.environ.get(f"{ENV_PREFIX}_{section}_{option}".upper(), fallback)


class _Source:
    """INI file merged with environment overrides."""

    def __init__(self, parser: configparser.ConfigParser) -> None:
        self.parser = parser
        self.problems: list[str] = []

    def get(self, section: str, option: str, fallback: str = "") -> str:
        raw = self.parser.get(section, option, fallback=fallback)
        value = _env_override(section, option, raw)
        return value if value is not None else fallback

    def get_int(self, section: str, option: str, fallback: int) -> int:
        raw = self.get(section, option, str(fallback))
        try:
            return int(raw)
        except ValueError:
            self.problems.append(f"{section}.{option}: not an integer: {raw!r}")
            return fallback

    def get_float(self, section: str, option: str, fallback: float) -> float:
        raw = self.get(section, option, str(fallback))
        try:
            return float(raw)
        except ValueError:
            self.problems.append(f"{section}.{option}: not a number: {raw!r}")
            return fallback

    def get_bool(self, section: str, option: str, fallback: bool) -> bool:
        raw = self.get(section, option, "true" if fallback else "false").lower()
        if raw in ("1", "true", "yes", "on"):
            return True
        if raw in ("0", "false", "no", "off"):
            return False
        self.problems.append(f"{section}.{option}: not a boolean: {raw!r}")
        return fallback

    def get_list(self, section: str, option: str, fallback: str = "") -> list[str]:
        raw = self.get(section, option, fallback)
        return [item.strip() for item in raw.split(",") if item.strip()]


def load_config(path: str | Path | None = None) -> PipelineConfig:
    """Load, override from the environment, and validate in full."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        if not Path(path).exists():
            raise ConfigError([f"config file not found: {path}"])
        parser.read(path, encoding="utf-8")
    src = _Source(parser)

    quality = RuleConfig(
        min_words=src.get_int("quality", "min_words", 50),
        max_words=src.get_int("quality", "max_words", 100_000),
        min_mean_word_length=src.get_float("quality", "min_mean_word_length", 3.0),
        max_mean_word_length=src.get_float("quality", "max_mean_word_length", 10.0),
        max_symbol_word_ratio=src.get_float("quality", "max_symbol_word_ratio", 0.1),
        max_bullet_line_fraction=src.get_float(
            "quality", "max_bullet_line_fraction", 0.9),
        max_ellipsis_line_fraction=src.get_float(
            "quality", "max_ellipsis_line_fraction", 0.3),
        min_alpha_word_fraction=src.get_float(
            "quality", "min_alpha_word_fraction", 0.8),
        min_stop_words=src.get_int("quality", "min_stop_words", 2),
        check_repetition=src.get_bool("quality", "check_repetition", False),
    )

    sources: list[tuple[str, str]] = []
    for item in src.get_list("mix", "sources"):
        name, sep, src_path = item.partition(":")
        if not sep:
            src.problems.append(f"mix.sources: expected name:path, got {item!r}")
            continue
        sources.append((name.strip(), src_path.strip()))

    config = PipelineConfig(
        seed=src.get_int("run", "seed", 0),
        strict=src.get_bool("run", "strict", False),
        tokenizer=src.get("corpus", "tokenizer", "whitespace"),
        bpe_vocab=src.get("corpus", "bpe_vocab", ""),
        bpe_merges=src.get("corpus", "bpe_merges", ""),
        chunk_limit=src.get_int("segment", "chunk_limit", 300),
        abbreviation_dir=src.get("segment", "abbreviation_dir", ""),
        translate_enabled=src.get_bool("translate", "enabled", True),
        targets=src.get_list("translate", "targets", "fr, de, es"),
        backend=src.get("translate", "backend", "mock-echo"),
        endpoint=src.get("translate", "endpoint", ""),
        model=src.get("translate", "model", ""),
        response_path=src.get("translate", "response_path", "choices.0.text"),
        http_timeout=src.get_float("translate", "timeout", 60.0),
        max_tokens=src.get_int("translate", "max_tokens", 0),
        temperature=src.get_float("translate", "temperature", 0.0),
        retries=src.get_int("translate", "retries", 3),
        backoff=src.get_float("translate", "backoff", 1.0),
        max_in_flight=src.get_int("translate", "max_in_flight", 32),
        wrapper_open=src.get("translate", "wrapper_open", "[INST]"),
        wrapper_close=src.get("translate", "wrapper_close", "[/INST]"),
        instruction=src.get("translate", "instruction", ""),
        quality=quality,
        stopword_dir=src.get("quality", "stopword_dir", ""),
        dedup_threshold=src.get_float("dedup", "threshold", 0.8),
        dedup_bands=src.get_int("dedup", "bands", 16),
        dedup_rows=src.get_int("dedup", "rows", 8),
        shingle_size=src.get_int("dedup", "shingle_size", 5),
        mix_budget_per_source=src.get_int("mix", "budget_per_source", 0),
        mix_buffer_size=src.get_int("mix", "buffer_size", 100_000),
        mix_sources=sources,
        sequence_length=src.get_int("pack", "sequence_length", 2048),
        probe_n=src.get_int("probe", "n", 512),
        probe_max_tokens=src.get_int("probe", "max_tokens", 300),
        probe_temperature=src.get_float("probe", "temperature", 1.0),
        probe_model_path=src.get("probe", "model_path", ""),
    )
    if src.problems:
        raise ConfigError(src.problems)
    config.validate()
    return config
