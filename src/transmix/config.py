"""Pipeline configuration: one INI-style file, env-var overrides and full
validation up front. ``transmix`` writes ``asdict`` of the resolved config
as ``resolved_config.json`` in every stage directory.

The fields of ``PipelineConfig`` are the table of options, each with its INI
section and option, default and parser; ``load_config`` rejects any other key.
Any option can be overridden with ``TWP_<SECTION>_<OPTION>`` environment
variables (e.g. ``TWP_DEDUP_THRESHOLD=0.85``), which is how cluster batch
jobs inject settings without editing files; a ``TWP_`` variable that names
no option is rejected too.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterator
from urllib.parse import urlsplit

from .dedup import BANDS, DEFAULT_THRESHOLD, ROWS, SHINGLE_SIZE
from .pack import DEFAULT_SEQUENCE_LENGTH
from .probe import DEFAULT_PROBE_MAX_TOKENS, DEFAULT_PROBE_N, DEFAULT_PROBE_TEMPERATURE
from .quality import RuleConfig
from .segment import DEFAULT_CHUNK_LIMIT
from .tokenizer import BpeCounter, TokenCounter, WhitespaceCounter
from .translate import (
    DEFAULT_HTTP_TIMEOUT,
    DEFAULT_INSTRUCTION,
    DEFAULT_RESPONSE_PATH,
    LANGUAGE_NAMES,
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


def _parse_as(convert: Callable[[str], Any], noun: str) -> Callable[[str], Any]:
    def parse(raw: str) -> Any:
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise ValueError(f"not {noun}: {raw!r}") from None
    return parse


def _parse_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _parse_sources(raw: str) -> list[tuple[str, str]]:
    sources = []
    for item in _parse_list(raw):
        name, sep, path = item.partition(":")
        if not sep:
            raise ValueError(f"expected name:path, got {item!r}")
        sources.append((name.strip(), path.strip()))
    return sources


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):  # NaN passes every range check
        raise ValueError
    return value


_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES  # 1/0, true/false, yes/no, on/off
# the parser of an option that names none, by the type of its default
_PARSERS = {bool: _parse_as(lambda raw: _BOOLEANS[raw.lower()], "a boolean"),
            int: _parse_as(int, "an integer"), float: _parse_as(_finite, "a finite number"),
            str: str}


def _is_http_url(url: str) -> bool:
    """Whether ``url`` has an http or https scheme and a host."""
    try:
        parts = urlsplit(url)
    except ValueError:  # e.g. an unclosed IPv6 bracket
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def _opt(section: str, default: Any, option: str = "", parse: Callable | None = None) -> Any:
    """A field set by ``[section] option``, which defaults to the field's name."""
    meta = {"section": section, "option": option,
            "parse": parse or _PARSERS[type(default)]}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class PipelineConfig:
    seed: int = _opt("run", 0)
    strict: bool = _opt("run", False)
    tokenizer: str = _opt("corpus", "whitespace")
    bpe_vocab: str = _opt("corpus", "")
    bpe_merges: str = _opt("corpus", "")
    chunk_limit: int = _opt("segment", DEFAULT_CHUNK_LIMIT)
    targets: list[str] = _opt("translate", ["fr", "de", "es"], parse=_parse_list)
    backend: str = _opt("translate", "mock-echo")
    endpoint: str = _opt("translate", "")
    model: str = _opt("translate", "")
    response_path: str = _opt("translate", DEFAULT_RESPONSE_PATH)
    http_timeout: float = _opt("translate", DEFAULT_HTTP_TIMEOUT, "timeout")
    # these [translate] fields are GenerationParams, with its defaults
    max_tokens: int = _opt("translate", GenerationParams.max_tokens)
    temperature: float = _opt("translate", GenerationParams.temperature)
    retries: int = _opt("translate", GenerationParams.retries)
    backoff: float = _opt("translate", GenerationParams.backoff)
    max_in_flight: int = _opt("translate", GenerationParams.max_in_flight)
    wrapper_open: str = _opt("translate", PromptTemplate.wrapper_open)
    wrapper_close: str = _opt("translate", PromptTemplate.wrapper_close)
    instruction: str = _opt("translate", "")
    # [quality] sets these RuleConfig fields, with RuleConfig's defaults
    quality: RuleConfig = field(default_factory=RuleConfig, metadata={
        "section": "quality", "rules": (
            "min_words", "max_words", "min_mean_word_length",
            "max_mean_word_length", "max_symbol_word_ratio",
            "max_bullet_line_fraction", "max_ellipsis_line_fraction",
            "min_alpha_word_fraction", "min_stop_words", "check_repetition")})
    dedup_threshold: float = _opt("dedup", DEFAULT_THRESHOLD, "threshold")
    dedup_bands: int = _opt("dedup", BANDS, "bands")
    dedup_rows: int = _opt("dedup", ROWS, "rows")
    shingle_size: int = _opt("dedup", SHINGLE_SIZE)
    mix_budget_per_source: int = _opt("mix", 0, "budget_per_source")  # 0 = smallest source total
    mix_sources: list[tuple[str, str]] = _opt("mix", [], "sources", _parse_sources)
    sequence_length: int = _opt("pack", DEFAULT_SEQUENCE_LENGTH)
    probe_n: int = _opt("probe", DEFAULT_PROBE_N, "n")
    probe_max_tokens: int = _opt("probe", DEFAULT_PROBE_MAX_TOKENS, "max_tokens")
    probe_temperature: float = _opt("probe", DEFAULT_PROBE_TEMPERATURE, "temperature")

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
            if not problems:  # so a malformed file fails before any stage runs
                try:
                    self.make_counter()
                except (OSError, ValueError) as exc:
                    problems.append(f"corpus.tokenizer: bpe: {exc}")
        if self.backend not in BACKEND_KINDS:
            problems.append(
                f"translate.backend: {self.backend!r} not in {BACKEND_KINDS}")
        if self.backend == "http-completion" and not self.endpoint:
            problems.append("translate.endpoint: required for the http backend")
        elif self.backend == "http-completion" and not _is_http_url(self.endpoint):
            problems.append(f"translate.endpoint: must be an http:// or https:// URL, "
                            f"got {self.endpoint!r}")
        for tgt in self.targets:
            if tgt not in LANGUAGE_NAMES:
                problems.append(f"translate.targets: unknown language {tgt!r}")
        for name, path in self.mix_sources:
            if not name or not path:
                problems.append(f"mix.sources: expected name:path, got {name + ':' + path!r}")
        for option, items in [("translate.targets", self.targets),
                              ("mix.sources", [name for name, _ in self.mix_sources])]:
            problems += [f"{option}: {item!r} is given more than once"
                         for item in sorted({item for item in items if items.count(item) > 1})]
        rules = self.quality
        at_least = [("segment.chunk_limit", self.chunk_limit, 1),
                    ("translate.retries", self.retries, 1),
                    ("translate.backoff", self.backoff, 0),
                    ("translate.temperature", self.temperature, 0),
                    ("translate.max_in_flight", self.max_in_flight, 1),
                    ("dedup.shingle_size", self.shingle_size, 1),
                    ("pack.sequence_length", self.sequence_length, 2),
                    ("probe.n", self.probe_n, 1),
                    ("probe.max_tokens", self.probe_max_tokens, 1),
                    ("probe.temperature", self.probe_temperature, 0),
                    ("quality.min_words", rules.min_words, 0),
                    ("quality.min_mean_word_length", rules.min_mean_word_length, 0),
                    ("quality.max_symbol_word_ratio", rules.max_symbol_word_ratio, 0),
                    ("quality.min_stop_words", rules.min_stop_words, 0)]
        problems += [f"{name}: must be >= {low}, got {value}"
                     for name, value, low in at_least if value < low]
        for low, high in [("min_words", "max_words"),
                          ("min_mean_word_length", "max_mean_word_length")]:
            least, most = getattr(rules, low), getattr(rules, high)
            if most < least:
                problems.append(f"quality.{high}: must be >= quality.{low} ({least}), got {most}")
        for name in ("max_bullet_line_fraction", "max_ellipsis_line_fraction",
                     "min_alpha_word_fraction"):
            value = getattr(rules, name)
            if not 0 <= value <= 1:
                problems.append(f"quality.{name}: must be in [0, 1], got {value}")
        if self.max_tokens < 0:
            problems.append(
                f"translate.max_tokens: must be >= 0 (0 = twice the chunk limit), "
                f"got {self.max_tokens}")
        if self.http_timeout <= 0:
            problems.append(f"translate.timeout: must be > 0, got {self.http_timeout}")
        if not (0.0 < self.dedup_threshold < 1.0):
            problems.append(
                f"dedup.threshold: must be in (0, 1), got {self.dedup_threshold}")
        if self.dedup_bands * self.dedup_rows != 128:
            problems.append(
                f"dedup.bands x dedup.rows must be 128, got "
                f"{self.dedup_bands}x{self.dedup_rows}")
        if self.mix_budget_per_source < 0:
            problems.append(
                f"mix.budget_per_source: must be >= 0 (0 = the smallest source's total), "
                f"got {self.mix_budget_per_source}")
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
        return GenerationParams(**{f.name: getattr(self, f.name)
                                   for f in fields(GenerationParams)})


def _options() -> Iterator[tuple[str, str, str, Callable[[str], Any], bool]]:
    """(section, option, field, parse, is_rule) for each option of the table;
    a rule option sets a field of ``PipelineConfig.quality``."""
    rule_types = {f.name: type(f.default) for f in fields(RuleConfig)}
    for f in fields(PipelineConfig):
        meta = f.metadata
        if "rules" in meta:
            yield from ((meta["section"], name, name, _PARSERS[rule_types[name]], True)
                        for name in meta["rules"])
        else:
            yield meta["section"], meta["option"] or f.name, f.name, meta["parse"], False


_OPTIONS = list(_options())
_KNOWN = {(section, option) for section, option, *_ in _OPTIONS}
_ENV_NAMES = [f"{ENV_PREFIX}_{section}_{option}".upper() for section, option, *_ in _OPTIONS]


def load_config(path: str | Path | None = None) -> PipelineConfig:
    """Load, override from the environment, and validate in full."""
    # with no default section, a [DEFAULT] header is just an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    if path is not None:
        if not Path(path).exists():
            raise ConfigError([f"config file not found: {path}"])
        try:
            parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            # a repeated option, a key before any header, an unparsable line:
            # configparser's message names the file and the line
            raise ConfigError([" ".join(str(exc).split())]) from None
        except UnicodeDecodeError as exc:
            raise ConfigError([f"{path}: not UTF-8 text ({exc.reason})"]) from None

    sections = {section for section, _ in _KNOWN}
    problems = [f"{s}: unknown section" for s in parser.sections() if s not in sections]
    problems += [f"{s}.{o}: unknown option" for s in parser.sections() if s in sections
                 for o in parser.options(s) if (s, o) not in _KNOWN]
    problems += [f"{name}: unknown environment override" for name in sorted(os.environ)
                 if name.startswith(ENV_PREFIX + "_") and name not in _ENV_NAMES]
    values: dict[str, Any] = {}
    rules: dict[str, Any] = {}
    for (section, option, name, parse, is_rule), env_name in zip(_OPTIONS, _ENV_NAMES):
        raw = os.environ.get(env_name, parser.get(section, option, fallback=None))
        try:
            if raw is not None:
                (rules if is_rule else values)[name] = parse(raw)
        except ValueError as exc:
            problems.append(f"{section}.{option}: {exc}")
    if problems:
        raise ConfigError(problems)
    config = PipelineConfig(**values, quality=RuleConfig(**rules))
    config.validate()
    return config
