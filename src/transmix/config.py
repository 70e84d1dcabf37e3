"""Pipeline configuration: one INI-style file, env-var overrides and full
validation up front. ``transmix`` writes ``asdict`` of the resolved config
as ``resolved_config.json`` in every stage directory.

The fields of ``PipelineConfig`` are the table of options, each with its INI
section and option, default, parser and range, stated once; the ``[quality]``
options are the fields of ``quality.RuleConfig``, which states theirs.
``load_config`` rejects any other key.
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


def _opt(section: str, default: Any, option: str = "", parse: Callable | None = None,
         low: float | None = None) -> Any:
    """A field set by ``[section] option``, which defaults to the field's name;
    ``validate`` checks that its value is at least ``low``."""
    meta = {"section": section, "option": option,
            "parse": parse or _PARSERS[type(default)], "low": low}
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
    chunk_limit: int = _opt("segment", DEFAULT_CHUNK_LIMIT, low=1)
    targets: list[str] = _opt("translate", ["fr", "de", "es"], parse=_parse_list)
    backend: str = _opt("translate", "mock-echo")
    endpoint: str = _opt("translate", "")
    model: str = _opt("translate", "")
    response_path: str = _opt("translate", DEFAULT_RESPONSE_PATH)
    http_timeout: float = _opt("translate", DEFAULT_HTTP_TIMEOUT, "timeout")
    # these [translate] fields are GenerationParams, with its defaults
    max_tokens: int = _opt("translate", GenerationParams.max_tokens)
    temperature: float = _opt("translate", GenerationParams.temperature, low=0)
    retries: int = _opt("translate", GenerationParams.retries, low=1)
    backoff: float = _opt("translate", GenerationParams.backoff, low=0)
    max_in_flight: int = _opt("translate", GenerationParams.max_in_flight, low=1)
    wrapper_open: str = _opt("translate", PromptTemplate.wrapper_open)
    wrapper_close: str = _opt("translate", PromptTemplate.wrapper_close)
    instruction: str = _opt("translate", "")
    # [quality] sets each RuleConfig field, with RuleConfig's defaults and ranges
    quality: RuleConfig = field(default_factory=RuleConfig)
    dedup_threshold: float = _opt("dedup", DEFAULT_THRESHOLD, "threshold")
    dedup_bands: int = _opt("dedup", BANDS, "bands")
    dedup_rows: int = _opt("dedup", ROWS, "rows")
    shingle_size: int = _opt("dedup", SHINGLE_SIZE, low=1)
    mix_budget_per_source: int = _opt("mix", 0, "budget_per_source")  # 0 = smallest source total
    mix_sources: list[tuple[str, str]] = _opt("mix", [], "sources", _parse_sources)
    sequence_length: int = _opt("pack", DEFAULT_SEQUENCE_LENGTH, low=2)
    probe_n: int = _opt("probe", DEFAULT_PROBE_N, "n", low=1)
    probe_max_tokens: int = _opt("probe", DEFAULT_PROBE_MAX_TOKENS, "max_tokens", low=1)
    probe_temperature: float = _opt("probe", DEFAULT_PROBE_TEMPERATURE, "temperature", low=0)

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
        for section, option, name, _, is_rule, low, high in _OPTIONS:
            value = getattr(self.quality if is_rule else self, name)
            if high is not None and not low <= value <= high:
                problems.append(f"{section}.{option}: must be in [{low}, {high}], got {value}")
            elif low is not None and value < low:
                problems.append(f"{section}.{option}: must be >= {low}, got {value}")
        for low, high in [("min_words", "max_words"),
                          ("min_mean_word_length", "max_mean_word_length")]:
            least, most = getattr(self.quality, low), getattr(self.quality, high)
            if most < least:
                problems.append(f"quality.{high}: must be >= quality.{low} ({least}), got {most}")
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


def _options() -> Iterator[tuple[str, str, str, Callable[[str], Any], bool,
                                  float | None, float | None]]:
    """(section, option, field, parse, is_rule, low, high) for each option of
    the table; a rule option sets a field of ``PipelineConfig.quality``."""
    for f in fields(PipelineConfig):
        if f.name == "quality":
            yield from (("quality", rule.name, rule.name, _PARSERS[type(rule.default)], True,
                         rule.metadata.get("low"), rule.metadata.get("high"))
                        for rule in fields(RuleConfig))
        else:
            meta = f.metadata
            yield (meta["section"], meta["option"] or f.name, f.name, meta["parse"], False,
                   meta["low"], None)


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
    for (section, option, name, parse, is_rule, *_), env_name in zip(_OPTIONS, _ENV_NAMES):
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
