"""Completion backends owned by the benchmark.

Both are deterministic: the latency backend returns what the echo mock
returns after a fixed sleep, and the generation backend replays texts built
from the workload seed in order.
"""

from __future__ import annotations

import threading
import time

from transmix.translate import BackendResult


class LatencyBackend:
    """Echo mock behind a fixed per-call latency, like a remote server.

    The call sleeps rather than computes, so concurrent calls overlap as they
    would against a real endpoint. Calls, calls in flight and summed call
    time are counted under a lock, since the program calls from its request
    window's threads.
    """

    kind = "bench-latency"

    def __init__(self, inner, latency_s: float = 0.020) -> None:
        self.inner = inner
        self.latency_s = latency_s
        self._lock = threading.Lock()
        self.calls = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self.busy_s = 0.0

    def complete(self, prompt: str, max_tokens: int = 0,
                 temperature: float = 0.0) -> BackendResult:
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        start = time.perf_counter()
        try:
            time.sleep(self.latency_s)
            return self.inner.complete(prompt, max_tokens=max_tokens,
                                       temperature=temperature)
        finally:
            with self._lock:
                self.in_flight -= 1
                self.busy_s += time.perf_counter() - start


class GenerationBackend:
    """Replays pre-built generations in order; ``reseed`` rewinds."""

    kind = "bench-generations"

    def __init__(self, texts: list[str]) -> None:
        self.texts = texts
        self.cursor = 0

    def reseed(self, seed: int) -> None:
        self.cursor = 0

    def complete(self, prompt: str, max_tokens: int = 0,
                 temperature: float = 0.0) -> BackendResult:
        text = self.texts[self.cursor % len(self.texts)]
        self.cursor += 1
        return BackendResult(text=text)
