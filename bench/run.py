"""Run one benchmark workload; print its metrics as JSON on the last line.

    python3 bench/run.py --workload pipeline-echo --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` and the work files go to ``.bench_work/`` under the current
directory. A run builds its inputs from the seed, sets the program up
several times, then repeats whole rounds of the same batch (see
``measure``), checking every round's outputs. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics and the tracing overhead. See bench/README.md.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 9
# Pause between set-ups so that their median samples the host over a few
# seconds: on a shared host the speed changes in phases of seconds.
SETUP_PAUSE_S = 0.2
WORKLOAD_NAMES = ("pipeline-echo", "translate-latency", "dedup-clusters", "probe-prior")


def import_program():
    """Import transmix from this checkout's sources, never from elsewhere."""
    if not (SRC / "transmix" / "__init__.py").is_file():
        raise SystemExit(f"bench: no transmix sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import transmix
    if Path(transmix.__file__).resolve().parent != SRC / "transmix":
        raise SystemExit(f"bench: imported transmix from {transmix.__file__}, not {SRC}")
    import tracing
    import workloads
    from checks import CheckFailed
    return workloads.WORKLOADS, tracing, CheckFailed


def _is_program(module_name: str) -> bool:
    return module_name == "transmix" or module_name.startswith("transmix.")


def fresh_import_s() -> float:
    """Seconds to import the whole transmix package anew.

    Its dependencies stay loaded. The modules the benchmark already holds are
    put back afterwards, so every later call still goes to them.
    """
    saved = {name: m for name, m in sys.modules.items() if _is_program(name)}
    for name in saved:
        del sys.modules[name]
    t0 = time.perf_counter()
    try:
        importlib.import_module("transmix.cli")  # imports every module of the package
        return time.perf_counter() - t0
    finally:
        for name in [n for n in sys.modules if _is_program(n)]:
            del sys.modules[name]
        sys.modules.update(saved)


def measure(workload, workdir: Path, seconds: float, tracer, check_failed) -> dict:
    """Whole rounds until ``seconds`` have passed, or until one round has
    taken half of ``seconds`` on its own: such a round already averages over
    a shared host's speed phases, and repeating it would only lengthen the
    run. With a tracer, untraced and traced rounds alternate and at least
    one of each runs."""
    rounds: list[dict] = []
    facts: dict = {}
    failures: list[str] = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        out = workdir / f"round-{len(rounds)}"
        if traced:
            tracer.install()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            failed = workload.run_round(out)
        finally:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if traced:
                tracer.uninstall()
        rounds.append({"wall": wall, "cpu": cpu, "traced": traced, "failed": failed})
        try:
            workload.check(out)
        except check_failed as exc:
            failures.append(str(exc))
        if traced:
            facts = workload.layer_facts(out)
        shutil.rmtree(out, ignore_errors=True)
        enough = time.perf_counter() - begin >= seconds or wall >= seconds / 2
        if tracer is not None:
            enough = enough and len(rounds) >= 2
        if failures or enough:
            return {"rounds": rounds, "facts": facts, "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one transmix benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for key in [k for k in os.environ if k.startswith("TWP_")]:
        del os.environ[key]  # the program's config overrides; runs use the defaults

    workload_types, tracing, check_failed = import_program()

    workload = workload_types[args.workload](args.seed)
    root = Path.cwd() / ".bench_work"
    workdir = root / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        workdir.mkdir(parents=True)
        workload.prepare(workdir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            time.sleep(SETUP_PAUSE_S)
            import_s = fresh_import_s()
            if tracer:
                tracer.install()
            t0 = time.perf_counter()
            try:
                workload.setup()
            finally:
                setup_times.append(import_s + time.perf_counter() - t0)
                if tracer:
                    tracer.uninstall()
        result = measure(workload, workdir, args.seconds, tracer, check_failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = result["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if tracer:
        values, units = {}, tracing.UNITS
        if traced:  # none when the first, untraced round failed its checks
            spans = tracing.Spans(tracer.table(), tracer.names)
            values = tracing.layer_metrics(spans, len(traced), result["facts"])
            values["trace.overhead_pct"] = 100.0 * (
                statistics.mean(r["wall"] for r in traced)
                / statistics.mean(r["wall"] for r in plain) - 1.0)
            tracer.save(root / f"spans-{args.workload}.csv", args.workload)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "docs_per_s": workload.units * len(plain) / sum(r["wall"] for r in plain),
            "cpu_s": sum(r["cpu"] for r in plain) / len(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "docs_per_s": "docs/s", "cpu_s": "s", "peak_rss_mb": "MB"}

    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    attempted = workload.units * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} attempted, {failed} failed", file=sys.stderr)
    print("  round seconds: " + " ".join(
        f"{r['wall']:.2f}{'t' if r['traced'] else ''}" for r in rounds), file=sys.stderr)
    note = workload.note(len(rounds), sum(r["wall"] for r in rounds))
    if note:
        print(f"  {note}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:36s} {value:14.4f} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
