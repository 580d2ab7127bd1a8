"""Host-time benchmark for qdnsim.

Runs one seeded workload through the public API in a single-threaded closed
loop: each iteration constructs ``Engine(cfg)``, calls ``Engine.run()``,
makes a fixed ``qdnsim.metrics`` analysis pass and writes the CLI's files
with ``qdnsim.cli.emit``, for every run of the workload in turn.  Every run
is checked against pinned digests (at the default seed) and trace
invariants (at every seed).  Times are scaled to a fixed host speed by a
reference kernel timed around and during every call (see ``timed``).

    python3 perfbench/run.py --workload tag_relay --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats iterations while another one is expected to end
within ``--seconds`` (at least one) and prints the end-to-end metrics as
medians over iterations.  ``--trace 1`` runs one untraced and one traced
iteration, whatever ``--seconds`` says, and prints the per-layer metrics;
the spans are written to ``perfbench/out/<workload>.spans.npz``.  ``--workload all`` runs every
workload in its own process, so no workload inherits another's peak
memory, and prints all their metrics.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ["tele_wan", "tag_relay", "tag_switch_lossy", "tele_churn"]

#: In an untraced iteration the setup, analysis and emit stages each run up
#: to REPEATS times, until they have taken REPEAT_SECONDS, and count with
#: their median, so that one slow sample on a shared host does not move
#: them.  The simulation runs once per iteration.
REPEATS = 3
REPEAT_SECONDS = 2.0

#: Size of the reference kernel, and its time when this 2-vCPU host runs at
#: its faster speed: every stage time is scaled to that speed.
REFERENCE_LOOPS = 25_000
REFERENCE_SECONDS = 0.005

#: While a stage runs, the reference kernel is also timed every
#: SAMPLE_INTERVAL seconds from a SIGALRM handler.
SAMPLE_INTERVAL = 0.1

STAGES = ["setup_s", "sim_s", "analyze_s", "emit_s", "wall_s"]


@dataclass
class Iteration:
    stages: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    failures: list = field(default_factory=list)
    runs: int = 0
    session_rows: int = 0
    pool_rows: int = 0
    emit_bytes: int = 0


def reference_seconds() -> float:
    """Time a fixed pure-Python kernel that tracks the host's current speed."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(REFERENCE_LOOPS):
        key = i & 1023
        table[key] = table.get(key, 0) + i * 3 // 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the reference kernel every SAMPLE_INTERVAL seconds while a
    stage runs, and how long those samples took, so that the stage's own
    time and the host's mean speed during it can both be recovered."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def timed(count, fn, *args, sample=True):
    """Call ``fn`` up to ``count`` times, until the calls took REPEAT_SECONDS.

    Returns the last value and the median scaled time.  The host is shared
    and its speed drifts by up to about 1.6x within seconds, so the
    reference kernel is timed right before and after each call and, when
    ``sample`` is set, every SAMPLE_INTERVAL during it.  The call's own time
    (minus the samples) is multiplied by REFERENCE_SECONDS over the mean
    reference time.
    """
    times = []
    spent = 0.0
    before = reference_seconds()
    while len(times) < count and spent < REPEAT_SECONDS:
        sampler = SpeedSampler()
        t0 = time.perf_counter()
        if sample:
            with sampler:
                value = fn(*args)
        else:
            value = fn(*args)
        elapsed = time.perf_counter() - t0 - sampler.spent
        after = reference_seconds()
        speed = statistics.mean([before, after] + sampler.samples)
        spent += elapsed
        times.append(elapsed * REFERENCE_SECONDS / speed)
        before = after
    return value, statistics.median(times)


def import_program():
    """Import qdnsim from this checkout's ``src/`` or exit non-zero.

    The benchmark's other modules import qdnsim themselves, so callers
    import them only after this has run."""
    sys.path.insert(0, str(SRC))
    try:
        import qdnsim
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import qdnsim from {SRC}: {exc}")
    if not Path(qdnsim.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: qdnsim imported from {qdnsim.__file__}, "
                 f"not from {SRC}")


def iterate(workload, runs, seed, pinned, first_digests, repeats,
            tracer=None, mismatch="repeatable"):
    """One pass over the workload's runs: time the four stages, then check
    the emitted files and the trace.  ``first_digests`` holds the digests of
    the first iteration and is filled on first use; a later iteration whose
    files differ from it fails the ``mismatch`` check."""
    from qdnsim import cli
    from qdnsim.engine import Engine

    import workloads

    def stage(count, name, fn, *args):
        # The speed sampler's signal handler would land inside traced spans.
        if tracer:
            return timed(count, tracer.span(name, fn), *args, sample=False)
        return timed(count, fn, *args)

    it = Iteration()
    out_dir = OUT / workload
    for label, cfg in runs:
        it.runs += 1
        try:
            eng, setup = stage(repeats, "stage.setup", Engine, cfg)
            result, sim = stage(1, "stage.sim", eng.run)
            pools = workloads.memory_pools(result)
            _, analyze = stage(repeats, "stage.analyze", workloads.analyze,
                               result, pools)
            paths, emit = stage(repeats, "stage.emit", cli.emit, result,
                                out_dir, f"{workload}-{label}",
                                workloads.FORMATS)
            it.stages["setup_s"] += setup
            it.stages["sim_s"] += sim
            it.stages["analyze_s"] += analyze
            it.stages["emit_s"] += emit
            it.stages["wall_s"] += setup + sim + analyze + emit

            digests = workloads.file_digests(paths)
            it.session_rows += len(result.session_rows)
            it.pool_rows += len(result.pool_rows)
            it.emit_bytes += sum(Path(p).stat().st_size for p in paths)
            failures = []
            if label not in first_digests:
                first_digests[label] = digests
                failures += workloads.invariant_failures(result)
                if seed == workloads.DEFAULT_SEED:
                    expected = pinned[workload][label]
                    failures += [
                        ("digest", f"{name} differs from the pinned digest")
                        for name in sorted(set(expected) | set(digests))
                        if expected.get(name) != digests.get(name)
                    ]
            elif digests != first_digests[label]:
                failures.append(
                    (mismatch, "files differ from the first iteration"))
            # Free this trace before the next configuration builds its own.
            del result, eng
        except Exception as exc:  # one failed operation, reported by name
            failures = [("exception", f"{type(exc).__name__}: {exc}")]
        for check, detail in failures:
            it.failures.append((label, check, detail))
    return it


def measure(workload: str, seed: int, seconds: float) -> dict:
    import workloads

    runs = workloads.configs(workload, seed)
    pinned = workloads.pinned_digests()
    first_digests: dict = {}
    iterations = []
    start = time.perf_counter()
    while True:
        gc.collect()
        began = time.perf_counter()
        iterations.append(
            iterate(workload, runs, seed, pinned, first_digests, REPEATS))
        now = time.perf_counter()
        # Stop unless another iteration as long as this one fits.
        if now - start + (now - began) > seconds:
            break
    metrics = {
        name: (statistics.median(it.stages[name] for it in iterations), "s")
        for name in STAGES
    }
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")
    return _report(workload, iterations, metrics)


def trace(workload: str, seed: int) -> dict:
    import layers
    import workloads
    from spans import Tracer

    runs = workloads.configs(workload, seed)
    pinned = workloads.pinned_digests()
    first_digests: dict = {}
    gc.collect()
    plain = iterate(workload, runs, seed, pinned, first_digests, 1)
    tracer = Tracer()
    layers.install(tracer)
    try:
        gc.collect()
        traced = iterate(workload, runs, seed, pinned, first_digests, 1,
                         tracer, mismatch="trace_digest")
    finally:
        tracer.restore()
    metrics = layers.layer_metrics(
        tracer, traced.session_rows, traced.pool_rows, traced.emit_bytes,
        traced.stages["wall_s"] - plain.stages["wall_s"])
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"{workload}.spans.npz")
    return _report(workload, [plain, traced], metrics)


def _report(workload: str, iterations: list, metrics: dict) -> dict:
    attempted = sum(it.runs for it in iterations)
    failed_runs = set()
    for index, it in enumerate(iterations):
        for label, check, detail in it.failures:
            failed_runs.add((index, label))
            print(f"FAILED {workload}/{label} iteration {index}: "
                  f"{check}: {detail}")
    print(f"{workload}: {len(iterations)} iterations, {attempted} runs, "
          f"{len(failed_runs)} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    return {
        "correct": not failed_runs,
        "attempted": attempted,
        "failed": len(failed_runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace_flag: int) -> dict:
    """Every workload in a child process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace_flag)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {workload} exited with "
                     f"code {child.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(f"failed share: {combined['failed']}/{combined['attempted']}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    elif args.trace:
        result = trace(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
