"""gradedmodal benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload large-models --seed 1 --seconds 30 --trace 0

Load model: a closed loop with a single client.  Queries run one after
another from a fixed list made from the seed, in whole cycles through the
list until ``--seconds`` have passed (three cycles at least); there are no
threads and no queue.  With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` the run alternates untraced and traced passes
over the list and reports the per-layer metrics.  See SETUP.md for the
workloads, the oracles and every metric.  The last line of standard
output is one JSON object; the lines before it are the readable report.

The library is imported from ``src`` next to this directory; the run stops
with exit code 2 when it is missing.  Inputs, verdict digests and spans are
written under ``.perfbench_out`` in the same checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracle import Failed, Wrong, digest  # noqa: E402
from tracing import LAYERS, Tracer, metric_units  # noqa: E402
from workloads import PARAMS, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5  # at least; more while the set-ups so far took under SETUP_SECONDS
SETUP_SECONDS = 3.0
MIN_CYCLES = 3
END_TO_END_UNITS = {
    "throughput_qps": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}


def import_library(src: Path):
    """A fresh import of the package and its layer modules from ``src``."""
    for name in [n for n in sys.modules if n == "gradedmodal" or n.startswith("gradedmodal.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("gradedmodal")
    if Path(pkg.__file__).resolve().parent != (src / "gradedmodal").resolve():
        raise ImportError(f"gradedmodal was imported from {pkg.__file__}, not from {src}")
    modules = {layer: importlib.import_module(f"gradedmodal.{layer}") for layer in LAYERS}
    return types.SimpleNamespace(pkg=pkg, **modules)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(workload: str, seed: int, scale: str, src: Path, workdir: Path):
    """Import the package and build the seeded inputs; the timed set-up."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    lib = import_library(src)
    return lib, WORKLOADS[workload](lib, random.Random(seed), PARAMS[workload][scale], workdir)


def oracle_verdict(query, out) -> tuple[str, str]:
    """Runs the query's oracle on its output in a forked child and waits for
    it, so that neither the oracle's memory nor the caches it warms reach
    the process whose peak RSS and latencies are measured."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                query.verify(out)
                verdict = ("ok", "")
            except Failed as exc:
                verdict = ("failed", str(exc))
            except Wrong as exc:
                verdict = ("wrong", str(exc))
            except BaseException as exc:  # the oracle itself could not finish
                verdict = ("wrong", f"oracle raised {type(exc).__name__}: {str(exc)[:120]}")
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(json.dumps(verdict))
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    os.waitpid(pid, 0)
    if not text:
        return "wrong", "the oracle process ended without a verdict"
    status, reason = json.loads(text)
    return status, reason


class Runner:
    """Executes queries and judges each output against its oracle."""

    def __init__(self, queries):
        self.queries = queries
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.failed = 0
        self.wrong: list[str] = []
        self.failures: dict[str, str] = {}

    def execute(self, index: int, tracer: Tracer | None = None) -> float:
        query = self.queries[index]
        if tracer is not None:
            tracer.query = index
        error = None
        start = perf_counter()
        try:
            out = query.call()
        except Exception as exc:  # a crash is a failed query, never a verdict
            error = exc
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.query = None
            tracer.drain()
        self.latencies.append(elapsed)
        self.kinds.append(query.kind)
        status, reason = self.judge(query, None if error else out, error)
        if status != "ok":
            self.failed += 1
            self.failures.setdefault(query.label, f"{status}: {reason}"
                                     + (f" [{query.known_defect}]" if query.known_defect else ""))
            if status == "wrong":
                self.wrong.append(f"{query.label}: {reason}")
        return elapsed

    @staticmethod
    def judge(query, out, error) -> tuple[str, str]:
        """Status of one execution: ok, failed (no verdict) or wrong."""
        if error is not None:
            summary = f"error:{type(error).__name__}"
            if query.first is None:
                query.first = (summary, "failed", f"{type(error).__name__}: {str(error)[:120]}")
        else:
            summary = query.summarize(out)
            if query.first is None:
                query.first = (summary, *oracle_verdict(query, out))
        if summary != query.first[0]:
            return "wrong", "outcome differs from the query's first execution"
        return query.first[1], query.first[2]

    def cycle(self, tracer: Tracer | None = None) -> float:
        return sum(self.execute(i, tracer) for i in range(len(self.queries)))

    def digest(self) -> str:
        return digest("\n".join(q.first[0] for q in self.queries))


def check_digest(out_dir: Path, key: str, value: str) -> tuple[bool, str]:
    """Compare this run's verdict digest with earlier runs of the same seed."""
    path = out_dir / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    previous = store.setdefault(key, value)
    path.write_text(json.dumps(store, indent=1, sort_keys=True))
    if previous != value:
        return False, f"digest {value} differs from {previous} recorded by an earlier run"
    return True, f"digest {value}"


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple[list[str], dict]:
    """Set up, measure and check one workload; returns report lines and the JSON result."""
    src = ROOT / "src"
    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"inputs-{os.getpid()}"
    setup_times: list[float] = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        lib = queries = None  # each set-up starts without the previous one's inputs
        gc.collect()
        start = perf_counter()
        lib, queries = set_up(workload, seed, scale, src, workdir)
        setup_times.append(perf_counter() - start)
    runner = Runner(queries)
    lines = [
        f"workload {workload}  seed {seed}  scale {scale}  trace {int(trace)}",
        f"environment: python {platform.python_version()}, nproc {os.cpu_count()}; "
        f"load: closed loop, 1 client, {len(queries)} queries per cycle",
        f"{len(setup_times)} set-ups; peak RSS after set-up {peak_rss_mib():.1f} MiB",
    ]
    try:
        if trace:
            metrics = traced_metrics(runner, lib, seconds, out_dir, workload, seed, lines)
        else:
            metrics = untraced_metrics(runner, seconds, setup_times, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(runner.latencies)
    bench = digest("".join(p.read_text() for p in sorted(Path(__file__).parent.glob("*.py"))))
    key = f"{workload} seed={seed} scale={scale} bench={bench}"
    digest_ok, digest_line = check_digest(out_dir, key, runner.digest())
    lines.append(f"{attempted} queries attempted, {runner.failed} failed "
                 f"(fail_ratio {runner.failed / attempted:.4f}); verdict {digest_line}")
    lines += [f"failed query {label}: {reason}" for label, reason in sorted(runner.failures.items())]
    units = END_TO_END_UNITS if not trace else metric_units()
    lines += [f"{name} = {metrics[name]:.6g} {units[name]}" for name in units]
    report = {
        "correct": not runner.wrong and digest_ok,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return lines, report


def untraced_metrics(runner: Runner, seconds: float, setup_times: list[float], lines: list[str]) -> dict:
    start = perf_counter()
    # Whole cycles only, so every query weighs the same in every run; at
    # least three, so that more than ten samples lie beyond p90.
    cycles = 0
    while cycles < MIN_CYCLES or perf_counter() - start < seconds:
        runner.cycle()
        cycles += 1
    lat = runner.latencies
    by_kind: dict[str, list[float]] = {}
    for kind, elapsed in zip(runner.kinds, lat):
        by_kind.setdefault(kind, []).append(elapsed)
    lines.append("median latency by kind: " + ", ".join(
        f"{kind} {1000 * statistics.median(v):.1f} ms x{len(v)}" for kind, v in by_kind.items()))
    return {
        "throughput_qps": len(lat) / sum(lat),
        "query_p50_ms": 1000 * statistics.median(lat),
        "query_p90_ms": 1000 * statistics.quantiles(lat, n=10)[-1],
        "peak_rss_mib": peak_rss_mib(),
        "ok_ratio": (len(lat) - runner.failed) / len(lat),
        "setup_s": statistics.median(setup_times),
    }


def traced_metrics(runner: Runner, lib, seconds: float, out_dir: Path, workload: str, seed: int,
                   lines: list[str]) -> dict:
    """Alternate untraced and traced passes; report per-pass medians."""
    start = perf_counter()
    runner.cycle()  # the oracles run here, so neither side of a pair pays for them
    passes = []
    tracers = []
    while True:
        untraced = runner.cycle()
        tracer = Tracer(lib)
        tracer.install()
        try:
            traced = runner.cycle(tracer)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        passes.append(tracer.metrics(traced / untraced))
        if perf_counter() - start + untraced + traced > seconds:
            break
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) or 1.0
    shares = sorted(((metrics[f"{layer}.self_s"] / total, layer) for layer in LAYERS), reverse=True)
    lines.append(f"{len(passes)} traced passes; self-time shares: "
                 + ", ".join(f"{layer} {share:.1%}" for share, layer in shares))
    spans_path = out_dir / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps([t.dump() for t in tracers]))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gradedmodal" / "__init__.py").is_file():
        print(f"no gradedmodal package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    lines, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
