"""Benchmark for ohg: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload cli_ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

Run from the root of a checkout; the library is imported from its ``src``.
The run repeats whole rounds of the workload's queries until the timed
queries add up to ``--seconds``, checks every answer outside the timed
region, and prints the metrics.  The last line of stdout is one JSON
object: with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3
TAIL_LADDER = (50, 75, 90, 95, 98, 99, 99.5, 99.9)
# A run stops starting new rounds after this long, to stay well inside
# the time a run may take even on a much slower machine.
WALL_LIMIT_S = 120


def _import_library():
    """Import ohg from this checkout's src, or exit without a result."""
    src = ROOT / "src"
    if not (src / "ohg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library at {src / 'ohg'}; run from a full checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import ohg

    if Path(ohg.__file__).resolve().parent != (src / "ohg").resolve():
        sys.exit(f"perfbench: imported ohg from {ohg.__file__}, not from {src}")


def _setup(name: str, seed: int, scale: str):
    """Create a private work directory, enter it, and build the workload."""
    import workloads

    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    load = workloads.WORKLOADS[name](seed, scale)
    load.warm_up()
    return load, workdir


def _cleanup(workdir: Path) -> None:
    os.chdir(ROOT)
    shutil.rmtree(workdir, ignore_errors=True)


def _setup_seconds(name: str, seed: int) -> list[float]:
    """Process start to first query, measured on fresh processes.

    Each probe process imports the library, builds the inputs, writes the
    files and warms up, then reports ready and exits.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} failed")
    return samples


def measure(load, seconds: float, judge, tracer=None):
    """Closed loop over whole rounds until the timed queries reach
    ``seconds``.  Returns (latencies, failures, rounds)."""
    latencies, failed, rounds = [], 0, 0
    timed = 0.0
    began = time.monotonic()
    while rounds == 0 or (timed < seconds and time.monotonic() - began < WALL_LIMIT_S):
        load.begin_round()
        for query in load.round:
            if query.prepare is not None:
                query.prepare()
            if tracer is not None:
                tracer.tag = query.tag
            error = answer = None
            start = time.perf_counter()
            try:
                answer = query.call()
            except Exception as exc:  # a failed query is counted, not fatal
                error = exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.tag = ""
            latencies.append(elapsed)
            timed += elapsed
            if not judge.judge(query, answer, error):
                failed += 1
        rounds += 1
        if tracer is not None:
            tracer.keep_spans = False
    return latencies, failed, rounds


def tail_percentile(round_size: int) -> float:
    """Highest ladder percentile with at least ten samples of one round
    beyond it; a run holds whole rounds, so it has at least that many."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if round_size * (1 - p / 100) >= 10:
            best = p
    return best


def nearest_rank(sorted_values: list[float], p: float) -> float:
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def run_one(name: str, seed: int, seconds: float, trace: bool,
            scale: str = "full") -> dict:
    """Run one workload in this process; print and return its result."""
    import checker

    setup = None if trace or scale != "full" else _setup_seconds(name, seed)
    load, workdir = _setup(name, seed, scale)
    try:
        judge = checker.Judge(json.loads((HERE / "digests.json").read_text()))
        tracer = None
        if trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            latencies, failed, rounds = measure(load, seconds, judge, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        _cleanup(workdir)

    total = sum(latencies)
    n = len(latencies)
    print(f"workload {name}  seed {seed}  scale {scale}  "
          f"{'traced' if trace else 'untraced'}: one client, closed loop, no threads")
    print(f"{rounds} rounds of {len(load.round)} queries, {n} queries, "
          f"{total:.3f} s timed")
    print(f"failed_ratio {failed / n:.6f} ratio ({failed} of {n} queries failed)")
    for problem in judge.problems[:20]:
        print(f"  FAILED {problem}")
    if trace:
        metrics = _trace_report(tracer, rounds, total, n, name)
    else:
        ordered = sorted(latencies)
        p = tail_percentile(len(load.round))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "queries_per_s": (n / total, "1/s"),
            "query_p50_ms": (statistics.median(ordered) * 1000, "ms"),
            "query_tail_ms": (nearest_rank(ordered, p) * 1000, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        if setup is not None:
            metrics["setup_s"] = (statistics.median(setup), "s")
            print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup)} s")
        beyond = n - max(1, math.ceil(p / 100 * n))
        print(f"query_tail_ms is the p{p:g} latency: {beyond} of {n} samples lie beyond it")
        for key, (value, unit) in metrics.items():
            print(f"{key:16s} {value:12.4f} {unit}")
    print(_result_line(failed == 0, n, failed, metrics))
    return {"failed": failed, "attempted": n, "metrics": metrics}


def _trace_report(tracer, rounds, total, n, name) -> dict:
    import tracer as tracing

    metrics = tracing.per_layer_metrics(tracer, rounds)
    path = WORK / f"spans-{name}.bin"
    path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(path)
    print(f"traced queries_per_s {n / total:.4f} 1/s; "
          f"{len(tracer.spans['id'])} spans of the first round written to "
          f"{path.relative_to(ROOT)}")
    print("self-time share of the traced query time, by layer:")
    shares = tracing.layer_shares(tracer, total)
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:9s} {share:7.1%}")
    print(f"  {'other':9s} {1 - sum(shares.values()):7.1%}  (benchmark side and tracing)")
    if tracer.scans:
        print("theta scans by input family (scans per round, probes, mean scan s, certificates):")
        tags = sorted({tag for (_, tag) in tracer.calls if tag})
        for tag in tags:
            scans, probes, ns, certs = tracer.scans.get(tag, [0, 0, 0, 0])
            mean = ns / scans / 1e9 if scans else 0.0
            print(f"  {tag:8s} {scans / rounds:8g} {probes / rounds:8g} "
                  f"{mean:10.5f} {certs / rounds:6g}")
    print("per-layer metrics, per round:")
    for key, (value, unit) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {key:34s} {shown:>14s} {unit}")
    return metrics


def run_all(args) -> int:
    """Every workload, each in its own process; prints a combined result."""
    import workloads

    combined, attempted, failed = {}, 0, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            combined[f"{name}.{key}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="cli_ladder, signed_census, field_circuits, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_library()
    # A user's cap on circuit enumeration must not change the workload.
    os.environ.pop("OHG_MAX_SUBSETS", None)
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        _, workdir = _setup(args.workload, args.seed, "full")
        print("ready", flush=True)
        _cleanup(workdir)
        return 0
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0 if result["attempted"] else 1


if __name__ == "__main__":
    sys.exit(main())
