"""Record benchmark runs of two revisions side by side in BENCH_<label>.json.

    python3 bench/record.py --base 4a319d8 --head HEAD --label pr6 --pairs 3

Both revisions are unpacked with ``git archive`` into temporary
directories, so the working tree is never benchmarked.  For each
workload that ``perfbench/workloads.py`` lists, ``--pairs`` pairs of
``perfbench/run.py --trace 0`` runs use seed 101 + k for pair k, one run
at a time and at the benchmark's own run length; even pairs run the base
first and odd pairs the head first, so drift in the machine's load falls
on both sides.  The output keeps every result line as printed, the
seeds, both commit ids, the machine, the per-metric medians of each
side, and each side's library size as ``src_lines``: the lines of its
``src/ohg/*.py``, counted as ``wc -l`` counts them.  For each workload
and each end-to-end metric of ``BENCHMARK.json``, ``pairs_won`` holds the
head/base ratio of every pair and the number of pairs the head won, by
the metric's own direction; a tie counts for neither side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 101


def _workloads() -> list[str]:
    """The benchmark's workload names, read from perfbench/workloads.py."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    return list(workloads.WORKLOADS)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _unpack(commit: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=ROOT, check=True, capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def _src_lines(checkout: Path) -> int:
    return sum(f.read_bytes().count(b"\n")
               for f in (checkout / "src" / "ohg").glob("*.py"))


def _run(checkout: Path, workload: str, seed: int) -> str:
    """The last stdout line of one untraced benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return lines[-1]


def _directions() -> dict[str, str]:
    """Each end-to-end metric's better direction, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def _pairs_won(lines: dict[str, list[str]],
               directions: dict[str, str]) -> dict[str, dict]:
    """Per metric, the head/base ratio of each pair (None where the base
    reads 0) and the number of pairs the head won."""
    values = {side: [json.loads(line)["metrics"] for line in lines[side]]
              for side in ("base", "head")}
    out = {}
    for name, better in directions.items():
        ratios, won = [], 0
        for base, head in zip(values["base"], values["head"]):
            b, h = base[name]["value"], head[name]["value"]
            ratios.append(h / b if b else None)
            won += h > b if better == "higher" else h < b
        out[name] = {"ratios": ratios, "head_won": won}
    return out


def _medians(lines: list[str]) -> dict[str, float]:
    metrics: dict[str, list[float]] = {}
    for line in lines:
        for name, entry in json.loads(line)["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return {name: statistics.median(values) for name, values in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="parent revision")
    ap.add_argument("--head", default="HEAD", help="changed revision")
    ap.add_argument("--label", required=True, help="names BENCH_<label>.json")
    ap.add_argument("--pairs", type=int, default=3)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    sides = {"base": _git("rev-parse", args.base + "^{commit}"),
             "head": _git("rev-parse", args.head + "^{commit}")}
    seeds = [FIRST_SEED + k for k in range(args.pairs)]
    runs = []
    medians = {}
    pairs_won = {}
    directions = _directions()
    with tempfile.TemporaryDirectory(prefix="ohg-bench-") as tmp:
        checkouts = {}
        for side, commit in sides.items():
            checkouts[side] = Path(tmp) / side
            _unpack(commit, checkouts[side])
        src_lines = {side: _src_lines(path) for side, path in checkouts.items()}
        for workload in _workloads():
            lines = {"base": [], "head": []}
            for k, seed in enumerate(seeds):
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                for side in order:
                    line = _run(checkouts[side], workload, seed)
                    lines[side].append(line)
                    runs.append({"workload": workload, "pair": k, "seed": seed,
                                 "side": side, "result": line})
                    print(f"{workload} pair {k} seed {seed} {side}: "
                          f"{line[:120]}", file=sys.stderr)
            medians[workload] = {side: _medians(lines[side])
                                 for side in ("base", "head")}
            pairs_won[workload] = _pairs_won(lines, directions)

    record = {
        "label": args.label,
        "base": sides["base"],
        "head": sides["head"],
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0",
        "pairs": args.pairs,
        "seeds": seeds,
        "machine": {"platform": platform.platform(),
                    "nproc": os.cpu_count(),
                    "python": platform.python_version()},
        "runs": runs,
        "medians": medians,
        "pairs_won": pairs_won,
        "src_lines": src_lines,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
