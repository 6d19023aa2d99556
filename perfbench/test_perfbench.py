"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench

They prove that the checker rejects corrupted answers and that traced runs
repeat their counts exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run._import_library()

import checker  # noqa: E402
import generators  # noqa: E402
import ohg  # noqa: E402
import ohg.cli  # noqa: E402
import workloads  # noqa: E402
from ohg.linalg import Domain  # noqa: E402


def _cli(tmp_path, capsys, doc, *argv):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = ohg.cli.main([*argv, str(path)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def trap():
    doc, paths = generators.plant_trap(generators.hypertree(6, 1), 1)
    return doc, {"balanced": False, "balanceable": False, "trap_paths": paths}


def test_checker_accepts_then_rejects_corrupted_theta(tmp_path, capsys, trap):
    doc, truth = trap
    rc, out, err = _cli(tmp_path, capsys, doc, "balanceable", "--certificate")
    assert checker.check_cli("balanceable", doc, truth, rc, out, err, None) == []

    cert = json.loads(out)["certificate"]
    other = next(i["id"] for i in doc["incidences"]
                 if all(i["id"] not in p for p in cert["paths"]))
    broken = json.loads(json.dumps(cert))
    broken["paths"][0][-1] = other
    assert checker.check_theta(doc, broken)

    shared = json.loads(json.dumps(cert))
    shared["paths"][1] = shared["paths"][0]
    assert any("share interior" in p for p in checker.check_theta(doc, shared))


def test_checker_rejects_wrong_exit_code(tmp_path, capsys, trap):
    doc, truth = trap
    rc, out, err = _cli(tmp_path, capsys, doc, "balance", "--certificate")
    assert rc == 1
    assert checker.check_cli("balance", doc, truth, rc, out, err, None) == []
    assert checker.check_cli("balance", doc, truth, 0, out, err, None)
    rc, out, err = _cli(tmp_path, capsys, doc, "frustration", "--mode",
                        "local-search", "--budget", "2000")
    assert rc == 2
    assert checker.check_cli("frustration", doc, truth, rc, out, err, None) == []
    assert checker.check_cli("frustration", doc, truth, 1, out, err, None)


def test_checker_rejects_wrong_circuit_sets():
    load = workloads.SignedCensus(0, "tiny")
    inst = next(i for i in load.instances if len(i.edges) == 3
                and len(checker.zaslavsky_circuits(i.edges, i.eps)) >= 2)
    query = load._query(inst)
    circuits, circles, verdicts = query.call()
    assert query.check((circuits, circles, verdicts)) == []
    assert query.check((circuits[1:], circles, verdicts))

    g = ohg.make_complete_hypergraph(3, 1)
    doc = workloads.doc_of(g)
    reports = [(r.edges, r.witness)
               for r in ohg.enumerate_circuits(g, Domain.prime_field(2))]
    assert checker.check_circuit_list(doc, "GF(2)", reports, None) == []
    extra = next(e for e in g.edges if e not in reports[0][0])
    bigger = tuple(sorted(set(reports[0][0]) | {extra}))
    wrong = reports + [(bigger, (1,) * len(bigger))]
    assert checker.check_circuit_list(doc, "GF(2)", wrong, None)
    flipped = [(reports[0][0], tuple(0 for _ in reports[0][1]))] + reports[1:]
    assert checker.check_circuit_list(doc, "GF(2)", flipped, None)


def test_judge_rejects_digest_mismatch():
    load = workloads.FieldCircuits(0, "tiny")
    query = load.round[0]
    answer = query.call()
    good = checker.digest(query.canon(answer))
    assert checker.Judge({query.key: good}).judge(query, answer, None)
    judge = checker.Judge({query.key: "0" * 20})
    assert not judge.judge(query, answer, None)
    assert "digest" in judge.problems[0]
    judge = checker.Judge({})
    assert not judge.judge(query, answer, None)
    assert not checker.Judge({query.key: good}).judge(query, None, ValueError("x"))


def test_recorded_digests_cover_every_pool_query():
    recorded = json.loads((run.HERE / "digests.json").read_text())
    for scale in workloads.SCALES:
        for cls in workloads.WORKLOADS.values():
            workdir = run.WORK / f"test-keys-{cls.name}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                os.chdir(workdir)
                keys = {q.key for q in cls(0, scale, everything=True).round}
            finally:
                run._cleanup(workdir)
            assert keys <= set(recorded), cls.name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_tiny_run_passes(name, monkeypatch, capsys):
    monkeypatch.chdir(run.ROOT)
    result = run.run_one(name, seed=5, seconds=0, trace=False, scale="tiny")
    assert result["failed"] == 0 and result["attempted"] > 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_runs_repeat_counts(name, monkeypatch, capsys):
    monkeypatch.chdir(run.ROOT)
    original = ohg.enumerate_circuits
    first = run.run_one(name, seed=7, seconds=0, trace=True, scale="tiny")
    second = run.run_one(name, seed=7, seconds=0, trace=True, scale="tiny")
    assert ohg.enumerate_circuits is original
    counts = {k: v for k, (v, unit) in first["metrics"].items() if unit == "count"}
    again = {k: v for k, (v, unit) in second["metrics"].items() if unit == "count"}
    assert counts == again
    assert any(v for v in counts.values())


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
