"""Tests of the benchmark itself (not of pltlcheck).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import argparse
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

workloads.import_program()
from pltlcheck import cli  # noqa: E402

with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _cheap(queries, n=6):
    """A few fast queries of different reference kinds."""
    picked, kinds = [], set()
    for q in queries:
        if q.tag or q.family in ("traffic", "w3", "gf3", "until", "prob"):
            continue
        if q.id.startswith("cnf.as1") or q.ref in kinds:
            continue
        kinds.add(q.ref)
        picked.append(q)
    return picked[:n]


def _plant(command, out):
    """The same output with a different answer."""
    swaps = {"check": ("verdict: empty", "verdict: nonempty"),
             "member": ("member: false", "member: true")}
    if command in swaps:
        a, b = swaps[command]
        return out.replace(a, "@").replace(b, a).replace("@", b)
    return out + "minimal: x=999\n"


def _args(workload, trace=0):
    return argparse.Namespace(workload=workload, seed=3, seconds=1,
                              trace=trace)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    files, queries = workloads.build(workload, 11)
    again, queries2 = workloads.build(workload, 11)
    assert files == again
    assert workloads.manifest(queries) == workloads.manifest(queries2)
    other, _ = workloads.build(workload, 12)
    assert other != files
    # A fresh interpreter (another hash seed) writes the same bytes.
    out = str(tmp_path / "inputs")
    subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"),
                    "--workload", workload, "--seed", "11", "--out", out],
                   check=True, env=dict(os.environ, PYTHONHASHSEED="123"))
    assert run.same_inputs(files, queries, [out])


def _run_cheap(workload, tmp_path, tracer=None):
    files, queries = workloads.build(workload, 3)
    queries = _cheap(queries)
    workloads.write_inputs(str(tmp_path), files, queries)
    results = run.run_batch(cli, queries, str(tmp_path), tracer)
    assert all(r[0] == 0 for r in results), results
    return files, queries, results


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_planted_wrong_answer_is_caught(workload, tmp_path, capsys):
    files, queries, results = _run_cheap(workload, tmp_path)
    assert run.finish(_args(workload), queries, files, results, 0.1, 10.0) == 0
    capsys.readouterr()
    for i, q in enumerate(queries):
        rc, latency, out, err = results[i]
        planted = _plant(q.argv[0], out)
        assert planted != out, out
        bad = list(results)
        bad[i] = (rc, latency, planted, err)
        code = run.finish(_args(workload), queries, files, bad, 0.1, 10.0)
        printed = capsys.readouterr()
        assert code != 0, q.id
        assert "wrong answer for %s" % q.id in printed.err
        assert "{" not in printed.out, "metrics printed after a wrong answer"


def test_prob_checked_exactly(tmp_path):
    files, queries = workloads.build("exact", 3)
    q = next(q for q in queries if q.family == "prob")
    workloads.write_inputs(str(tmp_path), files, [q])
    [(rc, latency, out, err)] = run.run_batch(cli, [q], str(tmp_path))
    assert rc == 0
    value = out.split("probability: ")[1].split()[0]
    num, _, den = value.partition("/")
    planted = out.replace(value, "%s/%s" % (int(num) - 1, den))
    tally = {"certified": 0}
    assert run.verify.check(q, out, files[q.argv[2]], {}, tally) is None
    assert run.verify.check(q, planted, files[q.argv[2]], {}, tally)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(trace, tmp_path, capsys):
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
    try:
        files, queries, results = _run_cheap("minset", tmp_path, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    code = run.finish(_args("minset", trace), queries, files, results, 0.1,
                      10.0, tracer)
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for m in listed:
        assert '"%s": {"value": ' % m["name"] in last


def test_benchmark_file_matches_contract():
    assert list(BENCHMARK) == ["command", "paths", "run_seconds", "workloads",
                               "end_to_end", "per_layer"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_tracing_restores_the_program():
    from pltlcheck import diamond, formula
    before = (cli.parse_formula, diamond.DiamondChecker.check_pos,
              formula.to_nnf)
    tracer = spans.Tracer()
    tracer.install()
    assert cli.parse_formula is not before[0]
    tracer.uninstall()
    assert (cli.parse_formula, diamond.DiamondChecker.check_pos,
            formula.to_nnf) == before


def test_traffic_references():
    from pltlcheck import fixtures
    traffic = workloads._from_program(fixtures.traffic_chain())
    w1 = refs.first_hit_antichain(traffic, {"x1": "r", "x2": "b", "x3": "g"})
    assert len(w1) == 16
    rb = refs.first_hit_antichain(traffic, {"x": "r", "y": "b"})
    assert sorted((p["x"], p["y"]) for p in rb) == \
        [(2, 10), (3, 9), (4, 8), (5, 7)]
