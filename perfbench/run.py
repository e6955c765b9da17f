"""pltlcheck query benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload minset|check|exact --seed N \
        --seconds S --trace 0|1

Each request is one `pltlcheck` command run in this process through
`cli.run(argv, out, err)` on generated .dtmc files, one at a time (a
closed loop with one client).  Every query has a wall-clock cap of
TIME_CAP_S seconds and, where the general engine may answer it, an
explicit --max-product-nodes.  Every answer is checked after the timed
loop; a wrong answer exits 1 without printing metrics.

The last line of stdout is a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  The lines before it
are one `query {...}` row per query (id, W1-W4 tag, exit, latency and
the counters the CLI prints).  Inputs live under .perfbench/ in the
checkout and are removed at exit; with --trace 1 the spans are kept in
.perfbench/spans-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
WORK_ROOT = os.path.join(ROOT, ".perfbench")

# Set-up is repeated this many times before the timed loop and as many
# again after it, so that its median samples the machine's speed drift
# over the whole run rather than at one moment.
SETUP_REPS = 4

END_TO_END = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("decided_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]

TIMEOUT = "timeout"


class QueryTimeout(BaseException):
    """Raised by the alarm; a BaseException so cli.run cannot catch it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def setup(args, reps, work, count, first=0):
    """Generate and write the inputs `count` times in fresh processes.

    Each repetition imports pltlcheck, builds the workload from the seed
    and writes it, which is what a user pays before the first query.
    Returns the times and the directories written.
    """
    times, dirs = [], []
    for i in range(first, first + count):
        out = os.path.join(work, "inputs%d" % i)
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--reps", str(reps), "--out", out]
        t0 = time.perf_counter()
        # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms.
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
        dirs.append(out)
    return times, dirs


def same_inputs(files, queries, dirs):
    """Do all written directories hold exactly the in-process inputs?"""
    want = dict(files)
    want["manifest.json"] = json.dumps(workloads.manifest(queries), indent=1,
                                       sort_keys=True) + "\n"
    for d in dirs:
        if sorted(os.listdir(d)) != sorted(want):
            return False
        for name, text in want.items():
            with open(os.path.join(d, name)) as fh:
                if fh.read() != text:
                    return False
    return True


def run_query(cli, q, in_dir):
    """Run one query; returns (exit code or TIMEOUT, latency, stdout, stderr)."""
    argv = list(q.argv)
    argv[2] = os.path.join(in_dir, argv[2])
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, workloads.TIME_CAP_S)
        try:
            rc = cli.run(argv, out, err)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryTimeout:
        rc = TIMEOUT
    except Exception as exc:  # an internal error is a failed query
        rc = "error: %s: %s" % (type(exc).__name__, exc)
    latency = time.perf_counter() - t0
    return rc, latency, out.getvalue(), err.getvalue()


def run_batch(cli, queries, in_dir, tracer=None):
    results = []
    for q in queries:
        if tracer is not None:
            tracer.start_query(q.id)
        results.append(run_query(cli, q, in_dir))
    return results


def row(q, result):
    rc, latency, out, err = result
    parsed = verify.parse_output(out)
    r = {"id": q.id, "family": q.family, "tag": q.tag, "exit": rc,
         "latency_s": latency}
    for key in ("product-nodes", "oracle-calls"):
        if key in parsed:
            r[key] = int(parsed[key][0])
    if rc != 0 and err:
        r["stderr"] = err.strip().splitlines()[-1][:200]
    return r


def percentile(values, q):
    """q-th percentile (0 < q < 100) by linear interpolation."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main(argv=None):
    ap = argparse.ArgumentParser(description="pltlcheck query benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pltlcheck", "cli.py")):
        print("perfbench: no pltlcheck sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    work = os.path.join(WORK_ROOT, "run-%d" % os.getpid())
    os.makedirs(work)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work):
    reps = workloads.reps_for(args.seconds)
    setup_times, dirs = setup(args, reps, work, SETUP_REPS)
    workloads.import_program()
    from pltlcheck import cli
    files, queries = workloads.build(args.workload, args.seed, reps)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        results = run_batch(cli, queries, dirs[0], tracer)
    finally:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    later_times, later_dirs = setup(args, reps, work, SETUP_REPS, SETUP_REPS)
    if not same_inputs(files, queries, dirs + later_dirs):
        print("perfbench: inputs differ between set-up runs", file=sys.stderr)
        return 1
    setup_s = statistics.median(setup_times + later_times)
    return finish(args, queries, files, results, setup_s, peak_rss_mb, tracer)


def finish(args, queries, files, results, setup_s, peak_rss_mb, tracer=None):
    """Check every answer, then print the query rows and the metrics.

    Returns the exit code: 1 without metrics if any answer is wrong.
    """
    expected = verify.load_expected()
    tally = {"certified": 0}
    wrong = []
    for q, (rc, _, out, _) in zip(queries, results):
        if rc == 0:
            msg = verify.check(q, out, files[q.argv[2]], expected, tally)
            if msg is not None:
                wrong.append((q.id, msg))
    for qid, msg in wrong:
        print("perfbench: wrong answer for %s: %s" % (qid, msg),
              file=sys.stderr)
    if wrong:
        return 1

    capped = {q.id for q, r in zip(queries, results) if r[0] == TIMEOUT}
    per_query = spans.query_counts(tracer.spans) if tracer else {}
    for q, result in zip(queries, results):
        r = row(q, result)
        r.update(per_query.get(q.id, {}))
        print("query " + json.dumps(r, sort_keys=True))
    latencies = [r[1] for r in results]
    batch_s = sum(latencies)
    attempted = len(queries)
    failed = sum(1 for r in results if r[0] != 0)
    print("perfbench: %s seed %d: %d queries (%d latency samples), %d failed, "
          "%d >0 answers certified by sampling"
          % (args.workload, args.seed, attempted, len(latencies), failed,
             tally["certified"]))
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "queries_per_s": attempted / batch_s,
            "latency_p50_s": percentile(latencies, 50),
            "latency_p90_s": percentile(latencies, 90),
            "decided_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        values = spans.layer_metrics(tracer.spans, capped)
        values["trace.queries_per_s"] = attempted / batch_s
        values["trace.spans"] = len(tracer.spans)
        values["trace.overhead_share"] = (len(tracer.spans) * spans.span_cost()
                                          / batch_s)
        os.makedirs(WORK_ROOT, exist_ok=True)
        tracer.write(os.path.join(WORK_ROOT, "spans-%s-%d.jsonl"
                                  % (args.workload, args.seed)))
        units = spans.LAYER_METRICS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
