"""Rewrite expected.json, the pinned answers of the "pinned" queries.

    python3 perfbench/pin.py

Covers the criterion-6 style pool and the fixed queries on the coin
chain; a run's seed only renames the propositions, which keeps every
answer.  Answers are taken from the CLI and must agree with the
sampling certificate wherever it applies; the queries that end on a
cap today get answers argued from the chain below.  Run it only when the answer semantics change, and
review the diff.
"""

from __future__ import annotations

import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import verify  # noqa: E402
import workloads  # noqa: E402

# Queries that hit a cap at the seed commit.  On the coin chain only `a`
# ever holds, so any conjunct that needs b, c, ... (or !a forever after
# absorption in the a-state) has probability 0.
ARGUED = {
    "W4": ["verdict: empty"],
    "gf3": ["verdict: empty"],
}


def main():
    workloads.import_program()
    from pltlcheck import cli
    files, queries = workloads.build("check", 0)
    work = os.path.join(workloads.ROOT, ".perfbench")
    os.makedirs(work, exist_ok=True)
    answers = {}
    certified = 0
    for q in queries:
        if q.ref != "pinned":
            continue
        key = q.data.get("pin", q.id)
        if key in ARGUED:
            answers[key] = ARGUED[key]
            continue
        argv = list(q.argv)
        text = files[argv[2]]
        argv[2] = os.path.join(work, "pin.dtmc")
        with open(argv[2], "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        try:
            rc = cli.run(argv, out, err)
        finally:
            os.remove(argv[2])
        if rc != 0:
            raise SystemExit("%s: exit %d: %s" % (q.id, rc, err.getvalue()))
        got = verify.answer(q.argv[0], out.getvalue())
        if q.family == "diamond" and verify.threshold_of(q) == ">0":
            refuted, ok = verify.sample_verdict(q, text, got)
            if refuted:
                raise SystemExit("%s: sampling refutes %s" % (q.id, got))
            certified += ok
        answers[key] = got
    with open(verify.EXPECTED_PATH, "w") as fh:
        json.dump({"about": __doc__.strip().splitlines()[0],
                   "answers": answers}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("pinned %d answers, %d >0 answers certified by sampling"
          % (len(answers), certified))


if __name__ == "__main__":
    main()
