"""Byte-exact CLI transcripts: exit code, stdout, stderr, emitted automata.

`test_cli.py` checks substrings; this file pins every byte the check,
minset, member and prob commands print for each fragment (Reach, Buchi,
GeneralizedBuchi, FX, Diamond) at each legal threshold, on three small
chains, in text and machine format, plus the error rows whose exit code
and message must not drift.

The expected transcripts live in `cli_golden.json` next to this file.
After a deliberate change of the output format, rewrite them with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "cli_golden.json")

CHAINS = {
    "coin": ("states 2\ninit 0\ntrans 0 0 1/2\ntrans 0 1 1/2\n"
             "trans 1 1 1\nlabel 1 a\n"),
    "ring": ("states 3\ninit 0\ntrans 0 1 1\ntrans 1 2 1\ntrans 2 0 1\n"
             "label 0 a\nlabel 1 b\n"),
    "four": ("states 4\ninit 0\ntrans 0 1 1/2\ntrans 0 2 1/2\n"
             "trans 1 3 1\ntrans 2 2 1/2\ntrans 2 3 1/2\ntrans 3 0 1\n"
             "label 1 a\nlabel 2 a\nlabel 3 b\n"),
}

# Fragment -> (formula, member valuation).
FORMULAS = {
    "Reach": ("F[<=x] a", "x=2"),
    "Buchi": ("G F[<=x] a", "x=2"),
    "GeneralizedBuchi": ("G F[<=x] a & G F[<=y] b", "x=2,y=3"),
    "FX": ("F[<=x] a | X b", "x=1"),
    "Diamond": ("F[<=x] G a", "x=3"),
}


def _cases():
    cases = []
    for chain in CHAINS:
        for fragment, (formula, valuation) in FORMULAS.items():
            thresholds = [">0", "=1"]
            if fragment == "Reach":
                thresholds.append(">=1/2")
            for threshold in thresholds:
                base = ["--chain", "{%s}" % chain, "--formula", formula,
                        "--threshold", threshold]
                tag = "%s-%s-%s" % (chain, fragment, threshold)
                cases.append(("check-" + tag, ["check"] + base))
                cases.append(("minset-" + tag, ["minset"] + base))
                cases.append(("member-" + tag, ["member"] + base
                              + ["--valuation", valuation]))
                cases.append(("check-machine-" + tag,
                              ["check"] + base + ["--format", "machine"]))
                cases.append(("minset-machine-" + tag,
                              ["minset"] + base + ["--format", "machine"]))
        cases.append(("prob-%s" % chain,
                      ["prob", "--chain", "{%s}" % chain,
                       "--formula", "F[<=x] a", "--valuation", "x=3"]))
        cases.append(("prob-machine-%s" % chain,
                      ["prob", "--chain", "{%s}" % chain,
                       "--formula", "F[<=x] a", "--valuation", "x=3",
                       "--format", "machine"]))
        cases.append(("check-witness-%s-FX" % chain,
                      ["check", "--chain", "{%s}" % chain, "--formula",
                       FORMULAS["FX"][0], "--witness"]))
    for command, extra in (("check", []), ("minset", []),
                           ("member", ["--valuation", "x=1"])):
        cases.append(("emit-%s-Diamond" % command,
                      [command, "--chain", "{four}", "--formula",
                       FORMULAS["Diamond"][0], "--emit-automaton", "{aut}"]
                      + extra))
    cases.append(("emit-minset-FX",
                  ["minset", "--chain", "{coin}", "--formula",
                   "F[<=x] a & X F[<=y] a", "--emit-automaton", "{aut}"]))
    cases.append(("emit-member-GeneralizedBuchi",
                  ["member", "--chain", "{ring}", "--formula",
                   FORMULAS["GeneralizedBuchi"][0], "--valuation", "x=2,y=2",
                   "--emit-automaton", "{aut}"]))
    cases.append(("emit-member-Diamond-until-release",
                  ["member", "--chain", "{ring}", "--formula",
                   "F[<=x] (a U b) & F[<=y] (!a R X b)", "--valuation",
                   "x=1,y=2", "--emit-automaton", "{aut}"]))
    # Parameter-free checks: the general engine asks its one point, so
    # no bound line is printed.
    for fragment, formula in (("Diamond", "F G a"), ("FX", "X a")):
        for threshold in (">0", "=1"):
            cases.append(("check-no-parameters-%s-%s" % (fragment, threshold),
                          ["check", "--chain", "{coin}", "--formula", formula,
                           "--threshold", threshold]))
    # Error rows: exit code and message.
    for command in ("check", "minset"):
        cases.append(("error-%s-geq-Buchi" % command,
                      [command, "--chain", "{ring}", "--formula", "G F[<=x] a",
                       "--threshold", ">=1/2"]))
    cases.append(("error-member-geq-Buchi",
                  ["member", "--chain", "{ring}", "--formula", "G F[<=x] a",
                   "--threshold", ">=1/2", "--valuation", "x=1"]))
    cases.append(("error-member-missing-variable",
                  ["member", "--chain", "{coin}", "--formula", "F[<=x] a",
                   "--valuation", "y=1"]))
    cases.append(("error-member-missing-variable-geq-Buchi",
                  ["member", "--chain", "{ring}", "--formula", "G F[<=x] a",
                   "--threshold", ">=1/2", "--valuation", "y=1"]))
    cases.append(("error-minset-no-parameters",
                  ["minset", "--chain", "{coin}", "--formula", "F a"]))
    cases.append(("error-minset-no-parameters-geq",
                  ["minset", "--chain", "{coin}", "--formula", "F a",
                   "--threshold", ">=1/2"]))
    for command, extra in (("check", []), ("minset", []),
                           ("member", ["--valuation", "x=3"])):
        cases.append(("error-%s-node-cap" % command,
                      [command, "--chain", "{coin}", "--formula",
                       FORMULAS["Diamond"][0], "--max-product-nodes", "1"]
                      + extra))
    cases.append(("error-prob-not-reach",
                  ["prob", "--chain", "{coin}", "--formula", "G F[<=x] a",
                   "--valuation", "x=1"]))
    cases.append(("error-check-parse",
                  ["check", "--chain", "{coin}", "--formula", "F[<=x a"]))
    return cases


CASES = _cases()


def _transcript(argv, tmpdir):
    from pltlcheck import cli
    paths = {}
    for name, text in CHAINS.items():
        paths[name] = os.path.join(tmpdir, name + ".dtmc")
        with open(paths[name], "w") as fh:
            fh.write(text)
    paths["aut"] = os.path.join(tmpdir, "aut.txt")
    if os.path.exists(paths["aut"]):
        os.remove(paths["aut"])
    argv = [a.format(**paths) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    row = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if os.path.exists(paths["aut"]):
        with open(paths["aut"]) as fh:
            row["automaton"] = fh.read()
    return row


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case_id,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_transcript(case_id, argv, tmp_path, golden):
    expected = dict(golden[case_id])
    assert expected.pop("argv") == argv
    assert _transcript(argv, str(tmp_path)) == expected


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(c[0] for c in CASES)


if __name__ == "__main__":
    import tempfile
    rows = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        for case_id, argv in CASES:
            rows[case_id] = dict(argv=argv, **_transcript(argv, tmpdir))
    with open(GOLDEN, "w") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d transcripts to %s" % (len(rows), GOLDEN), file=sys.stderr)
