"""The README's routing table and Quick start, checked against the CLI.

For every row of the routing table and every command, `--emit-automaton`
must write its file exactly when the cell names the general engine.  The
Quick start commands must print what the README shows.
"""

import io
import os
import re
import shlex

import pytest

from pltlcheck import cli

README = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "README.md")

# Four states, two propositions: every fragment answers on it.
CHAIN = ("states 4\ninit 0\ntrans 0 1 1/2\ntrans 0 2 1/2\n"
         "trans 1 3 1\ntrans 2 2 1/2\ntrans 2 3 1/2\ntrans 3 0 1\n"
         "label 1 a\nlabel 2 a\nlabel 3 b\n")

# Fragment -> (formula, member valuation).
FORMULAS = {
    "Reach": ("F[<=x] a", "x=2"),
    "Buchi": ("G F[<=x] a", "x=2"),
    "GeneralizedBuchi": ("G F[<=x] a & G F[<=y] b", "x=2,y=3"),
    "FX": ("F[<=x] a | X b", "x=1"),
    "Diamond": ("F[<=x] G a", "x=3"),
}

COMMANDS = ("check", "minset", "member")


def _readme():
    with open(README) as fh:
        return fh.read()


def _routing_rows():
    """(fragment, thresholds, {command: cell}) per row of the table."""
    lines = _readme().splitlines()
    start = lines.index("| fragment | threshold | `check` | `minset` | "
                        "`member` |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        fragment, thresholds = cells[0], re.findall(r"`([^`]*)`", cells[1])
        rows.append((fragment, thresholds, dict(zip(COMMANDS, cells[2:]))))
    return rows


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_routing_table_covers_every_fragment():
    rows = _routing_rows()
    assert {fragment for fragment, _, _ in rows} == set(FORMULAS)
    assert len(rows) == 10


@pytest.mark.parametrize("fragment,threshold,command,cell", [
    (fragment, threshold, command, cells[command])
    for fragment, thresholds, cells in _routing_rows()
    for threshold in thresholds
    for command in COMMANDS])
def test_emit_automaton_exactly_where_the_general_engine_answers(
        fragment, threshold, command, cell, tmp_path):
    chain = tmp_path / "chain.dtmc"
    chain.write_text(CHAIN)
    aut = tmp_path / "aut.txt"
    formula, valuation = FORMULAS[fragment]
    argv = [command, "--chain", str(chain), "--formula", formula,
            "--threshold", ">=1/2" if threshold == ">=p" else threshold,
            "--emit-automaton", str(aut)]
    if command == "member":
        argv += ["--valuation", valuation]
    code, out, err = _run(argv)
    assert code == 0, err
    assert out.startswith("fragment: %s\n" % fragment)
    assert aut.exists() == ("general engine" in cell), cell


def _quick_start():
    """(argv, expected stdout) per `$ pltlcheck` command of the Quick
    start, and the chain text it runs on."""
    section = _readme().split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```\n(.*?)```", section, re.S)
    chain = next(b for b in blocks if b.startswith("states"))
    runs = []
    for block in blocks:
        for part in block.split("$ ")[1:]:
            command, _, output = part.replace("\\\n", " ").partition("\n")
            argv = shlex.split(command)
            assert argv[0] == "pltlcheck"
            runs.append((argv[1:], output.rstrip("\n") + "\n"))
    return chain, runs


def test_quick_start_output_matches_readme(tmp_path, monkeypatch):
    chain, runs = _quick_start()
    (tmp_path / "coin.dtmc").write_text(chain)
    monkeypatch.chdir(tmp_path)
    assert len(runs) == 4
    for argv, expected in runs:
        code, out, err = _run(argv)
        assert code == 0, err
        assert out == expected, argv
