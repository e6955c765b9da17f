"""`cli.run` parses a command's argv with that command's own parser.

Every argv of `cli_golden.json` and a list of malformed ones runs twice:
once as `cli.run` parses it, once with `DIRECT_COMMANDS` emptied so
that the full parser reads every argv.  Exit code, stdout and stderr
must be the same.
"""

import io
import json

import pytest

from pltlcheck import cli
from test_cli_golden import GOLDEN, input_paths

with open(GOLDEN) as fh:
    GOLDEN_ARGVS = [row["argv"] for _, row in sorted(json.load(fh).items())]

CHECK = ["check", "--chain", "{coin}", "--formula", "F[<=x] a"]
PROB = ["prob", "--chain", "{coin}", "--formula", "F[<=x] a", "--valuation",
        "x=3"]

# Only check, minset and member may run the general engine, so only they
# take its node cap and its automaton dump.
ENGINE_OPTIONS_ELSEWHERE = [
    PROB + ["--emit-automaton", "{aut}", "--max-product-nodes", "5"],
    PROB + ["--max-product-nodes", "5"],
    ["oracle", "sample", "--chain", "{coin}", "--formula", "F b",
     "--emit-automaton", "{aut}"],
    ["oracle", "sample", "--chain", "{coin}", "--formula", "F b",
     "--max-product-nodes", "5"],
    ["oracle", "lasso-eval", "--formula", "F a", "--loop", "a",
     "--emit-automaton", "{aut}", "--max-product-nodes", "5"],
]

MALFORMED = [
    [],
    ["-h"],
    ["-h", "check"],
    ["--format", "machine"] + CHECK,
    ["check"],
    ["check", "-h"],
    ["prob", "--help"],
    ["checkx", "--chain", "{coin}"],
    CHECK + ["--bogus"],
    CHECK + ["--bogus", "1", "extra"],
    CHECK + ["extra"],
    ["check", "--chain", "{coin}", "--form", "F[<=x] a"],
    CHECK + ["--"],
    ["check", "--", "--chain", "{coin}"],
    ["minset", "--chain", "{coin}", "--formula", "F[<=x] a",
     "--max-product-nodes", "0"],
    ["member", "--chain", "{coin}", "--formula", "F[<=x] a", "--valuation"],
    ["member", "--chain", "{coin}", "--formula", "F[<=x] a",
     "--threshold", ">=1/2", "--valuation", "x=3", "--format", "csv"],
    ["prob", "--chain", "{coin}", "--formula", "F[<=x] a"],
    ["prob", "--chain", "{coin}", "--formula", "F[<=x] a", "--valuation",
     "x=3", "--witness"],
    ["oracle", "sample", "--chain", "{coin}", "--formula", "F b",
     "--samples", "5", "--horizon", "4"],
    ["oracle", "sample", "--chain", "{coin}", "--bogus"],
    ["oracle"],
] + ENGINE_OPTIONS_ELSEWHERE


def _run(argv, tmpdir):
    paths = input_paths(tmpdir)
    out, err = io.StringIO(), io.StringIO()
    code = cli.run([a.format(**paths) for a in argv], out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", GOLDEN_ARGVS + MALFORMED,
                         ids=[" ".join(a) or "no-arguments"
                              for a in GOLDEN_ARGVS + MALFORMED])
def test_run_parses_as_the_full_parser(argv, tmp_path, monkeypatch):
    direct = _run(argv, str(tmp_path))
    monkeypatch.setattr(cli, "DIRECT_COMMANDS", ())
    assert _run(argv, str(tmp_path)) == direct


@pytest.mark.parametrize("argv", ENGINE_OPTIONS_ELSEWHERE,
                         ids=[" ".join(a) for a in ENGINE_OPTIONS_ELSEWHERE])
def test_engine_options_are_refused_elsewhere(argv, tmp_path):
    code, out, err = _run(argv, str(tmp_path))
    assert (code, out) == (2, "")
    assert "error: unrecognized arguments: " in err
    assert not (tmp_path / "aut.txt").exists()


def test_direct_namespace_equals_the_full_parsers():
    parser, _ = cli._build_parser()
    for argv in GOLDEN_ARGVS:
        assert vars(cli._parse_argv(argv)) == vars(parser.parse_args(argv))

