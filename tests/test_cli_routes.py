"""Properties of the command line's routes.

GeneralizedBuchi "=1" `member` tests the valuation against the one
closed-form minimal set that `check` and `minset` also read; the general
engine's `check_as1`, which answered it before, stays the reference.

On every route whose `member` is the general engine's (Diamond,
FX "=1", GeneralizedBuchi ">0"), `check`, `minset` and `member` agree
on seeded draws, also at points past the route's box and past vbar.

Every route calls its engine through the module attribute (or the
general engine's method) when it runs, so a replaced attribute is the
one called.

Formula text is fuzzed through `cli.run`: whatever the text, the run
ends in a documented exit code, never in an exception.  `derandomize=
True` makes every run draw the same examples.
"""

import importlib
import io
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_chain, random_nnf_formula
from pltlcheck import cli
from pltlcheck.diamond import DiamondChecker
from pltlcheck.fixtures import chain_text
from pltlcheck.formula import (
    FragmentClass, classify, parse_formula, size, to_nnf, unfolded_size,
    variables,
)

EXIT_CODES = {0, 2, 3, 4, 5}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("formula", ["G F[<=x] a & G F[<=y] b",
                                     "G F[<=x] a & G F[<=x] b"])
def test_genbuchi_as1_member_matches_general_engine(formula, tmp_path):
    phi = to_nnf(parse_formula(formula))
    checker = DiamondChecker(phi)
    path = tmp_path / "chain.dtmc"
    aut = tmp_path / "aut.txt"
    answers = []
    for seed in range(150):
        rng = random.Random(seed)
        chain = random_chain(rng, max_states=5)
        val = {x: rng.randint(0, 6) for x in variables(phi)}
        path.write_text(chain_text(chain))
        code, out, err = _run(
            ["member", "--chain", str(path), "--formula", formula,
             "--threshold", "=1", "--emit-automaton", str(aut),
             "--valuation", ",".join("%s=%d" % kv for kv in val.items())])
        assert code == 0, err
        assert "fragment: GeneralizedBuchi" in out
        expect = checker.check_as1(chain, val)
        assert ("member: %s" % str(expect).lower()) in out, (seed, val)
        answers.append(expect)
    # The closed form answers without the general engine.
    assert not aut.exists()
    assert True in answers and False in answers


FOUR = ("states 4\ninit 0\ntrans 0 1 1/2\ntrans 0 2 1/2\n"
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

# (fragment, threshold) -> the engine entry point of check, minset and
# member; "DiamondChecker.f" is a method of the general engine.
ENGINES = {
    ("Reach", ">0"): ["reach.min_val_pos"] * 3,
    ("Reach", "=1"): ["reach.min_val_as1"] * 3,
    ("Reach", ">=1/2"): ["reach.min_val_geq"] * 2 + ["reach.check_geq"],
    ("Buchi", ">0"): ["buchi.min_val_pos_buchi"] * 3,
    ("Buchi", "=1"): ["buchi.min_val_as1_buchi"] * 3,
    ("GeneralizedBuchi", ">0"): ["buchi.emptiness_pos_genbuchi",
                                 "buchi.min_set_pos_genbuchi",
                                 "DiamondChecker.member"],
    ("GeneralizedBuchi", "=1"): ["buchi.min_set_as1_genbuchi"] * 3,
    ("FX", ">0"): ["fx.emptiness_pos_fx"] + ["fx.min_set_fx"] * 2,
    ("FX", "=1"): ["DiamondChecker.emptiness", "DiamondChecker.min_set",
                   "DiamondChecker.member"],
    ("Diamond", ">0"): ["DiamondChecker.emptiness", "DiamondChecker.min_set",
                        "DiamondChecker.member"],
    ("Diamond", "=1"): ["DiamondChecker.emptiness", "DiamondChecker.min_set",
                        "DiamondChecker.member"],
}


class EngineCalled(Exception):
    pass


def test_engines_cover_every_route():
    kind = {">0": "pos", "=1": "as1", ">=1/2": "geq"}
    assert {(f, kind[t]) for f, t in ENGINES} == set(cli.ROUTES)


@pytest.mark.parametrize("fragment,threshold,command,engine", [
    (fragment, threshold, command, engine)
    for (fragment, threshold), engines in ENGINES.items()
    for command, engine in zip(("check", "minset", "member"), engines)])
def test_route_calls_engine_through_module_attribute(
        fragment, threshold, command, engine, tmp_path, monkeypatch):
    # A route that kept the function object itself would miss the
    # replaced attribute, and so would the benchmark's tracer.
    owner, _, name = engine.partition(".")
    owner = (DiamondChecker if owner == "DiamondChecker"
             else importlib.import_module("pltlcheck." + owner))

    def called(*args, **kwargs):
        raise EngineCalled(engine)

    monkeypatch.setattr(owner, name, called)
    path = tmp_path / "four.dtmc"
    path.write_text(FOUR)
    formula, valuation = FORMULAS[fragment]
    argv = [command, "--chain", str(path), "--formula", formula,
            "--threshold", threshold]
    if command == "member":
        argv += ["--valuation", valuation]
    with pytest.raises(EngineCalled):
        _run(argv)


# Formula tokens, valid and not, including nesting and huge constants.
TOKENS = ["a", "b", "x", "y", "!", "&", "|", "(", ")", "X", "F", "G", "U",
          "R", "F[<=x]", "F[<=y]", "F[<=3]", "G[<=2]", "F[<=1000000]",
          "F[<=99999999999999999999]", "[", "]", "<=", "0", "-1", " ",
          "true", "A", "#", "é"]

FORMULA_TEXTS = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=24).map(" ".join),
    st.lists(st.sampled_from(TOKENS), max_size=24).map("".join),
    st.integers(0, 260).map(lambda k: "(" * k + "F[<=x] a" + ")" * k),
    st.integers(0, 260).map(lambda k: "X " * k + "a"),
    st.text(max_size=20))


@pytest.fixture(scope="module")
def coin_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "coin.dtmc"
    path.write_text("states 2\ninit 0\ntrans 0 0 1/2\ntrans 0 1 1/2\n"
                    "trans 1 1 1\nlabel 1 a\nlabel 0 b\n")
    return str(path)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(text=FORMULA_TEXTS, threshold=st.sampled_from([">0", "=1", ">=1/2"]))
def test_formula_texts_exit_cleanly(coin_file, text, threshold):
    for argv in (["check", "--threshold", threshold],
                 ["member", "--threshold", threshold,
                  "--valuation", "x=2,y=1"]):
        code, _, err = _run(argv + ["--chain", coin_file, "--formula", text,
                                    "--max-product-nodes", "2000"])
        assert code in EXIT_CODES, err


def _two_variables(rng):
    """Formula text of at most 5 nodes with F[<=x] and F[<=y]."""
    def literal():
        return rng.choice(("a", "b", "!a", "!b"))
    if rng.random() < 0.5:
        return "F[<=x] %s %s F[<=y] %s" % (literal(), rng.choice("UR"),
                                           literal())
    ops = ["F[<=x]", "F[<=y]"] + ([rng.choice(("G", "G[<=2]"))]
                                  if rng.random() < 0.5 else [])
    rng.shuffle(ops)
    body = literal() if len(ops) == 3 else "(%s U %s)" % (literal(), literal())
    return " ".join(ops + [body])


def _engine_route(rng, chain):
    """(formula text, threshold, box top) of a query on a route whose
    `member` is the general engine's: Diamond at ">0" or "=1" over x
    and y in {0..vbar}^k, FX at "=1" in {0..m*s}^k (constant bounds
    unfolded), GeneralizedBuchi at ">0" in {0..m*d}^k."""
    route = rng.choice((FragmentClass.DIAMOND, FragmentClass.FX,
                        FragmentClass.GENERALIZED_BUCHI))
    if route is FragmentClass.GENERALIZED_BUCHI:
        d = rng.randint(2, 3)
        text = " & ".join("G F[<=%s] %s" % (rng.choice("xy"), rng.choice("ab"))
                          for _ in range(d))
        return text, ">0", chain.m * d
    while True:
        if route is FragmentClass.DIAMOND and rng.random() < 0.5:
            phi = to_nnf(parse_formula(_two_variables(rng)))
        else:
            phi = random_nnf_formula(rng, 3)
        if variables(phi) and size(phi) <= 5 and classify(phi) is route:
            break
    if route is FragmentClass.FX:
        return str(phi), "=1", chain.m * unfolded_size(phi)
    return (str(phi), rng.choice((">0", "=1")),
            DiamondChecker(phi).vbar(chain))


def _minimal_points(report):
    """The minimal valuations a `minset` report prints, as dicts."""
    return [{name: int(value) for name, _, value in (
                kv.partition("=") for kv in line[len("minimal: "):].split(","))}
            for line in report.splitlines() if line.startswith("minimal: ")]


def test_member_check_and_minset_agree_on_engine_routes(tmp_path):
    # `check` is empty iff `minset` finds no minimal point, and `member`
    # holds iff some minimal point is at or below the valuation, at
    # every point built from 0, 1, B - 1, B, B + 1 and vbar + 1, with B
    # the route's box top.  Draws with a query past the node cap are
    # skipped and counted.
    rng = random.Random(40)
    path = tmp_path / "chain.dtmc"
    compared = skipped = 0
    seen = set()
    for _ in range(100):
        chain = random_chain(rng, max_states=3)
        text, threshold, box = _engine_route(rng, chain)
        phi = to_nnf(parse_formula(text))
        names = variables(phi)
        vbar = DiamondChecker(phi).vbar(chain)
        values = sorted({0, 1, box - 1, box, box + 1, vbar + 1})
        points = [dict(zip(names, p))
                  for p in itertools.product(values, repeat=len(names))]
        path.write_text(chain_text(chain))
        base = ["--chain", str(path), "--formula", text, "--threshold",
                threshold, "--max-product-nodes", "5000"]
        check, minset, *members = [_run(argv) for argv in (
            [["check"] + base, ["minset"] + base]
            + [["member"] + base + ["--valuation", ",".join(
                "%s=%d" % kv for kv in point.items())] for point in points])]
        codes = {check[0], minset[0]} | {code for code, _, _ in members}
        if 3 in codes:
            skipped += 1
            continue
        assert codes == {0}, (text, threshold)
        minimal = _minimal_points(minset[1])
        assert check[1].endswith("verdict: %s\n" % (
            "nonempty" if minimal else "empty")), (text, threshold)
        for point, (_, out, _) in zip(points, members):
            inside = any(all(low[x] <= point[x] for x in names)
                         for low in minimal)
            assert out.endswith("member: %s\n" % str(inside).lower()), (
                text, threshold, point, minimal)
            seen.add((classify(phi), threshold, inside))
        compared += 1
    assert compared >= 60, "%d draws skipped" % skipped
    # Each of the four routes answered both ways.
    assert len(seen) == 8
