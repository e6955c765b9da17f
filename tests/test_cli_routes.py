"""Properties of the command line's routes.

GeneralizedBuchi "=1" `member` tests the valuation against the one
closed-form minimal set that `check` and `minset` also read; the general
engine's `check_as1`, which answered it before, stays the reference.

Every route calls its engine through the module attribute (or the
general engine's method) when it runs, so a replaced attribute is the
one called.

Formula text is fuzzed through `cli.run`: whatever the text, the run
ends in a documented exit code, never in an exception.  `derandomize=
True` makes every run draw the same examples.
"""

import importlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_chain
from pltlcheck import cli
from pltlcheck.diamond import DiamondChecker
from pltlcheck.fixtures import chain_text
from pltlcheck.formula import parse_formula, to_nnf, variables

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
