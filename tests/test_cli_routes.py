"""Properties of the command line's routes.

GeneralizedBuchi "=1" `member` tests the valuation against the one
closed-form minimal set that `check` and `minset` also read; the general
engine's `check_as1`, which answered it before, stays the reference.

Formula text is fuzzed through `cli.run`: whatever the text, the run
ends in a documented exit code, never in an exception.  `derandomize=
True` makes every run draw the same examples.
"""

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
