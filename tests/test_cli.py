import io
import sys
import time
import tracemalloc
import weakref
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import until_chain
from pltlcheck import cli, diamond, markov
from pltlcheck.formula import parse_formula
from pltlcheck.markov import parse_chain

COIN = "states 2\ninit 0\ntrans 0 0 1/2\ntrans 0 1 1/2\ntrans 1 1 1\nlabel 1 a\n"
RING = ("states 3\ninit 0\ntrans 0 1 1\ntrans 1 2 1\ntrans 2 0 1\n"
        "label 0 a\n")
DIMACS = "p cnf 2 2\n1 2 0\n-1 0\n"


@pytest.fixture
def coin(tmp_path):
    path = tmp_path / "coin.dtmc"
    path.write_text(COIN)
    return str(path)


@pytest.fixture
def ring(tmp_path):
    path = tmp_path / "ring.dtmc"
    path.write_text(RING)
    return str(path)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_check_reach_pos(coin):
    code, out, _ = _run(["check", "--chain", coin, "--formula", "F[<=x] a"])
    assert code == 0
    assert "fragment: Reach" in out
    assert "minimum: 1" in out
    assert "verdict: nonempty" in out


def test_check_reach_as1_empty(coin):
    code, out, _ = _run(["check", "--chain", coin, "--formula", "F[<=x] a",
                         "--threshold", "=1"])
    assert code == 0
    assert "verdict: empty" in out


def test_minset_machine_block(coin):
    code, out, _ = _run(["minset", "--chain", coin, "--formula", "F[<=x] a",
                         "--format", "machine"])
    assert code == 0
    body = out[out.index("BEGIN-RESULT"):]
    assert body.splitlines() == ["BEGIN-RESULT", "x=1", "END-RESULT"]


def test_member_geq(coin):
    code, out, _ = _run(["member", "--chain", coin, "--formula", "F[<=x] a",
                         "--threshold", ">=3/4", "--valuation", "x=2"])
    assert code == 0
    assert "member: true" in out
    code, out, _ = _run(["member", "--chain", coin, "--formula", "F[<=x] a",
                         "--threshold", ">=3/4", "--valuation", "x=1"])
    assert code == 0
    assert "member: false" in out


def test_member_buchi(ring):
    code, out, _ = _run(["member", "--chain", ring,
                         "--formula", "G F[<=x] a",
                         "--threshold", "=1", "--valuation", "x=2"])
    assert code == 0
    assert "member: true" in out


def test_prob_exact(coin):
    code, out, _ = _run(["prob", "--chain", coin, "--formula", "F[<=x] a",
                         "--valuation", "x=3"])
    assert code == 0
    assert "probability: 7/8" in out


def test_oracle_sample_deterministic(coin):
    argv = ["oracle", "sample", "--chain", coin, "--formula", "F[<=2] a",
            "--samples", "100", "--seed", "7"]
    first = _run(argv)
    second = _run(argv)
    assert first == second
    assert first[0] == 0
    assert "positive-probability-certified: yes" in first[1]


def test_oracle_sample_long_horizon(coin):
    # The prefix evaluator fills its tables from the last position back;
    # a call per position passed the recursion limit at 600.
    code, out, err = _run(["oracle", "sample", "--chain", coin,
                           "--formula", "G b", "--samples", "1",
                           "--horizon", "5000"])
    assert (code, err) == (0, "")
    assert "certain-fraction: 0" in out.splitlines()


def test_oracle_sample_cap(coin):
    start = time.perf_counter()
    code, out, err = _run(["oracle", "sample", "--chain", coin,
                           "--formula", "F[<=x] a", "--valuation", "x=1",
                           "--samples", "1", "--horizon", "100000000"])
    assert (code, out) == (3, "")
    assert err == ("resource limit: samples x horizon = 100000000 exceeds "
                   "the sampling cap of 1000000 letters\n")
    assert time.perf_counter() - start < 5


def test_oracle_lasso_eval():
    code, out, _ = _run(["oracle", "lasso-eval", "--formula", "G F[<=x] a",
                         "--valuation", "x=1", "--stem", "b",
                         "--loop", "a;"])
    assert code == 0
    assert "verdict: true" in out
    code, out, _ = _run(["oracle", "lasso-eval", "--formula", "G F[<=x] a",
                         "--valuation", "x=0", "--stem", "b",
                         "--loop", "a;"])
    assert "verdict: false" in out


def test_oracle_gen3sat(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(DIMACS)
    code, out, _ = _run(["oracle", "gen3sat", "--cnf", str(cnf)])
    assert code == 0
    assert "states 7" in out
    assert "F[<=y1] c1" in out


def test_oracle_gen3sat_many_clauses(tmp_path):
    # The formula is an And chain deeper than the recursion limit; the
    # printer walks it without recursion.
    cnf = tmp_path / "big.cnf"
    cnf.write_text("p cnf 3 1500\n" + "1 -2 3 0\n" * 1500)
    code, out, err = _run(["oracle", "gen3sat", "--cnf", str(cnf)])
    assert (code, err) == (0, "")
    assert "clauses: 1500" in out.splitlines()


@pytest.mark.parametrize("formula, threshold, engine", [
    ("F[<=x] G a", ">0", True),
    ("F[<=x] G a", "=1", True),
    ("G F[<=x] a & G F[<=y] a", ">0", True),
    # GeneralizedBuchi at =1 has a closed form and no checker.
    ("G F[<=x] a & G F[<=y] a", "=1", False),
])
def test_member_at_or_above_vbar_asks_vbar(coin, monkeypatch, formula,
                                           threshold, engine):
    asked = []
    for name in ("check_pos", "check_as1"):
        def record(self, chain, valuation, real=getattr(
                diamond.DiamondChecker, name)):
            asked.append({x: valuation[x] for x in self.user_names})
            return real(self, chain, valuation)
        monkeypatch.setattr(diamond.DiamondChecker, name, record)
    checker = diamond.DiamondChecker(parse_formula(formula))
    names = checker.user_names
    n = checker.vbar(parse_chain(COIN))

    def member(values):
        del asked[:]
        text = ",".join("%s=%d" % pair for pair in zip(names, values))
        code, out, _ = _run(["member", "--chain", coin, "--formula", formula,
                             "--threshold", threshold, "--valuation", text])
        assert code == 0
        return out.splitlines()[-1], list(asked)

    top = dict.fromkeys(names, n)
    verdict, at_top = member([n] * len(names))
    assert at_top == ([top] if engine else [])
    # Every value at or above vbar: the point at vbar is asked.
    for values in ([10 ** 8] * len(names),
                   [n] + [10 ** 8] * (len(names) - 1)):
        assert member(values) == (verdict, at_top)
    # A value below vbar is asked as it is.
    low = [10 ** 8] * (len(names) - 1) + [n - 1]
    _, at_low = member(low)
    assert at_low == ([dict(zip(names, low))] if engine else [])


def test_exit_parse_error(coin):
    code, _, err = _run(["check", "--chain", coin, "--formula", "F[<=x"])
    assert code == 4
    assert "parse error" in err


def test_exit_fragment_error(ring):
    code, _, err = _run(["check", "--chain", ring,
                         "--formula", "G F[<=x] a", "--threshold", ">=1/2"])
    assert code == 5
    assert "fragment error" in err


def test_exit_usage_errors(coin, tmp_path):
    code, _, _ = _run(["check", "--chain", str(tmp_path / "missing.dtmc"),
                       "--formula", "F[<=x] a"])
    assert code == 2
    code, _, _ = _run(["check", "--chain", coin])
    assert code == 2
    code, _, _ = _run(["check", "--chain", coin, "--no-such-flag"])
    assert code == 2


@pytest.mark.parametrize("cap, message", [
    ("0", "must be at least 1, not 0"),
    ("-1", "must be at least 1, not -1"),
    ("1e3", "invalid int value: '1e3'"),
])
def test_exit_usage_node_cap_below_one(coin, cap, message):
    code, out, err = _run(["check", "--chain", coin, "--formula",
                           "F[<=x] G a", "--max-product-nodes", cap])
    assert code == 2 and out == ""
    assert "argument --max-product-nodes: " + message in err


def test_exit_usage_threshold_exponent_past_limit(coin):
    # Read as Fraction, 1e-100000000 would build a hundred-million-digit
    # int; the threshold is refused on its exponent, as the chain reader
    # refuses a probability literal, and the limit itself still answers.
    code, out, err = _run(["check", "--chain", coin, "--formula", "F[<=x] a",
                           "--threshold", ">=1e-100000000"])
    assert code == 2 and out == ""
    assert err == ("usage error: threshold exponent beyond 4300 in "
                   "'1e-100000000'\n")
    code, out, _ = _run(["check", "--chain", coin, "--formula", "F[<=x] a",
                         "--threshold", ">=1e-4300"])
    assert code == 0 and "verdict: nonempty" in out


def test_exit_resource_limit(coin):
    code, _, err = _run(["member", "--chain", coin,
                         "--formula", "F[<=x] a & F[<=y] a",
                         "--valuation", "x=3,y=3",
                         "--max-product-nodes", "1"])
    assert code == 3
    assert "resource limit" in err


def test_exit_out_of_memory(coin, monkeypatch):
    # The message is printed once the frames that filled memory are
    # released: while they live, printing can run out of memory again,
    # which this stream stands in for.
    filled = []

    class Filled:
        pass

    def exhausted(*args):
        held = Filled()
        filled.append(weakref.ref(held))
        raise MemoryError

    class Stream(io.StringIO):
        def write(self, text):
            if filled[0]() is not None:
                raise MemoryError
            return super().write(text)

    monkeypatch.setattr(diamond.DiamondChecker, "_holds", exhausted)
    out, err = io.StringIO(), Stream()
    code = cli.run(["check", "--chain", coin, "--formula", "F[<=x] G a",
                    "--threshold", "=1"], out, err)
    assert code == 3 and out.getvalue() == ""
    assert err.getvalue() == "resource limit: out of memory\n"


def test_emit_automaton(coin, tmp_path):
    path = tmp_path / "aut.txt"
    code, _, _ = _run(["member", "--chain", coin,
                       "--formula", "F[<=x] a & F[<=y] a",
                       "--threshold", "=1", "--valuation", "x=1,y=1",
                       "--emit-automaton", str(path)])
    assert code == 0
    text = path.read_text()
    assert "g-automaton" in text and "u-automaton" in text


@pytest.mark.parametrize("argv", [
    ["oracle", "lasso-eval", "--formula", "F[<=x] a", "--valuation", "x=1",
     "--loop", ""],
    ["oracle", "sample", "--chain", "{coin}", "--formula", "F[<=2] a",
     "--horizon", "0"],
    ["oracle", "sample", "--chain", "{coin}", "--formula", "F[<=2] a",
     "--samples", "0"],
    ["oracle", "sample", "--chain", "{coin}", "--formula", "F[<=2] a",
     "--samples", "-3"],
    ["check", "--chain", "{coin}", "--formula", "F[<=²] a"],
    ["check", "--chain", "{coin}", "--formula", "F[<=%s] a" % ("9" * 5000)],
    ["prob", "--chain", "{coin}", "--formula", "F[<=x] a",
     "--valuation", "x=²"],
    ["prob", "--chain", "{coin}", "--formula", "F[<=x] a",
     "--valuation", "x=%s" % ("9" * 5000)],
    ["check", "--chain", "{coin}", "--formula", "(" * 3000 + "a" + ")" * 3000],
    ["check", "--chain", "{coin}", "--formula", "!" * 3001 + "a"],
    ["check", "--chain", "{coin}", "--formula", "X " * 3000 + "a"],
    ["check", "--chain", "{coin}", "--formula", " U ".join(["a"] * 3000)],
    ["check", "--chain", "{coin}", "--formula", " & ".join(["a"] * 3000)],
    ["check", "--chain", "{coin}", "--formula", " | ".join(["a"] * 3000)],
    ["check", "--chain", "{coin}",
     "--formula", "(" * 200 + "F[<=x] a" + ")" * 200],
], ids=["lasso-empty-loop", "sample-horizon-0", "sample-samples-0",
        "sample-samples-negative", "formula-unicode-digit",
        "formula-huge-constant", "valuation-unicode-digit",
        "valuation-huge-value", "formula-deep-parentheses", "formula-deep-not",
        "formula-deep-next", "formula-long-until-chain",
        "formula-long-and-chain", "formula-long-or-chain",
        "formula-depth-201"])
def test_exit_parse_error_inputs(argv, coin):
    code, out, err = _run([a.replace("{coin}", coin) for a in argv])
    assert code == 4, err
    assert out == "" and err.startswith("parse error: ")


def test_formula_at_depth_limit(coin):
    text = "(" * 199 + "F[<=x] a" + ")" * 199
    code, out, err = _run(["check", "--chain", coin, "--formula", text])
    assert code == 0, err
    assert "minimum: 1" in out


@pytest.mark.parametrize("argv", [
    ["check", "--formula", "F[<=x] a & X G[<=2000] a"],
    ["minset", "--formula", "F[<=5000] a & F[<=x] a"],
    # The cap is checked before the bound is unfolded, so this exits at
    # once instead of building two million nodes first.
    ["minset", "--formula", "F[<=1000000] a & F[<=x] a"],
], ids=["check-unfolded-always", "minset-unfolded-eventually",
        "minset-unfolded-million"])
def test_exit_unfolded_closure_too_large(argv, coin):
    code, out, err = _run(argv + ["--chain", coin])
    assert code == 3, err
    assert out == "" and err.startswith("resource limit: closure too large")


def test_nine_untils_reach_the_node_cap(coin):
    # The tableau builds only the atom masks the coin chain emits, 22 of
    # its 6,144 states; the product stops on the cap.
    code, out, err = _run(["member", "--chain", coin, "--formula",
                           until_chain(9), "--valuation", "x=1000",
                           "--max-product-nodes", "1000"])
    assert code == 3, err
    assert err.startswith("resource limit: product exceeds 1000 nodes")


def test_nine_untils_check_is_empty(coin):
    # No state of the coin chain is labelled j, so the innermost until
    # never holds: the product without counters proves emptiness before
    # the witness bound of 9,437,184.
    code, out, err = _run(["check", "--chain", coin, "--formula",
                           until_chain(9), "--max-product-nodes", "1000"])
    assert code == 0, err
    assert "shortcut: counter-free\nverdict: empty\n" in out


@pytest.mark.parametrize("text, shortcut", [
    ("F[<=x] G a", False),
    ("G F[<=x] a & G F[<=y] b & G F[<=z] !a", True),
], ids=["vbar", "gf3"])
def test_check_builds_one_tableau(coin, monkeypatch, text, shortcut):
    # The counter-free step runs on the checker's own tableau, whether it
    # decides (gf3: b never holds) or the witness bound does.
    built = []
    real = diamond.GAutomaton

    def counted(phi):
        built.append(phi)
        return real(phi)
    monkeypatch.setattr(diamond, "GAutomaton", counted)
    code, out, err = _run(["check", "--chain", coin, "--formula", text])
    assert code == 0, err
    assert "fragment: Diamond" in out
    assert ("shortcut: counter-free" in out) == shortcut
    assert len(built) == 1


def _capture_checkers(monkeypatch):
    """The DiamondCheckers that `cli.run` makes from now on."""
    made = []
    real = diamond.DiamondChecker

    def kept(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]
    monkeypatch.setattr(diamond, "DiamondChecker", kept)
    return made


def test_nine_untils_check_builds_the_masks_the_chain_emits(coin, monkeypatch):
    # The coin chain emits {} and {a}: only those two atom masks of the
    # 1,024 get states, the ones a full build gives them.
    made = _capture_checkers(monkeypatch)
    code, out, err = _run(["check", "--chain", coin, "--formula",
                           until_chain(9)])
    assert code == 0, err
    assert out.endswith("shortcut: counter-free\nverdict: empty\n")
    g = made[0].g
    emitted = {frozenset(), frozenset("a")}
    assert set(g.letters) == emitted
    full = diamond.GAutomaton(g.formula).full()
    assert len(full.states) == 6144
    assert g.states == [h for h, letter in zip(full.states, full.letters)
                        if letter in emitted]
    assert len(g.states) == 22


def test_tableau_cap_counts_the_masks_the_chain_emits(coin, tmp_path):
    # Two X over the nine untils: a full tableau passes 16,384 states,
    # but the two masks the coin chain emits hold 88.  `--emit-automaton`
    # needs every mask, and exits 3 before the file is written.
    text = "X X " + until_chain(9)
    argv = ["check", "--chain", coin, "--formula", text]
    code, out, err = _run(argv)
    assert code == 0, err
    assert out == ("fragment: Diamond\nthreshold: >0\nproduct-nodes: 760\n"
                   "shortcut: counter-free\nverdict: empty\n")
    path = tmp_path / "aut.txt"
    code, out, err = _run(argv + ["--emit-automaton", str(path)])
    assert code == 3
    assert out == ""
    assert err == "resource limit: tableau too large: more than 16384 states\n"
    assert not path.exists()


def test_emit_automaton_numbers_every_mask_in_order(tmp_path, monkeypatch):
    # The chain starts in a b-state, so the check builds atom mask 2
    # ({b}) before mask 1 ({a}).  The emitted text is still the one of a
    # fresh checker with every mask built in mask order.
    chain = tmp_path / "chain.dtmc"
    chain.write_text("states 2\ninit 0\ntrans 0 1 1\ntrans 1 0 1\n"
                     "label 0 b\nlabel 1 a\n")
    text = "F[<=x] a & G F b"
    fresh = diamond.DiamondChecker(parse_formula(text))
    expected = (diamond.format_automaton(fresh.g)
                + diamond.format_automaton(fresh.u))
    path = tmp_path / "aut.txt"
    made = _capture_checkers(monkeypatch)
    code, out, err = _run(["check", "--chain", str(chain), "--formula", text,
                           "--emit-automaton", str(path)])
    assert code == 0, err
    assert "fragment: Diamond\n" in out
    assert made[0].g.letters[0] == frozenset("b")
    assert path.read_text() == expected


def test_exit_tableau_too_large(coin):
    # 21 nested X admit 2^21 tableau states per atom mask, within the
    # closure cap; the state cap stops the build before they exist.
    start = time.perf_counter()
    code, out, err = _run(["check", "--chain", coin, "--threshold", "=1",
                           "--formula", "X " * 21 + "a"])
    assert code == 3, err
    assert out == ""
    assert err == "resource limit: tableau too large: more than 16384 states\n"
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("threshold, text", [
    ("=1", "F[<=x] (" + "X " * 20 + "a)"),
    (">0", "G F[<=x] (" + "X " * 19 + "a)"),
])
def test_tableau_cap_builds_the_failing_block_once(coin, monkeypatch,
                                                   threshold, text):
    # The counter-free step is the first product to read a mask past the
    # state cap; the pair count and the witness product do not build it
    # again.
    builds = []
    real = diamond.GAutomaton.block

    def block(g, amask):
        if amask not in g._blocks:
            builds.append(amask)
        return real(g, amask)
    monkeypatch.setattr(diamond.GAutomaton, "block", block)
    code, out, err = _run(["check", "--chain", coin, "--threshold", threshold,
                           "--formula", text])
    assert code == 3 and out == ""
    assert err == "resource limit: tableau too large: more than 16384 states\n"
    assert len(builds) == 1


def test_chain_parse_memory_grows_with_the_text(tmp_path):
    # One transition for 200,000 declared states: the first state with
    # no row is reported without a row or label set per declared state.
    path = tmp_path / "wide.dtmc"
    path.write_text("states 200000\ninit 0\ntrans 0 0 1\n")
    tracemalloc.start()
    try:
        code, out, err = _run(["prob", "--chain", str(path), "--formula",
                               "F[<=x] a", "--valuation", "x=1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert err == "parse error: state 1: row sums to 0, not 1\n"
    assert peak < 5 * 2 ** 20


def test_fx_constant_bound_not_unfolded(coin):
    code, out, err = _run(["check", "--chain", coin, "--witness",
                           "--formula", "F[<=5000] a & F[<=x] a"])
    assert code == 0, err
    assert "fragment: FX" in out
    assert "witness-valuation: x=30008" in out
    assert "witness-path: 0 1" in out


def test_minset_has_no_witness_option(coin):
    code, _, err = _run(["minset", "--chain", coin, "--formula", "F[<=x] a",
                         "--witness"])
    assert code == 2
    assert "unrecognized arguments: --witness" in err


def test_argparse_messages_go_to_the_given_streams(capsys):
    code, out, err = _run(["member", "--formula"])
    assert code == 2 and out == ""
    assert "argument --formula: expected one argument" in err
    code, out, err = _run(["minset", "--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: pltlcheck minset")
    assert capsys.readouterr() == ("", "")


def test_run_defaults_to_the_current_streams(capsys):
    # Resolved at call time, so capsys's replacements receive the text.
    assert cli.run(["member", "--formula"]) == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "p dnf 1 1\n1 0\n",
    "1 0\n",
    "p cnf 1 1\n2 0\n",
    "p cnf 1 1\n1 x 0\n",
    "p cnf one 1\n1 0\n",
], ids=["bad-header", "missing-header", "literal-out-of-range",
        "non-integer-token", "non-integer-header"])
def test_exit_parse_error_gen3sat(text, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(text)
    code, out, err = _run(["oracle", "gen3sat", "--cnf", str(cnf)])
    assert code == 4, err
    assert out == "" and err.startswith("parse error: ")


@pytest.mark.parametrize("text", [
    "states ²\ninit 0\n",
    "states 2\ninit %s\n" % ("1" * 5000),
    "states 2\ninit 0\ntrans 0 ¹ 1\n",
    # The row sum has a 5001-digit denominator.
    "states 1\ninit 0\ntrans 0 0 1e-5000\n",
    # Read exactly, this would be a hundred-million-digit int.
    "states 1\ninit 0\ntrans 0 0 1e-100000000\n",
    "states 1\ninit 0\ntrans 0 0 1e-4000\n",
    "states 1\ninit 0\ntrans 0 0 %s\n" % ("7" * 5000),
    "states 1\ninit 0\ntrans %s 0 1\n" % ("7" * 5000),
], ids=["unicode-state-count", "huge-init", "unicode-state-id",
        "exponent-5000", "exponent-100000000", "long-row-sum",
        "long-probability", "long-state-id"])
def test_exit_parse_error_chain(text, tmp_path):
    path = tmp_path / "bad.dtmc"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = _run(["check", "--chain", str(path),
                           "--formula", "F[<=x] a"])
    assert code == 4, err
    assert out == "" and err.startswith("parse error: ")
    assert len(err) < 120 and time.perf_counter() - start < 1


@pytest.mark.parametrize("literals", [
    ("1/2", "1/2"), ("0.25", "0.75"), (".5", "5e-1"), ("25E-2", "0.75"),
])
def test_probability_literals(literals, tmp_path):
    path = tmp_path / "coin.dtmc"
    path.write_text("states 2\ninit 0\ntrans 0 0 %s\ntrans 0 1 %s\n"
                    "trans 1 1 1\nlabel 1 a\n" % literals)
    code, out, err = _run(["prob", "--chain", str(path),
                           "--formula", "F[<=x] a", "--valuation", "x=1"])
    assert code == 0, err
    assert "probability: %s\n" % (1 - Fraction(literals[0])) in out


def test_prob_answer_beyond_int_digit_limit(tmp_path):
    # The answer's numerator and denominator have 4772 digits each, more
    # than str() converts; the limit must stay in force afterwards.
    path = tmp_path / "thirds.dtmc"
    path.write_text("states 2\ninit 0\ntrans 0 0 2/3\ntrans 0 1 1/3\n"
                    "trans 1 1 1\nlabel 1 a\n")
    limit = sys.get_int_max_str_digits()
    code, out, err = _run(["prob", "--chain", str(path), "--formula",
                           "F[<=x] a", "--valuation", "x=10000",
                           "--format", "machine"])
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    num, den = out.split("BEGIN-RESULT\n")[1].split("\n")[0].split("/")
    # Decimal reads and int() converts a Decimal without the limit.
    value = Fraction(int(Decimal(num)), int(Decimal(den)))
    assert value == 1 - Fraction(2, 3) ** 10000


STEPPING_CAP = ("exceeds the stepping cap of %d work units\n"
                % markov.MAX_STEP_WORK)


def test_prob_past_stepping_cap_exits_3_before_stepping(coin):
    # The message names the n asked: the cap is checked before any step.
    code, out, err = _run(["prob", "--chain", coin, "--formula", "F[<=x] a",
                           "--valuation", "x=100000000"])
    assert (code, out) == (3, "")
    assert err == ("resource limit: exact stepping to n = 100000000 "
                   + STEPPING_CAP)


def test_false_geq_member_stops_at_stepping_cap(tmp_path):
    # mu_n rises to 1/2, below 3/4: the walk never meets p, and stops at
    # the step whose work passes the cap.
    path = tmp_path / "half.dtmc"
    path.write_text("states 3\ninit 0\ntrans 0 0 1/2\ntrans 0 1 1/4\n"
                    "trans 0 2 1/4\ntrans 1 1 1\ntrans 2 2 1\nlabel 1 a\n")
    code, out, err = _run(["member", "--chain", str(path), "--formula",
                           "F[<=x] a", "--threshold", ">=3/4",
                           "--valuation", "x=100000000"])
    assert (code, out) == (3, "")
    head = "resource limit: exact stepping to n = "
    assert err.startswith(head) and err.endswith(" " + STEPPING_CAP)
    assert 0 < int(err[len(head):].split()[0]) < 10 ** 8


def test_internal_value_error_propagates(coin, monkeypatch):
    # An engine bug is not a parse error: it must not map to exit 4.
    def broken(chain, name):
        raise ValueError("engine bug")
    monkeypatch.setattr(cli.reach, "min_val_pos", broken)
    with pytest.raises(ValueError, match="engine bug"):
        _run(["check", "--chain", coin, "--formula", "F[<=x] a"])
