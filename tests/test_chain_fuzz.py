"""Seeded fuzz of the .dtmc reader through the command line.

Valid chain texts are mutated: lines dropped or duplicated, tokens
swapped, probabilities respelled as num/den, decimal or exponent
literals (some of them huge).  Each result runs as `prob` and as
`check --threshold ">=1/2"`; every run must end in a documented exit
code, never in an exception.  Each result is also read by
`parse_chain` and by a reference reader without memos, which must agree
on the chain or on the error message.  `derandomize=True` makes every
run draw the same examples.
"""

import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_chain, reference_parse_chain
from pltlcheck import cli
from pltlcheck.fixtures import chain_text
from pltlcheck.markov import ChainParseError, parse_chain

EXIT_CODES = {0, 2, 3, 4, 5}

# No probability literal of this chain repeats, so every one is a memo
# miss, and ids carry leading zeros, so one state has several tokens.
DISTINCT = """\
states 4
init 00
label 01 a
label 3 a
trans 0 01 1/3
trans 00 2 0.25
trans 000 3 5/12
trans 01 1 1.0
trans 2 0 3/4
trans 2 003 2.5e-1
trans 03 02 1/2
trans 3 1 0.50
"""

# Rows repeat three distributions, so most rows are checked once for
# several states; one of them is also spelled 0.5 and 1/2, and some
# lines carry comments.
SHARED = """\
# three distributions over seven states
states 7
init 0
label 1 a  # the goal
trans 0 1 1/2
trans 0 2 1/2
trans 1 1 1
trans 2 3 1/4   # as state 5
trans 2 4 3/4
trans 3 4 0.5
trans 3 6 1/2
trans 4 4 1
trans 5 0 1/4
trans 5 1 3/4
trans 6 1 1/2
trans 6 0 1/2
label 4 a
"""


def _base(seed, max_states):
    return chain_text(random_chain(random.Random(seed), max_states=max_states,
                                   props=("a",)))


# Seed 19 at up to 12 states draws 11, so that ids run to two digits.
BASES = ([_base(seed, 5) for seed in range(8)]
         + [_base(19, 12), DISTINCT, SHARED])

# Respellings of a probability, exact or not.
SPELLINGS = st.one_of(
    st.fractions(0, 1, max_denominator=12).map(str),
    st.fractions(0, 1, max_denominator=12).map(
        lambda q: "%se-%d" % (q.numerator * 10 ** 3 // q.denominator, 3)),
    st.sampled_from(["0.5", ".25", "0.75", "1.0", "5e-1", "2.5E-1", "1e0",
                     "1/0", "-1/2", "3/2", "0", "1e", "e", "nan", "inf",
                     "1/2/3"]),
    # Exact values too long to print or too large to build.
    st.sampled_from(["1e-4000", "1e-5000", "1e-100000000", "1e100000000",
                     "1/" + "3" * 4000]))


@st.composite
def mutated_chains(draw):
    lines = draw(st.sampled_from(BASES)).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "respell"]))
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            a, b = lines[i].split(), lines[j].split()
            if a and b:
                k = draw(st.integers(0, len(a) - 1))
                m = draw(st.integers(0, len(b) - 1))
                if i == j:
                    b = a
                a[k], b[m] = b[m], a[k]
                lines[i], lines[j] = " ".join(a), " ".join(b)
        else:
            tokens = lines[i].split()
            if tokens and tokens[0] == "trans" and len(tokens) == 4:
                tokens[3] = draw(SPELLINGS)
                lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def chain_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "chain.dtmc"


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(text=mutated_chains(), x=st.integers(0, 50))
def test_mutated_chain_texts_exit_cleanly(chain_file, text, x):
    chain_file.write_text(text)
    for argv in (["prob", "--valuation", "x=%d" % x],
                 ["check", "--threshold", ">=1/2"]):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv + ["--chain", str(chain_file),
                               "--formula", "F[<=x] a"], out=out, err=err)
        assert code in EXIT_CODES, err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(text=mutated_chains())
def test_mutated_chain_texts_parse_as_reference(text):
    try:
        expected = reference_parse_chain(text)
    except ChainParseError as exc:
        with pytest.raises(ChainParseError) as got:
            parse_chain(text)
        assert str(got.value) == str(exc)
        return
    c = parse_chain(text)
    assert (c.m, c.init, c.rows, c.labels) == expected


def test_distinct_literals_chain():
    c = parse_chain(DISTINCT)
    assert (c.m, c.init) == (4, 0)
    assert c.rows[0] == {1: Fraction(1, 3), 2: Fraction(1, 4),
                         3: Fraction(5, 12)}
    assert c.rows[3] == {2: Fraction(1, 2), 1: Fraction(1, 2)}
    assert c.labels == [frozenset(), {"a"}, frozenset(), {"a"}]


def test_shared_rows_chain():
    c = parse_chain(SHARED)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert c.rows[0] == {1: half, 2: half}
    assert c.rows[3] == {4: half, 6: half}
    assert c.rows[6] == {1: half, 0: half}
    assert c.rows[2] == {3: quarter, 4: 1 - quarter}
    assert c.rows[5] == {0: quarter, 1: 1 - quarter}
    assert c.labels[1] == c.labels[4] == {"a"}


def test_shared_bad_row_reports_the_lower_state():
    # States 1 and 2 hold one distribution that sums to 3/4.
    text = ("states 3\ninit 0\ntrans 0 0 1\ntrans 1 0 1/2\ntrans 1 2 1/4\n"
            "trans 2 1 1/2\ntrans 2 0 1/4\n")
    with pytest.raises(ChainParseError,
                       match=r"^state 1: row sums to 3/4, not 1$"):
        parse_chain(text)
    with pytest.raises(ChainParseError,
                       match=r"^state 1: row sums to 3/4, not 1$"):
        reference_parse_chain(text)


def test_shared_row_with_a_zero_entry_drops_it_for_each_state():
    text = ("states 3\ninit 0\ntrans 0 1 0\ntrans 0 2 1\ntrans 1 0 0\n"
            "trans 1 2 1\ntrans 2 2 1\n")
    c = parse_chain(text)
    assert c.rows == [{2: 1}, {2: 1}, {2: 1}]
    assert (c.m, c.init, c.rows, c.labels) == reference_parse_chain(text)


def test_base_texts_are_valid_chains():
    # The mutations start from chains that parse, one with an a-state.
    chains = [parse_chain(text) for text in BASES]
    assert any(c.states_with("a") for c in chains)
    assert max(c.m for c in chains) > 10
