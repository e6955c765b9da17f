"""Reference chains used in tests, documentation and the CLI examples.

`coin_chain` is the 2-state chain that keeps flipping a fair coin until
it reaches an absorbing a-state.  `traffic_chain` is a 63-state chain
with three goal labels (r, b, g) reached through four red and four blue
route choices of different lengths, giving a 16-element Pareto frontier
for the three-bound reachability conjunction.
"""

from __future__ import annotations

from fractions import Fraction

from .markov import MarkovChain


def coin_chain():
    """s0 loops with probability 1/2 or moves to an absorbing a-state."""
    half = Fraction(1, 2)
    rows = [{0: half, 1: half}, {1: Fraction(1)}]
    return MarkovChain(2, 0, rows, [set(), {"a"}])


def traffic_chain():
    """Chain with four red and four blue routes of staggered lengths.

    From the start, route k (k = 0..3) passes k+1 plain states, reaches
    an r-state at distance 2+k, and continues to a fork so that the fork
    sits at distance 9-k.  From the fork, route j (j = 0..3) reaches a
    b-state after 1+j steps and the final absorbing g-state after 11-j
    steps in total.  Route choices are uniform, every other step is
    deterministic.
    """
    rows = []
    labels = []

    def add_state(label=None):
        rows.append({})
        labels.append({label} if label else set())
        return len(rows) - 1

    quarter = Fraction(1, 4)
    one = Fraction(1)
    start = add_state()

    def add_path(length, special_at, special_label):
        """A fresh chain of `length` states; returns (first, last) ids."""
        ids = [add_state(special_label if i == special_at else None)
               for i in range(length)]
        for a, b in zip(ids, ids[1:]):
            rows[a][b] = one
        return ids[0], ids[-1]

    red_ends = []
    for k in range(4):
        # k+1 plain states, the r-state, then 6-2k plain states.
        first, last = add_path(8 - k, k + 1, "r")
        rows[start][first] = quarter
        red_ends.append(last)
    fork = add_state()
    for last in red_ends:
        rows[last][fork] = one
    blue_ends = []
    for j in range(4):
        # j plain states, the b-state, then 9-2j plain states.
        first, last = add_path(10 - j, j, "b")
        rows[fork][first] = quarter
        blue_ends.append(last)
    goal = add_state("g")
    for last in blue_ends:
        rows[last][goal] = one
    rows[goal][goal] = one
    return MarkovChain(len(rows), start, rows, labels)


def chain_text(chain):
    """Serialize a chain into the .dtmc text format."""
    lines = ["states %d" % chain.m, "init %d" % chain.init]
    for s in range(chain.m):
        if chain.labels[s]:
            lines.append("label %d %s" % (s, " ".join(sorted(chain.labels[s]))))
    for s in range(chain.m):
        for t in sorted(chain.rows[s]):
            lines.append("trans %d %d %s" % (s, t, chain.rows[s][t]))
    return "\n".join(lines) + "\n"
