"""Seeded inputs and query lists for the three benchmark workloads.

`build(workload, seed, reps)` returns the chain files to write and the
ordered list of queries.  Each query is one `pltlcheck` command line
plus what its answer is checked against.  Everything is derived with
`random.Random`, so the same seed gives byte-identical files.  The
named queries (traffic fixture, W1-W4) do not depend on the seed.  The
families are sets of chains drawn once (see `fixed_family`); the seed
renames their propositions and the variables of the CNF fixtures.

Run as a script it writes one workload's inputs and a manifest:

    python3 perfbench/workloads.py --workload check --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("minset", "check", "exact")

# Caps passed to or enforced around every query.  The slowest query that
# finishes at the seed commit (W2) takes about 6.5 s and builds 408,961
# product nodes, about half of either cap.
TIME_CAP_S = 12.0
MAX_PRODUCT_NODES = 600_000

# The 9-until formula of W4 and the until-chains share one alphabet.
UNTIL_PROPS = "abcdefghij"


@dataclass
class Chain:
    """A chain as plain data: rows[s] maps successors to Fractions."""
    rows: list
    labels: list
    init: int = 0

    @property
    def m(self):
        return len(self.rows)

    def text(self):
        lines = ["states %d" % self.m, "init %d" % self.init]
        for s, lab in enumerate(self.labels):
            if lab:
                lines.append("label %d %s" % (s, " ".join(sorted(lab))))
        for s, row in enumerate(self.rows):
            for t in sorted(row):
                lines.append("trans %d %d %s" % (s, t, row[t]))
        return "\n".join(lines) + "\n"


@dataclass
class Query:
    """One CLI invocation; `argv` names chain files relative to the input dir.

    `ref` names how an answer is checked: "pinned" looks the id up in
    expected.json, the other kinds are computed by refs.py from `data`.
    """
    id: str
    family: str
    argv: list
    ref: str
    tag: str = ""
    data: dict = field(default_factory=dict)


def _from_program(chain):
    return Chain([dict(r) for r in chain.rows],
                 [set(l) for l in chain.labels], chain.init)


def _row(rng, succ):
    weights = {t: rng.randint(1, 3) for t in succ}
    total = sum(weights.values())
    return {t: Fraction(w, total) for t, w in weights.items()}


def small_chain(rng, m, label_p=0.35):
    """Random chain on m states with up to three successors per state."""
    rows = [_row(rng, rng.sample(range(m), rng.randint(1, min(3, m))))
            for _ in range(m)]
    labels = [{p for p in "ab" if rng.random() < label_p} for _ in range(m)]
    return Chain(rows, labels)


def fixed_family(name, size, draw):
    """`size` instances drawn once from a seed fixed by `name`.

    The seed of a run only renames their propositions.  The cost of one
    query spreads over two orders of magnitude between draws, and even
    renumbering the states changes the general engine's early exits, so
    fresh draws (or renumbered states) per seed moved a run's latency
    percentiles by 30-40% between seeds.
    """
    rng = random.Random(name)
    return [draw(rng) for _ in range(size)]


def prop_names(rng):
    """Distinct lowercase names for the placeholders a, b, t, in that
    alphabetical order: the engines order atoms by name, so keeping the
    order keeps the work the same."""
    names = set()
    while len(names) < 3:
        names.add("".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                          for _ in range(rng.randint(1, 3))))
    return dict(zip("abt", sorted(names)))


def rename(chain, names):
    labels = [{names[p] for p in lab} for lab in chain.labels]
    return Chain(chain.rows, labels, chain.init)


# Dyadic rows keep the exact arithmetic of the markov layer at a cost
# that depends on the chain size and bound, not on the draw.
DYADIC_ROWS = {1: [(1,)],
               2: [(Fraction(1, 2), Fraction(1, 2)),
                   (Fraction(1, 4), Fraction(3, 4))],
               3: [(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))]}


def recurrent_chain(rng, m):
    """Random chain with a banded transient part and three bottom components.

    Every bottom component holds a `t` state, so Pr(F t) = 1 and every
    `>=p` threshold below one has a finite minimum; one transient state
    in ten is a `t` state too, so that minimum stays small.  Labels `a` and `b`
    are spread over the transient part and over some components, which
    gives the Buchi queries both empty and nonempty answers.  Transient
    edges stay within three states of their source (plus rare jumps into
    a bottom component), so the linear systems are banded and their
    elimination cost varies little between draws.
    """
    sizes = [rng.randint(3, 6) for _ in range(3)]
    n_trans = m - sum(sizes)
    rows = [None] * m
    labels = [set() for _ in range(m)]
    bottom = []
    base = n_trans

    def row(succ):
        succ = sorted(succ)
        probs = list(rng.choice(DYADIC_ROWS[len(succ)]))
        rng.shuffle(probs)
        return dict(zip(succ, probs))

    for size in sizes:
        comp = list(range(base, base + size))
        base += size
        bottom.extend(comp)
        for k, s in enumerate(comp):
            succ = {comp[(k + 1) % size]}
            if rng.random() < 0.5:
                succ.add(rng.choice(comp))
            rows[s] = row(succ)
        labels[rng.choice(comp)].add("t")
        for p in "ab":
            if rng.random() < 0.8:
                for s in rng.sample(comp, rng.randint(1, size)):
                    labels[s].add(p)
    for s in range(n_trans):
        # The edge to s+1 makes every transient state reach a bottom
        # component; the others may point backwards.
        succ = {s + 1 if s < n_trans - 1 else rng.choice(bottom)}
        for _ in range(rng.randint(1, 2)):
            succ.add(rng.choice(bottom) if rng.random() < 0.05 else
                     min(n_trans - 1, max(0, s + rng.randint(-3, 3))))
        rows[s] = row(succ)
        if rng.random() < 0.1:
            labels[s].add("t")
        for p in "ab":
            if rng.random() < 0.6:
                labels[s].add(p)
    return Chain(rows, labels)


def random_cnf(rng):
    n_vars = rng.randint(3, 6)
    clauses = [[v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n_vars + 1), 3)]
               for _ in range(rng.randint(3, 8))]
    return clauses, n_vars


def rename_cnf(rng, clauses, n_vars):
    """Permute the variables, flip their signs and shuffle the clauses;
    satisfiability and the fixture's size are unchanged."""
    perm = list(range(1, n_vars + 1))
    rng.shuffle(perm)
    flip = [rng.choice((1, -1)) for _ in range(n_vars)]
    out = [[flip[abs(l) - 1] * perm[abs(l) - 1] * (1 if l > 0 else -1)
            for l in cl] for cl in clauses]
    rng.shuffle(out)
    return out


def until_chain(k):
    """F[<=x] (a U (b U ...)) with k until operators."""
    f = UNTIL_PROPS[k]
    for p in reversed(UNTIL_PROPS[:k]):
        f = "(%s U %s)" % (p, f)
    return "F[<=x] " + f


def diamond_formula(rng, max_size=5):
    """Random one-variable formula of the general (Diamond) fragment.

    The shapes follow acceptance criterion 6 (one parametric bound, at
    most `max_size` operators and literals after pushing negations in)
    but always include a G or U, so the general product engine answers
    them.  Propositions are the placeholders {a} and {b}.  The witness bound grows like 2^size, so the size cap keeps
    every query small.
    """
    def lit():
        p = rng.choice(("{a}", "{b}"))
        return (p if rng.random() < 0.7 else "!" + p), 1

    def inner():
        (a, n), (b, k) = lit(), lit()
        return rng.choice([(a, n), ("X " + a, n + 1), ("(%s & %s)" % (a, b), 3),
                           ("(%s U %s)" % (a, b), 3)])

    while True:
        text, n = inner()
        bounded, nb = "F[<=x] " + text, n + 1
        (l, _), (l2, _) = lit(), lit()
        text, n = rng.choice([
            ("G (%s | %s)" % (l, bounded), nb + 3),
            ("G %s" % bounded, nb + 1),
            ("%s U %s" % (l, bounded), nb + 2),
            ("%s & G %s" % (bounded, l), nb + 3),
            ("G (%s | X %s)" % (l, bounded), nb + 4),
            ("F[<=x] G " + l2, 3),
        ])
        if n <= max_size:
            return text


def diamond_instance(rng):
    return (diamond_formula(rng), small_chain(rng, rng.randint(2, 4),
                                             label_p=0.45),
            rng.randint(0, 4))


def diamond_pool():
    """The criterion-6 style instances; answers pinned in expected.json."""
    return fixed_family("diamond", 30, diamond_instance)


def _cap_args():
    return ["--max-product-nodes", str(MAX_PRODUCT_NODES)]


class _Batch:
    def __init__(self):
        self.files = {}
        self.queries = []

    def chain(self, name, chain):
        self.files[name] = chain.text()
        return name

    def add(self, qid, family, command, chain_file, formula, ref,
            tag="", data=None, extra=()):
        argv = [command, "--chain", chain_file, "--formula", formula]
        argv += list(extra)
        self.queries.append(Query(qid, family, argv, ref, tag,
                                  dict(data or {})))


def _minset(b, rng, k, fixtures):
    if k == 0:
        traffic = _from_program(fixtures.traffic_chain())
        f = b.chain("traffic.dtmc", traffic)
        for qid, props in (("traffic.rb", {"x": "r", "y": "b"}),
                           ("traffic.bg", {"x": "b", "y": "g"}),
                           ("traffic.rg", {"x": "r", "y": "g"}),
                           ("W1", {"x1": "r", "x2": "b", "x3": "g"})):
            formula = " & ".join("F[<=%s] %s" % item
                                 for item in sorted(props.items()))
            b.add(qid, "traffic", "minset", f, formula, "first_hit",
                  tag=qid if qid == "W1" else "",
                  data={"chain": traffic, "props": props}, extra=_cap_args())
    names = prop_names(rng)
    fxconj = fixed_family("fxconj", 200,
                          lambda r: small_chain(r, r.choice((4, 5))))
    for i, base in enumerate(fxconj):
        chain = rename(base, names)
        f = b.chain("fxconj%d.%03d.dtmc" % (k, i), chain)
        b.add("fxconj.%d.%03d" % (k, i), "fxconj", "minset", f,
              "F[<=x] {a} & F[<=y] {b}".format(**names), "first_hit",
              data={"chain": chain,
                    "props": {"x": names["a"], "y": names["b"]}},
              extra=_cap_args())
    response = fixed_family("response", 24, lambda r: small_chain(r, 4))
    for i, base in enumerate(response):
        threshold = ">0" if i < 12 else "=1"
        chain = rename(base, names)
        f = b.chain("resp%d.%02d.dtmc" % (k, i), chain)
        b.add("response.%d.%02d" % (k, i), "response", "minset", f,
              "G (!{a} | F[<=x] {b})".format(**names), "response",
              data={"chain": chain, "trigger": names["a"],
                    "target": names["b"], "threshold": threshold},
              extra=["--threshold", threshold] + _cap_args())


def _check(b, rng, k, fixtures, oracle):
    coin = b.chain("coin.dtmc", _from_program(fixtures.coin_chain()))
    if k == 0:
        chain, phi = oracle.gen_3sat_fixture([[1], [-1]], 1)
        f = b.chain("w2.dtmc", _from_program(chain))
        b.add("W2", "cnf", "check", f, str(phi), "cnf", tag="W2",
              data={"clauses": [[1], [-1]], "n_vars": 1, "threshold": "=1"},
              extra=["--threshold", "=1"] + _cap_args())
        # Two variables and two clauses: the =1 product passes the node
        # cap, so this query ends with exit 3.
        chain, phi = oracle.gen_3sat_fixture([[1, 2], [-1, -2]], 2)
        f = b.chain("cnf2.dtmc", _from_program(chain))
        b.add("cnf.as1.2x2", "cnf", "check", f, str(phi), "cnf",
              data={"clauses": [[1, 2], [-1, -2]], "n_vars": 2,
                    "threshold": "=1"},
              extra=["--threshold", "=1"] + _cap_args())
        b.add("gf3", "gf3", "check", coin,
              "G F[<=x] a & G F[<=y] b & G F[<=z] !a", "pinned",
              extra=_cap_args())
        b.add("W3", "w3", "member", coin,
              "G F[<=x] a & G F[<=y] b & G F[<=z] c & F[<=w] (a & X b)",
              "pinned", tag="W3",
              extra=["--valuation", "x=3,y=3,z=3,w=3"] + _cap_args())
        for u in range(2, 6):
            b.add("until%d" % u, "until", "member", coin, until_chain(u),
                  "pinned", extra=["--valuation", "x=2"] + _cap_args())
        b.add("W4", "until", "check", coin, until_chain(9), "pinned",
              tag="W4", extra=_cap_args())
    for i, (base, n_vars) in enumerate(fixed_family("cnf", 100, random_cnf)):
        clauses = rename_cnf(rng, base, n_vars)
        chain, phi = oracle.gen_3sat_fixture(clauses, n_vars)
        f = b.chain("cnf%d.%03d.dtmc" % (k, i), _from_program(chain))
        b.add("cnf.%d.%03d" % (k, i), "cnf", "check", f, str(phi), "cnf",
              data={"clauses": clauses, "n_vars": n_vars, "threshold": ">0"},
              extra=["--threshold", ">0"] + _cap_args())
    names = prop_names(rng)
    for i, (formula, base, x) in enumerate(diamond_pool()):
        f = b.chain("diamond%d.%02d.dtmc" % (k, i), rename(base, names))
        for command in ("check", "member"):
            for threshold, tname in ((">0", "pos"), ("=1", "as1")):
                extra = ["--threshold", threshold]
                if command == "member":
                    extra += ["--valuation", "x=%d" % x]
                pin = "diamond.%02d.%s.%s" % (i, command, tname)
                b.add("%s.%d" % (pin, k), "diamond", command, f,
                      formula.format(**names), "pinned", data={"pin": pin},
                      extra=extra + _cap_args())


EXACT_SIZES = (50, 75, 100, 125, 150, 175, 200)


def exact_chains():
    """Three chains of each size, drawn once (see fixed_family)."""
    rng = random.Random("exact")
    return [recurrent_chain(rng, m) for m in EXACT_SIZES * 3]


def _exact(b, rng, k):
    names = prop_names(rng)
    data0 = {p: names[p] for p in "abt"}
    reach_f = "F[<=x] {t}".format(**names)
    for j, base in enumerate(exact_chains()):
        chain = rename(base, names)
        tag = "%d.%02d" % (k, j)
        f = b.chain("exact%s.dtmc" % tag, chain)
        data = dict(data0, chain=chain)
        for command in ("check", "minset"):
            for formula, ref in ((reach_f, "reach"),
                                 ("G F[<=x] {a}".format(**names), "buchi")):
                for threshold in (">0", "=1"):
                    b.add("%s.%s.%s.%s" % (ref, command, tag,
                                          "pos" if threshold == ">0" else "as1"),
                          ref, command, f, formula, ref,
                          data=dict(data, threshold=threshold),
                          extra=["--threshold", threshold])
        gen = "G F[<=x] {a} & G F[<=y] {b}".format(**names)
        for command, threshold in (("check", ">0"), ("check", "=1"),
                                   ("minset", "=1")):
            b.add("genbuchi.%s.%s.%s" % (command, tag,
                                        "pos" if threshold == ">0" else "as1"),
                  "genbuchi", command, f, gen, "genbuchi",
                  data=dict(data, threshold=threshold),
                  extra=["--threshold", threshold])
        for x, p in ((10, Fraction(1, 2)), (20, Fraction(9, 10))):
            b.add("geq.member.%s.x%d" % (tag, x), "geq", "member", f,
                  reach_f, "reach",
                  data=dict(data, threshold=">=%s" % p, valuation=x),
                  extra=["--threshold", ">=%s" % p, "--valuation", "x=%d" % x])
        for x in (100, 300):
            b.add("prob.%s.x%d" % (tag, x), "prob", "prob", f, reach_f,
                  "reach", data=dict(data, valuation=x),
                  extra=["--valuation", "x=%d" % x])
        # Exact Gaussian elimination grows about cubically (some 7 s at
        # 200 states), so the >=p minimum is asked on the smaller chains
        # only, where many queries keep the batch time steady.
        if chain.m <= 125:
            p = (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))[j % 3]
            b.add("geq.minset.%s" % tag, "geq", "minset", f, reach_f,
                  "reach", data=dict(data, threshold=">=%s" % p),
                  extra=["--threshold", ">=%s" % p])


def reps_for(seconds):
    """Sub-batches per run: one per 30 s of requested measuring time."""
    return max(1, round(seconds / 30))


def interleave(queries):
    """Spread every family evenly over the batch.

    The machine's speed drifts by 20% and more within a run; a family
    run in one block would sample that drift at one moment, and the
    latency percentiles that family decides would move with it.
    """
    size = Counter(q.family for q in queries)
    seen = Counter()
    keyed = []
    for q in queries:
        keyed.append(((seen[q.family] + 0.5) / size[q.family], q.family,
                      seen[q.family], q))
        seen[q.family] += 1
    return [k[-1] for k in sorted(keyed, key=lambda k: k[:3])]


def build(workload, seed, reps=1):
    """Input files (name -> text) and the query list of one run."""
    from pltlcheck import fixtures, oracle
    b = _Batch()
    for k in range(reps):
        rng = random.Random("%s/%d/%d" % (workload, seed, k))
        if workload == "minset":
            _minset(b, rng, k, fixtures)
        elif workload == "check":
            _check(b, rng, k, fixtures, oracle)
        elif workload == "exact":
            _exact(b, rng, k)
        else:
            raise ValueError("unknown workload %r" % workload)
    return b.files, interleave(b.queries)


def manifest(queries):
    return [{"id": q.id, "family": q.family, "tag": q.tag, "argv": q.argv}
            for q in queries]


def write_inputs(out_dir, files, queries):
    os.makedirs(out_dir, exist_ok=True)
    for name, text in sorted(files.items()):
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest(queries), fh, indent=1, sort_keys=True)
        fh.write("\n")


def import_program():
    """Import pltlcheck from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pltlcheck", "__init__.py")):
        raise SystemExit("perfbench: no program at %s" % src)
    sys.path.insert(0, src)
    import pltlcheck
    if os.path.dirname(os.path.dirname(os.path.abspath(pltlcheck.__file__))) \
            != src:
        raise SystemExit("perfbench: pltlcheck imported from %s, not %s"
                         % (pltlcheck.__file__, src))
    return pltlcheck


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--reps", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    import_program()
    files, queries = build(args.workload, args.seed, args.reps)
    write_inputs(args.out, files, queries)


if __name__ == "__main__":
    main()
