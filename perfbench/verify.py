"""Check each CLI answer against its reference.

`check(query, stdout)` returns None when the answer is right and a
message otherwise.  The answer is read from the "key: value" lines the
CLI prints; counters such as product-nodes are not part of it.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import refs

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# Sampling certificate settings for >0 answers of the general engine.
SAMPLES = 200
HORIZON = 10
SAMPLER_SEED = 7


def parse_output(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out.setdefault(key, []).append(value)
    return out


def answer(command, text):
    """The lines of a CLI output that state the answer."""
    keys = {"check": ("verdict", "minimum"), "member": ("member",),
            "minset": ("minimal",), "prob": ("probability",)}[command]
    out = parse_output(text)
    return ["%s: %s" % (k, v) for k in keys for v in out.get(k, [])]


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["answers"]


def threshold_of(q):
    argv = q.argv
    return argv[argv.index("--threshold") + 1] if "--threshold" in argv \
        else ">0"


def _one_minimum(command, n, name="x"):
    """Expected answer lines for a one-variable minimum n (None = empty)."""
    if command == "minset":
        return [] if n is None else ["minimal: %s=%d" % (name, n)]
    if n is None:
        return ["verdict: empty"]
    return ["verdict: nonempty", "minimum: %d" % n]


def _valuation(point):
    return ",".join("%s=%d" % (k, point[k]) for k in sorted(point))


def expected_answer(q, expected):
    """Reference answer lines for query q."""
    command = q.argv[0]
    data = q.data
    th = threshold_of(q)
    if q.ref == "pinned":
        return expected[q.data.get("pin", q.id)]
    if q.ref == "reach":
        chain = data["chain"]
        if th.startswith(">="):
            p = Fraction(th[2:])
            if command == "member":
                hit = refs.reach_prob(chain, data["t"], data["valuation"]) >= p
                return ["member: %s" % ("true" if hit else "false")]
            return _one_minimum(command,
                                refs.reach_min_geq(chain, data["t"], p))
        return _one_minimum(command, refs.reach_support(chain, data["t"], th))
    if q.ref == "buchi":
        n = refs.obligation_min(data["chain"], None, data["a"], th)
        return _one_minimum(command, n)
    if q.ref == "response":
        n = refs.obligation_min(data["chain"], data["trigger"],
                                data["target"], th)
        return _one_minimum(command, n)
    if q.ref == "genbuchi":
        chain = data["chain"]
        if th == ">0":
            nonempty = refs.genbuchi_nonempty_pos(chain,
                                                  (data["a"], data["b"]))
            return ["verdict: %s" % ("nonempty" if nonempty else "empty")]
        na = refs.obligation_min(chain, None, data["a"], "=1")
        nb = refs.obligation_min(chain, None, data["b"], "=1")
        point = None if na is None or nb is None else {"x": na, "y": nb}
        if command == "minset":
            return [] if point is None else ["minimal: " + _valuation(point)]
        if point is None:
            return ["verdict: empty"]
        return ["verdict: nonempty", "minimum: " + _valuation(point)]
    if q.ref == "first_hit":
        points = refs.first_hit_antichain(data["chain"], data["props"])
        return sorted("minimal: " + _valuation(p) for p in points)
    if q.ref == "cnf":
        from pltlcheck.oracle import sat_brute_force
        if data["threshold"] == ">0":
            nonempty = sat_brute_force(data["clauses"], data["n_vars"])
        else:
            nonempty = refs.cnf_tautology(data["clauses"], data["n_vars"])
        return ["verdict: %s" % ("nonempty" if nonempty else "empty")]
    raise ValueError("unknown reference %r" % q.ref)


def sample_verdict(q, chain_text, got):
    """A positive sampled fraction proves probability > 0 at the valuation.

    Used on >0 answers of the general engine: it refutes an "empty" or
    "false" answer, and certifies a "nonempty" or "true" one.
    Returns (refuted, certified).
    """
    from pltlcheck.formula import parse_formula, substitute, to_nnf
    from pltlcheck.markov import parse_chain
    from pltlcheck.oracle import sample_lower_bound
    from pltlcheck.valuation import parse_valuation
    command = q.argv[0]
    if command == "member":
        val = parse_valuation(q.argv[q.argv.index("--valuation") + 1])
    else:
        val = parse_valuation("x=%d" % (HORIZON - 1))
    phi = substitute(to_nnf(parse_formula(q.argv[4])), val)
    frac = sample_lower_bound(parse_chain(chain_text), phi, SAMPLES, HORIZON,
                              SAMPLER_SEED)
    positive = got[0] in ("verdict: nonempty", "member: true")
    return frac > 0 and not positive, frac > 0 and positive


def check(q, stdout, chain_text, expected, tally):
    """None if q's answer is right, else a message.

    `tally` counts sampler certificates of >0 answers."""
    command = q.argv[0]
    got = answer(command, stdout)
    if q.ref == "reach" and command == "prob":
        value = Fraction(got[0].partition(": ")[2])
        ref = refs.reach_prob_mod(q.data["chain"], q.data["t"],
                                  q.data["valuation"])
        if refs.fraction_mod(value) != ref:
            return "probability %s disagrees with the recurrence" % value
        return None
    want = expected_answer(q, expected)
    if sorted(got) != sorted(want):
        return "answer %s, reference %s" % (got, want)
    if q.family == "diamond" and threshold_of(q) == ">0":
        refuted, certified = sample_verdict(q, chain_text, got)
        if refuted:
            return "answer %s, but sampling shows positive probability" % got
        tally["certified"] += certified
    return None
