"""Command-line front-end: parse inputs, dispatch to an engine, report.

Commands: check (emptiness of the valuation set at a threshold), minset
(minimal satisfying valuations), member (one valuation), prob (exact
reachability probability), and oracle utilities (sample, lasso-eval,
gen3sat).  Output is line-oriented "key: value" text; with --format
machine the bare result is repeated between BEGIN-RESULT/END-RESULT.

Exit codes: 0 decided, 2 usage error, 3 resource cap exceeded,
4 input parse error, 5 unsupported fragment/threshold combination.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import decimal
import functools
import sys
import types

from . import buchi, diamond, fixtures, fx, markov, oracle, reach
from .formula import (
    FormulaError, FragmentClass, FragmentError, ParseError, classify,
    genbuchi_pairs, parse_formula, substitute, to_nnf, variables,
)
from .markov import _MAX_EXPONENT, ChainError, parse_chain, read_fraction
from .oracle import LassoWord, OracleInputError
from .valuation import MinimalSet, ValuationError, Valuation, parse_valuation

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_PARSE = 4
EXIT_FRAGMENT = 5


class UsageError(Exception):
    pass


def _node_cap(text):
    """The value of --max-product-nodes: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, not %d" % value)
    return value


@functools.cache
def _build_parser():
    """The argument parser and its subparsers action, built on first
    use and then reused: building them costs milliseconds, as much as a
    small query.  Each command's `handler` default is the function that
    runs it."""
    p = argparse.ArgumentParser(
        prog="pltlcheck",
        description="Parametric LTL model checking for finite Markov chains")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, handler, chain=True):
        sp.set_defaults(handler=handler)
        if chain:
            sp.add_argument("--chain", required=True, help=".dtmc file")
        sp.add_argument("--formula", help="formula text")
        sp.add_argument("--formula-file", help="file containing the formula")
        sp.add_argument("--format", choices=("text", "machine"),
                        default="text")

    def query(name, handler):
        """A parser for a command that may run the general engine."""
        sp = sub.add_parser(name)
        common(sp, handler)
        sp.add_argument("--threshold", default=">0",
                        help='one of ">0", "=1", ">=p" (p rational)')
        sp.add_argument("--max-product-nodes", type=_node_cap,
                        default=diamond.DEFAULT_MAX_PRODUCT_NODES)
        sp.add_argument("--emit-automaton", metavar="PATH")
        return sp

    query("check", _run_check).add_argument("--witness", action="store_true")
    query("minset", _run_minset)
    query("member", _run_member).add_argument("--valuation", required=True)

    sp = sub.add_parser("prob")
    common(sp, _run_prob)
    sp.add_argument("--valuation", required=True)

    sp = sub.add_parser("oracle")
    osub = sp.add_subparsers(dest="oracle_command", required=True)

    sp = osub.add_parser("sample")
    common(sp, _run_oracle_sample)
    sp.add_argument("--valuation", default="")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--horizon", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)

    sp = osub.add_parser("lasso-eval")
    common(sp, _run_oracle_lasso, chain=False)
    sp.add_argument("--valuation", default="")
    sp.add_argument("--stem", default="",
                    help="semicolon-separated positions of comma-separated atoms")
    sp.add_argument("--loop", required=True)

    sp = osub.add_parser("gen3sat")
    sp.set_defaults(handler=_run_oracle_gen3sat)
    sp.add_argument("--cnf", required=True, help="DIMACS-like CNF file")
    sp.add_argument("--format", choices=("text", "machine"), default="text")
    return p, sub


# Commands whose argv `_parse_argv` hands straight to their own parser.
DIRECT_COMMANDS = ("check", "minset", "member", "prob")


def _parse_argv(argv):
    """`parse_args(argv)` of the full parser.  A command of
    `DIRECT_COMMANDS` first is parsed by its own parser, as the
    subparsers action would, without the top-level pass before it;
    leftover arguments are the top-level parser's error, as there."""
    parser, commands = _build_parser()
    if not argv or argv[0] not in DIRECT_COMMANDS:
        return parser.parse_args(argv)
    args, rest = commands.choices[argv[0]].parse_known_args(argv[1:])
    if rest:
        parser.error("unrecognized arguments: %s" % " ".join(rest))
    args.command = argv[0]
    return args


def _read_formula(args):
    if args.formula and args.formula_file:
        raise UsageError("give either --formula or --formula-file, not both")
    if args.formula:
        return parse_formula(args.formula)
    if args.formula_file:
        with open(args.formula_file) as fh:
            return parse_formula(fh.read())
    raise UsageError("a formula is required (--formula or --formula-file)")


def _read_chain(args):
    with open(args.chain) as fh:
        return parse_chain(fh.read())


def _parse_threshold(text):
    text = text.strip().replace(" ", "")
    if text == ">0":
        return ("pos", None)
    if text == "=1":
        return ("as1", None)
    if text.startswith(">="):
        try:
            p = read_fraction(text[2:])
        except (ValueError, ZeroDivisionError):
            raise UsageError("bad threshold probability %r" % text[2:])
        if p is None:
            raise UsageError("threshold exponent beyond %d in %r"
                             % (_MAX_EXPONENT, text[2:]))
        if not 0 < p < 1:
            raise UsageError("threshold probability must satisfy 0 < p < 1")
        return ("geq", p)
    raise UsageError('threshold must be ">0", "=1" or ">=p"')


def _parse_letters(text):
    if not text:
        return ()
    return tuple(frozenset(a for a in pos.split(",") if a)
                 for pos in text.split(";"))


def _fraction_text(q):
    """str(q) in full.  str() of an int refuses more than 4300 digits;
    decimal converts without that limit and changes no interpreter
    setting."""
    num = str(decimal.Decimal(q.numerator))
    if q.denominator == 1:
        return num
    return "%s/%s" % (num, decimal.Decimal(q.denominator))


class Report:
    def __init__(self, fmt):
        self.fmt = fmt
        self.lines = []
        self.result = []

    def add(self, key, value):
        self.lines.append("%s: %s" % (key, value))

    def answer(self, key, text):
        self.add(key, text)
        self.result = [text]

    def emit(self, out):
        for line in self.lines:
            print(line, file=out)
        if self.fmt == "machine":
            print("BEGIN-RESULT", file=out)
            for line in self.result:
                print(line, file=out)
            print("END-RESULT", file=out)


def _maybe_emit(args, checker):
    if args.emit_automaton and checker is not None:
        # Past the tableau cap it exits 3 before the file is opened.
        text = diamond.format_automaton(checker.g)
        with open(args.emit_automaton, "w") as fh:
            fh.write(text)


def _read_query(args, rep):
    """Read, classify and report a check, minset or member query, and
    find its route in `ROUTES`; only Reach answers ">=p".

    Returns the query's fields.  `val` is None except for member, where
    it must assign every variable; `checker` is None until `_engine`.
    """
    chain = _read_chain(args)
    phi = to_nnf(_read_formula(args))
    kind, p = _parse_threshold(args.threshold)
    fragment = classify(phi)
    names = variables(phi)
    val = None
    if args.command == "member":
        val = parse_valuation(args.valuation)
        missing = [x for x in names if x not in val]
        if missing:
            raise UsageError("valuation misses variables: %s"
                             % ", ".join(missing))
    rep.add("fragment", fragment)
    rep.add("threshold", args.threshold.strip())
    if val is not None:
        rep.add("valuation", val)
    if (fragment, kind) not in ROUTES:
        raise FragmentError(
            'threshold ">=p" is only supported for single reachability '
            'formulas F[<=x] a; use ">0" or "=1" here')
    return types.SimpleNamespace(
        args=args, rep=rep, chain=chain, phi=phi, kind=kind, p=p,
        names=names, val=val, route=ROUTES[fragment, kind], checker=None)


def _engine(q):
    """The general engine's checker for query q, built on first use."""
    if q.checker is None:
        q.checker = diamond.DiamondChecker(q.phi, q.args.max_product_nodes)
    return q.checker


def _one(q, n0):
    """The minimal set of a one-variable closed form: n0, or none."""
    return MinimalSet(q.names, [] if n0 is None else [(n0,)])


def _minimum(q, bare=True):
    """Emptiness read off the minimal set, printing its least point."""
    ms = q.route.min_set(q)
    if ms:
        q.rep.add("minimum", ms.points[0][0] if bare else ms.valuations()[0])
    return not ms


def _fx_check(q):
    empty, witness_val, path = fx.emptiness_pos_fx(
        q.chain, q.phi, q.args.max_product_nodes)
    if not empty:
        q.rep.add("witness-valuation", Valuation(witness_val))
        if q.args.witness:
            q.rep.add("witness-path", " ".join(map(str, path)))
    return empty


def _engine_check(q):
    checker = _engine(q)
    empty = checker.emptiness(q.chain, q.kind)
    if not empty:
        # The uniform point the emptiness query found in V.
        q.rep.add("witness-valuation", Valuation(dict.fromkeys(
            checker.user_names, checker.bound_used)))
    if checker.bound_used is not None:
        q.rep.add("bound", checker.bound_used)
    q.rep.add("product-nodes", checker.stats["product_nodes"])
    if checker.shortcut:
        q.rep.add("shortcut", checker.shortcut)
    return empty


Route = collections.namedtuple("Route", "min_set check member",
                               defaults=(None, None))
_GENERAL = Route(lambda q: _engine(q).min_set(q.chain, q.kind), _engine_check,
                 lambda q: _engine(q).member(q.chain, q.kind, q.val))
_F = FragmentClass

# (fragment, threshold kind) -> Route: minimal valuations, check and
# member of the query from `_read_query`.  A None check is `_minimum`; a
# None member tests the valuation against the minimal set.  Engines are
# looked up when a route runs, so a replaced module attribute is called.
ROUTES = {
    (_F.REACH, "pos"): Route(
        lambda q: _one(q, reach.min_val_pos(q.chain, q.phi.child.name))),
    (_F.REACH, "as1"): Route(
        lambda q: _one(q, reach.min_val_as1(q.chain, q.phi.child.name))),
    # member steps n times; the minimum would also solve for the limit.
    (_F.REACH, "geq"): Route(
        lambda q: _one(q, reach.min_val_geq(q.chain, q.phi.child.name, q.p)),
        member=lambda q: reach.check_geq(q.chain, q.phi.child.name, q.p,
                                         q.val[q.names[0]])),
    (_F.BUCHI, "pos"): Route(lambda q: _one(q, buchi.min_val_pos_buchi(
        q.chain, q.phi.child.child.name))),
    (_F.BUCHI, "as1"): Route(lambda q: _one(q, buchi.min_val_as1_buchi(
        q.chain, q.phi.child.child.name))),
    (_F.GENERALIZED_BUCHI, "pos"): Route(
        lambda q: buchi.min_set_pos_genbuchi(q.chain, genbuchi_pairs(q.phi),
                                             _engine(q)),
        lambda q: buchi.emptiness_pos_genbuchi(
            q.chain, [a for _, a in genbuchi_pairs(q.phi)]),
        _GENERAL.member),
    (_F.GENERALIZED_BUCHI, "as1"): Route(
        lambda q: buchi.min_set_as1_genbuchi(q.chain, genbuchi_pairs(q.phi),
                                             q.names),
        lambda q: _minimum(q, bare=False)),
    # Check needs only emptiness and a shortest path, not the front.
    (_F.FX, "pos"): Route(
        lambda q: fx.min_set_fx(q.chain, q.phi, q.args.max_product_nodes),
        _fx_check),
    (_F.FX, "as1"): _GENERAL._replace(min_set=lambda q: _engine(q).min_set(
        q.chain, "as1", fx._uniform_bound(q.chain, q.phi))),
    (_F.DIAMOND, "pos"): _GENERAL,
    (_F.DIAMOND, "as1"): _GENERAL,
}


def _run_check(args, rep):
    q = _read_query(args, rep)
    empty = (q.route.check or _minimum)(q)
    _maybe_emit(args, q.checker)
    rep.answer("verdict", "empty" if empty else "nonempty")


def _run_minset(args, rep):
    q = _read_query(args, rep)
    if not q.names:
        raise UsageError("formula has no parameter variables")
    ms = q.route.min_set(q)
    if q.checker is not None:
        if q.checker.bound_used is not None:
            rep.add("bound", q.checker.bound_used)
        rep.add("oracle-calls", q.checker.stats["queries"])
    _maybe_emit(args, q.checker)
    rep.add("cardinality", len(ms))
    for v in ms.valuations():
        rep.add("minimal", v)
    rep.result = [str(v) for v in ms.valuations()]


def _run_member(args, rep):
    q = _read_query(args, rep)
    if q.route.member:
        verdict = q.route.member(q)
    else:
        verdict = q.route.min_set(q).member([q.val[x] for x in q.names])
    _maybe_emit(args, q.checker)
    rep.answer("member", "true" if verdict else "false")


def _run_prob(args, rep):
    chain = _read_chain(args)
    phi = to_nnf(_read_formula(args))
    fragment = classify(phi)
    if fragment != FragmentClass.REACH:
        raise FragmentError(
            "exact probabilities are only computed for single reachability "
            "formulas F[<=x] a")
    val = parse_valuation(args.valuation)
    name = phi.bound.name
    if name not in val:
        raise UsageError("valuation misses variable %r" % name)
    value = markov.bounded_reach_prob(chain, chain.states_with(phi.child.name),
                                      val[name])
    text = _fraction_text(value)
    rep.add("fragment", fragment)
    rep.add("valuation", val)
    rep.answer("probability", text)


def _run_oracle_sample(args, rep):
    chain = _read_chain(args)
    phi = to_nnf(_read_formula(args))
    val = parse_valuation(args.valuation)
    ground = substitute(phi, val)
    # A count below 1 is the sampler's parse error, not this cap's.
    letters = max(args.samples, 0) * max(args.horizon, 0)
    if letters > oracle.MAX_SAMPLE_LETTERS:
        raise diamond.ResourceLimitError(
            "samples x horizon = %d exceeds the sampling cap of %d letters"
            % (letters, oracle.MAX_SAMPLE_LETTERS))
    frac = oracle.sample_lower_bound(chain, ground, args.samples,
                                     args.horizon, args.seed)
    rep.add("samples", args.samples)
    rep.add("horizon", args.horizon)
    rep.add("seed", args.seed)
    rep.add("rng", "python-random-mersenne-twister")
    rep.add("certain-fraction", frac)
    rep.add("positive-probability-certified",
            "yes" if frac > 0 else "inconclusive")
    rep.result = [str(frac)]


def _run_oracle_lasso(args, rep):
    phi = to_nnf(_read_formula(args))
    val = parse_valuation(args.valuation)
    ground = substitute(phi, val)
    word = LassoWord(_parse_letters(args.stem), _parse_letters(args.loop))
    verdict = oracle.eval_lasso(word, ground)
    rep.answer("verdict", "true" if verdict else "false")


def _run_oracle_gen3sat(args, rep):
    with open(args.cnf) as fh:
        clauses, n_vars = oracle.parse_dimacs(fh.read())
    chain, phi = oracle.gen_3sat_fixture(clauses, n_vars)
    rep.add("variables", n_vars)
    rep.add("clauses", len(clauses))
    rep.add("formula", phi)
    text = fixtures.chain_text(chain)
    rep.result = text.splitlines()
    if rep.fmt == "text":
        rep.lines.extend(text.splitlines())


def run(argv, out=None, err=None):
    """Run one command line; print its report on `out` and its errors
    on `err` (the process's streams when None), argparse's usage
    messages and --help included.  Returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _parse_argv(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    rep = Report(args.format)
    out_of_memory = False
    try:
        args.handler(args, rep)
    except UsageError as exc:
        print("usage error: %s" % exc, file=err)
        return EXIT_USAGE
    except FragmentError as exc:
        print("fragment error: %s" % exc, file=err)
        return EXIT_FRAGMENT
    except (ParseError, FormulaError, ChainError, ValuationError,
            OracleInputError) as exc:
        print("parse error: %s" % exc, file=err)
        return EXIT_PARSE
    except diamond.ResourceLimitError as exc:
        print("resource limit: %s" % exc, file=err)
        return EXIT_RESOURCE
    except MemoryError:
        # The traceback keeps the frames that filled memory alive until
        # this handler ends, and printing inside it can fail again.
        out_of_memory = True
    except OSError as exc:
        print("usage error: %s" % exc, file=err)
        return EXIT_USAGE
    if out_of_memory:
        print("resource limit: out of memory", file=err)
        return EXIT_RESOURCE
    rep.emit(out)
    return EXIT_OK


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
