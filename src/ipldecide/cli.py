"""Command-line front end: decide formulas, emit certificates, run audits.

Exit codes of ``decide``: 0 every input formula is valid, 1 some formula is
not (its countermodel is emitted), 2 some line did not parse or the input
could not be read as UTF-8 text, 3 internal invariant failure.  A line
that does not parse is reported on stderr and the other lines are still
decided.  Every certificate is re-verified before it is printed; an
unverifiable certificate is a bug, reported on stderr and as ``error`` for
its line, and the other lines are still decided before the batch exits 3.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import backward, countermodel, generate, kripke
from .formula import Formula, ParseError, build_universe, parse, to_text
from .search import fsearch, minimum_compact

EXIT_VALID, EXIT_NONVALID, EXIT_PARSE, EXIT_INTERNAL = 0, 1, 2, 3


def _read_formulas(source: str) -> tuple[list[Formula], bool] | None:
    """Parse every non-blank line of ``source``; report each line that does
    not parse on stderr and say whether any did not.  None, reported on
    stderr, if ``source`` cannot be read as UTF-8 text."""
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return None
    goals, failed = [], False
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            goals.append(parse(line))
        except ParseError as exc:
            print(f"parse error: line {n}: {exc.message} at column {exc.col}",
                  file=sys.stderr)
            failed = True
    return goals, failed


def _write(path: str | None, content: str) -> None:
    """Print ``content`` on stdout or append it to the file ``path``, which
    ``cmd_decide`` truncates once per run."""
    if path is None or path == "-":
        print(content)
    else:
        with open(path, "a") as fh:
            fh.write(content + "\n")


def _render_model(model: kripke.KripkeModel, fmt: str) -> str:
    if fmt == "structured":
        return json.dumps(kripke.structured_export(model), indent=2, default=str)
    if fmt == "graph":
        return kripke.graph_export(model)
    if fmt == "typeset":
        return kripke.typeset_export(model)
    return kripke.text_export(model)


def _render_g3i(tree: backward.G3Node, u, fmt: str) -> str:
    if fmt == "structured":
        return json.dumps(backward.structured_g3i(tree, u), indent=2)
    if fmt == "typeset":
        return backward.typeset_g3i(tree, u)
    return backward.g3i_text(tree, u)


def _decide_one(goal: Formula, args) -> tuple[int, dict]:
    t0 = time.perf_counter()
    outcome = fsearch(goal,
                      backward_subsumption=not args.no_backward_subsumption,
                      min_height=args.minimal_height,
                      shuffle_seed=args.seed,
                      collect_stats=args.stats)
    report: dict = {"formula": to_text(goal), "iterations": outcome.iterations}
    if outcome.is_proof:
        extracted = countermodel.extract_model(outcome.store, outcome.root)
        if not kripke.check_countermodel(extracted.model, goal):
            print("internal error: extracted model failed verification",
                  file=sys.stderr)
            return EXIT_INTERNAL, report
        report["verdict"] = "non-valid"
        report["model_height"] = kripke.height(extracted.model)
        report["model_worlds"] = extracted.model.n
        code = EXIT_NONVALID
        if args.countermodel is not None:
            _write(args.countermodel, _render_model(extracted.model, args.format))
        if args.derivation is not None:
            _write(args.derivation, outcome.store.dump(outcome.root))
    else:
        tree = backward.bsearch(outcome.db)
        g3 = backward.to_g3i(tree)
        problem = backward.check_g3i(g3, outcome.universe)
        if problem is not None:
            print(f"internal error: certificate failed at {problem}", file=sys.stderr)
            return EXIT_INTERNAL, report
        report["verdict"] = "valid"
        report["certificate_nodes"] = sum(1 for _ in g3.nodes())
        code = EXIT_VALID
        if args.derivation is not None:
            _write(args.derivation, _render_g3i(g3, outcome.universe, args.format))
    if args.db_dump is not None:
        _write(args.db_dump, minimum_compact(outcome.db).dump(annotated=True))
    report["seconds"] = round(time.perf_counter() - t0, 4)
    if args.stats:
        report["stats"] = outcome.stats
    return code, report


def cmd_decide(args) -> int:
    read = _read_formulas(args.input)
    if read is None:
        return EXIT_PARSE
    goals, parse_failed = read
    for path in {args.countermodel, args.derivation, args.db_dump} - {None, "-"}:
        open(path, "w").close()
    worst = EXIT_PARSE if parse_failed else EXIT_VALID
    for goal in goals:
        code, report = _decide_one(goal, args)
        if args.format == "structured":
            print(json.dumps(report))
        else:
            extra = ""
            if report.get("verdict") == "non-valid":
                extra = (f"  countermodel: {report['model_worlds']} worlds,"
                         f" height {report['model_height']}")
            print(f"{report.get('verdict', 'error'):9s} {report['formula']}{extra}")
            if args.stats:
                for row in report.get("stats", []):
                    print(f"    {row}")
        worst = max(worst, code)
    return worst


def cmd_gen(args) -> int:
    if args.family == "nishimura":
        print(to_text(generate.nishimura(args.index)))
    else:
        for f in generate.random_formulas(args.seed, args.vars, args.size, args.count):
            print(to_text(f))
    return 0


def _audit_one(goal: Formula) -> list[tuple[str, bool]]:
    from .rules import weight
    u = build_universe(goal)
    outcome = fsearch(u)
    oracle = backward.oracle_decide(u)
    checks = [("duality: forward verdict is the oracle's negation",
               outcome.is_proof == (not oracle))]
    store = outcome.store
    ok_w = all(weight(store.nodes[nid].seq) < weight(store.nodes[p].seq)
               for nid in range(len(store.nodes))
               for p in store.nodes[nid].premises)
    checks.append(("weights strictly decrease through every stored step", ok_w))
    if outcome.is_proof:
        extracted = countermodel.extract_model(store, outcome.root)
        checks.append(("extracted model verifies as a countermodel",
                       kripke.check_countermodel(extracted.model, goal)))
        checks.append(("soundness audit over the derivation",
                       countermodel.soundness_audit(store, outcome.root)))
        checks.append(("join depth equals extracted model height",
                       countermodel.rank(store, outcome.root)
                       == kripke.height(extracted.model)))
    else:
        tree = backward.bsearch(outcome.db)
        checks.append(("backward reconstruction is locally valid",
                       backward.check_backward(tree)))
        checks.append(("translated certificate passes the G3i checker",
                       backward.check_g3i(backward.to_g3i(tree), u) is None))
        ok_bw = all(backward.bweight(c.seq) < backward.bweight(p.seq)
                    for p, c in tree.edges())
        checks.append(("backward weights strictly decrease edge-wise", ok_bw))
        # Only a saturated database is independent of the order; a search
        # for a non-valid goal stops at its first goal sequent.
        dumps = {minimum_compact(fsearch(u, shuffle_seed=s).db).dump()
                 for s in (1, 2, 3)}
        checks.append(("compact database independent of application order",
                       len(dumps) == 1))
    return checks


def cmd_audit(args) -> int:
    read = _read_formulas(args.input)
    if read is None:
        return EXIT_PARSE
    goals, parse_failed = read
    failed = 0
    for goal in goals:
        print(f"audit {to_text(goal)}")
        for name, ok in _audit_one(goal):
            print(f"  {'PASS' if ok else 'FAIL'}  {name}")
            failed += 0 if ok else 1
    if failed:
        return EXIT_INTERNAL
    return EXIT_PARSE if parse_failed else EXIT_VALID


def _ladder_index(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a whole number of at least 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ipldecide",
        description="Decide intuitionistic propositional validity; emit "
                    "verified countermodels or sequent certificates.")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decide", help="decide the formulas in a file (or -)")
    d.add_argument("input", help="path to a file of formulas, or - for stdin")
    d.add_argument("--minimal-height", action="store_true",
                   help="delay joins so countermodels have minimal height")
    d.add_argument("--no-backward-subsumption", action="store_true")
    d.add_argument("--countermodel", metavar="OUT")
    d.add_argument("--derivation", metavar="OUT")
    d.add_argument("--db-dump", metavar="OUT")
    d.add_argument("--format", choices=["text", "structured", "graph", "typeset"],
                   default="text")
    d.add_argument("--stats", action="store_true")
    d.add_argument("--seed", type=int, default=None,
                   help="shuffle rule-application order (testing aid)")
    d.set_defaults(func=cmd_decide)

    g = sub.add_parser("gen", help="generate formula families")
    gs = g.add_subparsers(dest="family", required=True)
    gn = gs.add_parser("nishimura")
    gn.add_argument("index", type=_ladder_index)
    gr = gs.add_parser("random")
    gr.add_argument("--vars", type=int, default=3)
    gr.add_argument("--size", type=int, default=12)
    gr.add_argument("--count", type=int, default=10)
    gr.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen)

    a = sub.add_parser("audit", help="run the cross-check battery on formulas")
    a.add_argument("input")
    a.set_defaults(func=cmd_audit)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
