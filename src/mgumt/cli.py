"""Command-line front end: parse/understand/produce with step-by-step
traces, grammar compilation, derivation replay, scripted learning and a
teaching REPL.

Exit codes: 0 success, 1 clean rejection, unrealizable meaning or a parser
or semantic limit, 2 usage or file-format errors.  `produce` and plain
`derive` take a bottom-up derivation budget from --budget, else from
UMT_BUDGET; `derive --target` parses the target and replays each reading's
derivation, with no budget.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .grammar import (
    LexiconError, complete_derivations, load_lexicon, render_sign,
    save_lexicon,
)
from .learner import LearnerState, NoRepairFound, express, ingest, repair
from .mcfg import EmptyLexicon, compile_grammar, rule_dump
from .teacher import GoldGrammar, ScriptInvalid, judge, parse_script, run_session
from .terms import NonTerminating, TermSyntaxError, parse_term, render_term
from .transducer import (
    UMP, ParseRejected, ParserBudget, Unrealizable, derivations, produce,
    recognize, understand,
)

FORMAT_ERRORS = (LexiconError, TermSyntaxError, ScriptInvalid, EmptyLexicon,
                 FileNotFoundError, ValueError)
# the parser's step budget, a meaning that does not normalize, and the term
# layer's recursion, which very deep embeddings still exhaust
LIMIT_ERRORS = (RecursionError, NonTerminating, ParserBudget)


def _budget(args) -> int | None:
    env = os.environ.get("UMT_BUDGET")
    if args.budget is not None:
        return args.budget
    if env:
        return int(env)
    return None


def _lexicon(path: str):
    return load_lexicon(Path(path).read_text(encoding="utf-8"))


def cmd_parse(args) -> int:
    grammar = compile_grammar(_lexicon(args.lexicon))
    result = recognize(grammar, args.input)
    print(result.render())
    if not grammar.start_categories:
        empty = ParseRejected(0, frozenset(), grammar.lexicon.start_symbol)
        print(f"reject\t{empty}")
        return 1
    if not result.accepted:
        print(f"reject\tposition {result.position}\t"
              f"expected: {', '.join(sorted(result.expected)) or 'end of input'}")
        return 1
    return 0


def cmd_understand(args) -> int:
    grammar = compile_grammar(_lexicon(args.lexicon))
    try:
        result = understand(grammar, args.input)
    except ParseRejected as exc:
        print(f"reject\t{exc}")
        return 1
    print(result.render())
    print(f"meaning\t{render_term(result.meaning)}")
    return 0


def cmd_produce(args) -> int:
    lex = _lexicon(args.lexicon)
    try:
        result = produce(lex, parse_term(args.meaning), _budget(args))
    except Unrealizable as exc:
        print(f"unrealizable\t{exc}")
        return 1
    print(result.utterance)
    for alt in result.alternatives:
        print(f"# also realizable as: {alt}")
    return 0


def cmd_compile(args) -> int:
    grammar = compile_grammar(_lexicon(args.lexicon))
    sys.stdout.write(rule_dump(grammar))
    return 0


def _print_derivation(tree):
    for i, node in enumerate(tree.steps(), 1):
        premises = "   ".join(repr(c.expression) for c in node.children)
        print(f"({i}) {node.rule}")
        print(f"    {premises}")
        print(f"    ⇒ {node.expression!r}")


def cmd_derive(args) -> int:
    """Complete derivations within the budget.  With a target, the
    derivation of each reading the parser gives it, read off the parse:
    no search, so no budget."""
    lex = _lexicon(args.lexicon)
    if args.target is None:
        search = complete_derivations(lex, _budget(args))
        trees, exhausted = search.complete, search.budget_exhausted
    else:
        trees, exhausted = derivations(compile_grammar(lex), args.target), False
    if not trees:
        print("no complete derivation found")
    for tree in trees:
        print(f"# {render_sign(tree.sign)}")
        _print_derivation(tree)
        print()
    if exhausted:
        print("# note: derivation budget exhausted, results may be partial")
    return 0 if trees else 1


def cmd_learn(args) -> int:
    gold = GoldGrammar(_lexicon(args.gold))
    script = parse_script(Path(args.script).read_text(encoding="utf-8"))
    log, learner = run_session(gold, script)
    sys.stdout.write(log.render())
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, (t, lex) in enumerate(log.snapshots()):
            (outdir / f"snapshot_{i:02d}_t{t}.mg").write_text(
                save_lexicon(lex), encoding="utf-8")
        (outdir / "final.mg").write_text(save_lexicon(learner.lexicon),
                                         encoding="utf-8")
    return 0


def cmd_repl(args) -> int:
    gold = GoldGrammar(_lexicon(args.gold)) if args.gold else None
    learner = LearnerState()
    pending = None
    print("teaching repl; commands: teach <utt> | <term>, ask <term>, "
          "yes, no, lexicon, save <path>, quit")
    while True:
        try:
            raw = input("> ").strip()
        except EOFError:
            break
        if not raw:
            continue
        op, _, rest = raw.partition(" ")
        try:
            if op == "quit":
                break
            elif op == "teach":
                utt, _, term = rest.partition("|")
                ingest(learner, UMP(utt.strip(), parse_term(term.strip())))
                print(f"ok, lexicon has {len(learner.lexicon)} entries")
            elif op == "ask":
                meaning = parse_term(rest.strip())
                try:
                    said = express(learner, meaning)
                except Unrealizable:
                    print("(cannot express that)")
                    pending = None
                    continue
                pending = (said.utterance, meaning)
                print(said.utterance)
                if gold is not None:
                    verdict = judge(gold, said.utterance, meaning)
                    print(f"teacher: {verdict.value}")
                    _feedback(learner, pending, verdict.is_reject)
                    pending = None
            elif op in ("yes", "no"):
                if pending is None:
                    print("nothing to judge")
                    continue
                _feedback(learner, pending, op == "no")
                pending = None
            elif op == "lexicon":
                sys.stdout.write(save_lexicon(learner.lexicon) or "(empty)\n")
            elif op == "save":
                Path(rest.strip()).write_text(save_lexicon(learner.lexicon),
                                              encoding="utf-8")
                print(f"wrote {rest.strip()}")
            else:
                print(f"unknown command {op!r}")
        except FORMAT_ERRORS + LIMIT_ERRORS as exc:
            print(f"error: {exc}")
    return 0


def _feedback(learner, pending, rejected):
    utterance, meaning = pending
    if rejected:
        try:
            repair(learner, (utterance, meaning))
            print("lexicon repaired")
        except NoRepairFound:
            print("no repair applies; punishment logged")
    else:
        learner.endorsed.append(UMP(utterance, meaning))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mgumt",
        description="minimalist grammar workbench: parse, understand, "
                    "produce, compile, derive, learn, repl")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, budget=False):
        sp.add_argument("--lexicon", required=True, help="lexicon file")
        if budget:
            sp.add_argument("--budget", type=int, default=None,
                            help="bottom-up derivation budget, unused by "
                                 "derive --target (default: UMT_BUDGET or "
                                 "10x lexicon)")

    sp = sub.add_parser("parse", help="top-down recognition with trace")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("understand", help="utterance to logical form")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.set_defaults(fn=cmd_understand)

    sp = sub.add_parser("produce", help="logical form to utterance")
    common(sp, budget=True)
    sp.add_argument("--meaning", required=True)
    sp.set_defaults(fn=cmd_produce)

    sp = sub.add_parser("compile", help="dump the compiled MCFG")
    common(sp)
    sp.set_defaults(fn=cmd_compile)

    sp = sub.add_parser("derive", help="bottom-up derivations, inference style")
    common(sp, budget=True)
    sp.add_argument("--target", default=None, help="only derivations of this string")
    sp.set_defaults(fn=cmd_derive)

    sp = sub.add_parser("learn", help="run a teaching session script")
    sp.add_argument("--gold", required=True, help="teacher's gold lexicon")
    sp.add_argument("--script", required=True, help="session script file")
    sp.add_argument("--out", default=None, help="directory for lexicon snapshots")
    sp.set_defaults(fn=cmd_learn)

    sp = sub.add_parser("repl", help="interactive teaching loop")
    sp.add_argument("--gold", default=None, help="judge against this lexicon")
    sp.set_defaults(fn=cmd_repl)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FORMAT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LIMIT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
