#!/usr/bin/env python3
"""Replay the worked example end to end on the expert lexicon: bottom-up
derivation, compiled MCFG, top-down parse trace, semantic trace, and the
production round trip."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mgumt.cli import print_derivation
from mgumt.fixtures import table_one
from mgumt.grammar import complete_derivations, render_sign
from mgumt.mcfg import compile_grammar, rule_dump
from mgumt.terms import render_term
from mgumt.transducer import produce, recognize, understand

SENTENCE = "the mouse eats cheese"


def main():
    lex = table_one()
    print("=== lexicon ===")
    for entry in lex:
        print(" ", render_sign(entry))

    print("\n=== bottom-up derivation ===")
    search = complete_derivations(lex, 20)
    tree = next(t for t in search.complete if t.sign.exponent == SENTENCE)
    print_derivation(tree)

    print("\n=== compiled MCFG ===")
    grammar = compile_grammar(lex)
    sys.stdout.write(rule_dump(grammar))

    print("\n=== top-down parse ===")
    print(recognize(grammar, SENTENCE).render())

    print("\n=== semantic processing ===")
    result = understand(grammar, SENTENCE)
    print(result.render())
    print("\nmeaning:", render_term(result.meaning))

    print("\n=== production round trip ===")
    said = produce(lex, result.meaning)
    print(f"produce({render_term(result.meaning)}) = {said.utterance!r}")


if __name__ == "__main__":
    main()
