#!/usr/bin/env python3
"""Run the four-iteration teaching session plus the suppletive-plural
epilogue and print every lexicon stage, the learner's productions and the
teacher's verdicts."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mgumt.fixtures import SESSION_SCRIPT, teaching_gold
from mgumt.grammar import save_lexicon
from mgumt.teacher import GoldGrammar, run_session


def main():
    gold = GoldGrammar(teaching_gold())
    log, learner = run_session(gold, SESSION_SCRIPT)
    stage = 0
    for event in log.events:
        if event.kind == "presented":
            print(f"\n--- teacher presents {event.payload[0]!r}")
        elif event.kind == "learner-said":
            utterance, meaning = event.payload
            print(f"    learner says {utterance!r} for {meaning!r}")
        elif event.kind == "verdict":
            print(f"    teacher: {event.payload[0].value}")
        elif event.kind == "snapshot":
            t, lex = event.payload
            stage += 1
            print(f"    lexicon stage {stage} (t={t}, {len(lex)} entries):")
            for line in save_lexicon(lex).splitlines():
                print("      " + line)
    print("\nrevision log:")
    for note in learner.revisions:
        print("  -", note)


if __name__ == "__main__":
    main()
