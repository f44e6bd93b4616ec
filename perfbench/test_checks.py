"""Tests of the benchmark's own checks and generators.

    python3 -m pytest perfbench/test_checks.py

Each check must fail on a wrong answer, and the generator's language for the
TEACHING_GOLD shape must be the eight sentences the README writes out.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mgumt import fixtures, grammar, teacher  # noqa: E402
from mgumt.terms import parse_term  # noqa: E402
from mgumt.transducer import ParseRejected, ParserBudget, Unrealizable  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

# The README's hand-written language of TEACHING_GOLD.
TEACHING_GOLD_LANGUAGE = {
    "the mouse eats cheese": "eat(cheese)(mouse)",
    "the mouse eats carrot": "eat(carrot)(mouse)",
    "the rat eats cheese": "eat(cheese)(rat)",
    "the rat eats carrot": "eat(carrot)(rat)",
    "the rats eat cheese": "eat(cheese)(rats)",
    "the rats eat carrot": "eat(carrot)(rats)",
    "the mice eat cheese": "eat(cheese)(mice)",
    "the mice eat carrot": "eat(carrot)(mice)",
}
TEACHING_GOLD_WORDS = workloads.TgWords(
    ("mouse", "rat"), ("rats", "mice"), ("cheese", "carrot"), ("eat",))


def understood(text):
    return SimpleNamespace(meaning=parse_term(text))


def produced(utterance, *alternatives):
    return SimpleNamespace(utterance=utterance, alternatives=list(alternatives))


def test_canon_renames_binders_only():
    assert checks.canon(parse_term(r"\x.f(x)")) == checks.canon(parse_term(r"\y.f(y)"))
    assert checks.canon(parse_term(r"\x.f(x)")) != checks.canon(parse_term(r"\x.g(x)"))
    assert checks.canon(parse_term("eat(cheese)(mouse)")) == "eat(cheese)(mouse)"


def test_understand_check_rejects_wrong_answers():
    right = {"eat(cheese)(mouse)"}
    assert checks.check_understood(understood("eat(cheese)(mouse)"), None, right,
                                   ParseRejected)
    # swapped arguments
    assert not checks.check_understood(understood("eat(mouse)(cheese)"), None,
                                       right, ParseRejected)
    # the semantic queue's wrong bracketing of a modifier
    assert not checks.check_understood(
        understood("old(eat(cheese)(mouse))"), None,
        {"eat(cheese)(old(mouse))"}, ParseRejected)
    # a grammatical sentence rejected
    assert not checks.check_understood(None, ParseRejected(3, frozenset()),
                                       right, ParseRejected)
    # a dropped rejection, and a rejection by the wrong means
    assert not checks.check_understood(understood("eat(cheese)(mouse)"), None,
                                       None, ParseRejected)
    assert not checks.check_understood(None, ParserBudget("out of steps"),
                                       None, ParseRejected)
    assert checks.check_understood(None, ParseRejected(3, frozenset()), None,
                                   ParseRejected)


def test_produce_check_rejects_wrong_answers():
    strings = {"the mouse eats cheese"}
    assert checks.check_produced(produced("the mouse eats cheese"), None, strings,
                                 Unrealizable)
    # a foreign string, as the answer or as an alternative
    assert not checks.check_produced(produced("the cheese eats mouse"), None,
                                     strings, Unrealizable)
    assert not checks.check_produced(
        produced("the mouse eats cheese", "the mouse eat olds cheese"), None,
        strings, Unrealizable)
    # a realisable meaning refused, an unrealisable one realised
    assert not checks.check_produced(None, Unrealizable("no"), strings,
                                     Unrealizable)
    assert not checks.check_produced(produced("the mouse eats cheese"), None,
                                     None, Unrealizable)
    assert checks.check_produced(None, Unrealizable("no"), None, Unrealizable)


@pytest.fixture(scope="module")
def session_outcome():
    return teacher.run_session(teacher.GoldGrammar(fixtures.teaching_gold()),
                               fixtures.SESSION_SCRIPT)


def test_session_check_accepts_the_fixture_session(session_outcome):
    session = workloads.Session(seed=1)
    assert session.expectations == ["endorse", "endorse", "reject"]
    assert checks.check_session(session_outcome, None, session.expectations,
                                session.taught, workloads._derivations)


def test_session_check_rejects_wrong_answers(session_outcome):
    session = workloads.Session(seed=1)
    # a verdict that contradicts an expect line
    assert not checks.check_session(session_outcome, None,
                                    ["endorse", "endorse", "endorse"],
                                    session.taught, workloads._derivations)
    # a taught pair with swapped arguments
    wrong = [("the mouse eats cheese", "eat(mouse)(cheese)")]
    assert not checks.check_session(session_outcome, None, session.expectations,
                                    wrong, workloads._derivations)
    # the plural read without the repair's constant merger
    log, learner = session_outcome
    unmerged = SimpleNamespace(lexicon=learner.lexicon, merged_constants={})
    assert not checks.check_session((log, unmerged), None, session.expectations,
                                    session.taught, workloads._derivations)
    assert not checks.check_session(None, RuntimeError("boom"),
                                    session.expectations, session.taught,
                                    workloads._derivations)


def test_teaching_gold_shape_language_is_the_eight_sentences():
    assert TEACHING_GOLD_WORDS.language() == TEACHING_GOLD_LANGUAGE
    generated = grammar.load_lexicon(TEACHING_GOLD_WORDS.lexicon_text())
    assert set(generated.entries) == set(fixtures.teaching_gold().entries)


def test_generator_language_matches_the_program_on_teaching_gold():
    derived = {(exp, checks.canon(sem))
               for exp, sem in workloads._derivations(fixtures.teaching_gold())}
    assert derived == set(TEACHING_GOLD_LANGUAGE.items())


def test_embedding_and_modifier_generators():
    assert workloads.embedded(["rat", "mouse"]) == (
        "the rat eats that the mouse eats cheese",
        "eat(that(eat(cheese)(mouse)))(rat)")
    sentence, meanings = workloads.modified(2)
    assert sentence == "the old old mouse eats cheese"
    assert meanings == {"eat(cheese)(old(old(mouse)))",
                        "eat(cheese)(old(aged(mouse)))",
                        "eat(cheese)(aged(old(mouse)))",
                        "eat(cheese)(aged(aged(mouse)))"}


@pytest.mark.parametrize("kind", sorted(workloads.WORKLOADS))
def test_rounds_repeat_their_make_up_across_seeds(kind):
    def make_up(seed):
        groups = workloads.WORKLOADS[kind](seed).round(0)
        return sorted((len(g.ops), sorted(str(op.kept_fault) for op in g.ops))
                      for g in groups)

    assert make_up(1) == make_up(2)
    same = [op.label for g in workloads.WORKLOADS[kind](3).round(1) for op in g.ops]
    again = [op.label for g in workloads.WORKLOADS[kind](3).round(1) for op in g.ops]
    assert same == again
