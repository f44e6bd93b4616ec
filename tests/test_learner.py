import random

import pytest
from iso import X1_TABLE, X21_TABLE, X3_TABLE, X41_TABLE, X4_TABLE, assert_isomorphic

from mgumt.fixtures import SESSION_SCRIPT, TABLE_ONE, teaching_gold
from mgumt.grammar import complete_derivations, load_lexicon, save_lexicon
from mgumt.learner import (
    FactoringRegression, LearnerState, NoRepairFound, align, express, factor,
    ingest, repair,
)
from mgumt.mcfg import compile_grammar
from mgumt.teacher import GoldGrammar, run_session
from mgumt.terms import alpha_equivalent, parse_term, render_term
from mgumt.transducer import UMP, ParserBudget, Unrealizable, match_meaning

p = parse_term

U1 = UMP("the mouse eats cheese", p("eat(cheese)(mouse)"))
U2 = UMP("the rat eats cheese", p("eat(cheese)(rat)"))
U3 = UMP("the mouse eats carrot", p("eat(carrot)(mouse)"))
U4 = UMP("the rats eat cheese", p("eat(cheese)(rats)"))
U5 = UMP("the mice eat cheese", p("eat(cheese)(mice)"))

PUNISHED = ("the rats eats carrot", p("eat(carrot)(rats)"))


def teach(state, *umps):
    for u in umps:
        ingest(state, u)
    return state


# --- align ------------------------------------------------------------------------

def test_align_sentence_pair():
    al = align(U1, U2)
    assert al is not None
    assert al.shared_exponent_segments == [["the"], ["eats", "cheese"]]
    assert al.residue_exponents == (["mouse"], ["rat"])
    assert alpha_equivalent(al.shared_semantic_subterm, p("eat(cheese)"))
    a, b = al.semantic_residues
    assert (render_term(a), render_term(b)) == ("mouse", "rat")


def test_align_against_entry():
    entry = load_lexicon(X21_TABLE).entries[3]
    al = align(U3, entry)
    assert al is not None
    assert al.shared_exponent_segments == [["eats"]]
    assert al.residue_exponents == (["carrot"], ["cheese"])
    assert render_term(al.shared_semantic_subterm) == "eat"


def test_align_character_phase():
    al = align("rat", "rats")
    assert al is not None
    assert al.shared_exponent_segments == [["rat"]]
    assert al.residue_exponents == ([], ["s"])
    assert align("rat", "mice") is None


def test_align_none_without_common_material():
    assert align(U1, UMP("birds fly", p("fly(birds)"))) is None


# --- ingest -----------------------------------------------------------------------

def test_ingest_first_pair_stored_whole():
    s = teach(LearnerState(), U1)
    assert_isomorphic(s.lexicon, X1_TABLE)


def test_ingest_second_pair_factors():
    s = teach(LearnerState(), U1, U2)
    assert_isomorphic(s.lexicon, X21_TABLE)
    # the intermediate split is on record
    assert any("factored" in r for r in s.revisions)


def test_ingest_duplicate_is_idempotent():
    s = teach(LearnerState(), U1, U2)
    before = save_lexicon(s.lexicon)
    t = s.time
    ingest(s, U1)
    assert save_lexicon(s.lexicon) == before
    assert s.time == t + 1


def test_ingest_third_pair_segments_the_verb_entry():
    s = teach(LearnerState(), U1, U2, U3)
    assert_isomorphic(s.lexicon, X3_TABLE)


def test_ingest_fourth_pair_adds_analogues():
    s = teach(LearnerState(), U1, U2, U3, U4)
    assert_isomorphic(s.lexicon, X4_TABLE)


def test_state_update_law_without_alignment():
    s = teach(LearnerState(), U1)
    before = set(map(str, s.lexicon.entries))
    ingest(s, UMP("birds fly", p("fly(birds)")))
    after = set(map(str, s.lexicon.entries))
    assert len(after) == len(before) + 1 and before < after


# --- factor -----------------------------------------------------------------------

def x2_state():
    """The intermediate three-entry lexicon, before the second-pass split."""
    s = LearnerState()
    s.lexicon = load_lexicon(
        "the mouse\t:\td\tmouse\n"
        "the rat\t:\td\trat\n"
        "eats cheese\t:\t=d c\t\\y.eat(cheese)(y)\n")
    s.fresh_type_counter = 1
    s.endorsed = [U1, U2]
    return s


def test_factor_second_pass_segmentation():
    s = x2_state()
    al = align(s.lexicon.entries[0], s.lexicon.entries[1])
    factor(s, al)
    assert_isomorphic(s.lexicon, X21_TABLE)


def test_factor_nothing_shared_is_rejected():
    s = x2_state()
    al = align(s.lexicon.entries[0], s.lexicon.entries[2])
    assert al is None or al.residue_exponents[0] == []
    with pytest.raises(FactoringRegression):
        factor(s, align(s.lexicon.entries[0], s.lexicon.entries[0]) or
               _dummy_alignment(s))


def _dummy_alignment(s):
    from mgumt.learner import Alignment
    return Alignment("pair", [], ([], []), None, None,
                     source=s.lexicon.entries[0], target=s.lexicon.entries[0])


# --- express ----------------------------------------------------------------------

def test_express_from_learned_lexicons():
    s = teach(LearnerState(), U1, U2)
    assert express(s, p("eat(cheese)(rat)")).utterance == "the rat eats cheese"
    s = teach(s, U3)
    assert express(s, p("eat(carrot)(rat)")).utterance == "the rat eats carrot"
    s = teach(s, U4)
    assert express(s, p("eat(carrot)(rats)")).utterance == "the rats eats carrot"


def test_express_unrealizable_propagates():
    s = teach(LearnerState(), U1)
    with pytest.raises(Unrealizable):
        express(s, p("sleep(mouse)"))


# --- repair -----------------------------------------------------------------------

def full_session_state():
    s = teach(LearnerState(), U1, U2, U3, U4)
    repair(s, PUNISHED)
    return s


def test_repair_extracts_number_morphology():
    s = full_session_state()
    assert_isomorphic(s.lexicon, X41_TABLE)


def test_repair_blocks_punished_meaning():
    s = full_session_state()
    with pytest.raises(Unrealizable):
        express(s, p("eat(carrot)(rats)"))


def test_repair_keeps_endorsed_coverage():
    s = full_session_state()
    assert s.covers_endorsed()


def test_overgeneralization_until_suppletion():
    s = full_session_state()
    strings = {t.sign.exponent
               for t in complete_derivations(s.lexicon, 200).complete}
    assert "the mouses eats cheese" in strings
    assert "the rats eat cheese" in strings
    ingest(s, U5)
    strings = {t.sign.exponent
               for t in complete_derivations(s.lexicon, 200).complete}
    assert "the mouses eats cheese" not in strings
    assert "the mice eat cheese" in strings
    assert "the mouse eats cheese" in strings
    assert "the rats eat cheese" in strings


def test_repair_without_applicable_operator():
    s = teach(LearnerState(), U1)
    with pytest.raises(NoRepairFound):
        repair(s, ("the mouse eats cheese", p("sleep(mouse)")))
    assert_isomorphic(s.lexicon, X1_TABLE)
    assert s.revisions[-1] == "no repair found for 'the mouse eats cheese'; logged"


# --- invariants --------------------------------------------------------------------

def test_monotone_coverage_over_session_orders():
    corpus = [U1, U2, U3, U4]
    rng = random.Random(7)
    orders = set()
    while len(orders) < 8:
        orders.add(tuple(rng.sample(range(4), 4)))
    for order in sorted(orders):
        s = LearnerState()
        for i in order:
            ingest(s, corpus[i])
            assert s.covers_endorsed(), f"coverage broken at order {order}"


def test_factoring_conserves_exponents_and_meanings():
    s = teach(LearnerState(), U1, U2, U3, U4)
    for u in (U1, U2, U3, U4):
        hits = [t for t in complete_derivations(s.lexicon, 200).complete
                if t.sign.exponent == u.exponent]
        assert hits
        assert any(alpha_equivalent(t.sign.semantics, u.meaning) for t in hits)


def test_session_determinism():
    a = teach(LearnerState(), U1, U2, U3, U4)
    b = teach(LearnerState(), U1, U2, U3, U4)
    assert save_lexicon(a.lexicon) == save_lexicon(b.lexicon)
    repair(a, PUNISHED)
    repair(b, PUNISHED)
    assert save_lexicon(a.lexicon) == save_lexicon(b.lexicon)


def test_single_factoring_step_yields_intermediate_stage():
    # One factor application on the whole-sentence entry gives the
    # three-entry stage; the second-pass sweep then reaches the revised one.
    s = LearnerState()
    s.lexicon = load_lexicon(X1_TABLE)
    s.endorsed = [U1]
    al = align(U2, s.lexicon.entries[0])
    al.kind = "pair"
    factor(s, al)
    assert_isomorphic(s.lexicon, (
        "the mouse\t:\td\tmouse\n"
        "the rat\t:\td\trat\n"
        "eats cheese\t:\t=d c\t\\y.eat(cheese)(y)\n"))


# --- the fixture session, end to end ---------------------------------------------

SESSION_REVISIONS = [
    "stored whole pair ⟨the mouse eats cheese, eat(cheese)(mouse)⟩",
    "factored 'the rat eats cheese' / 'the mouse eats cheese' into "
    "['the rat', 'the mouse', 'eats cheese']",
    "factored 'the rat' / 'the mouse' into ['rat', 'mouse', 'the']",
    "segmented entry 'eats cheese' against 'the mouse eats carrot': "
    "['cheese', 'carrot', 'eats']",
    "analogy from 'the mouse eats cheese': added ['rats', 'eat']",
    "repair R1: morpheme split 'rat'/'rats': suffix -s, layer t5, "
    "licensee a4, rerouted ['the']",
    "blocked regular affixation of 'mouse' (irregular 'mice')",
    "slot entry 'mice' / mice from 'the rats eat cheese'",
]

SESSION_FINAL_LEXICON = """\
cheese\t::\tt3\tcheese
carrot\t::\tt3\tcarrot
eats\t::\t=t3 =t1 c\t\\w3.\\w1.eat(w3)(w1)
eat\t::\t=t3 =t1 c\t\\w3.\\w1.eat(w3)(w1)
rat\t::\tt2 -a4\trat
eps\t::\t=t2 +a4 t5\teps
-s\t::\t=t2 +a4 t5\teps
the\t::\t=t5 t1\teps
mice\t:\tt5\tmice
mouse\t::\tt2 -a6\tmouse
eps\t::\t=t2 +a6 t5\teps
"""


def test_fixture_session_outcome():
    _, learner = run_session(GoldGrammar(teaching_gold()), SESSION_SCRIPT)
    assert learner.revisions == SESSION_REVISIONS
    assert sorted(map(repr, learner.blacklist)) == []
    assert save_lexicon(learner.lexicon) == SESSION_FINAL_LEXICON


def test_fixture_session_needs_no_closure(monkeypatch):
    # the slot analogy reads the old pair's derivation off its parse
    def refuse(*_args, **_kwargs):
        raise AssertionError("the learner ran the bottom-up closure")

    monkeypatch.setattr("mgumt.learner.complete_derivations", refuse)
    test_fixture_session_outcome()


def test_fixture_session_compiles_each_lexicon_once(monkeypatch):
    compiled = []

    def counting(lex):
        compiled.append(lex)
        return compile_grammar(lex)

    monkeypatch.setattr("mgumt.learner.compile_grammar", counting)
    run_session(GoldGrammar(teaching_gold()), SESSION_SCRIPT)
    assert compiled
    assert len({save_lexicon(lex) for lex in compiled}) == len(compiled)


def test_fixture_session_parses_only_what_a_revision_can_break(monkeypatch):
    # 49 derivable calls and one repair check make 22 parses from `says`
    # (a witness answers 20 queries, a refusal kept for the same grammar 4,
    # and the empty lexicon 4), and the slot analogy's two lookups 2 more
    parses, calls = [], []
    real_parse, real_derivable = match_meaning, LearnerState.derivable

    def parse(*args):
        parses.append(args[1])
        return real_parse(*args)

    def derivable(self, ump):
        calls.append(ump)
        return real_derivable(self, ump)

    monkeypatch.setattr("mgumt.learner.match_meaning", parse)
    monkeypatch.setattr(LearnerState, "derivable", derivable)
    run_session(GoldGrammar(teaching_gold()), SESSION_SCRIPT)
    assert (len(calls), len(parses)) == (49, 24)


def test_parser_budget_is_not_underivable():
    # the all-aged reading is the last of old^10's 2^10 that the search
    # would meet, and its steps run out first: that is no answer, so it
    # must not read as "this pair does not derive"
    s = LearnerState(lexicon=load_lexicon(
        TABLE_ONE + "old\t::\t=n n\t\\x.old(x)\n"
        + "old\t::\t=n n\t\\x.aged(x)\n"))
    meaning = p("eat(cheese)(" + "aged(" * 10 + "mouse" + ")" * 11)
    with pytest.raises(ParserBudget):
        s.derivable(UMP("the " + "old " * 10 + "mouse eats cheese", meaning))
