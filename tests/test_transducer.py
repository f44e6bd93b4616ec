import pytest

from mgumt.fixtures import TABLE_ONE, table_one, teaching_gold
from mgumt.grammar import complete_derivations, load_lexicon
from mgumt.mcfg import compile_grammar, enumerate_strings
from mgumt.terms import alpha_equivalent, parse_term, render_term
from mgumt.transducer import (
    ParseRejected, SemanticStuck, Unrealizable, all_meanings, produce,
    recognize, understand, understand_utterance,
)

p = parse_term

X21 = """\
the\t::\t=n d\teps
mouse\t::\tn\tmouse
rat\t::\tn\trat
eats cheese\t:\t=d c\t\\y.eat(cheese)(y)
"""

X3 = """\
the\t::\t=n d\teps
mouse\t::\tn\tmouse
rat\t::\tn\trat
cheese\t::\tn\tcheese
carrot\t::\tn\tcarrot
eats\t::\t=n =d c\t\\x.\\y.eat(x)(y)
"""

X4 = X3 + """\
rats\t::\tn\trats
eat\t::\t=n =d c\t\\x.\\y.eat(x)(y)
"""


@pytest.fixture(scope="module")
def gold():
    return compile_grammar(table_one())


# --- syntactic recognition -------------------------------------------------------

TABLE_TWO_OPS = [
    "expand", "scan", "expand", "expand", "expand", "sort", "expand", "sort",
    "expand", "scan", "scan", "expand", "expand", "sort", "expand", "sort",
    "scan", "scan", "scan", "scan", "accept",
]

TABLE_TWO_DETAIL = [
    ("expand", "⟨:c⟩"), ("scan", ""), ("expand", "⟨:t⟩"),
    ("expand", "⟨:+k t, -k⟩"), ("expand", "⟨:+f +k t, -f, -k⟩"),
    ("sort", None), ("expand", "⟨:pred, -f, -k⟩"), ("sort", None),
    ("expand", "⟨:d -k⟩"), ("scan", "the"), ("scan", "mouse"),
    ("expand", "⟨:=d pred, -f⟩"), ("expand", "⟨:+k =d pred, -f, -k⟩"),
    ("sort", None), ("expand", "⟨:v -f, -k⟩"), ("sort", None),
    ("scan", "eat"), ("scan", "-s"), ("scan", "cheese"), ("scan", ""),
    ("accept", None),
]


def test_recognize_gold_trace_operations(gold):
    r = recognize(gold, "the mouse eats cheese")
    assert r.accepted
    assert len(r.steps) == 21
    assert r.operations() == TABLE_TWO_OPS
    for step, (op, detail) in zip(r.steps, TABLE_TWO_DETAIL):
        assert step.op == op
        if op == "expand":
            assert repr(step.rule.lhs) == detail
        elif op == "scan":
            assert step.rule.entry.exponent == detail


def test_recognize_gold_queue_snapshots(gold):
    r = recognize(gold, "the mouse eats cheese")
    rows = [" ".join(repr(it) for it in s.queue) for s in r.steps]
    assert rows[0] == "⟨:c⟩(ε)"
    assert rows[3] == "⟨:+k t, -k⟩(11, 10)"
    assert rows[6] == "⟨:pred, -f, -k⟩(1111, 110, 10) ⟨::=pred +f +k t⟩(1110)"
    assert rows[8] == ("⟨:d -k⟩(10) ⟨:=d pred, -f⟩(1111, 110) "
                       "⟨::=pred +f +k t⟩(1110)")
    assert rows[13] == ("⟨::=v +k =d pred⟩(11111) ⟨:v -f, -k⟩(110, 11110) "
                        "⟨::=pred +f +k t⟩(1110)")
    assert rows[20] == ""          # both tapes empty at accept
    # the suffix split leaves "-s cheese" on the tape
    assert r.steps[17].input == ("-s", "cheese")


def test_recognize_reject_position(gold):
    r = recognize(gold, "mouse the eats cheese")
    assert not r.accepted
    assert r.position == 0
    assert "the" in r.expected
    # oracle: the grammar's full (finite) string set excludes the permutation
    assert "mouse the eats cheese" not in enumerate_strings(gold, 20)


def test_recognize_empty_string_grammar():
    g = compile_grammar(load_lexicon("eps\t::\tc\tmouse\n"))
    r = recognize(g, "")
    assert r.accepted
    assert r.operations() == ["scan", "accept"]


def test_scan_count_accounts_for_epsilon_axioms(gold):
    r = recognize(gold, "the mouse eats cheese")
    scans = [s for s in r.steps if s.op == "scan"]
    overt = [s.rule.entry.exponent for s in scans if s.rule.entry.exponent]
    silent = [s for s in scans if not s.rule.entry.exponent]
    assert len(scans) == len(overt) + len(silent)
    from mgumt.grammar import fuse_tokens
    assert " ".join(fuse_tokens(" ".join(overt).split())) == "the mouse eats cheese"


# --- semantic processing ----------------------------------------------------------

def test_understand_gold_meaning_and_queue(gold):
    u = understand(gold, "the mouse eats cheese")
    assert alpha_equivalent(u.meaning, p("eat(cheese)(mouse)"))
    sort_steps = [s for s in u.steps if s.op == "sort"]
    assert len(sort_steps) == 1
    post_sort_idx = u.steps.index(sort_steps[0]) + 1
    queue = u.steps[post_sort_idx].queue
    assert [repr(it.index) for it in queue] == ["11111", "11110", "110", "101"]
    assert render_term(queue[0].term) == "\\P.\\Q.Q(P)"
    # the three index-shortening applications
    seen = [repr(it.index) for s in u.steps for it in s.queue]
    for idx in ("1111", "111", "11"):
        assert idx in seen
    assert u.steps[-1].op == "understand"
    assert repr(u.steps[-1].queue[0].index) == "11"


def test_understand_gold_trace_ops(gold):
    u = understand(gold, "the mouse eats cheese")
    ops = [s.op for s in u.steps]
    assert ops == ["scan", "apply", "scan", "apply", "scan", "scan", "scan",
                   "apply", "scan", "scan", "sort", "apply", "apply", "apply",
                   "apply", "understand"]


def test_understand_learned_lexicon():
    lex = load_lexicon(X21)
    # oracle: the derivation engine produces this UMP from the same lexicon
    signs = complete_derivations(lex, 10).complete_signs()
    assert any(s.exponent == "the rat eats cheese"
               and alpha_equivalent(s.semantics, p("eat(cheese)(rat)"))
               for s in signs)
    u = understand_utterance(lex, "the rat eats cheese")
    assert alpha_equivalent(u.meaning, p("eat(cheese)(rat)"))


def test_understand_single_word_grammar():
    u = understand_utterance(load_lexicon("mouse\t::\tc\tmouse\n"), "mouse")
    assert render_term(u.meaning) == "mouse"


def test_understand_rejects_cleanly(gold):
    with pytest.raises(ParseRejected):
        understand(gold, "cheese eats the mouse")


# --- production -------------------------------------------------------------------

def test_produce_gold():
    r = produce(table_one(), p("eat(cheese)(mouse)"))
    assert r.utterance == "the mouse eats cheese"
    assert r.alternatives == []


def test_produce_x3_novel_sentence():
    r = produce(load_lexicon(X3), p("eat(carrot)(rat)"))
    assert r.utterance == "the rat eats carrot"
    assert [s.rule for s in r.tree.steps()] == [
        "merge-1", "merge-1", "λ-app", "merge-2", "λ-app"]


def test_produce_x4_overgeneralizes_faithfully():
    r = produce(load_lexicon(X4), p("eat(carrot)(rats)"))
    assert r.utterance == "the rats eats carrot"
    assert r.alternatives == ["the rats eat carrot"]


def test_produce_unrealizable():
    with pytest.raises(Unrealizable):
        produce(table_one(), p("sleep(mouse)"))


def test_all_meanings():
    got = all_meanings(load_lexicon(X4), "the rats eats carrot")
    assert len(got) == 1
    assert alpha_equivalent(got[0], p("eat(carrot)(rats)"))
    assert all_meanings(load_lexicon(X4), "rats the carrot") == []
    homonym = load_lexicon(TABLE_ONE + "mouse\t::\tn\trodent\n")
    got = all_meanings(homonym, "the mouse eats cheese")
    assert [render_term(m) for m in got] == ["eat(cheese)(mouse)",
                                             "eat(cheese)(rodent)"]


# --- round trip -------------------------------------------------------------------

def test_round_trip_gold_every_meaning():
    lex = table_one()
    grammar = compile_grammar(lex)
    signs = complete_derivations(lex).complete_signs()
    assert signs
    for sign in signs:
        r = produce(lex, sign.semantics)
        u = understand(grammar, r.utterance)
        assert alpha_equivalent(u.meaning, sign.semantics)


def test_round_trip_teaching_gold():
    lex = teaching_gold()
    grammar = compile_grammar(lex)
    signs = complete_derivations(lex, 200).complete_signs()
    assert len(signs) == 8
    for sign in signs:
        r = produce(lex, sign.semantics, 200)
        u = understand(grammar, r.utterance)
        assert alpha_equivalent(u.meaning, sign.semantics)


def test_corpus_round_trip():
    from mgumt.transducer import load_corpus, save_corpus
    text = "the mouse eats cheese\teat(cheese)(mouse)\n# comment\nthe rat eats cheese\teat(cheese)(rat)\n"
    corpus = load_corpus(text)
    assert [u.exponent for u in corpus] == ["the mouse eats cheese",
                                            "the rat eats cheese"]
    again = load_corpus(save_corpus(corpus))
    assert again == corpus
    with pytest.raises(ValueError):
        load_corpus("only one field\n")
