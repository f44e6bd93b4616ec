import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from mgumt.fixtures import TABLE_ONE, table_one, teaching_gold
from mgumt.grammar import (
    LexiconError, complete_derivations, expression_key, load_lexicon, replay,
)
from mgumt import transducer
from mgumt.learner import LearnerState
from mgumt.mcfg import assign_child_indices, compile_grammar, enumerate_strings
from mgumt.terms import (
    EMPTY, App, alpha_canonical, alpha_equivalent, constants, parse_term,
    render_term, v,
)
from mgumt.transducer import (
    UMP, ParseRejected, ParserBudget, Unrealizable, all_meanings, derivation,
    derivations, produce, recognize, understand,
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


def test_leftover_input_expects_end_of_input(gold):
    r = recognize(gold, "the mouse eats cheese extra")
    assert (r.accepted, r.position, r.expected) == (False, 4, frozenset())
    with pytest.raises(ParseRejected, match="expected one of: end of input$"):
        understand(gold, "the mouse eats cheese extra")


def test_empty_language_names_the_start_symbol():
    # nothing derives c: no position or expected token says why it rejects
    grammar = compile_grammar(load_lexicon("mouse\t::\tn\tmouse\n"))
    assert grammar.start_categories == []
    with pytest.raises(ParseRejected,
                       match="^the lexicon derives no sentence of category c$"):
        understand(grammar, "mouse")


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
    u = understand(compile_grammar(lex), "the rat eats cheese")
    assert alpha_equivalent(u.meaning, p("eat(cheese)(rat)"))


def test_understand_single_word_grammar():
    u = understand(compile_grammar(load_lexicon("mouse\t::\tc\tmouse\n")),
                   "mouse")
    assert render_term(u.meaning) == "mouse"


def test_understand_rejects_cleanly(gold):
    with pytest.raises(ParseRejected):
        understand(gold, "cheese eats the mouse")


def test_understand_reduces_scanned_redex():
    lex = load_lexicon("mouse\t::\tc\t(\\x.x)(mouse)\n")
    u = understand(compile_grammar(lex), "mouse")
    assert render_term(u.meaning) == "mouse"
    assert [s.op for s in u.steps] == ["scan", "apply", "understand"]


# meanings follow the derivation: a modifier applies inside the subject, an
# embedded clause is the argument of its complementiser, a move-2 chain keeps
# its meaning until it lands, and a constant head is applied like any other
DERIVATION_CASES = {
    "modifier": (TABLE_ONE + "old\t::\t=n n\t\\x.old(x)\n",
                 "the old mouse eats cheese", "eat(cheese)(old(mouse))"),
    "embedding": (TABLE_ONE + "that\t::\t=c n -k\t\\p.that(p)\n"
                  "rat\t::\tn\trat\n",
                  "the rat eats that the mouse eats cheese",
                  "eat(that(eat(cheese)(mouse)))(rat)"),
    "move-2": ("mouse\t::\td -k -q\tmouse\n"
               "sleeps\t::\t=d +k v\t\\x.sleep(x)\n"
               "eps\t::\t=v +q c\t\\P.P\n",
               "mouse sleeps", "sleep(mouse)"),
    "constant-head": (TABLE_ONE.replace("\\x.\\y.eat(x)(y)", "eat"),
                      "the mouse eats cheese", "eat(cheese)(mouse)"),
}


@pytest.mark.parametrize("lexicon,sentence,meaning",
                         DERIVATION_CASES.values(), ids=DERIVATION_CASES)
def test_understand_composes_along_derivation(lexicon, sentence, meaning):
    grammar = compile_grammar(load_lexicon(lexicon))
    assert render_term(understand(grammar, sentence).meaning) == meaning


def test_move_two_rule_is_exercised():
    grammar = compile_grammar(load_lexicon(DERIVATION_CASES["move-2"][0]))
    parse = recognize(grammar, "mouse sleeps")
    assert "move-2" in {s.rule.provenance for s in parse.steps
                        if s.op == "expand"}


# --- differential: understand against the bottom-up engine -----------------------

# Heads select one tier down (c > x > y), so every generated language is
# finite; licensee chains of one or two features exercise move-1 and move-2.
CLAUSES = ["=x c", "=x +k c", "=x +w c", "=x +k +w c", "=x +w +k c",
           "=x =y c", "=x +k =y c", "=y c", "=y +k c"]
PHRASES = ["=y x", "=y x -k", "=y =y x", "=y +k x", "=y +w =y x", "x",
           "x -k", "x -k -w", "y", "y -k", "y -w", "y -k -w", "y -w -k"]
SEMANTICS = ["eps", "{c}", "\\a.{c}(a)", "\\a.\\b.{c}(a)(b)",
             "\\P.\\Q.Q(P)", "\\a.a"]


@st.composite
def tiered_lexicons(draw):
    lines = []
    for i in range(draw(st.integers(2, 6))):
        feats = draw(st.sampled_from(PHRASES if i else CLAUSES))
        exponent = draw(st.sampled_from(["eps", "pa", "ko", "mi", "tu"]))
        sem = draw(st.sampled_from(SEMANTICS)).format(c=f"s{i}")
        lines.append(f"{exponent}\t::\t{feats}\t{sem}\n")
    return "".join(lines)


@settings(max_examples=300, deadline=None)
@given(tiered_lexicons())
def test_property_understand_agrees_with_all_meanings(text):
    try:
        lex = load_lexicon(text)
    except LexiconError:
        return      # a drawn entry repeats another
    grammar = compile_grammar(lex)
    search = complete_derivations(lex, 16)
    derived = {}
    for t in search.complete:
        derived.setdefault(t.sign.exponent, []).append(t.sign.semantics)
    for exponent, closure in derived.items():
        parsed = all_meanings(grammar, exponent)
        # the parser finds every meaning the closure derives, and no more
        # when the closure ran to the end
        assert all(any(alpha_equivalent(m, n) for n in parsed)
                   for m in closure), (text, exponent)
        if not search.budget_exhausted:
            assert len(parsed) == len(closure), (text, exponent)
        meaning = understand(grammar, exponent).meaning
        assert alpha_equivalent(meaning, parsed[0]), (text, exponent)


@settings(max_examples=150, deadline=None)
@given(tiered_lexicons())
def test_property_learner_says_what_the_closure_derives(text):
    try:
        lex = load_lexicon(text)
    except LexiconError:
        return      # a drawn entry repeats another
    search = complete_derivations(lex, 16)
    if search.budget_exhausted:
        return
    derived = {}
    for t in search.complete:
        derived.setdefault(t.sign.exponent, {})[
            alpha_canonical(t.sign.semantics)] = t.sign.semantics
    learner = LearnerState(lexicon=lex)
    every = {k: m for meanings in derived.values() for k, m in meanings.items()}
    for exponent, meanings in derived.items():
        for meaning in meanings.values():
            assert learner.derivable(UMP(exponent, meaning)), (text, exponent)
        for meaning in [App(m, m) for m in meanings.values()] + list(every.values()):
            if alpha_canonical(meaning) not in meanings:
                assert not learner.derivable(UMP(exponent, meaning)), (
                    text, exponent)


@settings(max_examples=500, deadline=None)
@given(tiered_lexicons(), tiered_lexicons(), st.data())
def test_property_witness_answers_as_a_fresh_parse(text, extra, data):
    # a lexicon that keeps a pair's witness entries, whatever else it drops
    # or adds, answers as a learner that parses it afresh (about one drawn
    # lexicon in six derives a sentence, hence the example count)
    try:
        lex, more = load_lexicon(text), load_lexicon(extra)
    except LexiconError:
        return      # a drawn entry repeats another
    search = complete_derivations(lex, 16)
    pairs = {(t.sign.exponent, alpha_canonical(t.sign.semantics)): t.sign.semantics
             for t in search.complete}
    if not pairs:
        return
    learner = LearnerState(lexicon=lex)
    (exponent, key), meaning = data.draw(st.sampled_from(list(pairs.items())))
    assert learner.says(exponent, meaning)
    witness = learner.witnesses[exponent, key]
    revised = lex.without([e for k, e in lex._keys.items() if k not in witness
                           and data.draw(st.booleans())])
    for entry in more:
        if data.draw(st.booleans()):
            revised = revised.with_entry(entry)
    # and one that loses a witness entry parses again
    lost = revised.without([revised._keys[data.draw(st.sampled_from(sorted(
        witness, key=repr)))]])
    queries = [(x, m) for (x, _), m in pairs.items()]
    queries += [(exponent, App(meaning, meaning))]
    for lexicon in (revised, lost):
        for utterance, m in queries:
            warm = learner.clone()
            warm.lexicon = lexicon
            try:
                expected = LearnerState(lexicon=lexicon).says(utterance, m)
            except ParserBudget:
                continue
            assert warm.says(utterance, m) == expected, (text, extra, utterance)


# --- meaning-bounded search against the full closure -----------------------------

def derivation_record(tree):
    return (tree.sign.exponent,
            [(node.rule, repr(node.expression)) for node in tree.steps()])


def assert_bounded_search_agrees(lex, budget):
    """For every meaning the closure derives, the search bounded by it finds
    the same derivations of it, in the same order; for meanings it does not
    derive, the bounded search finds none."""
    full = complete_derivations(lex, budget)
    meanings = {}
    for t in full.complete:
        meanings.setdefault(alpha_canonical(t.sign.semantics), t.sign.semantics)
    for key, meaning in meanings.items():
        bounded = complete_derivations(lex, budget, meaning=meaning)
        assert ([derivation_record(t) for t in bounded.complete
                 if alpha_canonical(t.sign.semantics) == key]
                == [derivation_record(t) for t in full.complete
                    if alpha_canonical(t.sign.semantics) == key])
    names = set()
    for entry in lex.entries:
        names.update(constants(entry.semantics))
    absent = ([EMPTY] + [App(m, m) for m in meanings.values()]
              + [v(name) for name in sorted(names)])
    for meaning in absent:
        key = alpha_canonical(meaning)
        if key in meanings:
            continue
        bounded = complete_derivations(lex, budget, meaning=meaning)
        assert all(alpha_canonical(t.sign.semantics) != key
                   for t in bounded.complete)


@settings(max_examples=150, deadline=None)
@given(tiered_lexicons())
def test_property_bounded_search_equals_filtered_search(text):
    try:
        lex = load_lexicon(text)
    except LexiconError:
        return      # a drawn entry repeats another
    assert_bounded_search_agrees(lex, 16)


RECURSIVE_OLD = TABLE_ONE + "old\t::\t=n n\t\\x.old(x)\n"


def test_bounded_search_recursive_modifier():
    assert_bounded_search_agrees(load_lexicon(RECURSIVE_OLD), 16)


def test_pruned_trees_do_not_exhaust_the_budget():
    # the meaning has no `old`, so no `old` tree is built and none can go
    # over the budget: the bounded search runs to the end, and its failure
    # means that no derivation exists
    lex = load_lexicon(RECURSIVE_OLD)
    assert complete_derivations(lex, 16).budget_exhausted
    meaning = p("eat(mouse)(cheese)")
    assert not complete_derivations(lex, 16, meaning=meaning).budget_exhausted
    with pytest.raises(Unrealizable) as caught:
        produce(lex, meaning, 16)
    assert "budget exhausted" not in str(caught.value)
    # a merge whose result outgrows both the budget and the meaning is
    # dropped for the meaning, though both its premises fit
    lex = load_lexicon("a\t::\t=x c\t\\y.g(b)(y)\nb\t::\tx\tb\n")
    assert complete_derivations(lex, 1).budget_exhausted
    assert not complete_derivations(lex, 1, meaning=p("g(b)")).budget_exhausted


# --- derivations read off the parse ----------------------------------------------

HOMOPHONE_TEXT = RECURSIVE_OLD + "old\t::\t=n n\t\\x.aged(x)\n"
EMBEDDING_TEXT = DERIVATION_CASES["embedding"][0]
# sentences the closure's 16 steps do not reach
DEEPER = {
    EMBEDDING_TEXT: ["the rat eats that the mouse eats cheese",
                     "the rat eats that the rat eats that the mouse eats cheese"],
    HOMOPHONE_TEXT: ["the old mouse eats cheese", "the old old mouse eats cheese"],
}


@settings(max_examples=300, deadline=None)
@given(st.one_of(tiered_lexicons(), st.sampled_from(sorted(DEEPER))))
def test_property_derivation_agrees_with_compose_and_closure(text):
    # on every accepting path, the replayed derivation means what the
    # semantic queue composes and replays under merge and move; wherever
    # the closure ran to the end, its tree for a reading is one of the
    # reading's replayed derivations.  It need not be the first: with
    # `=y =y x` both as \P.\Q.Q(P) and as eps, and `y` as s3, the empty
    # sentence means s3(s3) by either entry, and the parser meets the
    # λ-app derivation first where the closure keeps the smaller one.
    try:
        lex = load_lexicon(text)
    except LexiconError:
        return      # a drawn entry repeats another
    grammar = compile_grammar(lex)
    search = complete_derivations(lex, 16)
    closure = {} if search.budget_exhausted else {
        (t.sign.exponent, alpha_canonical(t.sign.semantics)): t
        for t in search.complete}
    sentences = {t.sign.exponent for t in search.complete}
    for sentence in sorted(sentences.union(DEEPER.get(text, ()))):
        readings = {}
        for path in transducer._parses(grammar, sentence, transducer.MAX_STEPS):
            meaning, _deltas = transducer._compose(path, transducer.MAX_STEPS)
            tree = derivation(path)
            assert alpha_equivalent(tree.sign.semantics, meaning), (text, sentence)
            assert expression_key(replay(tree)) == expression_key(tree.expression)
            readings.setdefault(alpha_canonical(meaning), []).append(
                derivation_record(tree))
        assert ([derivation_record(t) for t in derivations(grammar, sentence)]
                == [records[0] for records in readings.values()])
        for key, records in readings.items():
            twin = closure.get((sentence, key))
            if twin is not None:
                assert derivation_record(twin) in records, (text, sentence)


@pytest.mark.parametrize("text,sentence", [
    (TABLE_ONE, "the mouse eats cheese"),
    *((EMBEDDING_TEXT, sentence) for sentence in DEEPER[EMBEDDING_TEXT]),
    *((HOMOPHONE_TEXT, sentence) for sentence in DEEPER[HOMOPHONE_TEXT]),
], ids=["table-one", "embedding-1", "embedding-2", "old", "old-old"])
def test_derivations_are_the_bounded_closures(text, sentence):
    # every reading's replayed derivation is the one the closure bounded by
    # its meaning finds first
    lex = load_lexicon(text)
    trees = derivations(compile_grammar(lex), sentence)
    assert trees
    for tree in trees:
        search = complete_derivations(lex, 60, meaning=tree.sign.semantics)
        assert not search.budget_exhausted
        key = alpha_canonical(tree.sign.semantics)
        twin = next(t for t in search.complete if t.sign.exponent == sentence
                    and alpha_canonical(t.sign.semantics) == key)
        assert derivation_record(tree) == derivation_record(twin)

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
    x4 = compile_grammar(load_lexicon(X4))
    got = all_meanings(x4, "the rats eats carrot")
    assert len(got) == 1
    assert alpha_equivalent(got[0], p("eat(carrot)(rats)"))
    assert all_meanings(x4, "rats the carrot") == []
    homonym = compile_grammar(load_lexicon(TABLE_ONE + "mouse\t::\tn\trodent\n"))
    got = all_meanings(homonym, "the mouse eats cheese")
    assert [render_term(m) for m in got] == ["eat(cheese)(mouse)",
                                             "eat(cheese)(rodent)"]


HOMOPHONES = compile_grammar(load_lexicon(
    TABLE_ONE + "old\t::\t=n n\t\\x.old(x)\n"
    + "old\t::\t=n n\t\\x.aged(x)\n"))


def test_all_meanings_homophones():
    # each old is either entry: four parses, four meanings
    got = all_meanings(HOMOPHONES, "the old old mouse eats cheese")
    assert sorted(render_term(m) for m in got) == [
        "eat(cheese)(aged(aged(mouse)))", "eat(cheese)(aged(old(mouse)))",
        "eat(cheese)(old(aged(mouse)))", "eat(cheese)(old(old(mouse)))"]


def test_parser_budget_boundary():
    # each of the 2^k readings of a grammatical old^k is an accepting path
    # of its own: 512 of them fit 10,000 steps, 1,024 do not
    got = all_meanings(HOMOPHONES, "the " + "old " * 9 + "mouse eats cheese")
    assert len(got) == 512
    with pytest.raises(ParserBudget):
        all_meanings(HOMOPHONES, "the " + "old " * 10 + "mouse eats cheese")


def test_rejection_is_linear_in_homophones(monkeypatch):
    # the two readings of each old lead to the same search state, which is
    # searched once: the expansions grow with k, not with 2^k
    made = []

    def counting(rule, indices):
        made.append(rule)
        return assign_child_indices(rule, indices)

    monkeypatch.setattr("mgumt.transducer.assign_child_indices", counting)
    ks = (5, 10, 20, 40)
    counts = []
    for k in ks:
        made.clear()
        r = recognize(HOMOPHONES, "the " + "old " * k + "mouse cheese eats")
        assert not r.accepted
        assert (r.position, r.expected) == (k + 2, {"eat"})
        counts.append(len(made))
    # expansions per further old do not grow with k
    slopes = [(c1 - c0) / (k1 - k0) for k0, k1, c0, c1
              in zip(ks, ks[1:], counts, counts[1:])]
    assert slopes[-1] <= slopes[0]


def test_dead_states_keep_every_reading():
    for k in range(9):
        got = all_meanings(HOMOPHONES, "the " + "old " * k + "mouse eats cheese")
        assert len({render_term(m) for m in got}) == 2 ** k


def test_embedding_trace_unchanged():
    # the trace of a depth-10 embedding, as the parser gave it before the
    # queue merge and the dead states
    grammar = compile_grammar(load_lexicon(DERIVATION_CASES["embedding"][0]))
    sentence = " ".join(["the rat eats that"] * 10 + ["the mouse eats cheese"])
    trace = recognize(grammar, sentence).render()
    assert len(trace.splitlines()) == 231
    assert hashlib.sha256(trace.encode()).hexdigest() == (
        "fa0873e54b15b861a7dfa272cfc8c817ac3fb3650b296bb47f4e0a011983cb8e")


def test_semantic_rows_are_built_when_read(gold, monkeypatch):
    # the meanings come from the fold alone; the rows wait for a reader, and
    # then are the ones the semantic queue gave when it kept every row
    def refuse(*_args):
        raise AssertionError("semantic rows built")

    real = transducer._semantic_rows
    monkeypatch.setattr(transducer, "_semantic_rows", refuse)
    grammar = compile_grammar(load_lexicon(DERIVATION_CASES["embedding"][0]))
    deep = understand(grammar, " ".join(["the rat eats that"] * 60
                                        + ["the mouse eats cheese"]))
    assert render_term(deep.meaning).count("that(") == 60
    short = understand(gold, "the mouse eats cheese")
    assert render_term(short.meaning) == "eat(cheese)(mouse)"
    assert len(all_meanings(HOMOPHONES, "the old old mouse eats cheese")) == 4
    monkeypatch.setattr(transducer, "_semantic_rows", real)
    assert short.steps is short.steps
    for understood, rows, digest in [
            (deep, 916, "7bcf3c85d4ba7534ddf3ed67746102151"
                        "ba80903b96cd68dd7ee1bf42b9bc686"),
            (short, 16, "dc710f955a37758ea8eee9182d24e73ab"
                        "ee6000de7e23e10a25c72183dfd585e")]:
        trace = understood.render()
        assert len(trace.splitlines()) == rows
        assert hashlib.sha256(trace.encode()).hexdigest() == digest


def test_deep_traces_unchanged():
    # everything a depth-60 embedding, its rejection and the homophones'
    # readings print, as the parser gave it with tuple node indices
    grammar = compile_grammar(load_lexicon(DERIVATION_CASES["embedding"][0]))
    words = " ".join(["the rat eats that"] * 60 + ["the mouse eats cheese"])
    understood = understand(grammar, words)
    parts = [recognize(grammar, words).render(), understood.render(),
             render_term(understood.meaning)]
    with pytest.raises(ParseRejected) as rejected:
        understand(grammar, words.replace("eats cheese", "cheese eats"))
    parts.append(str(rejected.value))
    for k in range(9):
        got = all_meanings(HOMOPHONES, "the " + "old " * k + "mouse eats cheese")
        parts.append(" | ".join(map(render_term, got)))
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == (
        "c12673d093bef006b4418bad0bc2ccba69f29f23f98fc0bc3e98c13cf35a1fb4")


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

