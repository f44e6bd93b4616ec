"""Acceptance suite: the eight published checks, one pass/fail line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as they
print.  Every tolerance is pinned here: exponents and operation sequences
compare exactly, logical forms up to alpha-equivalence, learned types up to
one functional renaming of grammar-internal idents.
"""

import random
import sys

import pytest
from iso import X21_TABLE, X3_TABLE, X41_TABLE, X4_TABLE, X1_TABLE, isomorphic

from mgumt.fixtures import SESSION_SCRIPT, table_one, teaching_gold
from mgumt.grammar import (
    Expression, FeatureMismatch, Lexicon, Sign, SmcViolation, SyntacticType,
    complete_derivations, derived_sign, load_lexicon, merge, move,
    parse_features,
)
from mgumt.mcfg import compile_grammar, enumerate_strings, render_rule
from mgumt.teacher import GoldGrammar, Verdict, judge, run_session
from mgumt.terms import (
    EMPTY, Abs, App, NonTerminating, SubtermNotFound, Var, VariableName,
    abstract, all_names, alpha_equivalent, beta_reduce, free_vars,
    parse_term, subterms, substitute, v,
)
from mgumt.transducer import Unrealizable, produce, recognize, understand

p = parse_term


def report(n, text):
    print(f"\ncriterion {n}: PASS — {text}", file=sys.stderr)


# --- 1. gold derivation -------------------------------------------------------------

def test_criterion_1_gold_derivation():
    search = complete_derivations(table_one(), 20)
    tree = next(t for t in search.complete
                if t.sign.exponent == "the mouse eats cheese")
    tags = [s.rule for s in tree.steps()]
    assert tags == ["merge-1", "merge-3", "merge-3", "move-1", "λ-app",
                    "merge-3", "merge-1", "move-1", "λ-app", "λ-app",
                    "move-1", "λ-app", "merge-1"]
    assert tree.sign.exponent == "the mouse eats cheese"
    assert repr(tree.sign.stype) == ":c"
    assert alpha_equivalent(tree.sign.semantics, p("eat(cheese)(mouse)"))
    report(1, "13-step derivation with published rule tags and final sign")


# --- 2. MCFG compilation ------------------------------------------------------------

PUBLISHED_RULES = {
    "⟨:c⟩(e0 e1) <- ⟨::=t c⟩(e0) ⟨:t⟩(e1)",
    "⟨:t⟩(e1 e0) <- ⟨:+k t, -k⟩(e0, e1)",
    "⟨:+k t, -k⟩(e1 e0, e2) <- ⟨:+f +k t, -f, -k⟩(e0, e1, e2)",
    "⟨:+f +k t, -f, -k⟩(e0 e1, e2, e3) <- ⟨::=pred +f +k t⟩(e0) ⟨:pred, -f, -k⟩(e1, e2, e3)",
    "⟨:pred, -f, -k⟩(e0, e1, e2) <- ⟨:=d pred, -f⟩(e0, e1) ⟨:d -k⟩(e2)",
    "⟨:=d pred, -f⟩(e2 e0, e1) <- ⟨:+k =d pred, -f, -k⟩(e0, e1, e2)",
    "⟨:+k =d pred, -f, -k⟩(e0, e1, e2) <- ⟨::=v +k =d pred⟩(e0) ⟨:v -f, -k⟩(e1, e2)",
    "⟨:v -f, -k⟩(e0, e1) <- ⟨::=n v -f⟩(e0) ⟨::n -k⟩(e1)",
    "⟨:d -k⟩(e0 e1) <- ⟨::=n d -k⟩(e0) ⟨::n⟩(e1)",
    "⟨::n⟩(mouse)",
    "⟨::n -k⟩(cheese)",
    "⟨::=n d -k⟩(the)",
    "⟨::=n v -f⟩(eat)",
    "⟨::=pred +f +k t⟩(-s)",
    "⟨::=v +k =d pred⟩(ε)",
    "⟨::=t c⟩(ε)",
}


def test_criterion_2_mcfg_compilation():
    grammar = compile_grammar(table_one())
    got = {render_rule(r) for r in grammar.rules}
    assert got == PUBLISHED_RULES          # no extra, no missing
    assert len(grammar.rules) == 16
    assert sum(r.is_axiom for r in grammar.rules) == 7
    report(2, "exactly 16 rules, 9 structural + 7 axioms, as published")


# --- 3. syntactic trace -------------------------------------------------------------

TABLE_TWO = [
    ("expand", "⟨:c⟩"), ("scan", "ε"), ("expand", "⟨:t⟩"),
    ("expand", "⟨:+k t, -k⟩"), ("expand", "⟨:+f +k t, -f, -k⟩"),
    ("sort", None), ("expand", "⟨:pred, -f, -k⟩"), ("sort", None),
    ("expand", "⟨:d -k⟩"), ("scan", "the"), ("scan", "mouse"),
    ("expand", "⟨:=d pred, -f⟩"), ("expand", "⟨:+k =d pred, -f, -k⟩"),
    ("sort", None), ("expand", "⟨:v -f, -k⟩"), ("sort", None),
    ("scan", "eat"), ("scan", "-s"), ("scan", "cheese"), ("scan", "ε"),
    ("accept", None),
]

TABLE_TWO_QUEUES = [
    "⟨:c⟩(ε)",
    "⟨::=t c⟩(0) ⟨:t⟩(1)",
    "⟨:t⟩(1)",
    "⟨:+k t, -k⟩(11, 10)",
    "⟨:+f +k t, -f, -k⟩(111, 110, 10)",
    "⟨::=pred +f +k t⟩(1110) ⟨:pred, -f, -k⟩(1111, 110, 10)",
    "⟨:pred, -f, -k⟩(1111, 110, 10) ⟨::=pred +f +k t⟩(1110)",
    "⟨:=d pred, -f⟩(1111, 110) ⟨:d -k⟩(10) ⟨::=pred +f +k t⟩(1110)",
    "⟨:d -k⟩(10) ⟨:=d pred, -f⟩(1111, 110) ⟨::=pred +f +k t⟩(1110)",
    "⟨::=n d -k⟩(100) ⟨::n⟩(101) ⟨:=d pred, -f⟩(1111, 110) ⟨::=pred +f +k t⟩(1110)",
    "⟨::n⟩(101) ⟨:=d pred, -f⟩(1111, 110) ⟨::=pred +f +k t⟩(1110)",
    "⟨:=d pred, -f⟩(1111, 110) ⟨::=pred +f +k t⟩(1110)",
    "⟨:+k =d pred, -f, -k⟩(11111, 110, 11110) ⟨::=pred +f +k t⟩(1110)",
    "⟨::=v +k =d pred⟩(11111) ⟨:v -f, -k⟩(110, 11110) ⟨::=pred +f +k t⟩(1110)",
    "⟨:v -f, -k⟩(110, 11110) ⟨::=pred +f +k t⟩(1110) ⟨::=v +k =d pred⟩(11111)",
    "⟨::=n v -f⟩(110) ⟨::n -k⟩(11110) ⟨::=pred +f +k t⟩(1110) ⟨::=v +k =d pred⟩(11111)",
    "⟨::=n v -f⟩(110) ⟨::=pred +f +k t⟩(1110) ⟨::n -k⟩(11110) ⟨::=v +k =d pred⟩(11111)",
    "⟨::=pred +f +k t⟩(1110) ⟨::n -k⟩(11110) ⟨::=v +k =d pred⟩(11111)",
    "⟨::n -k⟩(11110) ⟨::=v +k =d pred⟩(11111)",
    "⟨::=v +k =d pred⟩(11111)",
    "",
]


def test_criterion_3_syntactic_trace():
    grammar = compile_grammar(table_one())
    result = recognize(grammar, "the mouse eats cheese")
    assert result.accepted
    assert len(result.steps) == 21
    for step, (op, detail) in zip(result.steps, TABLE_TWO):
        assert step.op == op
        if op == "expand":
            assert repr(step.rule.lhs) == detail
        elif op == "scan":
            assert (step.rule.entry.exponent or "ε") == detail
    queues = [" ".join(repr(i) for i in s.queue) for s in result.steps]
    assert queues == TABLE_TWO_QUEUES
    report(3, "21-row top-down parse matches the published trace")


# --- 4. semantic trace --------------------------------------------------------------

def test_criterion_4_semantic_trace():
    grammar = compile_grammar(table_one())
    result = understand(grammar, "the mouse eats cheese")
    assert result.steps[-1].op == "understand"
    assert alpha_equivalent(result.meaning, p("eat(cheese)(mouse)"))
    sorts = [i for i, s in enumerate(result.steps) if s.op == "sort"]
    assert len(sorts) == 1
    post = result.steps[sorts[0] + 1].queue
    assert [repr(item.index) for item in post] == ["11111", "11110", "110", "101"]
    indices = [repr(item.index) for s in result.steps for item in s.queue]
    for idx in ("1111", "111", "11"):
        assert idx in indices      # the three index-shortening applications
    assert repr(result.steps[-1].queue[0].index) == "11"
    report(4, "understand state reached with the published queue evolution")


# --- 5. production ------------------------------------------------------------------

def test_criterion_5_production():
    assert produce(table_one(), p("eat(cheese)(mouse)")).utterance \
        == "the mouse eats cheese"
    x3 = load_lexicon(X3_TABLE)
    got = produce(x3, p("eat(carrot)(rat)"))
    assert got.utterance == "the rat eats carrot"
    assert [s.rule for s in got.tree.steps()] == [
        "merge-1", "merge-1", "λ-app", "merge-2", "λ-app"]
    x4 = load_lexicon(X4_TABLE)
    assert produce(x4, p("eat(carrot)(rats)")).utterance \
        == "the rats eats carrot"
    report(5, "gold, novel and faithfully overgeneralized productions")


# --- 6. learning session ------------------------------------------------------------

def test_criterion_6_learning_session():
    gold = GoldGrammar(teaching_gold())
    log, learner = run_session(gold, SESSION_SCRIPT)
    teach_snaps = []
    seen_times = set()
    for t, lex in log.snapshots():
        teach_snaps.append((t, lex))
    # snapshots after each teach / repair event, in order
    counts = [len(lex) for _, lex in teach_snaps]
    assert counts == [1, 4, 4, 6, 6, 8, 9, 11]
    stages = [teach_snaps[0][1], teach_snaps[1][1], teach_snaps[3][1],
              teach_snaps[5][1], teach_snaps[6][1]]
    for lex, table, name in zip(
            stages, (X1_TABLE, X21_TABLE, X3_TABLE, X4_TABLE, X41_TABLE),
            ("X1", "X21", "X3", "X4", "X41")):
        assert isomorphic(lex, table), f"snapshot {name} does not match"
    # post-repair: the punished pair is gone for its meaning
    x41 = teach_snaps[6][1]
    with pytest.raises(Unrealizable):
        produce(x41, p("eat(carrot)(rats)"), 200)
    strings_41 = {t.sign.exponent
                  for t in complete_derivations(x41, 200).complete}
    assert "the mouses eats cheese" in strings_41      # until mice is taught
    final = teach_snaps[7][1]
    strings_final = {t.sign.exponent
                     for t in complete_derivations(final, 200).complete}
    assert "the mouses eats cheese" not in strings_final
    assert "the mice eat cheese" in strings_final
    report(6, "session reaches X1, X21, X3, X4, X41; repair and blocking behave")


# --- 7. teacher verdicts ------------------------------------------------------------

def test_criterion_7_teacher_verdicts():
    gold = GoldGrammar(teaching_gold())
    assert judge(gold, "the rat eats cheese", p("eat(cheese)(rat)")) \
        is Verdict.ENDORSE
    assert judge(gold, "the rats eats carrot", p("eat(carrot)(rats)")) \
        is Verdict.REJECT_UNGRAMMATICAL
    report(7, "endorse and reject-ungrammatical verdicts as published")


# --- 8. property suites -------------------------------------------------------------

CONSTANTS = ["eat", "mouse", "cheese", "rat", "carrot", "give"]


def random_term(rng, depth, free):
    options = ["const"] + (["var"] if free else []) \
        + (["app", "abs"] if depth > 0 else [])
    kind = rng.choice(options)
    if kind == "const":
        return v(rng.choice(CONSTANTS))
    if kind == "var":
        return Var(rng.choice(sorted(free, key=str)))
    if kind == "app":
        return App(random_term(rng, depth - 1, free),
                   random_term(rng, depth - 1, free))
    binder = VariableName(f"b{rng.randrange(4)}_{depth}")
    body = random_term(rng, depth - 1, free | {binder})
    if binder not in free_vars(body):
        body = App(body, Var(binder))
    return Abs(binder, body)


def _nf(t):
    try:
        return beta_reduce(t, 2000)
    except NonTerminating:
        return None


def test_criterion_8a_lambda_properties():
    rng = random.Random(1905)
    checked = 0
    while checked < 1000:
        t = random_term(rng, rng.randrange(6), frozenset())
        nf = _nf(t)
        if nf is None:
            continue
        checked += 1
        # reduction idempotence
        assert alpha_equivalent(beta_reduce(nf), nf)
        # abstraction/application inverse on a safe occurrence
        cands = [s for s in subterms(t)
                 if s is not EMPTY and free_vars(s) <= free_vars(t)]
        s = cands[rng.randrange(len(cands))]
        fresh = VariableName("zz9")
        if fresh not in all_names(t):
            try:
                tpl = abstract(t, s, fresh)
                back = _nf(App(tpl, s))
                if back is not None:
                    assert alpha_equivalent(back, nf)
            except SubtermNotFound:
                pass
        # substitution free-variable law
        fv = free_vars(t)
        if fv:
            target = sorted(fv, key=str)[0]
            u = random_term(rng, 2, frozenset())
            got = substitute(t, target, u)
            assert free_vars(got) <= (fv - {target}) | free_vars(u)
    report("8a", "1000 random terms: idempotence, inverse, substitution law")


IDENTS = ["n", "v", "d", "k", "f"]
WORDS = ["", "the", "mouse", "rat", "eats cheese"]


def random_expression(rng, head=None):
    def shape():
        feats = []
        for _ in range(rng.randrange(0, 2)):
            feats.append(rng.choice("=+") + rng.choice(IDENTS))
        feats.append(rng.choice(IDENTS))
        for _ in range(rng.randrange(0, 2)):
            feats.append("-" + rng.choice(IDENTS))
        return " ".join(feats)

    def chain():
        return "-" + rng.choice(IDENTS) + (" -" + rng.choice(IDENTS)
                                           if rng.random() < 0.3 else "")

    signs = [derived_sign(rng.choice(WORDS),
                          parse_features(head if head else shape()), v("s"))]
    for _ in range(rng.randrange(0, 3)):
        signs.append(derived_sign(rng.choice(WORDS),
                                  parse_features(chain()), v("s")))
    return Expression(tuple(signs))


def _tokens(e):
    return sorted(t for s in e.signs for t in s.exponent.split())


def test_criterion_8b_kernel_properties():
    rng = random.Random(42)
    merges = moves = 0
    for i in range(4000):
        if i % 2:
            a, b = random_expression(rng), random_expression(rng)
        else:
            # steer half the samples toward matching feature pairs
            f = rng.choice(IDENTS)
            a = random_expression(rng, head=f"={f} " + rng.choice(IDENTS))
            b = random_expression(rng, head=f + (" -" + rng.choice(IDENTS)
                                                 if rng.random() < 0.5 else ""))
            if rng.random() < 0.5:
                a = random_expression(rng, head=f"+{f} " + rng.choice(IDENTS))
        try:
            got, _tag = merge(a, b)
            merges += 1
            assert got.signs[0].stype.features == a.head.stype.features[1:]
            before = sum(len(s.stype.features) for s in a.signs + b.signs)
            after = sum(len(s.stype.features) for s in got.signs)
            assert before - after == 2
            assert _tokens(got) == sorted(_tokens(a) + _tokens(b))
        except FeatureMismatch:
            pass
        try:
            got, _tag = move(a)
            moves += 1
            assert got.signs[0].stype.features == a.head.stype.features[1:]
            assert _tokens(got) == _tokens(a)
        except FeatureMismatch:
            pass
        except SmcViolation:
            head = a.head.stype.features
            competing = [s for s in a.signs[1:]
                         if s.stype.features
                         and s.stype.features[0].kind == "neg"
                         and s.stype.features[0].ident == head[0].ident]
            assert len(competing) >= 2
    assert merges > 100 and moves > 100
    report("8b", f"feature/exponent laws over {merges} merges, {moves} moves")


def _mg_strings(lex, depth):
    search = complete_derivations(lex, max_rule_applications=4 * depth)
    return {t.sign.exponent for t in search.complete
            if t.structural_size <= depth}


def _random_lexicon(rng):
    from mgumt.grammar import LexiconError
    tiers = {"c": 2, "x": 1, "y": 0}
    entries = []
    for i in range(5):
        result = "c" if i == 0 else rng.choice(sorted(tiers))
        lower = [b for b in tiers if tiers[b] < tiers[result]]
        feats = []
        for _ in range(rng.randrange(0, 3)):
            if lower and rng.random() < 0.7:
                feats.append("=" + rng.choice(lower))
            else:
                feats.append("+" + rng.choice("kw"))
        feats.append(result)
        for _ in range(rng.randrange(0, 2)):
            feats.append("-" + rng.choice("kw"))
        entries.append(Sign(rng.choice(["pa", "ko", "mi", "tu", "ra", ""]),
                            SyntacticType(True, parse_features(" ".join(feats))),
                            v("s%d" % i)))
    try:
        return Lexicon(tuple(entries))
    except LexiconError:
        return None


def test_criterion_8c_weak_equivalence():
    depth = 15
    gold = table_one()
    assert _mg_strings(gold, depth) == enumerate_strings(compile_grammar(gold), depth)
    rng = random.Random(77)
    checked = 0
    while checked < 20:
        lex = _random_lexicon(rng)
        if lex is None:
            continue
        assert _mg_strings(lex, depth) == \
            enumerate_strings(compile_grammar(lex), depth)
        checked += 1
    report("8c", "string sets of engine and MCFG agree at depth 15 "
                 "(gold + 20 random lexicons)")


def test_criterion_8d_round_trip():
    total = 0
    for lex, budget in ((table_one(), None), (teaching_gold(), 200)):
        grammar = compile_grammar(lex)
        signs = complete_derivations(lex, budget).complete_signs()
        assert signs
        for sign in signs:
            said = produce(lex, sign.semantics, budget)
            heard = understand(grammar, said.utterance)
            assert alpha_equivalent(heard.meaning, sign.semantics)
        total += len(signs)
    assert total == 9
    report("8d", f"understand(produce(m)) = m for all {total} gold meanings")
