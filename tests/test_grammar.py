import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import mgumt.grammar as grammar_module
from mgumt.fixtures import TABLE_ONE, TEACHING_GOLD, table_one, teaching_gold
from mgumt.grammar import (
    Expression, FeatureMismatch, Lexicon, LexiconError, NoRedex, Sign,
    SmcViolation, SyntacticType, check_lexical_type, complete_derivations,
    concat_exponents, derived_sign, expression_key, load_lexicon, merge, move,
    parse_features, parse_lexicon_line, reduce_step, render_features, replay,
    save_lexicon,
)
from mgumt.terms import alpha_equivalent, parse_term
from mgumt.transducer import produce

p = parse_term


def expr(*signs):
    return Expression(tuple(signs))


def sign(spec: str) -> Sign:
    return parse_lexicon_line(spec.replace(" | ", "\t"))


def test_feature_parsing_round_trip():
    feats = parse_features("=pred +f +k t -w")
    assert render_features(feats) == "=pred +f +k t -w"
    kinds = [f.kind for f in feats]
    assert kinds == ["sel", "pos", "pos", "base", "neg"]


def test_check_lexical_type():
    ok = lambda s: check_lexical_type(SyntacticType(True, parse_features(s)))
    assert ok("=pred +f +k t")
    assert ok("=v +k =d pred")
    assert not ok("n =d")
    assert not ok("=n +k")
    assert ok("n -k")


def test_exponent_fusion():
    assert concat_exponents("eat", "-s cheese") == "eats cheese"
    assert concat_exponents("", "-s cheese") == "-s cheese"
    assert concat_exponents("the mouse", "eats cheese") == "the mouse eats cheese"
    assert concat_exponents("rat", "-s") == "rats"
    assert concat_exponents("", "") == ""


def test_merge_1_the_mouse():
    the = sign("the | :: | =n d -k | eps")
    mouse = sign("mouse | :: | n | mouse")
    got, tag = merge(expr(the), expr(mouse))
    assert tag == "merge-1"
    assert got.signs == (derived_sign("the mouse", parse_features("d -k"),
                                      p("mouse")),)


def test_merge_3_eat_cheese():
    eat = sign("eat | :: | =n v -f | \\x.\\y.eat(x)(y)")
    cheese = sign("cheese | :: | n -k | cheese")
    got, tag = merge(expr(eat), expr(cheese))
    assert tag == "merge-3"
    assert [s.exponent for s in got.signs] == ["eat", "cheese"]
    assert [repr(s.stype) for s in got.signs] == [":v -f", ":-k"]
    # both semantics kept on their own signs
    assert got.signs[0].semantics == p("\\x.\\y.eat(x)(y)")
    assert got.signs[1].semantics == p("cheese")


def test_merge_2_subject():
    vp = sign("eats carrot | : | =d c | \\y.eat(carrot)(y)")
    dp = sign("the rat | : | d | rat")
    got, tag = merge(expr(vp), expr(dp))
    assert tag == "merge-2"
    head = got.signs[0]
    assert head.exponent == "the rat eats carrot"
    assert repr(head.stype) == ":c"
    assert head.semantics == p("(\\y.eat(carrot)(y))(rat)")


def test_merge_feature_mismatch():
    the = sign("the | :: | =n d -k | eps")
    vp = sign("eats carrot | : | =d c | \\y.eat(carrot)(y)")
    with pytest.raises(FeatureMismatch):
        merge(expr(the), expr(vp))


def test_move_1_case_assignment():
    a = expr(
        sign("eps | : | +k =d pred | \\P.\\Q.Q(P)"),
        sign("eat | : | -f | \\x.\\y.eat(x)(y)"),
        sign("cheese | : | -k | cheese"),
    )
    got, tag = move(a)
    assert tag == "move-1"
    assert [s.exponent for s in got.signs] == ["cheese", "eat"]
    assert repr(got.signs[0].stype) == ":=d pred"
    assert got.signs[0].semantics == p("(\\P.\\Q.Q(P))(cheese)")


def test_move_1_suffix_fusion():
    a = expr(
        sign("-s cheese | : | +f +k t | \\Q.Q(cheese)"),
        sign("eat | : | -f | \\x.\\y.eat(x)(y)"),
        sign("the mouse | : | -k | mouse"),
    )
    got, tag = move(a)
    assert tag == "move-1"
    assert got.signs[0].exponent == "eats cheese"


def test_move_2_keeps_chain():
    a = expr(
        sign("a | : | +w t1 | P"),
        sign("b | : | -w -k | Q"),
    )
    got, tag = move(a)
    assert tag == "move-2"
    assert [s.exponent for s in got.signs] == ["a", "b"]
    assert repr(got.signs[0].stype) == ":t1"
    assert repr(got.signs[1].stype) == ":-k"


def test_move_smc_violation():
    a = expr(
        sign("x | : | +k t | P"),
        sign("b | : | -k | Q"),
        sign("c | : | -k | R"),
    )
    with pytest.raises(SmcViolation):
        move(a)


def test_move_no_licensee():
    a = expr(sign("x | : | +k t | P"), sign("b | : | -f | Q"))
    with pytest.raises(FeatureMismatch):
        move(a)


def test_reduce_step_single():
    a = expr(sign("cheese | : | =d pred | (\\P.\\Q.Q(P))(cheese)"),
             sign("eat | : | -f | \\x.\\y.eat(x)(y)"))
    got = reduce_step(a)
    assert got.signs[0].semantics == p("\\Q.Q(cheese)")
    assert got.signs[1] == a.signs[1]


def test_reduce_step_no_redex():
    a = expr(sign("x | : | t | mouse"))
    with pytest.raises(NoRedex):
        reduce_step(a)


def test_lexicon_io_round_trip():
    lex = table_one()
    assert len(lex) == 7
    again = load_lexicon(save_lexicon(lex))
    assert [s for s in again] == [s for s in lex]


def test_lexicon_rejects_duplicates():
    e = sign("mouse | :: | n | mouse")
    with pytest.raises(LexiconError):
        Lexicon((e, e))


def test_lexicon_comments_and_blanks():
    lex = load_lexicon("# a comment\n\nmouse\t::\tn\tmouse\n")
    assert len(lex) == 1


# --- the published 13-step derivation -----------------------------------------

GOLD_TAGS = [
    "merge-1", "merge-3", "merge-3", "move-1", "λ-app", "merge-3", "merge-1",
    "move-1", "λ-app", "λ-app", "move-1", "λ-app", "merge-1",
]


def gold_target(search):
    for tree in search.complete:
        if tree.sign.exponent == "the mouse eats cheese":
            return tree
    raise AssertionError("gold sentence not derived")


def test_complete_derivations_table_one():
    search = complete_derivations(table_one(), 20)
    tree = gold_target(search)
    assert repr(tree.sign.stype) == ":c"
    assert alpha_equivalent(tree.sign.semantics, p("eat(cheese)(mouse)"))
    steps = tree.steps()
    assert [s.rule for s in steps] == GOLD_TAGS
    assert len(steps) == 13


def test_gold_derivation_intermediate_expressions():
    search = complete_derivations(table_one(), 20)
    steps = gold_target(search).steps()
    # step 4 (move-1) is the case assignment of the object
    got = steps[3].expression
    assert [s.exponent for s in got.signs] == ["cheese", "eat"]
    assert got.signs[0].semantics == p("(\\P.\\Q.Q(P))(cheese)")
    # step 8 fuses the inflection suffix
    assert steps[7].expression.signs[0].exponent == "eats cheese"
    # step 12 finishes the logical form
    assert alpha_equivalent(steps[11].expression.signs[0].semantics,
                            p("eat(cheese)(mouse)"))


def test_replay_reproduces_expressions():
    search = complete_derivations(table_one(), 20)
    tree = gold_target(search)
    assert expression_key(replay(tree)) == expression_key(tree.expression)


def test_complete_derivations_empty_lexicon():
    search = complete_derivations(Lexicon(()), 5)
    assert search.complete == []


def test_complete_derivations_whole_sentence_entry():
    lex = load_lexicon("the mouse eats cheese\t:\tc\teat(cheese)(mouse)\n")
    search = complete_derivations(lex, 5)
    assert [t.sign.exponent for t in search.complete] == ["the mouse eats cheese"]


def test_budget_exhaustion_reported():
    # One application is too few for a two-entry grammar needing one merge.
    lex = load_lexicon("a\t::\t=x c\teps\nb\t::\tx\tb\n")
    tight = complete_derivations(lex, 1)
    assert [t.sign.exponent for t in tight.complete] == ["a b"]
    lonely = complete_derivations(
        load_lexicon("a\t::\t=x c\tf\nb\t::\tx -q\tb\nq\t::\t=c +q c\teps\n"), 2)
    assert lonely.budget_exhausted


RECURSIVE_OLD = TABLE_ONE + "old\t::\t=n n\t\\x.old(x)\n"
CLOSURE_LEXICONS = [
    TABLE_ONE, TEACHING_GOLD, RECURSIVE_OLD,
    RECURSIVE_OLD + "old\t::\t=n n\t\\x.aged(x)\n",
    TABLE_ONE + "that\t::\t=c n -k\t\\p.that(p)\nrat\t::\tn\trat\n",
    TABLE_ONE + "old\t::\t=n n -k\t\\x.old(x)\n",
]


def closure_dump(text: str, budget: int) -> str:
    search = complete_derivations(load_lexicon(text), budget)
    lines = [repr(t.expression) for t in search.trees]
    for tree in search.complete:
        lines.append("complete")
        lines += [f"{s.rule}\t{s.expression!r}" for s in tree.steps()]
    lines.append(f"exhausted {search.budget_exhausted}")
    return "\n".join(lines) + "\n"


def test_closure_output_pinned():
    # every tree, every complete derivation and the budget flag, as the
    # closure gave them when it still tried every pair of trees
    digest = hashlib.sha256()
    for text in CLOSURE_LEXICONS:
        for budget in (8, 12, 16):
            digest.update(closure_dump(text, budget).encode())
    assert digest.hexdigest() == (
        "d82ddcd8dd98993e7f4ae4ac48f85ec56c203750512417052e77a5f0dbe6ad40")


def test_closure_never_renders(monkeypatch):
    # a merge or move that does not apply costs no rendering of its premises
    def refuse(*args, **kwargs):
        raise AssertionError("the derivation search rendered a term")

    monkeypatch.setattr(grammar_module, "render_sign", refuse)
    monkeypatch.setattr(grammar_module, "render_term", refuse)
    assert complete_derivations(teaching_gold()).complete
    result = produce(table_one(), p("eat(cheese)(mouse)"))
    assert result.utterance == "the mouse eats cheese"


# --- randomized structure properties -------------------------------------------

IDENTS = ["n", "v", "d", "k", "f", "w"]


@st.composite
def random_expressions(draw):
    n_signs = draw(st.integers(1, 4))
    signs = []
    for i in range(n_signs):
        feats = [parse_features(draw(st.sampled_from(
            ["=n d", "n", "+k t", "=v +k pred", "d -k", "-k", "-f", "v -f",
             "=d c", "t"])))]
        exponent = draw(st.sampled_from(["", "the", "mouse", "eats cheese", "rat"]))
        signs.append(derived_sign(exponent, feats[0], p("mouse")))
    return Expression(tuple(signs))


def token_multiset(e: Expression):
    toks = []
    for s in e.signs:
        toks.extend(s.exponent.split())
    return sorted(toks)


@settings(max_examples=300, deadline=None)
@given(random_expressions(), random_expressions())
def test_property_merge_laws(a, b):
    try:
        got, tag = merge(a, b)
    except FeatureMismatch:
        return
    # feature consumption: result head lost exactly the first feature
    assert got.signs[0].stype.features == a.head.stype.features[1:]
    total_before = sum(len(s.stype.features) for s in a.signs + b.signs)
    total_after = sum(len(s.stype.features) for s in got.signs)
    assert total_before - total_after == 2
    # exponent conservation (no suffix tokens in the generator)
    assert token_multiset(got) == sorted(token_multiset(a) + token_multiset(b))


@settings(max_examples=300, deadline=None)
@given(random_expressions())
def test_property_move_laws(a):
    try:
        got, tag = move(a)
    except (FeatureMismatch, SmcViolation):
        licensee_heads = [s.stype.features[0].ident for s in a.signs[1:]
                          if s.stype.features and s.stype.features[0].kind == "neg"]
        head = a.head.stype.features
        if head and head[0].kind == "pos":
            competing = licensee_heads.count(head[0].ident)
            assert competing != 1
        return
    assert got.signs[0].stype.features == a.head.stype.features[1:]
    total_before = sum(len(s.stype.features) for s in a.signs)
    total_after = sum(len(s.stype.features) for s in got.signs)
    assert total_before - total_after == 2
    assert token_multiset(got) == token_multiset(a)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5), st.randoms(use_true_random=False))
def test_property_smc_detection(n, rng):
    chains = tuple(
        derived_sign("w%d" % i, parse_features("-k"), p("mouse"))
        for i in range(n))
    a = Expression((derived_sign("h", parse_features("+k t"), p("P")),) + chains)
    with pytest.raises(SmcViolation):
        move(a)


def test_x3_budget_ten_contains_novel_sentence():
    x3 = load_lexicon(
        "the\t::\t=n d\teps\nmouse\t::\tn\tmouse\nrat\t::\tn\trat\n"
        "cheese\t::\tn\tcheese\ncarrot\t::\tn\tcarrot\n"
        "eats\t::\t=n =d c\t\\x.\\y.eat(x)(y)\n")
    search = complete_derivations(x3, 10)
    assert any(t.sign.exponent == "the rat eats carrot"
               and alpha_equivalent(t.sign.semantics, p("eat(carrot)(rat)"))
               for t in search.complete)
