import pytest
from hypothesis import given, settings, strategies as st

from mgumt.fixtures import TABLE_ONE, TEACHING_GOLD, table_one
from mgumt.grammar import (
    Lexicon, complete_derivations, load_lexicon, parse_features,
)
from mgumt.mcfg import (
    ROOT, ArityMismatch, EmptyLexicon, NodeIndex, assign_child_indices,
    compile_grammar, enumerate_strings, render_rule, rule_dump,
)


def idx(digits: str) -> NodeIndex:
    return NodeIndex(tuple(int(d) for d in digits))


@pytest.fixture(scope="module")
def gold():
    return compile_grammar(table_one())


def structural(grammar):
    return [r for r in grammar.rules if not r.is_axiom]


def test_gold_rule_counts(gold):
    assert len(gold.rules) == 16
    assert len(structural(gold)) == 9
    assert sum(r.is_axiom for r in gold.rules) == 7


def test_gold_rules_match_published_grammar(gold):
    got = {render_rule(r) for r in gold.rules}
    expected = {
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
    assert got == expected


def test_two_entry_lexicon():
    # Oracle: hand enumeration.  Only merge-1 applies (selector is lexical,
    # selectee spent), so one structural rule plus two axioms.
    lex = load_lexicon("b\t::\tx\tb\na\t::\t=x c\teps\n")
    g = compile_grammar(lex)
    assert len(structural(g)) == 1
    assert sum(r.is_axiom for r in g.rules) == 2
    assert render_rule(structural(g)[0]) == "⟨:c⟩(e0 e1) <- ⟨::=x c⟩(e0) ⟨::x⟩(e1)"


def test_unreachable_axiom_pruned():
    lex = load_lexicon(
        "b\t::\tx\tb\na\t::\t=x c\teps\nz\t::\tq\tz\n")
    g = compile_grammar(lex)
    exponents = {r.entry.exponent for r in g.rules if r.is_axiom}
    assert exponents == {"a", "b"}


def test_empty_lexicon_raises():
    with pytest.raises(EmptyLexicon):
        compile_grammar(Lexicon(()))


def test_category_component_suffix_invariant(gold):
    suffixes = set()
    for e in table_one():
        feats = e.stype.features
        suffixes.update(feats[i:] for i in range(len(feats)))
    for rule in gold.rules:
        for cat in (rule.lhs, *rule.rhs):
            for comp in cat.components:
                assert comp in suffixes


def test_linearity(gold):
    for rule in structural(gold):
        slots = [s for comp in rule.pattern for s in comp]
        assert len(slots) == len(set(slots))
        assert set(slots) == {(r, c) for r, cat in enumerate(rule.rhs)
                              for c in range(cat.arity)}


# --- index algebra -------------------------------------------------------------

def test_index_order_published_chain():
    chain = [idx("100"), idx("101"), idx("110"), idx("1110"), idx("11110")]
    assert chain == sorted(chain)
    for a, b in zip(chain, chain[1:]):
        assert a < b and not b < a and a != b


def test_index_order_root_smallest():
    assert ROOT < idx("0") < idx("1")
    assert idx("10") == idx("10") and not idx("10") < idx("10")


def _rule(gold, lhs_repr):
    for r in structural(gold):
        if repr(r.lhs) == lhs_repr:
            return r
    raise AssertionError(lhs_repr)


def test_assign_child_indices_rule_one(gold):
    rule = _rule(gold, "⟨:c⟩")
    (a,), (b,) = assign_child_indices(rule, [ROOT])
    assert (repr(a), repr(b)) == ("0", "1")


def test_assign_child_indices_unmove(gold):
    rule = _rule(gold, "⟨:t⟩")
    (child,) = assign_child_indices(rule, [idx("1")])
    assert tuple(map(repr, child)) == ("11", "10")


def test_assign_child_indices_three_components(gold):
    rule = _rule(gold, "⟨:=d pred, -f⟩")
    (child,) = assign_child_indices(rule, [idx("1111"), idx("110")])
    assert tuple(map(repr, child)) == ("11111", "110", "11110")


def test_assign_child_indices_arity_checked(gold):
    rule = _rule(gold, "⟨:c⟩")
    with pytest.raises(ArityMismatch):
        assign_child_indices(rule, [ROOT, idx("1")])


digit_tuples = st.lists(st.integers(0, 3), max_size=300).map(tuple)


@settings(max_examples=300, deadline=None)
@given(digit_tuples, st.integers(0, 300), digit_tuples)
def test_node_index_agrees_with_digit_tuples(a, cut, extra):
    # the index algebra as it was defined on tuples of ints; b shares a
    # prefix with a, so prefixes, extensions and equal pairs all occur
    b = a[:cut] + extra[:cut % 5]
    x, y = NodeIndex(a), NodeIndex(b)
    assert (x < y, x <= y, x > y, x >= y) == (a < b, a <= b, a > b, a >= b)
    assert (x == y) == (a == b)
    assert hash(x) == hash(y) or a != b
    assert hash(x) == hash(NodeIndex(a))
    assert repr(x) == ("".join(str(d) for d in a) or "ε")
    assert len(x) == len(a)
    if a:
        assert x.parent() == NodeIndex(a[:-1])
    assert sorted([x, y]) == [NodeIndex(d) for d in sorted([a, b])]


# --- weak equivalence of engine and compiled grammar ----------------------------

def mg_strings(lex, depth):
    search = complete_derivations(lex, max_rule_applications=4 * depth)
    return {t.sign.exponent for t in search.complete
            if t.structural_size <= depth and not t.sign.stype.lexical}


def test_equivalence_gold(gold):
    depth = 15
    assert mg_strings(table_one(), depth) == enumerate_strings(gold, depth)


def test_equivalence_random_small_lexicons():
    import random
    rng = random.Random(20240817)
    checked = 0
    while checked < 20:
        lex = _random_lexicon(rng)
        if lex is None:
            continue
        g = compile_grammar(lex)
        depth = 15
        assert mg_strings(lex, depth) == enumerate_strings(g, depth), \
            f"mismatch for\n{lex}"
        checked += 1


def _random_lexicon(rng):
    """Five entries over a tiered base hierarchy (selection only goes down a
    tier, so languages stay finite) with random movement features."""
    from mgumt.grammar import LexiconError, Sign, SyntacticType
    from mgumt.terms import v
    tiers = {"c": 2, "x": 1, "y": 0}
    moves = ["k", "w"]
    words = ["pa", "ko", "mi", "tu", "ra"]
    entries = []
    for i in range(5):
        result = "c" if i == 0 else rng.choice(list(tiers))
        lower = [b for b in tiers if tiers[b] < tiers[result]]
        feats = []
        for _ in range(rng.randrange(0, 3)):
            if lower and rng.random() < 0.7:
                feats.append("=" + rng.choice(lower))
            else:
                feats.append("+" + rng.choice(moves))
        feats.append(result)
        for _ in range(rng.randrange(0, 2)):
            feats.append("-" + rng.choice(moves))
        exponent = rng.choice(words + [""])
        entries.append(Sign(
            exponent, SyntacticType(True, parse_features(" ".join(feats))),
            v("s%d" % i)))
    try:
        return Lexicon(tuple(entries))
    except LexiconError:
        return None


# --- pinned rule dumps ------------------------------------------------------------

RECURSIVE_OLD = TABLE_ONE + "old\t::\t=n n\t\\x.old(x)\n"
LICENSEE_OLD = TABLE_ONE + "old\t::\t=n n -k\t\\x.old(x)\n"
EMBEDDING = TABLE_ONE + "that\t::\t=c n -k\t\\p.that(p)\nrat\t::\tn\trat\n"
# the fixture session's final learner lexicon: invented categories and a
# ":" entry
LEARNED = """\
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

TEACHING_GOLD_DUMP = """\
⟨:+f +kpl t, -f, -kpl⟩(e0 e1, e2, e3) <- ⟨::=pred +f +kpl t⟩(e0) ⟨:pred, -f, -kpl⟩(e1, e2, e3)
⟨:+f +ksg t, -f, -ksg⟩(e0 e1, e2, e3) <- ⟨::=pred +f +ksg t⟩(e0) ⟨:pred, -f, -ksg⟩(e1, e2, e3)
⟨:+k =d pred, -f, -k⟩(e0, e1, e2) <- ⟨::=v +k =d pred⟩(e0) ⟨:v -f, -k⟩(e1, e2)
⟨:+kpl t, -kpl⟩(e1 e0, e2) <- ⟨:+f +kpl t, -f, -kpl⟩(e0, e1, e2)
⟨:+ksg t, -ksg⟩(e1 e0, e2) <- ⟨:+f +ksg t, -f, -ksg⟩(e0, e1, e2)
⟨::=n v -f⟩(eat)
⟨::=npl d -kpl⟩(the)
⟨::=nsg d -ksg⟩(the)
⟨::=pred +f +kpl t⟩(ε)
⟨::=pred +f +ksg t⟩(-s)
⟨::=t c⟩(ε)
⟨::=v +k =d pred⟩(ε)
⟨::n -k⟩(cheese)
⟨::n -k⟩(carrot)
⟨::npl⟩(rats)
⟨::npl⟩(mice)
⟨::nsg⟩(mouse)
⟨::nsg⟩(rat)
⟨:=d pred, -f⟩(e2 e0, e1) <- ⟨:+k =d pred, -f, -k⟩(e0, e1, e2)
⟨:c⟩(e0 e1) <- ⟨::=t c⟩(e0) ⟨:t⟩(e1)
⟨:d -kpl⟩(e0 e1) <- ⟨::=npl d -kpl⟩(e0) ⟨::npl⟩(e1)
⟨:d -ksg⟩(e0 e1) <- ⟨::=nsg d -ksg⟩(e0) ⟨::nsg⟩(e1)
⟨:pred, -f, -kpl⟩(e0, e1, e2) <- ⟨:=d pred, -f⟩(e0, e1) ⟨:d -kpl⟩(e2)
⟨:pred, -f, -ksg⟩(e0, e1, e2) <- ⟨:=d pred, -f⟩(e0, e1) ⟨:d -ksg⟩(e2)
⟨:t⟩(e1 e0) <- ⟨:+kpl t, -kpl⟩(e0, e1)
⟨:t⟩(e1 e0) <- ⟨:+ksg t, -ksg⟩(e0, e1)
⟨:v -f, -k⟩(e0, e1) <- ⟨::=n v -f⟩(e0) ⟨::n -k⟩(e1)
"""

RECURSIVE_OLD_DUMP = """\
⟨:+f +k t, -f, -k⟩(e0 e1, e2, e3) <- ⟨::=pred +f +k t⟩(e0) ⟨:pred, -f, -k⟩(e1, e2, e3)
⟨:+k =d pred, -f, -k⟩(e0, e1, e2) <- ⟨::=v +k =d pred⟩(e0) ⟨:v -f, -k⟩(e1, e2)
⟨:+k t, -k⟩(e1 e0, e2) <- ⟨:+f +k t, -f, -k⟩(e0, e1, e2)
⟨::=n d -k⟩(the)
⟨::=n n⟩(old)
⟨::=n v -f⟩(eat)
⟨::=pred +f +k t⟩(-s)
⟨::=t c⟩(ε)
⟨::=v +k =d pred⟩(ε)
⟨::n -k⟩(cheese)
⟨::n⟩(mouse)
⟨:=d pred, -f⟩(e2 e0, e1) <- ⟨:+k =d pred, -f, -k⟩(e0, e1, e2)
⟨:c⟩(e0 e1) <- ⟨::=t c⟩(e0) ⟨:t⟩(e1)
⟨:d -k⟩(e0 e1) <- ⟨::=n d -k⟩(e0) ⟨::n⟩(e1)
⟨:d -k⟩(e0 e1) <- ⟨::=n d -k⟩(e0) ⟨:n⟩(e1)
⟨:n, -k⟩(e0 e1, e2) <- ⟨::=n n⟩(e0) ⟨:n, -k⟩(e1, e2)
⟨:n, -k⟩(e0, e1) <- ⟨::=n n⟩(e0) ⟨::n -k⟩(e1)
⟨:n⟩(e0 e1) <- ⟨::=n n⟩(e0) ⟨::n⟩(e1)
⟨:n⟩(e0 e1) <- ⟨::=n n⟩(e0) ⟨:n⟩(e1)
⟨:pred, -f, -k⟩(e0, e1, e2) <- ⟨:=d pred, -f⟩(e0, e1) ⟨:d -k⟩(e2)
⟨:t⟩(e1 e0) <- ⟨:+k t, -k⟩(e0, e1)
⟨:v -f, -k⟩(e0 e1, e2) <- ⟨::=n v -f⟩(e0) ⟨:n, -k⟩(e1, e2)
⟨:v -f, -k⟩(e0, e1) <- ⟨::=n v -f⟩(e0) ⟨::n -k⟩(e1)
"""

EMBEDDING_DUMP = """\
⟨:+f +k t, -f, -k⟩(e0 e1, e2, e3) <- ⟨::=pred +f +k t⟩(e0) ⟨:pred, -f, -k⟩(e1, e2, e3)
⟨:+k =d pred, -f, -k⟩(e0, e1, e2) <- ⟨::=v +k =d pred⟩(e0) ⟨:v -f, -k⟩(e1, e2)
⟨:+k t, -k⟩(e1 e0, e2) <- ⟨:+f +k t, -f, -k⟩(e0, e1, e2)
⟨::=c n -k⟩(that)
⟨::=n d -k⟩(the)
⟨::=n v -f⟩(eat)
⟨::=pred +f +k t⟩(-s)
⟨::=t c⟩(ε)
⟨::=v +k =d pred⟩(ε)
⟨::n -k⟩(cheese)
⟨::n⟩(mouse)
⟨::n⟩(rat)
⟨:=d pred, -f⟩(e2 e0, e1) <- ⟨:+k =d pred, -f, -k⟩(e0, e1, e2)
⟨:c⟩(e0 e1) <- ⟨::=t c⟩(e0) ⟨:t⟩(e1)
⟨:d -k⟩(e0 e1) <- ⟨::=n d -k⟩(e0) ⟨::n⟩(e1)
⟨:n -k⟩(e0 e1) <- ⟨::=c n -k⟩(e0) ⟨:c⟩(e1)
⟨:pred, -f, -k⟩(e0, e1, e2) <- ⟨:=d pred, -f⟩(e0, e1) ⟨:d -k⟩(e2)
⟨:t⟩(e1 e0) <- ⟨:+k t, -k⟩(e0, e1)
⟨:v -f, -k⟩(e0, e1) <- ⟨::=n v -f⟩(e0) ⟨::n -k⟩(e1)
⟨:v -f, -k⟩(e0, e1) <- ⟨::=n v -f⟩(e0) ⟨:n -k⟩(e1)
"""

LEARNED_DUMP = """\
⟨:+a4 t5, -a4⟩(e0, e1) <- ⟨::=t2 +a4 t5⟩(e0) ⟨::t2 -a4⟩(e1)
⟨:+a6 t5, -a6⟩(e0, e1) <- ⟨::=t2 +a6 t5⟩(e0) ⟨::t2 -a6⟩(e1)
⟨::=t2 +a4 t5⟩(ε)
⟨::=t2 +a4 t5⟩(-s)
⟨::=t2 +a6 t5⟩(ε)
⟨::=t3 =t1 c⟩(eats)
⟨::=t3 =t1 c⟩(eat)
⟨::=t5 t1⟩(the)
⟨::t2 -a4⟩(rat)
⟨::t2 -a6⟩(mouse)
⟨::t3⟩(cheese)
⟨::t3⟩(carrot)
⟨:=t1 c⟩(e0 e1) <- ⟨::=t3 =t1 c⟩(e0) ⟨::t3⟩(e1)
⟨:c⟩(e1 e0) <- ⟨:=t1 c⟩(e0) ⟨:t1⟩(e1)
⟨:t1⟩(e0 e1) <- ⟨::=t5 t1⟩(e0) ⟨:t5⟩(e1)
⟨:t5⟩(e1 e0) <- ⟨:+a4 t5, -a4⟩(e0, e1)
⟨:t5⟩(e1 e0) <- ⟨:+a6 t5, -a6⟩(e0, e1)
⟨:t5⟩(mice)
"""

LICENSEE_OLD_DUMP = """\
⟨:+f +k t, -f, -k⟩(e0 e1, e2, e3) <- ⟨::=pred +f +k t⟩(e0) ⟨:pred, -f, -k⟩(e1, e2, e3)
⟨:+k =d pred, -f, -k⟩(e0, e1, e2) <- ⟨::=v +k =d pred⟩(e0) ⟨:v -f, -k⟩(e1, e2)
⟨:+k t, -k⟩(e1 e0, e2) <- ⟨:+f +k t, -f, -k⟩(e0, e1, e2)
⟨::=n d -k⟩(the)
⟨::=n n -k⟩(old)
⟨::=n v -f⟩(eat)
⟨::=pred +f +k t⟩(-s)
⟨::=t c⟩(ε)
⟨::=v +k =d pred⟩(ε)
⟨::n -k⟩(cheese)
⟨::n⟩(mouse)
⟨:=d pred, -f⟩(e2 e0, e1) <- ⟨:+k =d pred, -f, -k⟩(e0, e1, e2)
⟨:c⟩(e0 e1) <- ⟨::=t c⟩(e0) ⟨:t⟩(e1)
⟨:d -k⟩(e0 e1) <- ⟨::=n d -k⟩(e0) ⟨::n⟩(e1)
⟨:n -k⟩(e0 e1) <- ⟨::=n n -k⟩(e0) ⟨::n⟩(e1)
⟨:pred, -f, -k⟩(e0, e1, e2) <- ⟨:=d pred, -f⟩(e0, e1) ⟨:d -k⟩(e2)
⟨:t⟩(e1 e0) <- ⟨:+k t, -k⟩(e0, e1)
⟨:v -f, -k⟩(e0, e1) <- ⟨::=n v -f⟩(e0) ⟨::n -k⟩(e1)
⟨:v -f, -k⟩(e0, e1) <- ⟨::=n v -f⟩(e0) ⟨:n -k⟩(e1)
"""


@pytest.mark.parametrize("text,dump", [
    (TEACHING_GOLD, TEACHING_GOLD_DUMP),
    # `the` over `old cheese` gives ⟨:d -k, -k⟩, whose two -k chains can
    # never move: the closure drops it
    (RECURSIVE_OLD, RECURSIVE_OLD_DUMP),
    (EMBEDDING, EMBEDDING_DUMP),
    (LEARNED, LEARNED_DUMP),
    # each `old` over a ⟨:n -k, ...⟩ would add a -k chain; dropping items
    # with two is what ends the closure
    (LICENSEE_OLD, LICENSEE_OLD_DUMP),
], ids=["teaching-gold", "recursive-old", "embedding", "learned",
        "licensee-old"])
def test_rule_dump_pinned(text, dump):
    assert rule_dump(compile_grammar(load_lexicon(text))) == dump
