import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st
from iso import X1_TABLE, X21_TABLE, X3_TABLE, X41_TABLE, X4_TABLE, assert_isomorphic
from test_transducer import tiered_lexicons

from mgumt.fixtures import SESSION_SCRIPT, TABLE_ONE, teaching_gold
from mgumt.grammar import (
    LexiconError, Sign, complete_derivations, load_lexicon, save_lexicon,
)
from mgumt.learner import (
    LearnerState, NoRepairFound, _as_pseudo_sign, _gaps,
    _overgeneralization_waived, _revise, align, common_blocks, express,
    ingest, repair, semantic_diff,
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
    a, b = al.semantic_residues
    assert (render_term(a), render_term(b)) == ("mouse", "rat")


def test_align_against_entry():
    entry = load_lexicon(X21_TABLE).entries[3]
    al = align(U3, entry)
    assert al is not None
    assert al.shared_exponent_segments == [["eats"]]
    assert al.residue_exponents == (["carrot"], ["cheese"])


def test_align_none_without_common_material():
    assert align(U1, UMP("birds fly", p("fly(birds)"))) is None


def _recursive_blocks(a, b):
    """The oracle: the leftmost longest common block, then the same
    decomposition of what lies before it and of what lies after it."""
    best_len, best = 0, None
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            if k > best_len:
                best_len, best = k, (i, j)
    if not best_len:
        return []
    i, j = best
    right = [(i + best_len + di, j + best_len + dj, n) for di, dj, n
             in _recursive_blocks(a[i + best_len:], b[j + best_len:])]
    return _recursive_blocks(a[:i], b[:j]) + [(i, j, best_len)] + right


TOKEN_LISTS = st.lists(st.sampled_from("abc"), max_size=12)


@settings(max_examples=500, deadline=None)
@given(TOKEN_LISTS, TOKEN_LISTS)
def test_property_common_blocks_recursive_decomposition(a, b):
    assert [tuple(blk) for blk in common_blocks(a, b)] == _recursive_blocks(a, b)


def test_semantic_diff_folds_differences():
    # None only for α-equal terms; differences in both parts of an
    # application fold into the application
    assert semantic_diff(p("\\x.eat(cheese)(x)"), p("\\y.eat(cheese)(y)")) is None
    pairs = [("\\x.eat(cheese)(x)", "\\y.eat(carrot)(y)", "cheese", "carrot"),
             ("eat(cheese)(mouse)", "eat(carrot)(rat)",
              "eat(cheese)(mouse)", "eat(carrot)(rat)")]
    for a, b, *want in pairs:
        got = semantic_diff(p(a), p(b))
        assert list(map(render_term, got)) == want


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


# --- one revision -----------------------------------------------------------------

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
    assert _revise(s, [al])
    assert_isomorphic(s.lexicon, X21_TABLE)


def test_factor_nothing_shared_is_rejected():
    s = x2_state()
    al = align(s.lexicon.entries[0], s.lexicon.entries[2])
    assert al is None or al.residue_exponents[0] == []
    before = save_lexicon(s.lexicon)
    assert not _revise(s, [align(s.lexicon.entries[0], s.lexicon.entries[0])
                           or _dummy_alignment(s)])
    assert save_lexicon(s.lexicon) == before


def _dummy_alignment(s):
    from mgumt.learner import Alignment
    return Alignment("pair", [], ([], []), None, [],
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


def test_unrealizable_names_the_missing_constant():
    # the session folds rats onto rat, so no entry carries rats any more
    _, learner = run_session(GoldGrammar(teaching_gold()), SESSION_SCRIPT)
    with pytest.raises(Unrealizable, match=(
            r"^no derivation yields eat\(cheese\)\(rats\): "
            r"no entry carries rats$")):
        express(learner, p("eat(cheese)(rats)"))


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


def test_repair_waives_unseen_regular_cells():
    # the split still says "mouses", but no endorsed pair attests that cell,
    # so R1 commits; "rats" is attested, so its split is refused
    s = teach(LearnerState(), U1, U2, U3, U4)
    mouses = ("the mouses eats cheese", p("eat(cheese)(mouse)"))
    staged = repair(s.clone(), mouses)
    assert staged.revisions[-1].startswith("repair R1: morpheme split 'rat'/'rats'")
    assert staged.says(*mouses)
    assert _overgeneralization_waived(staged, mouses[0])
    rats = "the rats eats cheese"
    assert not _overgeneralization_waived(staged, rats)
    with pytest.raises(NoRepairFound):
        repair(s, (rats, p("eat(cheese)(rat)")))
    assert s.revisions[-1] == f"no repair found for {rats!r}; logged"


def test_repair_blocks_a_regular_cell_given_an_irregular():
    # an irregular filler added straight to the lexicon, not through
    # `ingest`, blocks no cell on arrival; R2 then blocks the regular cell
    # the punished utterance used
    s = full_session_state()
    s.lexicon = s.lexicon.with_entry(load_lexicon("mice\t:\tt5\tmice\n").entries[0])
    repair(s, ("the mouses eat cheese", p("eat(cheese)(mouse)")))
    assert s.revisions[-1] == "repair R2: blocked regular affixation of 'mouse'"
    assert s.covers_endorsed()


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


ORDER_POOL = [U1, U2, U3, U4, U5, UMP("the rat eats carrot", p("eat(carrot)(rat)")),
              UMP("the rats eat carrot", p("eat(carrot)(rats)")),
              UMP("the mice eat carrot", p("eat(carrot)(mice)"))]
ORDERS_SHA256 = "83f9247a1dc3b4c784b902d18f3fc463ae1ad8ec79a71bb36fd7b41ec3a96279"


def test_learning_orders_pinned():
    # 150 seeded orders of two or more pairs run every stager (pair, window,
    # analogy, slot) and leave a blacklist in about a fifth of the runs; one
    # hash pins each run's revisions, lexicon, blacklist and productions
    rng = random.Random(19)
    digest = hashlib.sha256()
    for _ in range(150):
        order = rng.sample(ORDER_POOL, rng.randint(2, len(ORDER_POOL)))
        s = teach(LearnerState(), *order)
        digest.update(repr(s.revisions).encode())
        digest.update(save_lexicon(s.lexicon).encode())
        digest.update(repr(sorted(map(repr, s.blacklist))).encode())
        for u in order:
            try:
                said = express(s, u.meaning).utterance
            except Unrealizable:
                said = "<unrealizable>"
            digest.update(said.encode() + b"\n")
    assert digest.hexdigest() == ORDERS_SHA256


@pytest.fixture(scope="module")
def align_items():
    """The fixture pairs, each also stored whole, and the entries of the
    fixture grammars and of every lexicon that the fixture session and
    ORDER_POOL, taught forwards and backwards, pass through."""
    log, _ = run_session(GoldGrammar(teaching_gold()), SESSION_SCRIPT)
    lexicons = [load_lexicon(TABLE_ONE), teaching_gold(),
                *(lex for _, lex in log.snapshots())]
    for order in (ORDER_POOL, ORDER_POOL[::-1]):
        state = LearnerState()
        for u in order:
            lexicons.append(ingest(state, u).lexicon)
    umps = ORDER_POOL + [UMP(*PUNISHED)]
    entries = [e for lex in lexicons for e in lex.entries]
    entries += map(_as_pseudo_sign, umps)
    return umps + list(dict.fromkeys(entries))


@settings(max_examples=300, deadline=None)
@given(tiered_lexicons(), st.data())
def test_property_align_invariants(align_items, text, data):
    # what the stagers take from `align` without checking it again; the
    # second item shares a token with the first, if any item does
    try:
        items = align_items + list(load_lexicon(text).entries)
    except LexiconError:
        items = align_items
    a = data.draw(st.sampled_from(items))
    tokens = set(a.exponent.split())
    b = data.draw(st.sampled_from(
        [x for x in items if tokens & set(x.exponent.split())] or items))
    al = align(a, b)
    if al is None:
        return
    ra, rb = al.residue_exponents
    assert ra and rb
    if al.kind == "pair":
        assert isinstance(b, Sign)
        assert b.stype.features == _as_pseudo_sign(a).stype.features
    elif al.kind == "window":
        gaps = _gaps(a.exponent.split(), b.exponent.split(), al.blocks)
        entry_side = [gap for gap in gaps if gap[1]]
        if len(entry_side) == 1:
            assert entry_side[0] == al.residue_exponents


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
    assert al.kind == "pair"
    assert _revise(s, [al])
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
    # 32 derivable calls and one repair check make 22 parses from `says`
    # (a witness answers 10 queries and the empty lexicon 1), and the slot
    # analogy's two lookups 2 more; `ingest` asks again only after a
    # committed revision, and repair checks each committed revision's
    # endorsed pairs once
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
    assert (len(calls), len(parses)) == (32, 24)


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
