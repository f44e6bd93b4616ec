import pytest

from mgumt.fixtures import SESSION_SCRIPT, TABLE_ONE, teaching_gold
from mgumt.grammar import complete_derivations, load_lexicon, save_lexicon
from mgumt.learner import LearnerState, ingest
from mgumt.teacher import (
    GoldGrammar, ScriptInvalid, Verdict, judge, parse_script, reinforce,
    run_session,
)
from mgumt.terms import alpha_equivalent, beta_reduce, parse_term
from mgumt.transducer import UMP, all_meanings, produce

p = parse_term


@pytest.fixture(scope="module")
def gold():
    return GoldGrammar(teaching_gold())


def test_judge_endorses_grammatical_pair(gold):
    assert judge(gold, "the rat eats cheese", p("eat(cheese)(rat)")) \
        is Verdict.ENDORSE


def test_judge_rejects_agreement_error(gold):
    assert judge(gold, "the rats eats carrot", p("eat(carrot)(rats)")) \
        is Verdict.REJECT_UNGRAMMATICAL


def test_judge_rejects_meaning_mismatch(gold):
    assert judge(gold, "the mouse eats cheese", p("eat(carrot)(mouse)")) \
        is Verdict.REJECT_MEANING


def test_judge_is_pure(gold):
    args = ("the rats eat cheese", p("eat(cheese)(rats)"))
    assert judge(gold, *args) is judge(gold, *args) is Verdict.ENDORSE


def test_judge_recursive_modifier_gold():
    # old :: =n n makes the gold language infinite; judging parses the one
    # utterance instead of enumerating the language
    gold = GoldGrammar(load_lexicon(TABLE_ONE + "old\t::\t=n n\t\\x.old(x)\n"))
    meaning = p("eat(cheese)(old(old(mouse)))")
    assert judge(gold, "the old old mouse eats cheese", meaning) \
        is Verdict.ENDORSE
    assert judge(gold, "the old mouse old eats cheese", meaning) \
        is Verdict.REJECT_UNGRAMMATICAL
    assert judge(gold, "the old mouse eats cheese", meaning) \
        is Verdict.REJECT_MEANING


def every_reading_verdict(readings, meaning):
    """The verdict from every meaning of the utterance (its `all_meanings`),
    as judges gave it before they stopped at the first parse that means the
    meaning."""
    if not readings:
        return Verdict.REJECT_UNGRAMMATICAL
    if any(alpha_equivalent(m, beta_reduce(meaning)) for m in readings):
        return Verdict.ENDORSE
    return Verdict.REJECT_MEANING


def test_judge_agrees_with_every_reading(gold):
    # each gold sentence, its agreement variant and its adjacent-word swaps,
    # with each gold meaning; then old^k on two homophone olds, k <= 6, with
    # each of its 2^k readings and a mismatch, and the same words swapped
    signs = complete_derivations(gold.lexicon, 200).complete_signs()
    agreement = {"eats": "eat", "eat": "eats"}
    utterances = []
    for sign in signs:
        words = sign.exponent.split()
        utterances.append(sign.exponent)
        utterances.append(" ".join(agreement.get(w, w) for w in words))
        for i in range(len(words) - 1):
            swapped = list(words)
            swapped[i:i + 2] = swapped[i + 1], swapped[i]
            utterances.append(" ".join(swapped))
    cases = [(gold, u, [s.semantics for s in signs]) for u in utterances]
    homophones = GoldGrammar(load_lexicon(
        TABLE_ONE + "old\t::\t=n n\t\\x.old(x)\n"
        + "old\t::\t=n n\t\\x.aged(x)\n"))
    for k in range(7):
        subjects = ["mouse"]
        for _ in range(k):
            subjects = [f"{w}({s})" for s in subjects for w in ("old", "aged")]
        meanings = [p(f"eat(cheese)({s})") for s in subjects + ["old(rat)"]]
        for utterance in ("the " + "old " * k + "mouse eats cheese",
                          "the " + "old " * k + "mouse cheese eats"):
            cases.append((homophones, utterance, meanings))
    seen = set()
    for teacher, utterance, meanings in cases:
        readings = all_meanings(teacher.grammar, utterance)
        for meaning in meanings:
            got = judge(teacher, utterance, meaning)
            assert got is every_reading_verdict(readings, meaning), (
                utterance, meaning)
            seen.add(got)
    assert seen == set(Verdict)


def test_teacher_self_consistency(gold):
    signs = complete_derivations(gold.lexicon, 200).complete_signs()
    assert len(signs) == 8
    for sign in signs:
        said = produce(gold.lexicon, sign.semantics, 200)
        assert judge(gold, said.utterance, sign.semantics) is Verdict.ENDORSE


def test_script_parsing_round_trip():
    script = parse_script(SESSION_SCRIPT)
    ops = [line.op for line in script]
    assert ops == ["teach", "teach", "probe", "expect", "teach", "probe",
                   "expect", "teach", "probe", "expect", "teach"]


def test_script_rejects_garbage():
    with pytest.raises(ScriptInvalid):
        parse_script("teach\tonly-two-fields\n")
    with pytest.raises(ScriptInvalid):
        parse_script("expect\tmaybe\n")


def test_session_snapshots_follow_the_published_course(gold):
    log, learner = run_session(gold, SESSION_SCRIPT)
    counts = [len(lex) for _, lex in log.snapshots()]
    # teach, teach, probe, teach, probe, teach, probe(+repair), teach
    assert counts == [1, 4, 4, 6, 6, 8, 9, 11]
    verdicts = [v.value for v in log.verdicts()]
    assert verdicts == ["endorse", "endorse", "reject-ungrammatical"]


def test_empty_script(gold):
    log, learner = run_session(gold, "")
    assert log.events == []
    assert len(learner.lexicon) == 0 and learner.time == 0


def test_probe_after_third_iteration(gold):
    script = (
        "teach\tthe mouse eats cheese\teat(cheese)(mouse)\n"
        "teach\tthe rat eats cheese\teat(cheese)(rat)\n"
        "teach\tthe mouse eats carrot\teat(carrot)(mouse)\n"
        "probe\teat(cheese)(mouse)\n"
        "expect\tendorse\n")
    log, learner = run_session(gold, script)
    # oracle: the learner's own grammar derives the probed pair
    hits = [s for s in complete_derivations(learner.lexicon, 100).complete_signs()
            if s.exponent == "the mouse eats cheese"
            and alpha_equivalent(s.semantics, p("eat(cheese)(mouse)"))]
    assert hits
    said = [e for e in log.events if e.kind == "learner-said"]
    assert said[-1].payload[0] == "the mouse eats cheese"
    assert log.verdicts()[-1] is Verdict.ENDORSE


def test_invalid_teach_rejected(gold):
    with pytest.raises(ScriptInvalid):
        run_session(gold, "teach\tcheese mouse the\teat(cheese)(mouse)\n")


def test_expectation_failure(gold):
    script = (
        "teach\tthe mouse eats cheese\teat(cheese)(mouse)\n"
        "probe\teat(cheese)(mouse)\n"
        "expect\treject\n")
    with pytest.raises(ScriptInvalid):
        run_session(gold, script)


def test_unrealizable_probe(gold):
    # a meaning the learner cannot express is logged with no verdict, so an
    # expectation after it has nothing to check
    script = ("teach\tthe mouse eats cheese\teat(cheese)(mouse)\n"
              "probe\teat(carrot)(rat)\n")
    log, _ = run_session(gold, script)
    assert [e.kind for e in log.events] == ["presented", "snapshot",
                                            "unrealizable"]
    assert log.verdicts() == []
    with pytest.raises(ScriptInvalid):
        run_session(gold, script + "expect\tendorse\n")
    replay, _ = run_session(gold, log.to_script())
    assert replay.render() == log.render()


def test_session_replay_byte_identical(gold):
    log1, _ = run_session(gold, SESSION_SCRIPT)
    log2, _ = run_session(gold, log1.to_script())
    snaps1 = [(t, save_lexicon(lex)) for t, lex in log1.snapshots()]
    snaps2 = [(t, save_lexicon(lex)) for t, lex in log2.snapshots()]
    assert snaps1 == snaps2
    assert log1.render() == log2.render()


def test_reinforce_without_repair():
    learner = LearnerState()
    ingest(learner, UMP("the mouse eats cheese", p("eat(cheese)(mouse)")))
    before = save_lexicon(learner.lexicon)
    assert not reinforce(learner, "the mouse eats cheese",
                         p("(\\x.sleep(x))(mouse)"), False)
    assert learner.revisions[-1] == (
        "no repair found for 'the mouse eats cheese'; logged")
    assert save_lexicon(learner.lexicon) == before


def test_gold_lexicon_type_pattern_enforced():
    from mgumt.teacher import GoldLexiconInvalid
    with pytest.raises(GoldLexiconInvalid):
        GoldGrammar(load_lexicon("x\t::\tn =d\tmouse\n"))
