"""Seeded inputs for the `session`, `produce` and `understand` workloads,
with the answers each operation must give.

Every round of a workload holds the same kinds of operation on lexicons of
the same shapes; the seed and the round number pick the words, the
sentences and the order.  So the cost and the traced counts of a round do
not depend on the seed, while no two rounds share a generated lexicon.

The answers are built here from the words, never by asking the program:
the language of a `TEACHING_GOLD`-shaped lexicon is written out by
`TgWords.language`, and the embedding and modifier sentences by
`embedded` and `modified`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable

from mgumt import fixtures, grammar, mcfg, teacher, terms, transducer

from checks import check_produced, check_session, check_understood

_CONSONANTS = "bdfgklmnprtvz"
_VOWELS = "aeiou"
# Four-letter words: none is a prefix of another, and a verb plus "s" is
# five letters, so the recogniser's suffix split never meets a second word.
WORDS = tuple(a + b + c + d for a, b, c, d in itertools.product(
    _CONSONANTS, _VOWELS, _CONSONANTS, _VOWELS))

# The six function entries of TEACHING_GOLD: determiners, inflection,
# predicate and complementiser.  Generated lexicons add nouns and verbs.
TG_FUNCTION_ENTRIES = "".join(
    line + "\n" for line in fixtures.TEACHING_GOLD.splitlines()
    if line.split("\t")[0] in ("the", "-s", "eps"))

EMBEDDING = (fixtures.TABLE_ONE + "that\t::\t=c n -k\t\\p.that(p)\n"
             + "rat\t::\tn\trat\n")
HOMOPHONES = (fixtures.TABLE_ONE + "old\t::\t=n n\t\\x.old(x)\n"
              + "old\t::\t=n n\t\\x.aged(x)\n")
RECURSIVE_OLD = fixtures.TABLE_ONE + "old\t::\t=n n\t\\x.old(x)\n"
# Closure budget for RECURSIVE_OLD: the default (10 per entry) does not end
# in practice; 16 realises old^j(mouse) for j <= 1 in under a second.
RECURSIVE_OLD_BUDGET = 16

FAULT_QUEUE = "semantic queue pairs adjacent items"
FAULT_BACKTRACKING = "chronological backtracking exceeds the step budget"


@dataclass(frozen=True)
class TgWords:
    """Content words of a lexicon shaped like TEACHING_GOLD."""
    singular: tuple[str, ...]
    plural: tuple[str, ...]
    objects: tuple[str, ...]
    verbs: tuple[str, ...]

    def lexicon_text(self) -> str:
        lines = [f"{w}\t::\tnsg\t{w}" for w in self.singular]
        lines += [f"{w}\t::\tnpl\t{w}" for w in self.plural]
        lines += [f"{w}\t::\tn -k\t{w}" for w in self.objects]
        lines += [f"{w}\t::\t=n v -f\t\\x.\\y.{w}(x)(y)" for w in self.verbs]
        return "\n".join(lines) + "\n" + TG_FUNCTION_ENTRIES

    def sentence(self, subject: str, verb: str, obj: str) -> str:
        inflected = verb + "s" if subject in self.singular else verb
        return f"the {subject} {inflected} {obj}"

    def language(self) -> dict[str, str]:
        """Every sentence of the lexicon, mapped to its meaning."""
        return {self.sentence(s, v, o): f"{v}({o})({s})"
                for s in self.singular + self.plural
                for v in self.verbs for o in self.objects}


def draw_words(rng: random.Random, shape) -> TgWords:
    n_sg, n_pl, n_obj, n_verb = shape
    words = rng.sample(WORDS, n_sg + n_pl + n_obj + n_verb)
    a, b, c = itertools.accumulate((n_sg, n_pl, n_obj))
    return TgWords(tuple(words[:a]), tuple(words[a:b]), tuple(words[b:c]),
                   tuple(words[c:]))


def embedded(nouns) -> tuple[str, str]:
    """Sentence and meaning with one clause per noun, each clause the
    object of `that` in the clause above it."""
    depth = len(nouns) - 1
    words = []
    for noun in nouns[:depth]:
        words += ["the", noun, "eats", "that"]
    words += ["the", nouns[depth], "eats", "cheese"]
    meaning = f"eat(cheese)({nouns[depth]})"
    for noun in reversed(nouns[:depth]):
        meaning = f"eat(that({meaning}))({noun})"
    return " ".join(words), meaning


def modified(k: int) -> tuple[str, set[str]]:
    """`the old^k mouse eats cheese` and its 2^k readings under HOMOPHONES."""
    meanings = set()
    for wrappers in itertools.product(("old", "aged"), repeat=k):
        subject = "mouse"
        for w in reversed(wrappers):
            subject = f"{w}({subject})"
        meanings.add(f"eat(cheese)({subject})")
    return "the " + "old " * k + "mouse eats cheese", meanings


# --- operations -----------------------------------------------------------------

@dataclass
class Op:
    call: Callable[[Any], Any]          # takes the group's prepared context
    check: Callable[[Any, Exception | None], bool]
    lexicon: str | None                 # identity of the lexicon it uses
    label: str                          # the input, for error reports
    kept_fault: str | None = None       # named fault it fails on, if any


@dataclass
class Group:
    """Operations sharing one lexicon; `prepare` is in-loop set-up such as
    compiling the lexicon, timed in the loop but not as an operation."""
    prepare: Callable[[], Any]
    ops: list[Op]


def _nothing():
    return None


class Session:
    """One operation is the fixture teaching session, with a fresh gold
    grammar and learner each time.  There is nothing to draw: every round
    is the paper's script."""
    name = "session"

    def __init__(self, seed: int):
        lines = [ln.split("\t") for ln in fixtures.SESSION_SCRIPT.splitlines()]
        self.expectations = [p[1].strip() for p in lines if p[0] == "expect"]
        self.taught = [(p[1].strip(), p[2].strip()) for p in lines
                       if p[0] == "teach"]

    def round(self, index: int) -> list[Group]:
        def call(_):
            return teacher.run_session(
                teacher.GoldGrammar(fixtures.teaching_gold()),
                fixtures.SESSION_SCRIPT)

        def check(outcome, exc):
            return check_session(outcome, exc, self.expectations, self.taught,
                                 _derivations)

        return [Group(_nothing, [Op(call, check, None, "SESSION_SCRIPT")])]

    def warm_up(self):
        teacher.judge(teacher.GoldGrammar(fixtures.teaching_gold()),
                      "the mouse eats cheese",
                      terms.parse_term("eat(cheese)(mouse)"))


def _derivations(lexicon):
    return [(t.sign.exponent, t.sign.semantics)
            for t in grammar.complete_derivations(lexicon).complete]


# (singular, plural, object, verb) counts: 13 to 17 entries with the six
# function entries, one closure each taking from about 0.1 s to 0.8 s.
# With RECURSIVE_OLD that makes seven lexicons, so the median operation
# falls on the middle lexicon's cost rather than between two.
PRODUCE_SHAPES = ((2, 2, 2, 1), (4, 4, 2, 1), (2, 2, 2, 2), (4, 3, 3, 1),
                  (2, 2, 2, 3), (3, 2, 3, 2))
MEANINGS_PER_LEXICON = 3


class Produce:
    """One operation is one `produce` call.  Each lexicon serves three
    meanings.  Four lexicons in seven get one unrealisable meaning, which
    names a constant no entry carries or swaps subject and object:
    RECURSIVE_OLD and the generated ones in even slots."""
    name = "produce"

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, index: int) -> list[Group]:
        rng = random.Random(self.seed * 1_000_003 + index)
        groups = []
        for slot, shape in enumerate(PRODUCE_SHAPES):
            words = draw_words(rng, shape)
            groups.append(self._tg_group(rng, words, slot))
        groups.append(self._old_group(rng))
        rng.shuffle(groups)
        for g in groups:
            rng.shuffle(g.ops)
        return groups

    def _tg_group(self, rng, words: TgWords, slot: int) -> Group:
        text = words.lexicon_text()
        lexicon = grammar.load_lexicon(text)
        by_meaning = {m: s for s, m in words.language().items()}
        wanted = rng.sample(sorted(by_meaning), MEANINGS_PER_LEXICON)
        cases = [(m, {by_meaning[m]}) for m in wanted]
        if slot % 2 == 0:
            subject = rng.choice(words.singular + words.plural)
            verb, obj = rng.choice(words.verbs), rng.choice(words.objects)
            if slot % 4 == 0:
                stranger = next(w for w in rng.sample(WORDS, 40)
                                if w not in text.split())
                meaning = f"{verb}({obj})({stranger})"
            else:
                meaning = f"{verb}({subject})({obj})"
            cases[-1] = (meaning, None)
        return Group(_nothing, [self._op(lexicon, text, m, strings, None)
                                for m, strings in cases])

    def _old_group(self, rng) -> Group:
        lexicon = grammar.load_lexicon(RECURSIVE_OLD)
        cases = [("eat(cheese)(mouse)", {"the mouse eats cheese"}),
                 ("eat(cheese)(old(mouse))", {"the old mouse eats cheese"}),
                 ("eat(mouse)(cheese)", None)]
        return Group(_nothing, [
            self._op(lexicon, RECURSIVE_OLD, m, strings, RECURSIVE_OLD_BUDGET)
            for m, strings in cases])

    @staticmethod
    def _op(lexicon, text, meaning_text, strings, budget) -> Op:
        meaning = terms.parse_term(meaning_text)

        def call(_):
            return transducer.produce(lexicon, meaning, budget)

        def check(result, exc):
            return check_produced(result, exc, strings, transducer.Unrealizable)

        return Op(call, check, f"{budget}\n{text}", meaning_text)

    def warm_up(self):
        transducer.produce(fixtures.table_one(),
                           terms.parse_term("eat(cheese)(mouse)"))


# Entry counts of the TEACHING_GOLD-shaped lexicons.  They are fixed, so
# that the compiled grammar sizes and the traced counts repeat across seeds.
UNDERSTAND_SIZES = (10, 17, 24, 31, 39, 46, 53, 60)
SENTENCES_PER_NUMBER = 5
MAX_DEPTH = 40
MAX_OLD = 10


class Understand:
    """One operation is one `understand` call on a lexicon compiled once per
    round.  The operations that fail on a named fault use fixed sentences,
    so their number is the same in every round whatever the seed."""
    name = "understand"

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, index: int) -> list[Group]:
        rng = random.Random(self.seed * 1_000_003 + index)
        groups = [self._tg_group(rng, size) for size in UNDERSTAND_SIZES]
        groups.append(self._embedding_group(rng))
        groups.append(self._homophone_group())
        rng.shuffle(groups)
        for g in groups:
            rng.shuffle(g.ops)
        return groups

    def _tg_group(self, rng, size: int) -> Group:
        content = size - len(TG_FUNCTION_ENTRIES.splitlines())
        n_verb = max(1, content // 4)
        n_sg = n_pl = (content - n_verb) // 3
        words = draw_words(rng, (n_sg, n_pl, content - n_verb - 2 * n_sg,
                                 n_verb))
        text = words.lexicon_text()
        language = words.language()
        cases = []
        for subjects in (words.singular, words.plural):
            for _ in range(SENTENCES_PER_NUMBER):
                s = words.sentence(rng.choice(subjects), rng.choice(words.verbs),
                                   rng.choice(words.objects))
                cases.append((s, {language[s]}, None))
        sg, pl = rng.choice(words.singular), rng.choice(words.plural)
        verb, obj = rng.choice(words.verbs), rng.choice(words.objects)
        for bad in (f"the {sg} {verb} {obj}",       # agreement
                    f"the {pl} {verb}s {obj}",      # agreement
                    f"the {obj} {verb}s {sg}",      # swapped arguments
                    f"the {sg} {obj} {verb}s"):     # swapped words
            cases.append((bad, None, None))
        return self._group(text, cases)

    def _embedding_group(self, rng) -> Group:
        cases = []
        for noun in ("mouse", "rat"):
            sentence, meaning = embedded([noun])
            cases.append((sentence, {meaning}, None))
        for depth in range(1, MAX_DEPTH + 1):
            nouns = [("mouse", "rat")[i % 2] for i in range(depth + 1)]
            sentence, meaning = embedded(nouns)
            cases.append((sentence, {meaning}, FAULT_QUEUE))
        for depth in range(0, MAX_DEPTH + 1, 2):
            nouns = [rng.choice(("mouse", "rat")) for _ in range(depth + 1)]
            words = embedded(nouns)[0].split()
            words[-2:] = words[-1], words[-2]
            cases.append((" ".join(words), None, None))
        return self._group(EMBEDDING, cases)

    def _homophone_group(self) -> Group:
        cases = []
        for k in range(MAX_OLD + 1):
            fault = FAULT_BACKTRACKING if k == MAX_OLD else None
            cases.append(("the " + "old " * k + "mouse cheese eats", None, fault))
        for k in range(4):
            sentence, meanings = modified(k)
            cases.append((sentence, meanings, FAULT_QUEUE if k else None))
        return self._group(HOMOPHONES, cases)

    @staticmethod
    def _group(text, cases) -> Group:
        lexicon = grammar.load_lexicon(text)

        def prepare():
            return mcfg.compile_grammar(lexicon)

        ops = []
        for sentence, meanings, fault in cases:
            def call(compiled, sentence=sentence):
                return transducer.understand(compiled, sentence)

            def check(result, exc, meanings=meanings):
                return check_understood(result, exc, meanings,
                                        transducer.ParseRejected)

            ops.append(Op(call, check, text, sentence, fault))
        return Group(prepare, ops)

    def warm_up(self):
        transducer.understand(mcfg.compile_grammar(fixtures.table_one()),
                              "the mouse eats cheese")


WORKLOADS = {w.name: w for w in (Session, Produce, Understand)}
