"""Bidirectional utterance-meaning transduction over a compiled grammar.

Understanding runs an incremental top-down recognizer (priority queue of
predicted categories ordered by node index, expand/scan/sort/accept) and
feeds every scanned sign's semantics into a second queue sorted in reverse
index order.  The accepted expansions, replayed bottom-up, then say which
items combine: wherever a rule concatenates the selector's or licensor's
string with another, lambda application puts their meanings together, as
merge and move do in the derivation engine.  Production searches the
derivation engine for the first complete derivation realizing a logical
form.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .grammar import Lexicon, complete_derivations, fuse_tokens
from .mcfg import (
    ROOT, CompiledGrammar, McfgCategory, McfgRule, NodeIndex,
    assign_child_indices, compile_grammar,
)
from .terms import (
    EMPTY, LambdaTerm, App, NonTerminating, alpha_equivalent, beta_reduce,
    beta_step, render_term,
)

log = logging.getLogger(__name__)


class ParseRejected(Exception):
    def __init__(self, position: int, expected: frozenset[str]):
        exp = ", ".join(sorted(expected)) or "nothing"
        super().__init__(f"rejected at token {position}; expected one of: {exp}")
        self.position = position
        self.expected = expected


class Unrealizable(Exception):
    pass


class ParserBudget(Exception):
    pass


@dataclass(frozen=True)
class QueueItem:
    category: McfgCategory
    indices: tuple[NodeIndex, ...]

    def key(self) -> NodeIndex:
        return min(self.indices)

    def __repr__(self):
        return f"{self.category!r}({', '.join(map(repr, self.indices))})"


@dataclass(frozen=True)
class Step:
    op: str                     # expand | scan | sort | accept | apply | understand
    rule: McfgRule | None
    input: tuple[str, ...]
    queue: tuple

    def render(self) -> str:
        inp = " ".join(self.input) if self.input else "ε"
        queue = " ".join(repr(item) for item in self.queue) or "ε"
        op = self.op
        if self.rule is not None:
            op += f" [{self.rule!r}]"
        return "\t".join([inp, queue, op])


@dataclass
class RecognizeResult:
    accepted: bool
    steps: list[Step]
    position: int = 0
    expected: frozenset = frozenset()

    def operations(self) -> list[str]:
        return [s.op for s in self.steps]

    def render(self) -> str:
        return "\n".join(f"{i}\t{s.render()}" for i, s in enumerate(self.steps, 1))


def _sorted_queue(items) -> tuple:
    return tuple(sorted(items, key=QueueItem.key))


def _scan_tokens(axiom: McfgRule, input_toks, suffix_tokens):
    """Consume the axiom's exponent from the input front.  The final token
    may match a proper prefix of the next input token when the remainder is
    a suffix the grammar knows, splitting e.g. 'eats' into 'eat' + '-s'."""
    want = axiom.entry.exponent.split()
    toks = list(input_toks)
    for i, w in enumerate(want):
        if not toks:
            return None
        head = toks[0]
        if head == w:
            toks.pop(0)
            continue
        rest = head[len(w):]
        if (i == len(want) - 1 and head.startswith(w) and rest
                and "-" + rest in suffix_tokens):
            toks[0] = "-" + rest
            return tuple(toks)
        return None
    return tuple(toks)


def recognize(grammar: CompiledGrammar, utterance,
              max_steps: int = 10_000) -> RecognizeResult:
    """Top-down recognition with chronological backtracking; the returned
    trace is the accepting path (or the deepest failure)."""
    toks = tuple(utterance.split() if isinstance(utterance, str) else utterance)
    suffix_tokens = {t for r in grammar.rules if r.is_axiom
                     for t in r.entry.exponent.split() if t.startswith("-")}
    budget = [max_steps]
    deepest = [0, set()]

    def fail(consumed, expecting):
        if consumed > deepest[0]:
            deepest[0], deepest[1] = consumed, set(expecting)
        elif consumed == deepest[0]:
            deepest[1].update(expecting)

    def rec(input_toks, queue, steps):
        if budget[0] <= 0:
            raise ParserBudget(f"no parse within {max_steps} steps")
        if not queue:
            if not input_toks:
                steps.append(Step("accept", None, input_toks, queue))
                return steps
            fail(len(toks) - len(input_toks), ())
            return None
        head = queue[0]
        rest = queue[1:]
        consumed = len(toks) - len(input_toks)
        axioms = grammar.axioms(head.category)
        expansions = grammar.expansions(head.category)
        if not axioms and not expansions:
            fail(consumed, ())
            return None
        for axiom in axioms:
            left = _scan_tokens(axiom, input_toks, suffix_tokens)
            if left is None:
                fail(consumed, {axiom.entry.exponent or "ε"})
                continue
            budget[0] -= 1
            n = len(steps)
            steps.append(Step("scan", axiom, input_toks, queue))
            got = rec(left, rest, steps)
            if got is not None:
                return got
            del steps[n:]
        for rule in expansions:
            budget[0] -= 1
            n = len(steps)
            steps.append(Step("expand", rule, input_toks, queue))
            children = assign_child_indices(rule, list(head.indices))
            new_items = tuple(QueueItem(cat, idx)
                              for cat, idx in zip(rule.rhs, children))
            unsorted = new_items + rest
            in_order = _sorted_queue(unsorted)
            if in_order != unsorted:
                steps.append(Step("sort", None, input_toks, unsorted))
            got = rec(input_toks, in_order, steps)
            if got is not None:
                return got
            del steps[n:]
        return None

    for start in grammar.start_categories:
        queue = (QueueItem(start, (ROOT,)),)
        got = rec(toks, queue, [])
        if got is not None:
            return RecognizeResult(True, got)
    return RecognizeResult(False, [], deepest[0], frozenset(deepest[1]))


# --- semantic queue -------------------------------------------------------------

@dataclass(frozen=True)
class SemItem:
    term: LambdaTerm
    index: NodeIndex

    def __repr__(self):
        return f"⟨{render_term(self.term, unicode_lambda=True)}⟩({self.index!r})"


@dataclass
class UnderstandResult:
    meaning: LambdaTerm
    steps: list[Step]          # semantic trace
    parse: RecognizeResult

    def render(self) -> str:
        return "\n".join(f"{i}\t{s.render()}" for i, s in enumerate(self.steps, 1))


def _combine(f: SemItem, a: SemItem, result_index: NodeIndex) -> SemItem:
    term = App(f.term, a.term)
    stepped = beta_step(term)
    return SemItem(stepped if stepped is not None else term, result_index)


def understand(grammar: CompiledGrammar, utterance,
               max_steps: int = 10_000) -> UnderstandResult:
    """Parse, then compose the meaning along the accepted derivation.

    Scans push their sign's semantics with the scanned node's index; empty
    items vanish by identity application as soon as they are pushed.  The
    queue is then sorted once in descending index order, and the accepted
    expansions are replayed bottom-up: a rule component that concatenates
    two slots applies the selector's or licensor's item (slot (0, 0)) to
    the other one, as merge and move do, and the combined item takes the
    parent of the deeper index; a single-slot component passes its item
    through, so a merge-3 or move-2 chain keeps its meaning until it lands.
    Redexes left in a combined item, or in the final one, are contracted in
    place.
    """
    parse = recognize(grammar, utterance, max_steps)
    if not parse.accepted:
        raise ParseRejected(parse.position, parse.expected)
    steps: list[Step] = []
    queue: list[SemItem] = []
    # each prediction's semantic item per component (None where empty), keyed
    # by id(): cheaper than hashing a QueueItem, and parse.steps keeps them
    held: dict[int, tuple[SemItem | None, ...]] = {}
    # replay scans in accepted order; scanned items keep their syntactic index
    pairs = list(zip(parse.steps, parse.steps[1:]))
    for st, after in pairs:
        if st.op != "scan":
            continue
        steps.append(Step("scan", st.rule, st.input, tuple(queue)))
        item = SemItem(st.rule.entry.semantics, st.queue[0].indices[0])
        queue.append(item)
        if item.term is EMPTY:
            steps.append(Step("apply", None, after.input, tuple(queue)))
            queue.pop()
            item = None
        held[id(st.queue[0])] = (item,)
    ordered = tuple(sorted(queue, key=lambda it: it.index, reverse=True))
    if ordered != tuple(queue):
        steps.append(Step("sort", None, (), tuple(queue)))
    queue = list(ordered)
    budget = max_steps

    def settle(at: int) -> SemItem:
        """Contract the redexes left in queue[at], one apply step each."""
        nonlocal budget
        item = queue[at]
        while (reduced := beta_step(item.term)) is not None:
            budget -= 1
            if budget <= 0:
                raise NonTerminating("semantic queue did not settle")
            steps.append(Step("apply", None, (), tuple(queue)))
            item = queue[at] = SemItem(reduced, item.index)
        return item

    # children are predicted after their parent, so the reversed trace
    # reaches every expansion after its children's
    for st, after in reversed(pairs):
        if st.op != "expand":
            continue
        children = [held.pop(id(c)) for c in after.queue[:len(st.rule.rhs)]]
        comps = []
        for comp in st.rule.pattern:
            if len(comp) == 1:
                (r, c), = comp
                comps.append(children[r][c])
                continue
            r, c = comp[1] if comp[0] == (0, 0) else comp[0]
            f, a = children[0][0], children[r][c]
            if f is None or a is None:
                comps.append(a if f is None else f)
                continue
            steps.append(Step("apply", None, (), tuple(queue)))
            combined = _combine(f, a, max(f.index, a.index).parent())
            queue[:] = [it for it in queue if it is not f and it is not a]
            at = next((i for i, it in enumerate(queue)
                       if it.index < combined.index), len(queue))
            queue.insert(at, combined)
            comps.append(settle(at))
        held[id(st.queue[0])] = tuple(comps)
    (root,) = held[id(parse.steps[0].queue[0])]
    if root is not None:
        root = settle(0)
    steps.append(Step("understand", None, (), tuple(queue)))
    return UnderstandResult(EMPTY if root is None else root.term, steps, parse)


# --- production -----------------------------------------------------------------

@dataclass
class ProduceResult:
    utterance: str
    tree: object
    alternatives: list[str] = field(default_factory=list)


def produce(lexicon: Lexicon, meaning: LambdaTerm,
            budget: int | None = None) -> ProduceResult:
    """First complete derivation (in canonical enumeration order) whose
    final semantics matches the meaning; further distinct exponents are
    reported as alternatives, not errors."""
    meaning = beta_reduce(meaning)
    search = complete_derivations(lexicon, budget)
    matches = [t for t in search.complete
               if alpha_equivalent(t.sign.semantics, meaning)]
    if not matches:
        extra = " (budget exhausted)" if search.budget_exhausted else ""
        raise Unrealizable(
            f"no derivation yields {render_term(meaning)}{extra}")
    first = matches[0]
    # complete_derivations keeps one tree per (exponent, meaning), so every
    # further match is a distinct exponent
    alternatives = [t.sign.exponent for t in matches[1:]]
    if alternatives:
        log.warning("ambiguous realization of %s: %r also possible",
                    render_term(meaning), alternatives)
    return ProduceResult(first.sign.exponent, first, alternatives)


def all_meanings(lexicon: Lexicon, utterance,
                 budget: int | None = None) -> list[LambdaTerm]:
    """Every meaning the lexicon assigns to the utterance (bounded search);
    used by judges that must not be fooled by parse ambiguity."""
    toks = utterance if isinstance(utterance, str) else " ".join(utterance)
    target = " ".join(fuse_tokens(toks.split()))
    search = complete_derivations(lexicon, budget)
    return [t.sign.semantics for t in search.complete
            if t.sign.exponent == target]


@dataclass(frozen=True)
class UMP:
    """An utterance paired with its logical form."""
    exponent: str
    meaning: LambdaTerm

    def __repr__(self):
        return f"⟨{self.exponent}, {render_term(self.meaning)}⟩"


def understand_utterance(lexicon: Lexicon, utterance) -> UnderstandResult:
    return understand(compile_grammar(lexicon), utterance)


# corpus files: one `utterance TAB term` per line, '#' comments

def load_corpus(text: str) -> list[UMP]:
    from .terms import parse_term
    out = []
    for ln, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        parts = raw.split("\t")
        if len(parts) != 2:
            raise ValueError(f"corpus line {ln}: expected utterance<TAB>term")
        out.append(UMP(parts[0].strip(), beta_reduce(parse_term(parts[1]))))
    return out


def save_corpus(umps) -> str:
    return "".join(f"{u.exponent}\t{render_term(u.meaning)}\n" for u in umps)
