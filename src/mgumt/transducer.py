"""Bidirectional utterance-meaning transduction over a compiled grammar.

The parser is an incremental top-down recognizer (priority queue of
predicted categories ordered by node index, expand/scan/sort/accept) that
enumerates the accepting paths depth first.  An expansion merges its
predictions into the queue, which stays sorted, and the search skips every
state (remaining input and queue) already explored without an accept; so
one step of its budget is a scan or expansion into a new or live state,
and only exponentially many accepting paths exhaust it.  Node indices are
byte strings, which compare, copy and hash as whole blocks, and a state's
key carries its queue as a running sum of item hashes, updated for the
items a step pops and pushes; so what a step costs grows neither with the
length of its indices nor with a rehash of the queue, only with copying
the queue.  The meaning of a
path comes from a second queue, sorted in reverse index order, that holds
every scanned sign's semantics: the path's expansions, replayed bottom-up,
say which items combine; wherever a rule concatenates the selector's or
licensor's string with another, lambda application puts their meanings
together, as merge and move do in the derivation engine.  `understand`
composes the first path, `all_meanings` every one.  Production searches
the derivation engine for the first complete derivation realizing a
logical form, building only expressions whose constants fit within the
logical form's (generation directed by the logical form).
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter

from .grammar import Lexicon, complete_derivations
from .mcfg import (
    ROOT, CompiledGrammar, McfgCategory, McfgRule, NodeIndex,
    assign_child_indices,
)
from .terms import (
    EMPTY, LambdaTerm, App, NonTerminating, alpha_canonical, beta_reduce,
    beta_step, parse_term, render_term,
)

log = logging.getLogger(__name__)

# steps the parser may take, and reductions the semantic queue may make
MAX_STEPS = 10_000


class ParseRejected(Exception):
    def __init__(self, position: int, expected: frozenset[str]):
        exp = ", ".join(sorted(expected)) or "end of input"
        super().__init__(f"rejected at token {position}; expected one of: {exp}")
        self.position = position
        self.expected = expected


class Unrealizable(Exception):
    pass


class ParserBudget(Exception):
    pass


@dataclass(frozen=True, slots=True)
class QueueItem:
    category: McfgCategory
    indices: tuple[NodeIndex, ...]
    # the digits of its smallest index: the item's place in the queue
    order: bytes = field(init=False, repr=False, compare=False)
    # the parser sums item hashes to key its dead states
    _hash: int = field(init=False, repr=False, compare=False)
    _repr: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        digits = [i.digits for i in self.indices]
        object.__setattr__(self, "order", min(digits))
        object.__setattr__(self, "_hash", hash((self.category, *digits)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        # a trace row renders its whole queue, so each item is rendered once
        got = getattr(self, "_repr", None)
        if got is None:
            got = f"{self.category!r}({', '.join(map(repr, self.indices))})"
            object.__setattr__(self, "_repr", got)
        return got


@dataclass(frozen=True, slots=True)
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


_order = attrgetter("order")


def _merge(children: tuple, tail: tuple) -> tuple[tuple, bool]:
    """The queue after an expansion: what a stable sort of children + tail
    by order gives, for a tail already in order, and whether that differs
    from children + tail.  Each child, in order, goes before the first tail
    item that does not precede it."""
    ordered = sorted(children, key=_order)
    queue = []
    done = 0
    for child in ordered:
        at = bisect_left(tail, child.order, done, key=_order)
        queue += tail[done:at]
        queue.append(child)
        done = at
    return tuple(queue) + tail[done:], done > 0 or tuple(ordered) != children


def _scan_tokens(axiom: McfgRule, input_toks, suffix_tokens):
    """Consume the axiom's exponent from the input front.  The final token
    may match a proper prefix of the next input token when the remainder is
    a suffix the grammar knows, splitting e.g. 'eats' into 'eat' + '-s'."""
    want = axiom.entry.exponent.split()
    if len(want) > len(input_toks):
        return None
    for i, w in enumerate(want):
        head = input_toks[i]
        if head == w:
            continue
        rest = head[len(w):]
        if (i == len(want) - 1 and head.startswith(w) and rest
                and "-" + rest in suffix_tokens):
            return ("-" + rest,) + input_toks[i + 1:]
        return None
    return input_toks[len(want):]


def _parses(grammar: CompiledGrammar, utterance, max_steps: int):
    """Top-down search with chronological backtracking, depth first over an
    explicit stack: start categories in grammar order, then at each state
    axioms before expansions, each in grammar order.

    Yields the steps of every accepting path in turn, and returns the
    deepest failure: (tokens consumed, tokens expected there).

    A search state is the remaining input and the queue, and the search
    below a state depends on nothing else.  So once a state's moves have
    all been explored without an accept, the state is dead, and a later
    move into it is skipped: it would find no path, and only the failures
    already recorded.  Each scan or expansion into a state not known dead
    costs one of `max_steps`, summed over the search; so rejections take
    polynomial time, while exponentially many accepting paths still run
    out of steps.
    """
    toks = tuple(utterance.split() if isinstance(utterance, str) else utterance)
    budget = max_steps
    failed: dict[int, set[str]] = {}    # tokens consumed -> tokens expected
    steps: list[Step] = []
    # The remaining input is a suffix of toks but for its first token, which
    # may be a split-off suffix; so its length and first token name it.  The
    # queue enters the key as the sum of its items' hashes, which a move
    # updates for the items it pops and pushes; the queues under one key
    # are compared in full.
    dead: dict[tuple, list[tuple]] = {}  # (len(left), left[:1], sum) -> queues
    accepts = 0
    # the states whose moves are on the stack: (key, queue, stack height
    # below its moves, accepts before them); each is an ancestor of the next
    open_states: list[tuple] = []
    # a move not yet taken: (len(steps) before it, rule, input, queue, its
    # hash sum, input after it); a start move only visits the start prediction
    starts = [QueueItem(c, (ROOT,)) for c in reversed(grammar.start_categories)]
    stack = [(0, None, toks, (item,), hash(item), toks) for item in starts]
    while stack:
        while open_states and len(stack) <= open_states[-1][2]:
            key, queue, _, before = open_states.pop()
            if accepts == before:
                dead.setdefault(key, []).append(queue)
        n, rule, input_toks, queue, total, left = stack.pop()
        del steps[n:]
        if rule is not None and rule.is_axiom:
            steps.append(Step("scan", rule, input_toks, queue))
            total -= hash(queue[0])
            queue = queue[1:]
        elif rule is not None:
            steps.append(Step("expand", rule, input_toks, queue))
            head, tail = queue[0], queue[1:]
            children = tuple(QueueItem(cat, idx) for cat, idx in zip(
                rule.rhs, assign_child_indices(rule, head.indices)))
            queue, moved = _merge(children, tail)
            if moved:
                steps.append(Step("sort", None, input_toks, children + tail))
            total += sum(map(hash, children)) - hash(head)
        key = (len(left), left[:1], total)
        if queue in dead.get(key, ()):
            continue
        if rule is not None:
            budget -= 1
        if budget <= 0:
            raise ParserBudget(f"no parse within {max_steps} steps")
        consumed = len(toks) - len(left)
        if not queue:
            if left:
                failed.setdefault(consumed, set())
            else:
                accepts += 1
                steps.append(Step("accept", None, left, queue))
                yield list(steps)
            continue
        category = queue[0].category
        axioms = grammar.axioms(category)
        expansions = grammar.expansions(category)
        if not axioms and not expansions:
            failed.setdefault(consumed, set())
        moves = []
        for axiom in axioms:
            after = _scan_tokens(axiom, left, grammar.suffix_tokens)
            if after is None:
                failed.setdefault(consumed, set()).add(
                    axiom.entry.exponent or "ε")
            else:
                moves.append((len(steps), axiom, left, queue, total, after))
        moves += [(len(steps), r, left, queue, total, left)
                  for r in expansions]
        if moves:
            open_states.append((key, queue, len(stack), accepts))
            stack += reversed(moves)
    position = max(failed, default=0)
    return position, frozenset(failed.get(position, ()))


def recognize(grammar: CompiledGrammar, utterance,
              max_steps: int = MAX_STEPS) -> RecognizeResult:
    """The first accepting path of the top-down search, or the deepest
    failure if there is none."""
    paths = _parses(grammar, utterance, max_steps)
    try:
        return RecognizeResult(True, next(paths))
    except StopIteration as end:
        return RecognizeResult(False, [], *end.value)


# --- semantic queue -------------------------------------------------------------

@dataclass(frozen=True)
class SemItem:
    term: LambdaTerm
    index: NodeIndex

    def __repr__(self):
        got = getattr(self, "_repr", None)
        if got is None:
            term = render_term(self.term, unicode_lambda=True)
            got = f"⟨{term}⟩({self.index!r})"
            object.__setattr__(self, "_repr", got)
        return got


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
               max_steps: int = MAX_STEPS) -> UnderstandResult:
    """Parse, then compose the meaning along the accepted derivation."""
    parse = recognize(grammar, utterance, max_steps)
    if not parse.accepted:
        raise ParseRejected(parse.position, parse.expected)
    meaning, steps = _compose(parse.steps, max_steps)
    return UnderstandResult(meaning, steps, parse)


def _below(queue: list[SemItem], digits: bytes) -> int:
    """The first place in queue, sorted by descending index, whose index is
    below digits."""
    lo, hi = 0, len(queue)
    while lo < hi:
        mid = (lo + hi) // 2
        if queue[mid].index.digits < digits:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _compose(path: list[Step], max_steps: int) -> tuple[LambdaTerm, list[Step]]:
    """The meaning of an accepting path, and its semantic trace.

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
    steps: list[Step] = []
    queue: list[SemItem] = []
    # each prediction's semantic item per component (None where empty), keyed
    # by id(): cheaper than hashing a QueueItem, and the path keeps them
    held: dict[int, tuple[SemItem | None, ...]] = {}
    # replay scans in accepted order; scanned items keep their syntactic index
    pairs = list(zip(path, path[1:]))
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
    ordered = tuple(sorted(queue, key=lambda it: it.index.digits,
                            reverse=True))
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
            for gone in (f, a):
                at = _below(queue, gone.index.digits) - 1
                while queue[at] is not gone:
                    at -= 1
                del queue[at]
            at = _below(queue, combined.index.digits)
            queue.insert(at, combined)
            comps.append(settle(at))
        held[id(st.queue[0])] = tuple(comps)
    (root,) = held[id(path[0].queue[0])]
    if root is not None:
        root = settle(0)
    steps.append(Step("understand", None, (), tuple(queue)))
    return EMPTY if root is None else root.term, steps


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
    reported as alternatives, not errors.

    The search is bounded by the β-normal meaning's constants, which
    changes nothing it finds (see `complete_derivations`) but leaves out
    everything that cannot end in the meaning.  So `Unrealizable` says
    "(budget exhausted)" only when a derivation within the bound went over
    the budget; without it, no derivation of the meaning exists."""
    meaning = beta_reduce(meaning)
    search = complete_derivations(lexicon, budget, meaning=meaning)
    target = alpha_canonical(meaning)
    matches = [t for t in search.complete
               if alpha_canonical(t.sign.semantics) == target]
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


def all_meanings(grammar: CompiledGrammar, utterance) -> list[LambdaTerm]:
    """Every meaning the grammar gives the utterance, one per α-equivalence
    class, in the order the parser accepts its paths (so the first is the
    one `understand` gives); judges use it so that parse ambiguity cannot
    fool them."""
    meanings: dict[LambdaTerm, LambdaTerm] = {}
    for path in _parses(grammar, utterance, MAX_STEPS):
        meaning, _ = _compose(path, MAX_STEPS)
        meanings.setdefault(alpha_canonical(meaning), meaning)
    return list(meanings.values())


@dataclass(frozen=True)
class UMP:
    """An utterance paired with its logical form."""
    exponent: str
    meaning: LambdaTerm

    def __repr__(self):
        return f"⟨{self.exponent}, {render_term(self.meaning)}⟩"


# corpus files: one `utterance TAB term` per line, '#' comments

def load_corpus(text: str) -> list[UMP]:
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
