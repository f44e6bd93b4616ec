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
the queue.

The meaning of a path comes from a second queue, sorted in reverse index
order, that holds every scanned sign's semantics: the path's expansions,
replayed bottom-up, say which items combine; wherever a rule concatenates
the selector's or licensor's string with another, lambda application puts
their meanings together, as merge and move do in the derivation engine.
The meaning is one fold over the path, which keeps no queue and records
only its deltas (items pushed, combined and contracted); the semantic
trace is rebuilt from those deltas the first time it is read, so a caller
that wants the meaning alone never pays for the rows.  `understand`
composes the first path, `all_meanings` every one, and `match_meaning`
each in turn until one means what it is asked about.  Every expansion's
rule comes from one merge or move, so `derivation` replays a path, the same
way, as the MG derivation tree it fixes.

Production searches the derivation engine for the first complete
derivation realizing a logical form, building only expressions whose
constants fit within the logical form's (generation directed by the
logical form).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import pairwise
from operator import attrgetter
from typing import NamedTuple

from .grammar import (
    DerivationTree, Lexicon, _apply_rule, _normalized, complete_derivations,
)
from .mcfg import (
    ROOT, CompiledGrammar, McfgCategory, McfgRule, NodeIndex,
    assign_child_indices,
)
from .terms import (
    EMPTY, LambdaTerm, App, NonTerminating, alpha_canonical, beta_reduce,
    beta_step, render_term,
)

# steps the parser may take, and reductions the semantic queue may make
MAX_STEPS = 10_000


class ParseRejected(Exception):
    def __init__(self, position: int, expected: frozenset[str],
                 start: str | None = None):
        """`start` names the start symbol when the grammar derives no
        sentence at all, which no position or expected token can say."""
        if start is None:
            exp = ", ".join(sorted(expected)) or "end of input"
            message = f"rejected at token {position}; expected one of: {exp}"
        else:
            message = f"the lexicon derives no sentence of category {start}"
        super().__init__(message)
        self.position = position
        self.expected = expected
        self.start = start


class Unrealizable(Exception):
    pass


class ParserBudget(Exception):
    pass


class QueueItem:
    """A predicted category with the node indices of its components."""
    __slots__ = ("category", "indices", "order", "_hash", "_repr")

    def __init__(self, category: McfgCategory, indices: tuple[NodeIndex, ...]):
        self.category = category
        self.indices = indices
        # the digits of its smallest index are the item's place in the
        # queue, and the parser sums item hashes to key its dead states;
        # most items have one component, which needs no list
        if len(indices) == 1:
            digits = indices[0].digits
            self.order = digits
            self._hash = hash((category, digits))
        else:
            digits = [i.digits for i in indices]
            self.order = min(digits)
            self._hash = hash((category, *digits))
        self._repr = None

    def __eq__(self, other):
        if type(other) is not QueueItem:
            return NotImplemented
        return self.category == other.category and self.indices == other.indices

    def __hash__(self):
        return self._hash

    def __repr__(self):
        # a trace row renders its whole queue, so each item is rendered once
        if self._repr is None:
            self._repr = (f"{self.category!r}"
                          f"({', '.join(map(repr, self.indices))})")
        return self._repr


class Step(NamedTuple):
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
    want = axiom.tokens
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
    length = len(toks)
    suffix_tokens = grammar.suffix_tokens
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
    stack = [(0, None, toks, (item,), item._hash, toks) for item in starts]
    while stack:
        while open_states and len(stack) <= open_states[-1][2]:
            key, queue, _, before = open_states.pop()
            if accepts == before:
                dead.setdefault(key, []).append(queue)
        n, rule, input_toks, queue, total, left = stack.pop()
        del steps[n:]
        if rule is not None and rule.is_axiom:
            steps.append(Step("scan", rule, input_toks, queue))
            total -= queue[0]._hash
            queue = queue[1:]
        elif rule is not None:
            steps.append(Step("expand", rule, input_toks, queue))
            head, tail = queue[0], queue[1:]
            children = tuple(map(QueueItem, rule.rhs,
                                 assign_child_indices(rule, head.indices)))
            queue, moved = _merge(children, tail)
            if moved:
                steps.append(Step("sort", None, input_toks, children + tail))
            total += sum([c._hash for c in children]) - head._hash
        key = (len(left), left[:1], total)
        if queue in dead.get(key, ()):
            continue
        if rule is not None:
            budget -= 1
        if budget <= 0:
            raise ParserBudget(f"no parse within {max_steps} steps")
        consumed = length - len(left)
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
        here = len(steps)
        for axiom in axioms:
            after = _scan_tokens(axiom, left, suffix_tokens)
            if after is None:
                failed.setdefault(consumed, set()).add(
                    axiom.entry.exponent or "ε")
            else:
                moves.append((here, axiom, left, queue, total, after))
        moves += [(here, r, left, queue, total, left) for r in expansions]
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

class SemItem:
    """A meaning on the semantic queue, with the node index it stands at."""
    __slots__ = ("term", "index", "_repr")

    def __init__(self, term: LambdaTerm, index: NodeIndex):
        self.term = term
        self.index = index
        self._repr = None

    def __repr__(self):
        if self._repr is None:
            term = render_term(self.term, unicode_lambda=True)
            self._repr = f"⟨{term}⟩({self.index!r})"
        return self._repr


@dataclass
class UnderstandResult:
    meaning: LambdaTerm
    parse: RecognizeResult
    # what the composition did to the semantic queue (see `_compose`)
    deltas: list[tuple] = field(repr=False)

    @cached_property
    def steps(self) -> list[Step]:
        """The semantic trace, rebuilt from the deltas on first read."""
        return _semantic_rows(self.parse.steps, self.deltas)

    def render(self) -> str:
        return "\n".join(f"{i}\t{s.render()}" for i, s in enumerate(self.steps, 1))


def understand(grammar: CompiledGrammar, utterance,
               max_steps: int = MAX_STEPS) -> UnderstandResult:
    """Parse, then compose the meaning along the accepted derivation."""
    parse = recognize(grammar, utterance, max_steps)
    if not parse.accepted:
        raise ParseRejected(parse.position, parse.expected,
                            None if grammar.start_categories
                            else grammar.lexicon.start_symbol)
    meaning, deltas = _compose(parse.steps, max_steps)
    return UnderstandResult(meaning, parse, deltas)


def _compose(path: list[Step], max_steps: int) -> tuple[LambdaTerm, list[tuple]]:
    """The meaning of an accepting path, and the deltas of its semantic
    queue.

    Every scan pushes its sign's semantics with the scanned node's index;
    an empty item vanishes by identity application as soon as it is pushed.
    The accepted expansions, replayed bottom-up, say which items combine: a
    rule component that concatenates two slots applies the selector's or
    licensor's item (slot (0, 0)) to the other one, as merge and move do,
    and the combined item takes the parent of the deeper index; a
    single-slot component passes its item through, so a merge-3 or move-2
    chain keeps its meaning until it lands.  Redexes left in a combined
    item, or in the final one, are contracted one β-step at a time.

    The meaning needs no queue, so none is kept: the deltas record each
    item pushed ("push", item; in reverse path order), each combination
    ("combine", function, argument, result) and each contraction
    ("replace", item, contracted), and `_semantic_rows` replays them.
    """
    deltas: list[tuple] = []
    # each prediction's semantic item per component (None where empty), keyed
    # by id(): cheaper than hashing a QueueItem, and the path keeps them
    held: dict[int, tuple[SemItem | None, ...]] = {}
    budget = max_steps

    def settle(item: SemItem) -> SemItem:
        nonlocal budget
        while (reduced := beta_step(item.term)) is not None:
            budget -= 1
            if budget <= 0:
                raise NonTerminating("semantic queue did not settle")
            contracted = SemItem(reduced, item.index)
            deltas.append(("replace", item, contracted))
            item = contracted
        return item

    # a prediction is expanded or scanned after the expansion that made it,
    # so the reversed path reaches every expansion after its children
    for after, st in pairwise(reversed(path)):
        if st.op == "scan":
            item = SemItem(st.rule.entry.semantics, st.queue[0].indices[0])
            deltas.append(("push", item))
            held[id(st.queue[0])] = (None if item.term is EMPTY else item,)
        elif st.op == "expand":
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
                term = App(f.term, a.term)
                stepped = beta_step(term)
                combined = SemItem(term if stepped is None else stepped,
                                   max(f.index, a.index).parent())
                deltas.append(("combine", f, a, combined))
                comps.append(settle(combined))
            held[id(st.queue[0])] = tuple(comps)
    (root,) = held[id(path[0].queue[0])]
    return (EMPTY if root is None else settle(root).term), deltas


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


def _semantic_rows(path: list[Step], deltas: list[tuple]) -> list[Step]:
    """The semantic trace of an accepting path: `_compose`'s deltas replayed
    on the queue, each row showing the queue before its change.  The scans
    push in path order, then the queue is sorted once in descending index
    order; every combination and contraction is an apply row."""
    rows: list[Step] = []
    queue: list[SemItem] = []
    pushed = [d[1] for d in deltas if d[0] == "push"]
    for st, after in zip(path, path[1:]):
        if st.op != "scan":
            continue
        rows.append(Step("scan", st.rule, st.input, tuple(queue)))
        item = pushed.pop()
        queue.append(item)
        if item.term is EMPTY:
            rows.append(Step("apply", None, after.input, tuple(queue)))
            queue.pop()
    ordered = sorted(queue, key=lambda it: it.index.digits, reverse=True)
    if ordered != queue:
        rows.append(Step("sort", None, (), tuple(queue)))
    queue = ordered

    def find(item: SemItem) -> int:
        at = _below(queue, item.index.digits) - 1
        while queue[at] is not item:
            at -= 1
        return at

    for kind, *items in deltas:
        if kind == "push":
            continue
        rows.append(Step("apply", None, (), tuple(queue)))
        if kind == "combine":
            f, a, combined = items
            del queue[find(f)]
            del queue[find(a)]
            queue.insert(_below(queue, combined.index.digits), combined)
        else:
            old, contracted = items
            queue[find(old)] = contracted
    rows.append(Step("understand", None, (), tuple(queue)))
    return rows


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
    return ProduceResult(first.sign.exponent, first, alternatives)


def derivation(path: list[Step]) -> DerivationTree:
    """The MG derivation an accepting path fixes, with no search: the path
    replayed bottom-up, as in `_compose`.  A scan gives its entry's leaf; an
    expansion applies the merge or move its rule came from to its children,
    and λ-app steps then normalize the head, as the closure's trees do."""
    held: dict[int, DerivationTree] = {}
    for after, st in pairwise(reversed(path)):
        if st.op == "scan":
            held[id(st.queue[0])] = DerivationTree.leaf(st.rule.entry)
        elif st.op == "expand":
            kids = tuple(held.pop(id(c)) for c in after.queue[:len(st.rule.rhs)])
            expr = _apply_rule(st.rule.provenance, [k.expression for k in kids])
            held[id(st.queue[0])] = _normalized(DerivationTree(
                st.rule.provenance, expr, kids, sum(k.size for k in kids) + 1,
                sum(k.structural_size for k in kids) + 1))
    return held[id(path[0].queue[0])]


def _readings(grammar: CompiledGrammar, utterance):
    """(meaning, path) for the first accepting path of each α-equivalence
    class of meanings, in the order the parser accepts them."""
    readings: dict[LambdaTerm, tuple] = {}
    for path in _parses(grammar, utterance, MAX_STEPS):
        meaning, _deltas = _compose(path, MAX_STEPS)
        readings.setdefault(alpha_canonical(meaning), (meaning, path))
    return readings.values()


def all_meanings(grammar: CompiledGrammar, utterance) -> list[LambdaTerm]:
    """Every meaning the grammar gives the utterance, one per α-equivalence
    class, in the order the parser accepts its paths (so the first is the
    one `understand` gives).  A judge asking after one meaning wants
    `match_meaning`."""
    return [meaning for meaning, _path in _readings(grammar, utterance)]


def derivations(grammar: CompiledGrammar, utterance) -> list[DerivationTree]:
    """One derivation per meaning of the utterance, in `all_meanings`
    order: what `derive --target` prints."""
    return [derivation(path) for _meaning, path in _readings(grammar, utterance)]


def match_meaning(grammar: CompiledGrammar, utterance,
                  meaning: LambdaTerm) -> tuple[list[Step] | None, bool]:
    """The first accepting path whose meaning is α-equal to the meaning
    (None if there is none), and whether the parser accepted any path.

    The search stops at that path, so a judge that asks whether the
    utterance can mean this pays only for the paths before it; when no path
    matches, it has composed every one, as `all_meanings` does."""
    target = alpha_canonical(meaning)
    accepted = False
    for path in _parses(grammar, utterance, MAX_STEPS):
        accepted = True
        composed, _deltas = _compose(path, MAX_STEPS)
        if alpha_canonical(composed) == target:
            return path, True
    return None, accepted


@dataclass(frozen=True)
class UMP:
    """An utterance paired with its logical form."""
    exponent: str
    meaning: LambdaTerm

    def __repr__(self):
        return f"⟨{self.exponent}, {render_term(self.meaning)}⟩"

