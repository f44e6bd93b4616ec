"""Bidirectional utterance-meaning transduction over a compiled grammar.

The parser is an incremental top-down recognizer (priority queue of
predicted categories ordered by node index, expand/scan/sort/accept) that
enumerates the accepting paths depth first.  An expansion merges its
predictions into the queue, which stays sorted, and the search skips every
state (remaining input and queue) already explored without an accept; so
one step of its budget is a scan or expansion into a new or live state,
and only exponentially many accepting paths exhaust it.  Node indices are
`bytes`, which compare, copy and hash as whole blocks, and a state's
key carries its queue as a running sum of item hashes, updated for the
items a step pops and pushes.  What a step reads of the grammar is fixed
when it is compiled (see `mcfg`), so a step costs a table lookup, a few
objects, and a copy of the queue, which grows with the queue.

The meaning of a path comes from a second queue, sorted in reverse index
order, that holds every scanned sign's semantics: the path's expansions,
replayed bottom-up, say which items combine; wherever a rule concatenates
the selector's or licensor's string with another, lambda application puts
their meanings together, as merge and move do in the derivation engine.
One function, `_compose`, folds the path into the meaning and keeps no
queue unless it is asked for the rows.  The semantic trace is that
composition run again, with its queue and rows, the first time the trace
is read; so a caller that wants the meaning alone never pays for them.
`understand` composes the first path, `all_meanings` every one, and
`match_meaning` each in turn until one means what it is asked about.
Every expansion's rule comes from one merge or move, so `derivation`
replays a path, the same way, as the MG derivation tree it fixes.

Production searches the derivation engine for the first complete
derivation realizing a logical form, building only expressions whose
constants fit within the logical form's (generation directed by the
logical form).
"""

from __future__ import annotations

from bisect import bisect_left, insort_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import pairwise
from operator import attrgetter
from typing import NamedTuple

from .grammar import (
    START, DerivationTree, Lexicon, _apply_rule, _normalized,
    complete_derivations,
)
from .mcfg import (
    ROOT, CompiledGrammar, McfgCategory, McfgRule, NodeIndex,
    assign_child_indices,
)
from .terms import (
    EMPTY, MAX_REDUCTIONS, LambdaTerm, App, NonTerminating, alpha_canonical,
    beta_reduce, beta_step, constants, render_term,
)

# steps the parser may take
MAX_STEPS = 10_000


class ParseRejected(Exception):
    def __init__(self, position: int, expected: frozenset[str],
                 empty_language: bool = False):
        """`empty_language` says the grammar derives no sentence of category
        `START` at all, which no position or expected token can say."""
        if empty_language:
            message = f"the lexicon derives no sentence of category {START}"
        else:
            exp = ", ".join(sorted(expected)) or "end of input"
            message = f"rejected at token {position}; expected one of: {exp}"
        super().__init__(message)
        self.position = position
        self.expected = expected


class Unrealizable(Exception):
    pass


class ParserBudget(Exception):
    pass


class QueueItem:
    """A predicted category with the node indices of its components."""
    __slots__ = ("category", "indices", "order", "_hash", "_repr")

    def __init__(self, category: McfgCategory, indices: tuple[NodeIndex, ...],
                 category_hash: int):
        self.category = category
        self.indices = indices
        # its smallest index is the item's place in the queue, and the
        # parser sums item hashes (the category's from its rule) to key states
        self.order = indices[0] if len(indices) == 1 else min(indices)
        self._hash = hash((category_hash, indices))
        self._repr = None

    def __eq__(self, other):
        if type(other) is not QueueItem:
            return NotImplemented
        # categories are interned per grammar
        return (self.indices == other.indices
                and self.category is other.category)

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
_hash_of = attrgetter("_hash")


def _merge(children: tuple, tail: tuple) -> tuple[tuple, bool]:
    """The queue after an expansion: what a stable sort of children + tail
    by order gives, for a tail already in order, and whether that differs
    from children + tail.  Each child, in order, goes before the first tail
    item that does not precede it; children in order before the tail stay."""
    last = children[0].order
    for child in children[1:]:
        if child.order < last:
            break
        last = child.order
    else:
        if not tail or last <= tail[0].order:
            return children + tail, False
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


def _parses(grammar: CompiledGrammar, utterance: str):
    """Top-down search with chronological backtracking, depth first over an
    explicit stack: start categories in grammar order, then at each state
    axioms before expansions, each in grammar order.  A state's moves are
    one lookup in the grammar's move table, a rule's children come from its
    plans, and what a move still costs grows with the queue it copies.

    Yields the steps of every accepting path in turn, and returns the
    deepest failure: (tokens consumed, tokens expected there).

    A search state is the remaining input and the queue, and the search
    below a state depends on nothing else.  So once a state's moves have
    all been explored without an accept, the state is dead, and a later
    move into it is skipped: it would find no path, and only the failures
    already recorded.  Each scan or expansion into a state not known dead
    costs one of `MAX_STEPS`, summed over the search; so rejections take
    polynomial time, while exponentially many accepting paths still run
    out of steps.
    """
    toks = tuple(utterance.split())
    length = len(toks)
    suffix_tokens = grammar.suffix_tokens
    table = grammar.moves
    budget = MAX_STEPS
    failed: dict[int, set[str]] = {}    # tokens consumed -> tokens expected
    steps: list[Step] = []
    # The remaining input is a suffix of toks but for its first token, which
    # may be a split-off suffix; so its length and first token name it.  The
    # queue enters the key as the sum of its items' hashes, which a move
    # updates for the items it pops and pushes; the queues under one key
    # are compared in full.
    dead: dict[tuple, list[tuple]] = {}  # (len(left), left[:1], sum) -> queues
    accepts = 0
    # the states whose search is under way, each an ancestor of the next:
    # (key, queue, accepts before its moves, hash sum, input, len(steps)
    # before its moves, its moves left or None)
    open_states: list[tuple] = []
    for start in grammar.start_categories:
        steps.clear()   # the rows of the previous start's last path
        item = QueueItem(start, (ROOT,), hash(start))
        # the move to take from the state (queue, total, input_toks), and
        # the input after it; the start prediction is no move
        rule, queue, total, left = None, (item,), item._hash, toks
        while True:
            if rule is not None and rule.is_axiom:
                steps.append(Step("scan", rule, input_toks, queue))
                queue, total = queue[1:], total - queue[0]._hash
            elif rule is not None:
                steps.append(Step("expand", rule, input_toks, queue))
                head, tail = queue[0], queue[1:]
                children = tuple(map(QueueItem, rule.rhs,
                                     assign_child_indices(rule, head.indices),
                                     rule.rhs_hashes))
                queue, moved = _merge(children, tail)
                if moved:
                    steps.append(Step("sort", None, input_toks, children + tail))
                total += sum(map(_hash_of, children)) - head._hash
            reached = (len(left), left[:1], total)
            if queue not in dead.get(reached, ()):
                if rule is not None:
                    budget -= 1
                    if budget <= 0:
                        raise ParserBudget(f"no parse within {MAX_STEPS} steps")
                found = table.get(queue[0].category) if queue else None
                if found is not None:
                    axioms, expansions = found
                    moves = []
                    for axiom in axioms:
                        after = _scan_tokens(axiom, left, suffix_tokens)
                        if after is None:
                            failed.setdefault(length - len(left), set()).add(
                                axiom.entry.exponent or "ε")
                        else:
                            moves.append((axiom, after))
                    for expansion in expansions:
                        moves.append((expansion, left))
                    if moves:
                        open_states.append(
                            (reached, queue, accepts, total, left, len(steps),
                             iter(moves[1:]) if len(moves) > 1 else None))
                        rule, after = moves[0]
                        input_toks, left = left, after
                        continue
                elif queue or left:
                    failed.setdefault(length - len(left), set())
                else:
                    accepts += 1
                    steps.append(Step("accept", None, left, queue))
                    yield list(steps)
            # a dead end: the states above close, up to one with a move left
            while open_states:
                top = open_states[-1]
                if top[6] is not None and (move := next(top[6], None)):
                    break
                open_states.pop()
                if accepts == top[2]:
                    dead.setdefault(top[0], []).append(top[1])
            else:
                break
            _, queue, _, total, input_toks, here, _ = top
            del steps[here:]
            rule, left = move
    position = max(failed, default=0)
    return position, frozenset(failed.get(position, ()))


def recognize(grammar: CompiledGrammar, utterance) -> RecognizeResult:
    """The first accepting path of the top-down search, or the deepest
    failure if there is none."""
    paths = _parses(grammar, utterance)
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

    @cached_property
    def steps(self) -> list[Step]:
        """The semantic trace, composed again with its rows on first read."""
        return _semantic_rows(self.parse.steps)

    def render(self) -> str:
        return "\n".join(f"{i}\t{s.render()}" for i, s in enumerate(self.steps, 1))


def understand(grammar: CompiledGrammar, utterance) -> UnderstandResult:
    """Parse, then compose the meaning along the accepted derivation."""
    parse = recognize(grammar, utterance)
    if not parse.accepted:
        raise ParseRejected(parse.position, parse.expected,
                            empty_language=not grammar.start_categories)
    return UnderstandResult(_compose(parse.steps), parse)


def _compose(path: list[Step], rows: list[Step] | None = None) -> LambdaTerm:
    """The meaning of an accepting path.  Given a list, it also keeps the
    semantic queue and appends a row each time the queue changes, showing
    the queue before the change.

    Every scan pushes its sign's semantics with the scanned node's index;
    an empty item vanishes by identity application as soon as it is pushed.
    The queue is then sorted once in descending index order.  The accepted
    expansions, replayed bottom-up, say which items combine: a rule
    component that concatenates two slots applies the selector's or
    licensor's item (slot (0, 0)) to the other one, as merge and move do,
    and the combined item takes the parent of the deeper index; a
    single-slot component passes its item through, so a merge-3 or move-2
    chain keeps its meaning until it lands.  Redexes left in a combined
    item, or in the final one, are contracted one β-step at a time.  The
    rule's combine plan says which slots combine and which pass through.
    Each combination and contraction is an apply row.

    The meaning needs no queue, so without a list none is kept.  After the
    sort the queue is kept in ascending order, so that `insort_left` places
    a combined item, and each row shows it reversed.
    """
    # each prediction's semantic item per component (None where empty), keyed
    # by id(): cheaper than hashing a QueueItem, and the path keeps them
    held: dict[int, tuple[SemItem | None, ...]] = {}
    queue: list[SemItem] = []
    budget = MAX_REDUCTIONS

    def row(op: str = "apply"):
        rows.append(Step(op, None, (), tuple(reversed(queue))))

    def settle(item: SemItem) -> SemItem:
        nonlocal budget
        while (reduced := beta_step(item.term)) is not None:
            budget -= 1
            if budget <= 0:
                raise NonTerminating("semantic queue did not settle")
            contracted = SemItem(reduced, item.index)
            if rows is not None:
                row()
                queue[queue.index(item)] = contracted
            item = contracted
        return item

    for st, after in pairwise(path):
        if st.op == "scan":
            item = SemItem(st.rule.entry.semantics, st.queue[0].indices[0])
            held[id(st.queue[0])] = (None if item.term is EMPTY else item,)
            if rows is not None:
                rows.append(Step("scan", st.rule, st.input, tuple(queue)))
                queue.append(item)
                if item.term is EMPTY:
                    rows.append(Step("apply", None, after.input, tuple(queue)))
                    queue.pop()
    if rows is not None:
        # reversed first, so that equal indices end in the order a stable
        # descending sort gives them
        ordered = sorted(reversed(queue), key=attrgetter("index"))
        if ordered[::-1] != queue:
            rows.append(Step("sort", None, (), tuple(queue)))
        queue = ordered
    # a prediction is expanded or scanned after the expansion that made it,
    # so the reversed path reaches every expansion after its children
    for after, (op, rule, _input, predicted) in pairwise(reversed(path)):
        if op == "expand":
            children = [held.pop(id(c)) for c in after.queue[:len(rule.rhs)]]
            comps = []
            for function, (r, c) in rule.combine:
                a = children[r][c]
                if function is None:
                    comps.append(a)
                    continue
                f = children[function[0]][function[1]]
                if f is None or a is None:
                    comps.append(a if f is None else f)
                    continue
                term = App(f.term, a.term)
                stepped = beta_step(term)
                combined = SemItem(term if stepped is None else stepped,
                                   max(f.index, a.index).parent())
                if rows is not None:
                    row()
                    queue.remove(f)
                    queue.remove(a)
                    insort_left(queue, combined, key=attrgetter("index"))
                comps.append(settle(combined))
            held[id(predicted[0])] = tuple(comps)
    (root,) = held[id(path[0].queue[0])]
    meaning = EMPTY if root is None else settle(root).term
    if rows is not None:
        row("understand")
    return meaning


def _semantic_rows(path: list[Step]) -> list[Step]:
    """The semantic trace of an accepting path: `_compose` with a list."""
    rows: list[Step] = []
    _compose(path, rows)
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

    A derived meaning's free names all come from entries, so `Unrealizable`
    names any constant of the meaning that no entry carries, before any
    search.  The search is bounded by the β-normal meaning's constants,
    which changes nothing it finds (see `complete_derivations`) but leaves
    out everything that cannot end in the meaning.  So `Unrealizable` says
    "(budget exhausted)" only when a derivation within the bound went over
    the budget; without it, no derivation of the meaning exists."""
    meaning = beta_reduce(meaning)
    carried = set().union(*(constants(e.semantics) for e in lexicon.entries))
    missing = sorted(constants(meaning).keys() - carried)
    if missing:
        raise Unrealizable(f"no derivation yields {render_term(meaning)}: "
                           f"no entry carries {', '.join(missing)}")
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


def _readings(grammar: CompiledGrammar, utterance: str):
    """Yields (α-canonical key, meaning, path) for the first accepting path
    of each α-equivalence class of meanings, in the order the parser
    accepts them; a reader that stops early parses no further."""
    seen = set()
    for path in _parses(grammar, utterance):
        meaning = _compose(path)
        key = alpha_canonical(meaning)
        if key not in seen:
            seen.add(key)
            yield key, meaning, path


def all_meanings(grammar: CompiledGrammar, utterance) -> list[LambdaTerm]:
    """Every meaning the grammar gives the utterance, one per α-equivalence
    class, in the order the parser accepts its paths (so the first is the
    one `understand` gives).  A judge asking after one meaning wants
    `match_meaning`."""
    return [meaning for _key, meaning, _path in _readings(grammar, utterance)]


def derivations(grammar: CompiledGrammar, utterance) -> list[DerivationTree]:
    """One derivation per meaning of the utterance, in `all_meanings`
    order: what `derive --target` prints."""
    return [derivation(path)
            for _key, _meaning, path in _readings(grammar, utterance)]


def match_meaning(grammar: CompiledGrammar, utterance,
                  meaning: LambdaTerm) -> tuple[list[Step] | None, bool]:
    """The first accepting path whose meaning is α-equal to the meaning
    (None if there is none), and whether the parser accepted any path.

    It reads the readings `all_meanings` reads, and stops at the one with
    that meaning, whose path is the first to mean it; so a judge that asks
    whether the utterance can mean this pays only for the paths before it,
    and when no path matches, it has composed every one."""
    target = alpha_canonical(meaning)
    accepted = False
    for key, _meaning, path in _readings(grammar, utterance):
        if key == target:
            return path, True
        accepted = True
    return None, accepted


@dataclass(frozen=True)
class UMP:
    """An utterance paired with its logical form."""
    exponent: str
    meaning: LambdaTerm

    def __repr__(self):
        return f"⟨{self.exponent}, {render_term(self.meaning)}⟩"

