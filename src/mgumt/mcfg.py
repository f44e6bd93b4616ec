"""Compile a minimalist lexicon into an equivalent multiple context-free
grammar, and the node-index algebra that sequences top-down predictions.

Categories are tuples of feature suffixes (head first, then chains, which
always start with a licensee).  Rules come from closing the entries'
categories bottom-up under the engine's own merge and move, applied to
skeleton expressions whose exponents name the premises' components; so a
rule's string yield is the one the engine computes (Michaelis 2001).

A result is dropped when one of its chains does not start with a licensee,
or two start with the same one.  Merge keeps every chain of its premises,
and move touches only the one chain that starts with its licensor's
licensee, so such an item can never shed its chains and reach the
one-component start category: dropping it loses no rule of a derivation.
It also bounds the category space (every component is a suffix of an
entry's feature list, one chain per licensee), so the closure ends.  Rules
unreachable from the start category are pruned, which reproduces the
published 16-rule grammar for the expert lexicon.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from itertools import groupby

from .grammar import (
    BASE, NEG, POS, SEL, Expression, Feature, FeatureMismatch, Lexicon, Sign,
    SyntacticType, fuse_tokens, merge, move, render_features,
)
from .terms import EMPTY

AXIOM = "axiom"


class EmptyLexicon(Exception):
    pass


class ArityMismatch(Exception):
    pass


Feats = tuple[Feature, ...]


@dataclass(frozen=True)
class McfgCategory:
    """n-ary string predicate: the head feature suffix plus chain suffixes.

    `lexical` marks categories realized directly by lexicon entries of
    category "::"; chains are always derived, so only the head carries the
    mark.
    """
    lexical: bool
    components: tuple[Feats, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("category needs at least one component")
        if self.lexical and len(self.components) > 1:
            raise ValueError("a lexical category cannot carry chains")
        for chain in self.components[1:]:
            if not chain or chain[0].kind != NEG:
                raise ValueError("chains must start with a licensee")
        # the parser hashes a category at every step
        object.__setattr__(self, "_hash", hash((self.lexical, self.components)))

    def __hash__(self):
        return self._hash

    @property
    def arity(self):
        return len(self.components)

    @property
    def head(self) -> Feats:
        return self.components[0]

    def __repr__(self):
        mark = "::" if self.lexical else ":"
        parts = [mark + render_features(self.components[0])]
        parts += [render_features(c) for c in self.components[1:]]
        return "⟨" + ", ".join(parts) + "⟩"


Slot = tuple[int, int]          # (rhs index, component index)


@dataclass(frozen=True)
class McfgRule:
    lhs: McfgCategory
    rhs: tuple[McfgCategory, ...]
    pattern: tuple[tuple[Slot, ...], ...]   # per lhs component
    provenance: str
    entry: Sign | None = None               # axioms only

    def __post_init__(self):
        # the parser asks at every move
        object.__setattr__(self, "is_axiom", self.provenance == AXIOM)
        if self.is_axiom:
            if self.rhs or self.entry is None:
                raise ValueError("an axiom has no rhs and carries its entry")
            # the tokens a scan of the axiom consumes
            object.__setattr__(self, "tokens", tuple(self.entry.exponent.split()))
            return
        slots = [s for comp in self.pattern for s in comp]
        expected = {(r, c) for r, cat in enumerate(self.rhs)
                    for c in range(cat.arity)}
        if len(slots) != len(set(slots)) or set(slots) != expected:
            raise ValueError(f"non-linear variable use in {self!r}")
        # per rhs component: the lhs component it lies in, and the digit it
        # adds to that component's index (none for a lone variable)
        plan = [[None] * cat.arity for cat in self.rhs]
        for p, comp in enumerate(self.pattern):
            for j, (r, c) in enumerate(comp):
                plan[r][c] = (p, bytes((j,)) if len(comp) > 1 else b"")
        object.__setattr__(self, "plan", tuple(map(tuple, plan)))

    def var_names(self) -> dict[Slot, str]:
        names = {}
        k = 0
        for r, cat in enumerate(self.rhs):
            for c in range(cat.arity):
                names[(r, c)] = f"e{k}"
                k += 1
        return names

    def __repr__(self):
        return render_rule(self)


def render_rule(rule: McfgRule) -> str:
    if rule.is_axiom:
        literal = rule.entry.exponent if rule.entry.exponent else "ε"
        return f"{rule.lhs!r}({literal})"
    names = rule.var_names()
    lhs_args = ", ".join(
        " ".join(names[s] for s in comp) for comp in rule.pattern)
    rhs = " ".join(
        f"{cat!r}({', '.join(names[(r, c)] for c in range(cat.arity))})"
        for r, cat in enumerate(rule.rhs))
    return f"{rule.lhs!r}({lhs_args}) <- {rhs}"


# --- node indices --------------------------------------------------------------

@total_ordering
@dataclass(frozen=True, slots=True)
class NodeIndex:
    """Tree address of the string material a prediction covers.

    Ordered by dictionary order on digit sequences (a prefix precedes its
    extensions), which sorts any tree's leaf addresses in surface order;
    on sibling-comparable addresses this agrees with the shorter-first,
    equal-length-lexicographic reading.

    The digits are stored as `bytes` (a tuple of ints is converted), whose
    order is the same dictionary order: copying, comparing and hashing an
    address then run in C (`bytes` keeps its hash), so a parser step costs
    about the same however deep the addresses grow.
    """
    digits: bytes = b""

    def __post_init__(self):
        if type(self.digits) is not bytes:
            object.__setattr__(self, "digits", bytes(self.digits))

    def child(self, j: int) -> "NodeIndex":
        return _index(self.digits + bytes((j,)))

    def parent(self) -> "NodeIndex":
        return _index(self.digits[:-1])

    def __len__(self):
        return len(self.digits)

    def __repr__(self):
        return "".join(str(d) for d in self.digits) if self.digits else "ε"

    def __lt__(self, other):
        return self.digits < other.digits


ROOT = NodeIndex()
_new_index = object.__new__
_set_digits = NodeIndex.digits.__set__


def _index(digits: bytes) -> NodeIndex:
    """NodeIndex(digits) for digits already bytes, without the checks."""
    index = _new_index(NodeIndex)
    _set_digits(index, digits)
    return index


def assign_child_indices(rule: McfgRule, parent_indices) -> list[tuple[NodeIndex, ...]]:
    """Distribute a parent's component indices over the rule's rhs.

    A component concatenating k>=2 variables extends its index with the
    variable's position; a lone variable inherits the index unchanged.
    """
    if len(parent_indices) != len(rule.lhs.components):
        raise ArityMismatch(
            f"{rule.lhs!r} has arity {rule.lhs.arity}, got {len(parent_indices)}")
    return [tuple([_index(parent_indices[p].digits + d) if d
                   else parent_indices[p] for p, d in row])
            for row in rule.plan]


# --- compilation ----------------------------------------------------------------

@dataclass
class CompiledGrammar:
    lexicon: Lexicon
    rules: list[McfgRule]
    start_categories: list[McfgCategory]

    def __post_init__(self):
        self._axioms: dict[McfgCategory, list[McfgRule]] = {}
        self._expansions: dict[McfgCategory, list[McfgRule]] = {}
        for rule in self.rules:
            split = self._axioms if rule.is_axiom else self._expansions
            split.setdefault(rule.lhs, []).append(rule)
        # the suffix tokens ("-s") the axioms spell, which a scan may split
        # off the end of an input token
        self.suffix_tokens = {t for r in self.rules if r.is_axiom
                              for t in r.tokens if t.startswith("-")}

    def expansions(self, cat: McfgCategory) -> list[McfgRule]:
        """The non-axiom rules for cat, in grammar order; not to be changed."""
        return self._expansions.get(cat, [])

    def axioms(self, cat: McfgCategory) -> list[McfgRule]:
        """The axioms for cat, in grammar order; not to be changed."""
        return self._axioms.get(cat, [])


def _skeleton(cat: McfgCategory, r: int) -> Expression:
    """Premise r of a rule: one sign per component, whose exponent names the
    component's slot ("r.c") so that merge and move report the rule's
    pattern in the exponents of their result.  A placeholder never starts
    with "-", so concatenation never fuses two of them."""
    return Expression(tuple(
        Sign(f"{r}.{c}", SyntacticType(cat.lexical, feats), EMPTY)
        for c, feats in enumerate(cat.components)))


def _slot(token: str) -> Slot:
    r, _, c = token.partition(".")
    return int(r), int(c)


def compile_grammar(lex: Lexicon) -> CompiledGrammar:
    """Close the entries' categories under merge and move, bottom-up, then
    keep the rules reachable from the start category; see module
    docstring."""
    if not len(lex):
        raise EmptyLexicon("cannot compile an empty lexicon")
    rules: list[McfgRule] = []
    agenda: list[McfgCategory] = []
    for entry in lex.entries:
        k = McfgCategory(entry.stype.lexical, (entry.stype.features,))
        rules.append(McfgRule(k, (), (), AXIOM, entry))
        agenda.append(k)

    def derive(op, rhs):
        try:
            expr, tag = op(*(_skeleton(c, r) for r, c in enumerate(rhs)))
        except FeatureMismatch:     # move without a matching chain
            return
        comps = tuple(s.stype.features for s in expr.signs)
        licensees = [chain[0] for chain in comps[1:]]
        if (any(f.kind != NEG for f in licensees)
                or len(set(licensees)) < len(licensees)):
            return      # chains that can never move out
        lhs = McfgCategory(False, comps)
        pattern = tuple(tuple(_slot(t) for t in s.exponent.split())
                        for s in expr.signs)
        rules.append(McfgRule(lhs, rhs, pattern, tag))
        agenda.append(lhs)

    done: set[McfgCategory] = set()
    by_lead: dict[Feature, list[McfgCategory]] = {}
    while agenda:
        k = agenda.pop()
        if k in done or not k.head:     # a spent head neither merges nor moves
            continue
        done.add(k)
        lead = k.head[0]
        by_lead.setdefault(lead, []).append(k)
        if lead.kind == SEL:
            for b in by_lead.get(Feature(BASE, lead.ident), ()):
                derive(merge, (k, b))
        elif lead.kind == BASE:
            for a in by_lead.get(Feature(SEL, lead.ident), ()):
                derive(merge, (a, k))
        elif lead.kind == POS:
            derive(move, (k,))

    start = (Feature(BASE, lex.start_symbol),)
    starts = [c for c in (McfgCategory(False, (start,)),
                          McfgCategory(True, (start,))) if c in done]
    by_lhs: dict[McfgCategory, list[McfgRule]] = {}
    for r in rules:
        by_lhs.setdefault(r.lhs, []).append(r)
    reachable = set(starts)
    frontier = list(starts)
    while frontier:
        for rule in by_lhs.get(frontier.pop(), ()):
            for sub in rule.rhs:
                if sub not in reachable:
                    reachable.add(sub)
                    frontier.append(sub)
    final = [r for r in rules if r.lhs in reachable]

    # rules in order of (lhs name, axiom, provenance, entry order), ties
    # broken by the rule's rendering, which only tied rules pay for
    entry_order = {id(e): i for i, e in enumerate(lex.entries)}
    names = {cat: repr(cat) for cat in reachable}

    def key(r):
        return (names[r.lhs], r.is_axiom, r.provenance,
                entry_order.get(id(r.entry), -1))

    final.sort(key=key)
    ordered = []
    for _, tied in groupby(final, key):
        tied = list(tied)
        if len(tied) > 1:
            tied.sort(key=repr)
        ordered += tied
    return CompiledGrammar(lex, ordered, starts)


def rule_dump(grammar: CompiledGrammar) -> str:
    return "\n".join(render_rule(r) for r in grammar.rules) + "\n"


# --- bounded string enumeration (equivalence oracle) ----------------------------

def enumerate_strings(grammar: CompiledGrammar, max_steps: int) -> set[str]:
    """All sentences with a derivation of at most max_steps structural rule
    expansions, built bottom-up; the oracle side of the weak-equivalence
    check against the derivation engine."""
    table: dict[McfgCategory, set[tuple[tuple[str, ...], int]]] = {}
    for rule in grammar.rules:
        if rule.is_axiom:
            table.setdefault(rule.lhs, set()).add(
                ((rule.entry.exponent,), 0))
    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            if rule.is_axiom:
                continue
            pools = [table.get(c, ()) for c in rule.rhs]
            if any(not pool for pool in pools):
                continue
            for combo in _product(pools):
                steps = 1 + sum(s for _, s in combo)
                if steps > max_steps:
                    continue
                strings = [parts for parts, _ in combo]
                built = []
                for comp in rule.pattern:
                    pieces = []
                    for r, c in comp:
                        pieces.append(strings[r][c])
                    built.append(_join(pieces))
                item = (tuple(built), steps)
                bucket = table.setdefault(rule.lhs, set())
                if item not in bucket:
                    bucket.add(item)
                    changed = True
    out = set()
    start = McfgCategory(False, ((Feature(BASE, grammar.lexicon.start_symbol),),))
    for parts, _ in table.get(start, ()):
        out.add(parts[0])
    return out


def _product(pools):
    if not pools:
        yield ()
        return
    first, rest = pools[0], pools[1:]
    for item in list(first):
        for tail in _product(rest):
            yield (item,) + tail


def _join(pieces):
    toks = []
    for p in pieces:
        toks.extend(p.split())
    return " ".join(fuse_tokens(toks))
