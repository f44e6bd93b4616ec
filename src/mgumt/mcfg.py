"""Compile a minimalist lexicon into an equivalent multiple context-free
grammar, and the node-index algebra that sequences top-down predictions.

Categories are tuples of feature suffixes (head first, then chains, which
always start with a licensee).  Rules are generated top-down from the start
category by inverting merge-1/2/3 and move-1/2 against the lexicon's feature
inventory; the category space is finite because every component must be a
suffix of some entry's feature list.  Unproductive and unreachable rules are
pruned, which reproduces the published 16-rule grammar for the expert
lexicon.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from .grammar import (
    BASE, NEG, POS, SEL, Feature, Lexicon, Sign, render_features,
)

MERGE1, MERGE2, MERGE3, MOVE1, MOVE2, AXIOM = (
    "merge-1", "merge-2", "merge-3", "move-1", "move-2", "axiom")


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
        if self.provenance == AXIOM:
            if self.rhs or self.entry is None:
                raise ValueError("an axiom has no rhs and carries its entry")
            return
        slots = [s for comp in self.pattern for s in comp]
        expected = {(r, c) for r, cat in enumerate(self.rhs)
                    for c in range(cat.arity)}
        if len(slots) != len(set(slots)) or set(slots) != expected:
            raise ValueError(f"non-linear variable use in {self!r}")

    @property
    def is_axiom(self):
        return self.provenance == AXIOM

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
@dataclass(frozen=True)
class NodeIndex:
    """Tree address of the string material a prediction covers.

    Ordered by dictionary order on digit sequences (a prefix precedes its
    extensions), which sorts any tree's leaf addresses in surface order;
    on sibling-comparable addresses this agrees with the shorter-first,
    equal-length-lexicographic reading.
    """
    digits: tuple[int, ...] = ()

    def child(self, j: int) -> "NodeIndex":
        return NodeIndex(self.digits + (j,))

    def parent(self) -> "NodeIndex":
        return NodeIndex(self.digits[:-1])

    def __len__(self):
        return len(self.digits)

    def __repr__(self):
        return "".join(str(d) for d in self.digits) if self.digits else "ε"

    def __lt__(self, other):
        return self.digits < other.digits


ROOT = NodeIndex()


def assign_child_indices(rule: McfgRule, parent_indices) -> list[tuple[NodeIndex, ...]]:
    """Distribute a parent's component indices over the rule's rhs.

    A component concatenating k>=2 variables extends its index with the
    variable's position; a lone variable inherits the index unchanged.
    """
    if len(parent_indices) != rule.lhs.arity:
        raise ArityMismatch(
            f"{rule.lhs!r} has arity {rule.lhs.arity}, got {len(parent_indices)}")
    where: dict[Slot, NodeIndex] = {}
    for comp, parent in zip(rule.pattern, parent_indices):
        if len(comp) == 1:
            where[comp[0]] = parent
        else:
            for j, slot in enumerate(comp):
                where[slot] = parent.child(j)
    return [tuple(where[(r, c)] for c in range(cat.arity))
            for r, cat in enumerate(rule.rhs)]


# --- compilation ----------------------------------------------------------------

def _suffixes(lex: Lexicon) -> set[Feats]:
    out = set()
    for e in lex.entries:
        feats = e.stype.features
        for i in range(len(feats)):
            out.add(feats[i:])
    return out


def _passthrough(n: int, rhs_index: int, start_comp: int) -> list[tuple[Slot, ...]]:
    return [((rhs_index, start_comp + i),) for i in range(n)]


@dataclass
class CompiledGrammar:
    lexicon: Lexicon
    rules: list[McfgRule]
    start_categories: list[McfgCategory]

    def __post_init__(self):
        self.by_lhs: dict[McfgCategory, list[McfgRule]] = {}
        for rule in self.rules:
            self.by_lhs.setdefault(rule.lhs, []).append(rule)

    def expansions(self, cat: McfgCategory) -> list[McfgRule]:
        return [r for r in self.by_lhs.get(cat, ()) if not r.is_axiom]

    def axioms(self, cat: McfgCategory) -> list[McfgRule]:
        return [r for r in self.by_lhs.get(cat, ()) if r.is_axiom]


def compile_grammar(lex: Lexicon) -> CompiledGrammar:
    """Fixed-point closure from the start category; see module docstring."""
    if not len(lex):
        raise EmptyLexicon("cannot compile an empty lexicon")
    suffixes = _suffixes(lex)
    lex_full: dict[Feats, list[Sign]] = {}
    der_full: dict[Feats, list[Sign]] = {}
    for e in lex.entries:
        (lex_full if e.stype.lexical else der_full).setdefault(
            e.stype.features, []).append(e)

    def cat(lexical: bool, components) -> McfgCategory | None:
        components = tuple(tuple(c) for c in components)
        for comp in components:
            if comp not in suffixes:
                return None
        if lexical and (len(components) > 1 or components[0] not in lex_full):
            return None
        for chain in components[1:]:
            if chain[0].kind != NEG:
                return None
        return McfgCategory(lexical, components)

    def marks(components):
        got = [c for c in (cat(False, components), cat(True, components))
               if c is not None]
        return got

    def inversions(k: McfgCategory):
        head, chains = k.head, k.components[1:]
        rules = []

        # unmerge-1: lexical selector, selected features spent
        for s in suffixes:
            if s and s[0].kind == SEL and s[1:] == head and s in lex_full:
                f = s[0].ident
                a = cat(True, [s])
                for b in marks([(Feature(BASE, f),), *chains]):
                    rules.append(McfgRule(
                        k,
                        (a, b),
                        (((0, 0), (1, 0)),) + tuple(_passthrough(len(chains), 1, 1)),
                        MERGE1))
        # unmerge-2: derived selector, selected features spent; chains split
        for s in suffixes:
            if not (s and s[0].kind == SEL and s[1:] == head):
                continue
            f = s[0].ident
            for cut in range(len(chains) + 1):
                z1, z2 = chains[:cut], chains[cut:]
                a = cat(False, [s, *z1])
                if a is None:
                    continue
                for b in marks([(Feature(BASE, f),), *z2]):
                    pattern = ((((1, 0), (0, 0)),)
                               + tuple(_passthrough(len(z1), 0, 1))
                               + tuple(_passthrough(len(z2), 1, 1)))
                    rules.append(McfgRule(k, (a, b), pattern, MERGE2))
        # unmerge-3: one chain is the just-selected head with its residue
        for j, new_chain in enumerate(chains):
            z1, z2 = chains[:j], chains[j + 1:]
            for s in suffixes:
                if not (s and s[0].kind == SEL and s[1:] == head):
                    continue
                f = s[0].ident
                b_head = (Feature(BASE, f),) + new_chain
                if b_head not in suffixes:
                    continue
                for a in marks([s, *z1]):
                    for b in marks([b_head, *z2]):
                        pattern = ((((0, 0),),)
                                   + tuple(_passthrough(len(z1), 0, 1))
                                   + (((1, 0),),)
                                   + tuple(_passthrough(len(z2), 1, 1)))
                        rules.append(McfgRule(k, (a, b), pattern, MERGE3))
        # unmove-1: reinsert a spent licensee chain
        for s in suffixes:
            if not (s and s[0].kind == POS and s[1:] == head):
                continue
            f = s[0].ident
            licensee = (Feature(NEG, f),)
            if licensee not in suffixes:
                continue
            if any(ch[0] == Feature(NEG, f) for ch in chains):
                continue    # SMC: the reinserted chain must be unique
            for j in range(len(chains) + 1):
                comps = [s, *chains[:j], licensee, *chains[j:]]
                p = cat(False, comps)
                if p is None:
                    continue
                rest = [c for c in range(1, len(comps)) if c != j + 1]
                pattern = (((0, j + 1), (0, 0)),) + tuple(((0, c),) for c in rest)
                rules.append(McfgRule(k, (p,), pattern, MOVE1))
        # unmove-2: a chain loses its leading licensee, everything stays put
        for j, chain in enumerate(chains):
            for s in suffixes:
                if not (s and s[0].kind == POS and s[1:] == head):
                    continue
                f = s[0].ident
                premise_chain = (Feature(NEG, f),) + chain
                if premise_chain not in suffixes:
                    continue
                others = chains[:j] + chains[j + 1:]
                if any(ch[0] == Feature(NEG, f) for ch in others):
                    continue    # SMC
                comps = [s, *chains[:j], premise_chain, *chains[j + 1:]]
                p = cat(False, comps)
                if p is None:
                    continue
                pattern = tuple(((0, c),) for c in range(len(comps)))
                rules.append(McfgRule(k, (p,), pattern, MOVE2))
        return rules

    def axioms(k: McfgCategory):
        table = lex_full if k.lexical else der_full
        if k.arity != 1:
            return []
        return [McfgRule(k, (), (), AXIOM, entry)
                for entry in table.get(k.head, ())]

    start_feats = (Feature(BASE, lex.start_symbol),)
    starts = [c for c in (cat(False, [start_feats]), cat(True, [start_feats]))
              if c is not None]

    agenda = list(starts)
    seen = set(agenda)
    all_rules: list[McfgRule] = []
    rule_seen = set()
    while agenda:
        k = agenda.pop()
        rules = axioms(k)
        if not k.lexical:
            rules += inversions(k)
        for rule in rules:
            if rule in rule_seen:
                continue
            rule_seen.add(rule)
            all_rules.append(rule)
            for sub in rule.rhs:
                if sub not in seen:
                    seen.add(sub)
                    agenda.append(sub)

    # productivity: keep rules whose rhs can all derive terminal material
    productive: set[McfgCategory] = set()
    changed = True
    while changed:
        changed = False
        for rule in all_rules:
            if rule.lhs in productive:
                continue
            if rule.is_axiom or all(r in productive for r in rule.rhs):
                productive.add(rule.lhs)
                changed = True
    kept = [r for r in all_rules
            if r.lhs in productive and all(c in productive for c in r.rhs)]

    # reachability over the productive rules
    reachable: set[McfgCategory] = {s for s in starts if s in productive}
    frontier = list(reachable)
    by_lhs: dict[McfgCategory, list[McfgRule]] = {}
    for r in kept:
        by_lhs.setdefault(r.lhs, []).append(r)
    while frontier:
        k = frontier.pop()
        for rule in by_lhs.get(k, ()):
            for sub in rule.rhs:
                if sub not in reachable:
                    reachable.add(sub)
                    frontier.append(sub)
    final = [r for r in kept if r.lhs in reachable]

    entry_order = {id(e): i for i, e in enumerate(lex.entries)}
    final.sort(key=lambda r: (repr(r.lhs), r.is_axiom, r.provenance,
                              entry_order.get(id(r.entry), -1), repr(r)))
    return CompiledGrammar(lex, final, [s for s in starts if s in reachable])


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
    from .grammar import fuse_tokens
    toks = []
    for p in pieces:
        toks.extend(p.split())
    return " ".join(fuse_tokens(toks))
