"""Minimalist-grammar data model and the five structure-building rules.

A lexicon stores signs (exponent, syntactic type, semantics).  Merge consumes
a selector/base feature pair, move a licensor/licensee pair under the
shortest-movement constraint.  A bottom-up engine enumerates derivations by
size so golden derivations replay deterministically.

Exponents are space-separated token strings.  A token with a leading dash is
a suffix: when concatenation places it directly after a stem token the two
fuse (eat + -s -> eats), which is how inflected surface forms arise.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field, replace as dc_replace

from .terms import (
    MAX_REDUCTIONS, LambdaTerm, NonTerminating, alpha_canonical, apply,
    beta_step, constants, is_normal, parse_term, render_term,
)

BASE, SEL, POS, NEG = "base", "sel", "pos", "neg"

START = "c"     # the category of a sentence

_PREFIX = {SEL: "=", POS: "+", NEG: "-"}
_BY_PREFIX = {"=": SEL, "+": POS, "-": NEG}


class FeatureMismatch(Exception):
    pass


class SmcViolation(Exception):
    pass


class NoRedex(Exception):
    pass


class LexiconError(Exception):
    pass


@dataclass(frozen=True)
class Feature:
    kind: str
    ident: str

    def __post_init__(self):
        if self.kind not in (BASE, SEL, POS, NEG):
            raise ValueError(f"bad feature kind {self.kind!r}")

    def __repr__(self):
        return _PREFIX.get(self.kind, "") + self.ident


def parse_feature(token: str) -> Feature:
    if token[:1] in _BY_PREFIX:
        return Feature(_BY_PREFIX[token[0]], token[1:])
    return Feature(BASE, token)


def parse_features(text: str) -> tuple[Feature, ...]:
    return tuple(parse_feature(tok) for tok in text.split())


def render_features(features) -> str:
    return " ".join(repr(f) for f in features)


@dataclass(frozen=True)
class SyntacticType:
    lexical: bool          # True = "::", False = ":"
    features: tuple[Feature, ...]

    @property
    def category(self) -> str:
        return "::" if self.lexical else ":"

    def __repr__(self):
        return self.category + render_features(self.features)


def check_lexical_type(t: SyntacticType) -> bool:
    """True iff the features match (selector|licensor)* base licensee*."""
    i, feats = 0, t.features
    while i < len(feats) and feats[i].kind in (SEL, POS):
        i += 1
    if i >= len(feats) or feats[i].kind != BASE:
        return False
    i += 1
    return all(f.kind == NEG for f in feats[i:])


def fuse_tokens(toks) -> list[str]:
    """Concatenate token lists, gluing suffix tokens onto the previous stem."""
    out = []
    for tok in toks:
        if tok.startswith("-") and len(tok) > 1 and out:
            out[-1] = out[-1] + tok[1:]
        else:
            out.append(tok)
    return out


def concat_exponents(first: str, second: str) -> str:
    return " ".join(fuse_tokens(first.split() + second.split()))


@dataclass(frozen=True)
class Sign:
    exponent: str
    stype: SyntacticType
    semantics: LambdaTerm

    def __repr__(self):
        return render_sign(self)


def render_sign(sign: Sign) -> str:
    sem = render_term(sign.semantics, unicode_lambda=True)
    return f"⟨{sign.exponent or 'ε'}, {sign.stype!r}, {sem}⟩"


@dataclass(frozen=True)
class Expression:
    signs: tuple[Sign, ...]

    def __post_init__(self):
        if not self.signs:
            raise ValueError("an expression needs at least one sign")

    @property
    def head(self) -> Sign:
        return self.signs[0]

    def __repr__(self):
        return " ".join(render_sign(s) for s in self.signs)


def derived_sign(exponent, features, semantics) -> Sign:
    return Sign(exponent, SyntacticType(False, tuple(features)), semantics)


def sign_key(sign: Sign):
    return (sign.exponent, sign.stype.lexical, sign.stype.features,
            alpha_canonical(sign.semantics))


def expression_key(expr: Expression):
    return tuple(sign_key(s) for s in expr.signs)


# --- merge / move / explicit reduction ---------------------------------------

def merge(a: Expression, b: Expression) -> tuple[Expression, str]:
    """Combine a selector-headed expression with a matching base-headed one.

    Dispatches to merge-1 (lexical selector, selected features exhausted),
    merge-2 (derived selector, selected features exhausted; the selected
    exponent goes to the front) or merge-3 (the selected head keeps residual
    features and survives as a chain).  Semantics of merge-1/2 is the head
    applied to the argument, left unreduced.
    """
    ha, hb = a.head, b.head
    if not ha.stype.features or ha.stype.features[0].kind != SEL:
        raise FeatureMismatch("head does not start with a selector")
    f = ha.stype.features[0].ident
    if not hb.stype.features or hb.stype.features[0] != Feature(BASE, f):
        raise FeatureMismatch(f"selected head does not start with base {f}")
    rest_a = ha.stype.features[1:]
    rest_b = hb.stype.features[1:]
    if rest_b:
        head = derived_sign(ha.exponent, rest_a, ha.semantics)
        chain = derived_sign(hb.exponent, rest_b, hb.semantics)
        return Expression((head,) + a.signs[1:] + (chain,) + b.signs[1:]), "merge-3"
    sem = apply(ha.semantics, hb.semantics)
    if ha.stype.lexical:
        if len(a.signs) != 1:
            raise FeatureMismatch("a lexical selector must be a single sign")
        head = derived_sign(concat_exponents(ha.exponent, hb.exponent),
                            rest_a, sem)
        return Expression((head,) + b.signs[1:]), "merge-1"
    head = derived_sign(concat_exponents(hb.exponent, ha.exponent),
                        rest_a, sem)
    return Expression((head,) + a.signs[1:] + b.signs[1:]), "merge-2"


def move(a: Expression) -> tuple[Expression, str]:
    """Displace the unique chain licensed by the head's leading licensor.

    move-1 removes an exhausted chain, prefixing its exponent and composing
    semantics; move-2 just checks the feature pair and leaves the chain in
    place with its residue.
    """
    ha = a.head
    if not ha.stype.features or ha.stype.features[0].kind != POS:
        raise FeatureMismatch("head does not start with a licensor")
    f = ha.stype.features[0].ident
    licensee = Feature(NEG, f)
    hits = [i for i, s in enumerate(a.signs[1:], start=1)
            if s.stype.features and s.stype.features[0] == licensee]
    if len(hits) > 1:
        raise SmcViolation(f"{len(hits)} chains compete for -{f}")
    if not hits:
        raise FeatureMismatch(f"no chain starts with -{f}")
    i = hits[0]
    mover = a.signs[i]
    rest_head = ha.stype.features[1:]
    rest_mover = mover.stype.features[1:]
    others = a.signs[1:i] + a.signs[i + 1:]
    if not rest_mover:
        head = derived_sign(concat_exponents(mover.exponent, ha.exponent),
                            rest_head, apply(ha.semantics, mover.semantics))
        return Expression((head,) + others), "move-1"
    head = derived_sign(ha.exponent, rest_head, ha.semantics)
    stayed = derived_sign(mover.exponent, rest_mover, mover.semantics)
    return Expression((head,) + a.signs[1:i] + (stayed,) + a.signs[i + 1:]), "move-2"


def reduce_step(a: Expression) -> Expression:
    """One leftmost-outermost reduction step on the head semantics, emitted
    as an explicit derivation step."""
    stepped = beta_step(a.head.semantics)
    if stepped is None:
        raise NoRedex("head semantics is already normal")
    head = dc_replace(a.head, semantics=stepped)
    return Expression((head,) + a.signs[1:])


# --- lexicon ------------------------------------------------------------------

@dataclass(frozen=True)
class Lexicon:
    entries: tuple[Sign, ...]
    # each entry by its α-canonical key, in entry order
    _keys: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        keys = {}
        for entry in self.entries:
            k = sign_key(entry)
            if k in keys:
                raise LexiconError(f"duplicate entry {entry!r}")
            keys[k] = entry
        object.__setattr__(self, "_keys", keys)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def contains(self, sign: Sign) -> bool:
        return sign_key(sign) in self._keys

    def with_entry(self, sign: Sign) -> "Lexicon":
        k = sign_key(sign)
        if k in self._keys:
            return self
        return self._keyed({**self._keys, k: sign})

    def without(self, signs) -> "Lexicon":
        drop = {sign_key(s) for s in signs}
        return self._keyed({k: e for k, e in self._keys.items() if k not in drop})

    def _keyed(self, keys: dict) -> "Lexicon":
        """The lexicon of keys' entries, in order: the entries keep the
        keys they already have."""
        lex = object.__new__(Lexicon)
        object.__setattr__(lex, "entries", tuple(keys.values()))
        object.__setattr__(lex, "_keys", keys)
        return lex


def parse_lexicon_line(line: str) -> Sign:
    parts = line.split("\t")
    if len(parts) != 4:
        raise LexiconError(
            f"expected 4 tab-separated fields, got {len(parts)}: {line!r}")
    exponent, category, feats, sem = (p.strip() for p in parts)
    if category not in ("::", ":"):
        raise LexiconError(f"bad category {category!r}")
    exponent = "" if exponent == "eps" else exponent
    return Sign(exponent, SyntacticType(category == "::", parse_features(feats)),
                parse_term(sem))


def load_lexicon(text: str) -> Lexicon:
    entries = []
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        entries.append(parse_lexicon_line(raw))
    return Lexicon(tuple(entries))


def save_lexicon(lex: Lexicon) -> str:
    lines = []
    for e in lex.entries:
        exponent = e.exponent if e.exponent else "eps"
        lines.append("\t".join([
            exponent, e.stype.category, render_features(e.stype.features),
            render_term(e.semantics)]))
    return "\n".join(lines) + "\n"


# --- derivation trees ---------------------------------------------------------

LEXICAL = "lexical"


@dataclass(frozen=True)
class DerivationTree:
    rule: str                       # merge-1/2/3, move-1/2, λ-app, lexical
    expression: Expression
    children: tuple["DerivationTree", ...] = ()
    size: int = 0                   # rule applications below and including here
    structural_size: int = 0        # merges and moves only

    @staticmethod
    def leaf(entry: Sign) -> "DerivationTree":
        return DerivationTree(LEXICAL, Expression((entry,)))

    def nodes(self):
        """Every node in preorder, earlier premises first, from an explicit
        stack, so a tree of any depth is walked."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack += reversed(node.children)

    def steps(self):
        """Rule applications in presentation order: later premises first,
        each node after its premises.  Replaying the gold grammar yields the
        published step numbering.  That order is `nodes`, reversed."""
        return [n for n in self.nodes() if n.rule != LEXICAL][::-1]

    @property
    def sign(self) -> Sign:
        return self.expression.head


def _apply_rule(rule: str, premises) -> Expression:
    if rule == "λ-app":
        return reduce_step(premises[0])
    if rule.startswith("merge"):
        got, tag = merge(premises[0], premises[1])
    else:
        got, tag = move(premises[0])
    if tag != rule:
        raise FeatureMismatch(f"replay produced {tag}, tree says {rule}")
    return got


def replay(tree: DerivationTree) -> Expression:
    """Recompute every node from its children; raises if any label lies.
    Nodes are checked in postorder, earlier premises first, from an
    explicit stack, so a tree of any depth replays."""
    done: list[Expression] = []
    stack = [(tree, False)]
    while stack:
        node, ready = stack.pop()
        if node.rule == LEXICAL:
            done.append(node.expression)
        elif not ready:
            stack.append((node, True))
            stack += ((c, False) for c in reversed(node.children))
        else:
            cut = len(done) - len(node.children)
            got = _apply_rule(node.rule, done[cut:])
            if expression_key(got) != expression_key(node.expression):
                raise FeatureMismatch(f"replay mismatch at {node.rule}: {got!r}")
            done[cut:] = [got]
    return done[0]


def _normalized(tree: DerivationTree) -> DerivationTree:
    """Wrap explicit λ-app nodes until the head semantics is normal, each
    built from the β-step that found its redex; as in `beta_reduce`, a head
    not normal within `MAX_REDUCTIONS` steps raises NonTerminating."""
    for _ in range(MAX_REDUCTIONS):
        stepped = beta_step(tree.expression.head.semantics)
        if stepped is None:
            return tree
        signs = tree.expression.signs
        expr = Expression((dc_replace(signs[0], semantics=stepped),) + signs[1:])
        tree = DerivationTree("λ-app", expr, (tree,), tree.size + 1,
                              tree.structural_size)
    raise NonTerminating(f"no normal form within {MAX_REDUCTIONS} steps")


@dataclass
class DerivationSearch:
    """Everything derivable within the per-derivation budget."""
    trees: list
    complete: list
    budget_exhausted: bool

    def complete_signs(self) -> list[Sign]:
        return [t.sign for t in self.complete]


def is_complete(expr: Expression) -> bool:
    if len(expr.signs) != 1:
        return False
    head = expr.head
    return (not head.stype.lexical
            and head.stype.features == (Feature(BASE, START),)
            and is_normal(head.semantics))


def _fits(expr: Expression, bound: Counter) -> bool:
    """Whether the constants of all the expression's signs fit in bound."""
    counts: Counter = Counter()
    for sign in expr.signs:
        counts.update(constants(sign.semantics))
    return counts <= bound


def pairs_by_lead(index: dict, item, lead: Feature) -> list[tuple]:
    """File item under its leading feature in index, the agenda index of
    Harkema 2001 and Stabler 2013, and return the (selector, selected)
    pairs it makes with the items filed before it, in filing order: with
    each item led by `f` if it is led by `=f`, and the other way round."""
    index.setdefault(lead, []).append(item)
    if lead.kind == SEL:
        return [(item, b) for b in index.get(Feature(BASE, lead.ident), ())]
    if lead.kind == BASE:
        return [(a, item) for a in index.get(Feature(SEL, lead.ident), ())]
    return []


def complete_derivations(lex: Lexicon,
                         max_rule_applications: int | None = None, *,
                         meaning: LambdaTerm | None = None) -> DerivationSearch:
    """Bottom-up closure of the lexicon under merge, move and λ-app.

    Enumerates derivation trees in order of increasing step count (budget is
    the per-derivation step bound, λ-app steps included), head semantics kept
    normal between structural steps.  `produce` and plain `mgumt derive`
    use it; what an utterance means, and its derivations, are the parser's
    (`match_meaning`, `derivations`).

    Each expression is processed once, by its first smallest tree: trees pop
    in nondecreasing size, every tree pushed is strictly larger than the one
    being processed, and `push` refuses an expression whose best tree is no
    larger.  A complete expression is one `:` sign whose features are
    exactly `c`, so its key fixes its (exponent, α-canonical meaning), and
    `complete` holds one tree per such pair, in the order popped.

    Processed trees are filed by their head's leading feature in the agenda
    index that `pairs_by_lead` keeps: a popped tree led by `=f` is merged
    with each processed tree led by `f`, one led by `f` with each led by
    `=f`, in processed order, and one led by `+f` is moved.  Only one order
    of a pair can merge, and a failed merge pushes nothing, so trees are
    pushed in the order that trying every pair both ways pushes them: every
    output is the same.

    Given a `meaning`, the search keeps only expressions whose constants,
    counted over all their signs, fit within the meaning's.  Merge and move
    apply one sign's semantics to another's, and reduction never lowers a
    count (every binder is λ-I, checked by `Abs`, and EMPTY is an identity
    in `apply` and `beta_step`), so a dropped expression can only grow into
    complete derivations with other meanings.  Every subderivation of a kept
    tree is kept too, so the kept trees, their order and the complete
    derivations with that meaning are those of the full closure.  Dropped
    trees do not count towards `budget_exhausted`.
    """
    if max_rule_applications is None:
        max_rule_applications = max(10 * len(lex), 1)
    if max_rule_applications < 1:
        raise ValueError("budget must be at least 1")
    bound = None if meaning is None else constants(meaning)

    best: dict = {}
    heap: list = []
    seq = 0
    exhausted = False

    def push(tree):
        nonlocal seq, exhausted
        if bound is not None and not _fits(tree.expression, bound):
            return
        if tree.size > max_rule_applications:
            exhausted = True
            return
        k = expression_key(tree.expression)
        prev = best.get(k)
        if prev is not None and prev.size <= tree.size:
            return
        best[k] = tree
        heapq.heappush(heap, (tree.size, seq, k, tree))
        seq += 1

    for entry in lex.entries:
        push(DerivationTree.leaf(entry))

    processed: dict[Feature, list[DerivationTree]] = {}
    trees: list[DerivationTree] = []
    complete: list[DerivationTree] = []

    while heap:
        _, _, k, tree = heapq.heappop(heap)
        if best[k] is not tree:
            continue
        trees.append(tree)
        if is_complete(tree.expression):
            complete.append(tree)
        if not tree.sign.stype.features:
            continue
        lead = tree.sign.stype.features[0]
        for a, b in pairs_by_lead(processed, tree, lead):
            try:
                expr, tag = merge(a.expression, b.expression)
            except FeatureMismatch:
                continue
            push(_normalized(DerivationTree(
                tag, expr, (a, b), a.size + b.size + 1,
                a.structural_size + b.structural_size + 1)))
        if lead.kind == POS:
            try:
                expr, tag = move(tree.expression)
            except (FeatureMismatch, SmcViolation):
                continue
            push(_normalized(DerivationTree(tag, expr, (tree,), tree.size + 1,
                                            tree.structural_size + 1)))

    return DerivationSearch(trees, complete, exhausted)

