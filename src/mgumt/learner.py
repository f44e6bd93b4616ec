"""Reinforcement acquisition of a minimalist lexicon from utterance-meaning
pairs.

The learner starts from an empty lexicon and, for every pair the teacher
presents, either stores the whole utterance as a complex sign of the start
type or factors existing knowledge against the new evidence: matching token
spans with correlated semantic subterms are split out, the shared remainder
becomes a template whose semantics is obtained by lambda abstraction, and
unknown tokens analogous to known entries (shared character prefix, or the
position carrying the semantic residue) receive copied entries.  Every
revision must keep all previously endorsed pairs derivable, otherwise it is
rolled back; as with the teacher, a pair derives when the parser gives the
utterance that meaning, with each lexicon compiled to an MCFG once.  A
pair's last parse is kept as a witness (the entries it scanned), and a
revision that keeps all of them cannot lose the pair, so only the pairs
whose witness lost an entry are parsed again.

Punishment triggers lexicon repair: the morpheme split extracts a suffix
paradigm (rat/rats) into a movement-licensed number layer, and suppletion
blocking retires a regular cell once an irregular filler (mice) has been
endorsed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

# complete_derivations stays importable here: perfbench/spans.py traces it
# by this name
from .grammar import (  # noqa: F401
    BASE, NEG, POS, SEL, Feature, Lexicon, Sign, SyntacticType,
    complete_derivations, sign_key,
)
from .mcfg import CompiledGrammar, compile_grammar
from .terms import (
    EMPTY, Abs, App, LambdaTerm, SubtermNotFound, Var, VariableClash,
    VariableName, abstract, all_names, alpha_canonical, alpha_equivalent,
    beta_reduce, free_vars, render_term, substitute, subterms, var_name,
)
from .transducer import UMP, ProduceResult, derivation, match_meaning, produce

MIN_STEM_CHARS = 3      # character-phase alignment threshold


class FactoringRegression(Exception):
    pass


class NoRepairFound(Exception):
    pass


# --- alignment ------------------------------------------------------------------

@dataclass
class Alignment:
    """What two items have in common and where they differ."""
    kind: str                               # pair | window | analogy | chars
    shared_exponent_segments: list[list[str]]
    residue_exponents: tuple[list[str], list[str]]
    shared_semantic_subterm: LambdaTerm | None
    semantic_residues: tuple[LambdaTerm, LambdaTerm] | None
    source: object = None                   # the new item (UMP)
    target: object = None                   # entry or endorsed UMP
    score: int = 0

    def key(self):
        return (self.kind,
                tuple(map(tuple, self.shared_exponent_segments)),
                tuple(self.residue_exponents[0]),
                tuple(self.residue_exponents[1]),
                _item_key(self.target))


def _item_key(x):
    if isinstance(x, Sign):
        return ("sign",) + sign_key(x)
    if isinstance(x, UMP):
        return ("ump", x.exponent, alpha_canonical(x.meaning))
    return ("other", repr(x))


def _toks(x) -> list[str]:
    if isinstance(x, UMP):
        return x.exponent.split()
    if isinstance(x, Sign):
        return x.exponent.split()
    return str(x).split()


def _sem(x) -> LambdaTerm:
    return x.meaning if isinstance(x, UMP) else x.semantics


def common_blocks(a: list[str], b: list[str]):
    """Ordered maximal common token blocks, longest first recursion with
    leftmost tie-break (the usual diff decomposition)."""
    if not a or not b:
        return []
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
    left = common_blocks(a[:i], b[:j])
    right = [(i + best_len + di, j + best_len + dj, n)
             for di, dj, n in common_blocks(a[i + best_len:], b[j + best_len:])]
    return left + [(i, j, best_len)] + right


def _gaps(a, b, blocks):
    """Unmatched token spans around the blocks, as parallel (a_span, b_span)
    pairs; index 0 precedes the first block."""
    gaps = []
    pa = pb = 0
    for i, j, n in blocks:
        gaps.append((a[pa:i], b[pb:j]))
        pa, pb = i + n, j + n
    gaps.append((a[pa:], b[pb:]))
    return gaps


def semantic_diff(a: LambdaTerm, b: LambdaTerm):
    """The single position where the two terms differ, or None when they
    differ in more than one place.  A root difference means the terms share
    no structure (the vacuous-content case)."""
    diffs = []

    def walk(x, y, depth):
        if alpha_equivalent(x, y):
            return
        if isinstance(x, App) and isinstance(y, App):
            before = len(diffs)
            walk(x.fun, y.fun, depth + 1)
            walk(x.arg, y.arg, depth + 1)
            if len(diffs) - before > 1:
                diffs[before:] = [(x, y)]
            return
        if isinstance(x, Abs) and isinstance(y, Abs):
            body = substitute(y.body, y.binder, Var(x.binder)) \
                if y.binder != x.binder else y.body
            walk(x.body, body, depth + 1)
            return
        diffs.append((x, y))

    walk(a, b, 0)
    if len(diffs) != 1:
        return None
    return diffs[0]


def largest_common_subterm(a: LambdaTerm, b: LambdaTerm):
    pool = {alpha_canonical(s) for s in subterms(b) if s is not EMPTY}
    best = None
    for s in subterms(a):
        if s is EMPTY or alpha_canonical(s) not in pool:
            continue
        size = sum(1 for _ in subterms(s))
        if best is None or size > best[0]:
            best = (size, s)
    return best[1] if best else None


def char_prefix(a: str, b: str) -> int:
    n = 0
    while n < len(a) and n < len(b) and a[n] == b[n]:
        n += 1
    return n


def align(a, b):
    """Two-phase matcher: contiguous token spans first, character prefixes
    (>= 3 chars) inside mismatching token pairs second, together with the
    single correlated semantic residue.  None when no usable match exists."""
    if isinstance(a, str) and isinstance(b, str) and " " not in a + b:
        n = char_prefix(a, b)
        if n < MIN_STEM_CHARS:
            return None
        return Alignment("chars", [[a[:n]]], ([a[n:]] if a[n:] else [],
                                              [b[n:]] if b[n:] else []),
                         None, None, source=a, target=b, score=n)
    ta, tb = _toks(a), _toks(b)
    blocks = common_blocks(ta, tb)
    if not blocks:
        return None
    gaps = _gaps(ta, tb, blocks)
    both = [(i, ga, gb) for i, (ga, gb) in enumerate(gaps) if ga and gb]
    if len(both) != 1:
        return None
    _, ra, rb = both[0]
    shared = [ta[i:i + n] for i, _, n in blocks]
    diff = semantic_diff(_sem(a), _sem(b))
    residues = diff if diff else None
    return Alignment("pair", shared, (ra, rb),
                     largest_common_subterm(_sem(a), _sem(b)), residues,
                     source=a, target=b, score=sum(n for *_, n in blocks))


# --- learner state ---------------------------------------------------------------

@dataclass
class ParadigmRecord:
    stem_base: str          # noun-class base the suffixes select
    licensee: str           # movement feature of the regular cells
    result_base: str        # the number layer's base type
    suffixes: list[str]     # overt suffix exponents, e.g. ["-s"]


@dataclass
class LearnerState:
    lexicon: Lexicon = field(default_factory=lambda: Lexicon(()))
    time: int = 0
    endorsed: list[UMP] = field(default_factory=list)
    fresh_type_counter: int = 0
    fresh_var_counter: int = 0
    merged_constants: dict[VariableName, VariableName] = field(default_factory=dict)
    paradigms: list[ParadigmRecord] = field(default_factory=list)
    revisions: list[str] = field(default_factory=list)
    blacklist: set = field(default_factory=set)
    # the grammar `grammar()` compiled last, reused while `lexicon` is that
    # object, and the queries `says` answered False on it; a refusal holds
    # for its grammar, so clones share both
    compiled: CompiledGrammar | None = field(default=None, repr=False, compare=False)
    refused: set = field(default_factory=set, repr=False, compare=False)
    # (utterance, α-canonical meaning) -> the keys of the entries that a
    # parse with that meaning scanned; true of any lexicon, so clones share it
    witnesses: dict = field(default_factory=dict, repr=False, compare=False)

    def clone(self) -> "LearnerState":
        return LearnerState(
            self.lexicon, self.time, list(self.endorsed),
            self.fresh_type_counter, self.fresh_var_counter,
            dict(self.merged_constants),
            [ParadigmRecord(p.stem_base, p.licensee, p.result_base,
                            list(p.suffixes)) for p in self.paradigms],
            list(self.revisions), set(self.blacklist),
            self.compiled, self.refused, self.witnesses)

    def fresh_base(self) -> str:
        self.fresh_type_counter += 1
        return f"t{self.fresh_type_counter}"

    def fresh_licensee(self) -> str:
        self.fresh_type_counter += 1
        return f"a{self.fresh_type_counter}"

    def fresh_var(self, *terms) -> VariableName:
        taken = set()
        for t in terms:
            taken |= all_names(t)
        while True:
            self.fresh_var_counter += 1
            cand = var_name(f"w{self.fresh_var_counter}")
            if cand not in taken:
                return cand

    def map_meaning(self, term: LambdaTerm) -> LambdaTerm:
        """Endorsed meanings re-read through the constant mergers repair has
        performed (plural constants folded onto their stems)."""
        if not self.merged_constants:
            return term
        if isinstance(term, Var):
            target = self.merged_constants.get(term.name)
            return Var(target) if target is not None else term
        if isinstance(term, App):
            return App(self.map_meaning(term.fun), self.map_meaning(term.arg))
        if isinstance(term, Abs):
            return Abs(term.binder, self.map_meaning(term.body))
        return term

    def grammar(self) -> CompiledGrammar:
        """The lexicon compiled to an MCFG, once per lexicon object."""
        if self.compiled is None or self.compiled.lexicon is not self.lexicon:
            self.compiled = compile_grammar(self.lexicon)
            self.refused = set()
        return self.compiled

    def says(self, utterance: str, meaning: LambdaTerm) -> bool:
        """Whether some parse of the utterance by the learner's grammar
        means the meaning; a ParserBudget propagates.

        The first parse that means it leaves a witness, the keys of the
        entries it scanned.  An MG derivation uses only its own entries,
        merge and move do not depend on the lexicon, compilation is
        monotone in the entries, and the search is exhaustive; so while the
        lexicon keeps every witness entry the answer is True, with no
        parse.  (A full search might run out of steps where a witness
        answers.)  A False answer holds only for the grammar it was
        computed on."""
        if not len(self.lexicon):
            return False
        query = (utterance, alpha_canonical(meaning))
        keys = self.lexicon._keys
        witness = self.witnesses.get(query)
        if witness is not None and all(k in keys for k in witness):
            return True
        grammar = self.grammar()
        if query in self.refused:
            return False
        path, _parsed = match_meaning(grammar, utterance, meaning)
        if path is None:
            self.refused.add(query)
            return False
        key_of = {id(entry): k for k, entry in keys.items()}
        self.witnesses[query] = {key_of[id(st.rule.entry)]
                                 for st in path if st.op == "scan"}
        return True

    def derivable(self, ump: UMP) -> bool:
        return self.says(ump.exponent, self.map_meaning(ump.meaning))

    def covers_endorsed(self) -> bool:
        return all(self.derivable(u) for u in self.endorsed)


def _entry(exponent_tokens, lexical, features, semantics) -> Sign:
    return Sign(" ".join(exponent_tokens),
                SyntacticType(lexical, tuple(features)), semantics)


# --- factoring ------------------------------------------------------------------

def _apply_gate(state: LearnerState, staged: LearnerState, alignment,
                note: str) -> bool:
    """Commit the staged lexicon if every endorsed pair still derives."""
    if not staged.covers_endorsed():
        if alignment is not None:
            state.blacklist.add(alignment.key())
        return False
    state.lexicon = staged.lexicon
    state.compiled = staged.compiled
    state.refused = staged.refused
    state.fresh_type_counter = staged.fresh_type_counter
    state.fresh_var_counter = staged.fresh_var_counter
    state.merged_constants = staged.merged_constants
    state.paradigms = staged.paradigms
    state.revisions = staged.revisions
    state.revisions.append(note)
    return True


def factor(state: LearnerState, alignment: Alignment) -> LearnerState:
    """Split lexicon entries along an alignment; raises FactoringRegression
    when the revision would break an endorsed pair."""
    staged = state.clone()
    applied = _stage_factor(staged, alignment)
    if not applied:
        raise FactoringRegression("alignment is not factorable")
    if not _apply_gate(state, staged, alignment, applied):
        raise FactoringRegression("revision breaks an endorsed pair")
    return state


def _stage_factor(state: LearnerState, al: Alignment):
    if al.kind == "pair" and (isinstance(al.target, Sign)
                              or isinstance(al.source, Sign)):
        return _stage_pair(state, al)
    if al.kind in ("pair", "analogy"):
        return _stage_analogy(state, al) or _stage_slot(state, al)
    if al.kind == "window":
        return _stage_window(state, al)
    return None


def _as_pseudo_sign(x, start_symbol="c") -> Sign:
    if isinstance(x, Sign):
        return x
    return Sign(x.exponent, SyntacticType(False, (Feature(BASE, start_symbol),)),
                x.meaning)


def _contiguous_split(tokens, template_span):
    """Residue tokens = everything outside the template block; None if the
    leftover is not contiguous."""
    i, n = template_span
    before, after = tokens[:i], tokens[i + n:]
    if before and after:
        return None
    return (before or after), (bool(before))


def _stage_pair(state: LearnerState, al: Alignment):
    a = _as_pseudo_sign(al.source, state.lexicon.start_symbol)
    b = _as_pseudo_sign(al.target, state.lexicon.start_symbol)
    if a.stype.features != b.stype.features:
        return None
    diff = semantic_diff(a.semantics, b.semantics)
    if diff is None:
        return None
    sem_a, sem_b = diff
    vacuous = alpha_equivalent(sem_a, a.semantics)   # nothing shared in form
    ta, tb = a.exponent.split(), b.exponent.split()
    blocks = common_blocks(ta, tb)
    # template = the largest shared block that leaves a contiguous residue
    chosen = None
    for i, j, n in sorted(blocks, key=lambda blk: (-blk[2], blk[0])):
        split_a = _contiguous_split(ta, (i, n))
        split_b = _contiguous_split(tb, (j, n))
        if split_a is None or split_b is None or split_a[1] != split_b[1]:
            continue
        if split_a[0] and split_b[0]:
            chosen = (i, n, split_a[0], split_b[0], split_a[1])
            break
    if chosen is None:
        return None
    i, n, residue_a, residue_b, res_before = chosen
    template = ta[i:i + n]
    fresh = state.fresh_base()
    if vacuous:
        template_sem = EMPTY
    else:
        try:
            template_sem = abstract(a.semantics, sem_a,
                                    state.fresh_var(a.semantics))
            other = abstract(b.semantics, sem_b, state.fresh_var(b.semantics))
        except (SubtermNotFound, VariableClash, ValueError):
            return None
        if not alpha_equivalent(template_sem, other):
            return None
    new_entries = [
        _entry(residue_a, len(residue_a) == 1, [Feature(BASE, fresh)], sem_a),
        _entry(residue_b, len(residue_b) == 1, [Feature(BASE, fresh)], sem_b),
        _entry(template, not res_before,
               [Feature(SEL, fresh), *a.stype.features], template_sem),
    ]
    lex = state.lexicon
    removed = [x for x in (al.source, al.target)
               if isinstance(x, Sign) and lex.contains(x)]
    lex = lex.without(removed)
    for e in new_entries:
        lex = lex.with_entry(e)
    state.lexicon = lex
    return (f"factored {a.exponent!r} / {b.exponent!r} into "
            f"{[e.exponent or 'ε' for e in new_entries]}")


def _match_template(body: LambdaTerm, hole: LambdaTerm, wildcards,
                    candidate: LambdaTerm):
    """Match the template's body (hole = the residue subterm, wildcards =
    the template's binders) against a candidate subterm; returns the term
    filling the hole."""
    found = []

    def walk(pat, t):
        if alpha_equivalent(pat, hole):
            found.append(t)
            return True
        if isinstance(pat, Var) and pat.name in wildcards:
            return True
        if isinstance(pat, App) and isinstance(t, App):
            return walk(pat.fun, t.fun) and walk(pat.arg, t.arg)
        return pat == t

    if walk(body, candidate) and len(set(map(alpha_canonical, found))) == 1:
        return found[0]
    return None


def _stage_window(state: LearnerState, al: Alignment):
    entry: Sign = al.target
    ump: UMP = al.source
    te = entry.exponent.split()
    tu = ump.exponent.split()
    blocks = common_blocks(tu, te)
    if not blocks:
        return None
    gaps = _gaps(tu, te, blocks)
    entry_gaps = [(i, ge) for i, (_, ge) in enumerate(gaps) if ge]
    if len(entry_gaps) != 1:
        return None
    pos, residue_e = entry_gaps[0]
    residue_u = gaps[pos][0]
    if not residue_u:
        return None
    # remaining ump-side gaps may only sit at the outer edges
    for i, (gu, ge) in enumerate(gaps):
        if i != pos and gu and 0 < i < len(gaps) - 1:
            return None
    template = []
    for _, j, n in blocks:
        template.extend(te[j:j + n])
    # unwrap the entry's template semantics
    body, binders = entry.semantics, set()
    while isinstance(body, Abs):
        binders.add(body.binder)
        body = body.body
    hole, filled = None, None
    for cand in _entry_residue_candidates(body, ump.meaning, binders):
        for sub in subterms(ump.meaning):
            got = _match_template(body, cand, binders, sub)
            if got is not None:
                hole, filled = cand, got
                break
        if hole is not None:
            break
    if hole is None:
        return None
    fresh = state.fresh_base()
    try:
        template_sem = abstract(entry.semantics, hole,
                                state.fresh_var(entry.semantics))
    except (SubtermNotFound, VariableClash, ValueError):
        return None
    res_before = pos == 0      # entry residue precedes the template block
    new_entries = [
        _entry(residue_e, len(residue_e) == 1, [Feature(BASE, fresh)], hole),
        _entry(residue_u, len(residue_u) == 1, [Feature(BASE, fresh)], filled),
        _entry(template, not res_before,
               [Feature(SEL, fresh), *entry.stype.features], template_sem),
    ]
    lex = state.lexicon.without([entry])
    for e in new_entries:
        lex = lex.with_entry(e)
    state.lexicon = lex
    return (f"segmented entry {entry.exponent!r} against {ump.exponent!r}: "
            f"{[e.exponent or 'ε' for e in new_entries]}")


def _size(t):
    return sum(1 for _ in subterms(t))


def _entry_residue_candidates(body, meaning, binders):
    """Subterms of the entry's body absent from the new meaning, smallest
    first: the least material the entry must give up to match."""
    meaning_pool = {alpha_canonical(s) for s in subterms(meaning)}
    seen = set()
    out = []
    for s in subterms(body):
        if s is EMPTY or free_vars(s) & binders:
            continue
        key = alpha_canonical(s)
        if key in meaning_pool or key in seen:
            continue
        seen.add(key)
        out.append(s)
    out.sort(key=_size)
    return out


def _single_token_entries(lex: Lexicon, token: str):
    return [e for e in lex.entries if e.exponent == token]


def _stage_analogy(state: LearnerState, al: Alignment):
    ump: UMP = al.source
    old: UMP = al.target
    ra, rb = al.residue_exponents
    if len(ra) != len(rb) or not ra:
        return None
    if al.semantic_residues is None:
        return None
    sem_new, sem_old = al.semantic_residues
    additions = []
    for w_new, w_old in zip(ra, rb):
        if w_new == w_old:
            continue
        matches = _single_token_entries(state.lexicon, w_old)
        if not matches:
            return None
        entry = matches[0]
        carrier = alpha_equivalent(entry.semantics, sem_old)
        if not carrier and char_prefix(w_new, w_old) < MIN_STEM_CHARS:
            return None
        new_sem = sem_new if carrier else entry.semantics
        additions.append(Sign(w_new, entry.stype, new_sem))
    additions = [e for e in additions if not state.lexicon.contains(e)]
    if not additions:
        return None
    lex = state.lexicon
    for e in additions:
        lex = lex.with_entry(e)
    state.lexicon = lex
    for e in additions:
        _r2_after_addition(state, e)
    return (f"analogy from {old.exponent!r}: added "
            f"{[e.exponent for e in additions]}")


def _stage_slot(state: LearnerState, al: Alignment):
    ump: UMP = al.source
    old: UMP = al.target
    ra, rb = al.residue_exponents
    if al.semantic_residues is None:
        return None
    sem_new, _ = al.semantic_residues
    want = " ".join(rb)
    # the old pair's derivation, read off its parse
    path, _parsed = match_meaning(state.grammar(), old.exponent,
                                  state.map_meaning(old.meaning))
    if path is None:
        return None
    # the type of the first, in preorder, of the fewest-featured one-sign
    # constituents whose yield is `want`
    slot = None
    nodes = [derivation(path)]
    while nodes:
        node = nodes.pop()
        head = node.expression.head
        if (head.exponent == want and len(node.expression.signs) == 1
                and (slot is None or len(head.stype.features) < len(slot.features))):
            slot = head.stype
        nodes += reversed(node.children)
    if slot is None:
        return None
    new = Sign(" ".join(ra), slot, sem_new)
    if state.lexicon.contains(new):
        return None
    state.lexicon = state.lexicon.with_entry(new)
    note = f"slot entry {new.exponent!r} / {render_term(new.semantics)} from {old.exponent!r}"
    _r2_after_addition(state, new)
    return note


# --- ingest ----------------------------------------------------------------------

def _candidate_alignments(state: LearnerState, ump: UMP):
    """All usable alignments of the new pair against lexicon entries and
    endorsed pairs, best (largest shared span) first; entries outrank
    endorsed pairs at equal score."""
    found = []
    for rank, entry in enumerate(state.lexicon.entries):
        al = align(ump, entry)
        if al is None:
            continue
        entry_toks = entry.exponent.split()
        if al.residue_exponents[1]:
            al.kind = ("pair" if _as_pseudo_sign(ump).stype.features
                       == entry.stype.features else "window")
        else:
            continue        # the entry is fully shared: nothing to factor
        found.append((al.score, 0, rank, al))
    for rank, old in enumerate(state.endorsed):
        if old.exponent == ump.exponent:
            continue
        al = align(ump, old)
        if al is None or not al.residue_exponents[0]:
            continue
        al.kind = "analogy"
        found.append((al.score, 1, rank, al))
    found.sort(key=lambda item: (-item[0], item[1], item[2]))
    return [al for *_rest, al in found]


def ingest(state: LearnerState, ump: UMP) -> LearnerState:
    """Absorb a teacher pair: nothing to do when it already derives, else
    factor against the closest evidence, else store it whole."""
    ump = UMP(ump.exponent, beta_reduce(ump.meaning))
    state.time += 1
    if state.derivable(ump):
        state.endorsed.append(ump)
        return state
    progress, rounds = True, 0
    while not state.derivable(ump) and progress and rounds < 25:
        progress = False
        rounds += 1
        before = state.lexicon._keys.keys()
        for al in _candidate_alignments(state, ump):
            if al.key() in state.blacklist:
                continue
            staged = state.clone()
            note = _stage_factor(staged, al)
            if note is None:
                continue
            if staged.lexicon._keys.keys() == before:
                state.blacklist.add(al.key())
                continue
            if _apply_gate(state, staged, al, note):
                progress = True
                break
    if not state.derivable(ump):
        whole = Sign(ump.exponent,
                     SyntacticType(False, (Feature(BASE, state.lexicon.start_symbol),)),
                     ump.meaning)
        state.lexicon = state.lexicon.with_entry(whole)
        state.revisions.append(f"stored whole pair {ump!r}")
    state.endorsed.append(ump)
    _generalize(state)
    return state


def _generalize(state: LearnerState):
    """Token-phase factoring among entry pairs until no pair aligns (the
    second-pass segmentation); character-phase splits are left to repair."""
    progress, rounds = True, 0
    while progress and rounds < 25:
        progress = False
        rounds += 1
        candidates = []
        entries = state.lexicon.entries
        for i, j in itertools.combinations(range(len(entries)), 2):
            a, b = entries[i], entries[j]
            if a.stype != b.stype:
                continue
            al = align(a, b)
            if al is None or al.kind != "pair":
                continue
            if not al.residue_exponents[0] or not al.residue_exponents[1]:
                continue
            candidates.append((al.score, i, j, al))
        candidates.sort(key=lambda item: (-item[0], item[1], item[2]))
        for *_r, al in candidates:
            if al.key() in state.blacklist:
                continue
            staged = state.clone()
            note = _stage_factor(staged, al)
            if note and _apply_gate(state, staged, al, note):
                progress = True
                break


def express(state: LearnerState, meaning: LambdaTerm) -> ProduceResult:
    """What the learner would say for the meaning (first derivation found)."""
    return produce(state.lexicon, beta_reduce(meaning))


# --- repair ----------------------------------------------------------------------

def _endorsed_token_seqs(state):
    return [u.exponent.split() for u in state.endorsed]


def _attested_after(state, word: str) -> set[str]:
    """Tokens observed immediately after `word` in endorsed utterances."""
    out = set()
    for toks in _endorsed_token_seqs(state):
        for i, t in enumerate(toks[:-1]):
            if t == word:
                out.add(toks[i + 1])
    return out


def _attested_token(state, word: str) -> bool:
    return any(word in toks for toks in _endorsed_token_seqs(state))


def _paradigm_pairs(state):
    """Single-token entries with equal types, a shared character stem and a
    semantically reflected suffix alternation (rat/rats but not eat/eats)."""
    entries = [e for e in state.lexicon.entries
               if e.exponent and " " not in e.exponent
               and len(e.stype.features) == 1
               and e.stype.features[0].kind == BASE]
    pairs = []
    for a, b in itertools.combinations(entries, 2):
        if a.stype != b.stype:
            continue
        n = char_prefix(a.exponent, b.exponent)
        if n < MIN_STEM_CHARS:
            continue
        stem, plural = (a, b) if len(a.exponent) < len(b.exponent) else (b, a)
        if stem.exponent != plural.exponent[:len(stem.exponent)]:
            continue
        if len(plural.exponent) == len(stem.exponent):
            continue
        if alpha_equivalent(a.semantics, b.semantics):
            continue        # alternation unsupported by the semantics
        pairs.append((stem, plural))
    return pairs


def _stage_morpheme_split(state: LearnerState, stem: Sign, plural: Sign):
    suffix = plural.exponent[len(stem.exponent):]
    b = stem.stype.features[0].ident
    licensee = state.fresh_licensee()
    layer = state.fresh_base()
    lex = state.lexicon.without([plural])
    # the stem now awaits number licensing
    new_stem = Sign(stem.exponent,
                    SyntacticType(True, (Feature(BASE, b), Feature(NEG, licensee))),
                    stem.semantics)
    lex = lex.without([stem]).with_entry(new_stem)
    if isinstance(plural.semantics, Var) and isinstance(stem.semantics, Var):
        state.merged_constants[plural.semantics.name] = stem.semantics.name
    layer_feats = (Feature(SEL, b), Feature(POS, licensee), Feature(BASE, layer))
    lex = lex.with_entry(Sign("", SyntacticType(True, layer_feats), EMPTY))
    lex = lex.with_entry(Sign("-" + suffix, SyntacticType(True, layer_feats), EMPTY))
    # selectors whose attested site hosts the paradigm get rerouted
    paradigm_words = {stem.exponent, plural.exponent}
    rerouted = []
    for e in lex.entries:
        if e.exponent and " " not in e.exponent \
                and any(f == Feature(SEL, b) for f in e.stype.features) \
                and _attested_after(state, e.exponent) & paradigm_words:
            feats = tuple(Feature(SEL, layer) if f == Feature(SEL, b) else f
                          for f in e.stype.features)
            lex = lex.without([e]).with_entry(Sign(e.exponent,
                                                   SyntacticType(e.stype.lexical, feats),
                                                   e.semantics))
            rerouted.append(e.exponent)
    # other stems attested in a rerouted site join the paradigm
    sites = {w for r in rerouted for w in _attested_after(state, r)}
    for e in list(lex.entries):
        if (e.exponent in sites and e.exponent not in paradigm_words
                and e.stype.features == (Feature(BASE, b),)):
            feats = (Feature(BASE, b), Feature(NEG, licensee))
            lex = lex.without([e]).with_entry(
                Sign(e.exponent, SyntacticType(True, feats), e.semantics))
    state.lexicon = lex
    state.paradigms.append(ParadigmRecord(b, licensee, layer, ["-" + suffix]))
    return (f"morpheme split {stem.exponent!r}/{plural.exponent!r}: "
            f"suffix -{suffix}, layer {layer}, licensee {licensee}, "
            f"rerouted {rerouted}")


def _regular_forms(state, record: ParadigmRecord):
    """(stem entry, fused surface form) for every regular cell of a
    paradigm."""
    out = []
    for e in state.lexicon.entries:
        feats = e.stype.features
        if (len(feats) == 2 and feats[0] == Feature(BASE, record.stem_base)
                and feats[1].kind == NEG and feats[1].ident == record.licensee):
            for suf in record.suffixes:
                out.append((e, e.exponent + suf[1:]))
    return out


def _stage_block_cell(state: LearnerState, stem: Sign, record: ParadigmRecord):
    """Retire the regular affix for one stem: the stem moves to a private
    licensee realized only by the silent number entry."""
    licensee = state.fresh_licensee()
    feats = (Feature(BASE, record.stem_base), Feature(NEG, licensee))
    lex = state.lexicon.without([stem]).with_entry(
        Sign(stem.exponent, SyntacticType(True, feats), stem.semantics))
    layer_feats = (Feature(SEL, record.stem_base), Feature(POS, licensee),
                   Feature(BASE, record.result_base))
    lex = lex.with_entry(Sign("", SyntacticType(True, layer_feats), EMPTY))
    state.lexicon = lex
    return f"blocked regular affixation of {stem.exponent!r}"


def _r2_after_addition(state: LearnerState, added: Sign):
    """Suppletion blocking: a new irregular filler of a number layer retires
    every regular cell that was never attested."""
    for record in state.paradigms:
        if added.stype.features != (Feature(BASE, record.result_base),):
            continue
        for stem, form in _regular_forms(state, record):
            if not _attested_token(state, form):
                note = _stage_block_cell(state, stem, record)
                state.revisions.append(note + f" (irregular {added.exponent!r})")


def repair(state: LearnerState, punished: tuple[str, LambdaTerm]) -> LearnerState:
    """Search the repair operators for a revision that keeps all endorsed
    pairs derivable and stops the punished production."""
    utterance, meaning = punished
    # R1: morpheme split over paradigm cells
    for stem, plural in _paradigm_pairs(state):
        staged = state.clone()
        note = _stage_morpheme_split(staged, stem, plural)
        if not staged.covers_endorsed():
            continue
        if staged.says(utterance, meaning) \
                and not _overgeneralization_waived(staged, utterance):
            continue
        _apply_gate(state, staged, None, "repair R1: " + note)
        return state
    # R2: suppletion blocking, when an irregular alternative already exists
    for record in state.paradigms:
        irregulars = [e for e in state.lexicon.entries
                      if e.stype.features == (Feature(BASE, record.result_base),)]
        if not irregulars:
            continue
        for stem, form in _regular_forms(state, record):
            if form in utterance.split() and not _attested_token(state, form):
                staged = state.clone()
                note = _stage_block_cell(staged, stem, record)
                if not staged.covers_endorsed():
                    continue
                _apply_gate(state, staged, None, "repair R2: " + note)
                return state
    state.revisions.append(f"no repair found for {utterance!r}; logged")
    raise NoRepairFound(utterance)


def _overgeneralization_waived(state, utterance: str) -> bool:
    """Regular overgeneralization persists for cells with no
    counter-evidence; a still-producible punished string is tolerated iff
    every offending surface form is such an unseen regular cell."""
    toks = set(utterance.split())
    for record in state.paradigms:
        for _stem, form in _regular_forms(state, record):
            if form in toks and not _attested_token(state, form):
                return True
    return False
