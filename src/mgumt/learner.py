"""Reinforcement acquisition of a minimalist lexicon from utterance-meaning
pairs.

The learner starts from an empty lexicon and, for every pair the teacher
presents, either stores the whole utterance as a complex sign of the start
type or factors existing knowledge against the new evidence.  The pair is
aligned with entries and endorsed pairs on token spans: where the two differ
in one span and their meanings in one position, the residues are split out,
the shared remainder becomes a template whose semantics is obtained by lambda
abstraction, and unknown tokens analogous to known entries (a shared
character stem, or the position carrying the semantic residue) receive
copied entries.  Each revision is staged on a copy of the state, and one
gate (`_apply_gate`) commits it only if all endorsed pairs stay derivable:
as with the teacher, a pair derives when the parser gives the utterance that
meaning, with each lexicon compiled to an MCFG once.  A pair's last parse is
kept as a witness (the entries it scanned), and a revision that keeps all of
them cannot lose the pair, so only the pairs whose witness lost an entry are
parsed again.

The teacher's `reinforce` adds an endorsed pair to the evidence and hands a
punished one to `repair`: the morpheme split extracts a suffix paradigm
(rat/rats) into a movement-licensed number layer, and suppletion blocking
retires a regular cell once an irregular filler (mice) has been endorsed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from difflib import SequenceMatcher
from os.path import commonprefix

# complete_derivations stays importable here: perfbench/spans.py traces it
# by this name
from .grammar import (  # noqa: F401
    BASE, NEG, POS, SEL, START, Feature, Lexicon, Sign, SyntacticType,
    complete_derivations, sign_key,
)
from .mcfg import CompiledGrammar, compile_grammar
from .terms import (
    EMPTY, Abs, App, LambdaTerm, SubtermNotFound, Var, VariableClash,
    VariableName, abstract, all_names, alpha_canonical, alpha_equivalent,
    beta_reduce, free_vars, render_term, substitute, subterms,
)
from .transducer import UMP, ProduceResult, derivation, match_meaning, produce

MIN_STEM_CHARS = 3      # the shortest character stem two words can share


class NoRepairFound(Exception):
    pass


# --- alignment ------------------------------------------------------------------

@dataclass
class Alignment:
    """What two items have in common and where they differ, as `align`
    found it; the stagers read it and recompute none of it."""
    kind: str                               # pair | window | analogy
    shared_exponent_segments: list[list[str]]
    residue_exponents: tuple[list[str], list[str]]
    semantic_residues: tuple[LambdaTerm, LambdaTerm] | None
    blocks: list[tuple[int, int, int]]      # common_blocks of their tokens
    source: object = None                   # the new item (UMP) or an entry
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
    return ("ump", x.exponent, alpha_canonical(x.meaning))


def _sem(x) -> LambdaTerm:
    return x.meaning if isinstance(x, UMP) else x.semantics


def common_blocks(a: list[str], b: list[str]):
    """Ordered maximal common token blocks, longest first with leftmost
    tie-break (Ratcliff and Obershelp's decomposition, as in difflib)."""
    return SequenceMatcher(None, a, b, autojunk=False).get_matching_blocks()[:-1]


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
    """The smallest subterms, one of each term, that hold every difference
    between the two (differences in both parts of an application fold into
    the application), or None when the terms are α-equal.  A root
    difference means the terms share no structure (the vacuous-content
    case)."""
    diffs = []

    def walk(x, y):
        if alpha_equivalent(x, y):
            return
        if isinstance(x, App) and isinstance(y, App):
            before = len(diffs)
            walk(x.fun, y.fun)
            walk(x.arg, y.arg)
            if len(diffs) - before > 1:
                diffs[before:] = [(x, y)]
            return
        if isinstance(x, Abs) and isinstance(y, Abs):
            body = substitute(y.body, y.binder, Var(x.binder)) \
                if y.binder != x.binder else y.body
            walk(x.body, body)
            return
        diffs.append((x, y))

    walk(a, b)
    return diffs[0] if diffs else None


def align(a, b):
    """Token-span matcher for two pairs or entries: their common token
    blocks, the one span where both have tokens of their own (each side's
    residue), and the smallest subterms holding every difference of their
    meanings (`semantic_diff`; None when the meanings are α-equal).  None
    when the two share no block or differ in more than one span.  The kind
    says how to stage it: analogy against an endorsed pair, window against
    an entry whose features differ from the source's, pair otherwise."""
    ta, tb = a.exponent.split(), b.exponent.split()
    blocks = common_blocks(ta, tb)
    if not blocks:
        return None
    both = [gap for gap in _gaps(ta, tb, blocks) if gap[0] and gap[1]]
    if len(both) != 1:
        return None
    if isinstance(b, UMP):
        kind = "analogy"
    elif _as_pseudo_sign(a).stype.features != b.stype.features:
        kind = "window"
    else:
        kind = "pair"
    return Alignment(kind, [ta[i:i + n] for i, _, n in blocks], both[0],
                     semantic_diff(_sem(a), _sem(b)), blocks, source=a,
                     target=b, score=sum(n for *_, n in blocks))


# --- learner state ---------------------------------------------------------------

@dataclass
class ParadigmRecord:
    stem_base: str          # noun-class base the suffix selects
    licensee: str           # movement feature of the regular cells
    result_base: str        # the number layer's base type
    suffix: str             # overt suffix exponent, e.g. "-s"


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
    # object; clones share it
    compiled: CompiledGrammar | None = field(default=None, repr=False, compare=False)
    # (utterance, α-canonical meaning) -> the keys of the entries that a
    # parse with that meaning scanned; true of any lexicon, so clones share it
    witnesses: dict = field(default_factory=dict, repr=False, compare=False)

    def clone(self) -> "LearnerState":
        """A copy to stage a revision on: the containers a revision can
        change are copied (no paradigm record is changed in place), the
        lexicon, its grammar and the witnesses are shared."""
        return replace(self, endorsed=list(self.endorsed),
                       merged_constants=dict(self.merged_constants),
                       paradigms=list(self.paradigms),
                       revisions=list(self.revisions),
                       blacklist=set(self.blacklist))

    def fresh_type(self, prefix: str) -> str:
        """A feature name not used before: the prefix (t for a base, a for
        a licensee) and the next count."""
        self.fresh_type_counter += 1
        return f"{prefix}{self.fresh_type_counter}"

    def fresh_var(self, term: LambdaTerm) -> VariableName:
        taken = all_names(term)
        while True:
            self.fresh_var_counter += 1
            cand = VariableName(f"w{self.fresh_var_counter}")
            if cand not in taken:
                return cand

    def map_meaning(self, term: LambdaTerm) -> LambdaTerm:
        """Endorsed meanings re-read through the constant mergers repair has
        performed (plural constants folded onto their stems)."""
        for name, target in self.merged_constants.items():
            term = substitute(term, name, Var(target))
        return term

    def grammar(self) -> CompiledGrammar:
        """The lexicon compiled to an MCFG, once per lexicon object."""
        if self.compiled is None or self.compiled.lexicon is not self.lexicon:
            self.compiled = compile_grammar(self.lexicon)
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
        answers.)  A False answer is not kept: callers ask again only
        after the lexicon has changed."""
        if not len(self.lexicon):
            return False
        query = (utterance, alpha_canonical(meaning))
        keys = self.lexicon._keys
        witness = self.witnesses.get(query)
        if witness is not None and all(k in keys for k in witness):
            return True
        path, _parsed = match_meaning(self.grammar(), utterance, meaning)
        if path is None:
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
    """Adopt the staged state whole if every endorsed pair still derives."""
    if not staged.covers_endorsed():
        if alignment is not None:
            state.blacklist.add(alignment.key())
        return False
    vars(state).update(vars(staged))
    state.revisions.append(note)
    return True


def _stage_factor(state: LearnerState, al: Alignment):
    """Stage the alignment by its kind.  All kinds but a window need
    meanings that differ; a window finds its own hole in the entry."""
    if al.kind == "window":
        return _stage_window(state, al)
    if al.semantic_residues is None:
        return None
    if al.kind == "pair":
        return _stage_pair(state, al)
    return _stage_analogy(state, al) or _stage_slot(state, al)


def _as_pseudo_sign(x) -> Sign:
    if isinstance(x, Sign):
        return x
    return Sign(x.exponent, SyntacticType(False, (Feature(BASE, START),)),
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
    a, b = _as_pseudo_sign(al.source), al.target
    sem_a, sem_b = al.semantic_residues
    vacuous = alpha_equivalent(sem_a, a.semantics)   # nothing shared in form
    ta, tb = a.exponent.split(), b.exponent.split()
    # template = the largest shared block that leaves a contiguous residue
    chosen = None
    for i, j, n in sorted(al.blocks, key=lambda blk: (-blk[2], blk[0])):
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
    made = _split(state, [(residue_a, sem_a), (residue_b, sem_b)],
                  ta[i:i + n], res_before, a.stype.features, template_sem,
                  [x for x in (al.source, al.target) if isinstance(x, Sign)])
    return f"factored {a.exponent!r} / {b.exponent!r} into {made}"


def _split(state: LearnerState, residues, template, res_before: bool,
           features, template_sem: LambdaTerm, drop) -> list[str]:
    """Replace the entries in drop by one entry of a fresh base type per
    residue, each given as (tokens, meaning), and a template entry that
    selects that type before the given features; returns the new entries'
    exponents."""
    fresh = state.fresh_type("t")
    new_entries = [_entry(tokens, len(tokens) == 1, [Feature(BASE, fresh)], sem)
                   for tokens, sem in residues]
    new_entries.append(_entry(template, not res_before,
                              [Feature(SEL, fresh), *features], template_sem))
    lex = state.lexicon.without(drop)
    for e in new_entries:
        lex = lex.with_entry(e)
    state.lexicon = lex
    return [e.exponent or "ε" for e in new_entries]


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
    gaps = _gaps(ump.exponent.split(), te, al.blocks)
    entry_gaps = [(i, ge) for i, (_, ge) in enumerate(gaps) if ge]
    if len(entry_gaps) != 1:
        return None
    pos, residue_e = entry_gaps[0]
    residue_u = gaps[pos][0]
    # remaining ump-side gaps may only sit at the outer edges
    for i, (gu, ge) in enumerate(gaps):
        if i != pos and gu and 0 < i < len(gaps) - 1:
            return None
    template = []
    for _, j, n in al.blocks:
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
    try:
        template_sem = abstract(entry.semantics, hole,
                                state.fresh_var(entry.semantics))
    except (SubtermNotFound, VariableClash, ValueError):
        return None
    res_before = pos == 0      # entry residue precedes the template block
    made = _split(state, [(residue_e, hole), (residue_u, filled)], template,
                  res_before, entry.stype.features, template_sem, [entry])
    return f"segmented entry {entry.exponent!r} against {ump.exponent!r}: {made}"


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


def _stage_analogy(state: LearnerState, al: Alignment):
    ump: UMP = al.source
    old: UMP = al.target
    ra, rb = al.residue_exponents
    if len(ra) != len(rb):
        return None
    sem_new, sem_old = al.semantic_residues
    additions = []
    for w_new, w_old in zip(ra, rb):
        if w_new == w_old:
            continue
        entry = next((e for e in state.lexicon.entries
                      if e.exponent == w_old), None)
        if entry is None:
            return None
        carrier = alpha_equivalent(entry.semantics, sem_old)
        if not carrier and len(commonprefix([w_new, w_old])) < MIN_STEM_CHARS:
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
    sem_new, _ = al.semantic_residues
    want = " ".join(rb)
    # the old pair's derivation, read off its parse
    path, _parsed = match_meaning(state.grammar(), old.exponent,
                                  state.map_meaning(old.meaning))
    if path is None:
        return None
    # the type of the first, in preorder, of the fewest-featured one-sign
    # constituents whose yield is `want`
    slot = min((node.sign.stype for node in derivation(path).nodes()
                if node.sign.exponent == want
                and len(node.expression.signs) == 1),
               key=lambda t: len(t.features), default=None)
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
    endorsed pairs, best (largest shared span) first; the sort is stable,
    so at equal score entries come before endorsed pairs and each keeps
    its order."""
    found = [align(ump, entry) for entry in state.lexicon.entries]
    found += [align(ump, old) for old in state.endorsed
              if old.exponent != ump.exponent]
    return sorted(filter(None, found), key=lambda al: -al.score)


def ingest(state: LearnerState, ump: UMP) -> LearnerState:
    """Absorb a teacher pair: nothing to do when it already derives, else
    factor against the closest evidence, else store it whole."""
    ump = UMP(ump.exponent, beta_reduce(ump.meaning))
    state.time += 1
    if state.derivable(ump):
        state.endorsed.append(ump)
        return state
    # a revision that is not committed leaves the answer as it was, so ask
    # again only after one is
    derives, rounds = False, 0
    while not derives and rounds < 25 \
            and _revise(state, _candidate_alignments(state, ump)):
        rounds += 1
        derives = state.derivable(ump)
    if not derives:
        state.lexicon = state.lexicon.with_entry(_as_pseudo_sign(ump))
        state.revisions.append(f"stored whole pair {ump!r}")
    state.endorsed.append(ump)
    _generalize(state)
    return state


def _revise(state: LearnerState, alignments) -> bool:
    """Stage the alignments in order, skipping blacklisted ones, and commit
    the first revision that passes the gate; one that fails it is
    blacklisted.  Every stager that returns a note has added an entry the
    lexicon lacked."""
    for al in alignments:
        if al.key() in state.blacklist:
            continue
        staged = state.clone()
        note = _stage_factor(staged, al)
        if note is not None and _apply_gate(state, staged, al, note):
            return True
    return False


def _generalize(state: LearnerState):
    """Factoring among entries of one type until no pair of them aligns (the
    second-pass segmentation); character stems are left to repair."""
    for _round in range(25):
        found = [align(a, b) for a, b
                 in itertools.combinations(state.lexicon.entries, 2)
                 if a.stype == b.stype]
        if not _revise(state, sorted(filter(None, found),
                                     key=lambda al: -al.score)):
            return


def express(state: LearnerState, meaning: LambdaTerm) -> ProduceResult:
    """What the learner would say for the meaning (first derivation found)."""
    return produce(state.lexicon, meaning)


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
        stem, plural = (a, b) if len(a.exponent) < len(b.exponent) else (b, a)
        n = len(stem.exponent)
        if (n < MIN_STEM_CHARS or n == len(plural.exponent)
                or not plural.exponent.startswith(stem.exponent)):
            continue
        if alpha_equivalent(a.semantics, b.semantics):
            continue        # alternation unsupported by the semantics
        pairs.append((stem, plural))
    return pairs


def _licensed(stem: Sign, base: str, licensee: str) -> Sign:
    """The stem retyped as `base -licensee`, to await number licensing."""
    return Sign(stem.exponent,
                SyntacticType(True, (Feature(BASE, base), Feature(NEG, licensee))),
                stem.semantics)


def _stage_morpheme_split(state: LearnerState, stem: Sign, plural: Sign):
    suffix = plural.exponent[len(stem.exponent):]
    b = stem.stype.features[0].ident
    licensee = state.fresh_type("a")
    layer = state.fresh_type("t")
    lex = state.lexicon.without([plural])
    lex = lex.without([stem]).with_entry(_licensed(stem, b, licensee))
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
            lex = lex.without([e]).with_entry(_licensed(e, b, licensee))
    state.lexicon = lex
    state.paradigms.append(ParadigmRecord(b, licensee, layer, "-" + suffix))
    return (f"morpheme split {stem.exponent!r}/{plural.exponent!r}: "
            f"suffix -{suffix}, layer {layer}, licensee {licensee}, "
            f"rerouted {rerouted}")


def _unseen_cells(state, record: ParadigmRecord):
    """(stem entry, fused surface form) for every regular cell of a
    paradigm whose form no endorsed utterance has."""
    out = []
    for e in state.lexicon.entries:
        feats = e.stype.features
        if (len(feats) == 2 and feats[0] == Feature(BASE, record.stem_base)
                and feats[1].kind == NEG and feats[1].ident == record.licensee):
            form = e.exponent + record.suffix[1:]
            if not _attested_token(state, form):
                out.append((e, form))
    return out


def _stage_block_cell(state: LearnerState, stem: Sign, record: ParadigmRecord):
    """Retire the regular affix for one stem: the stem moves to a private
    licensee realized only by the silent number entry."""
    licensee = state.fresh_type("a")
    lex = state.lexicon.without([stem]).with_entry(
        _licensed(stem, record.stem_base, licensee))
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
        for stem, _form in _unseen_cells(state, record):
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
        if staged.says(utterance, meaning) \
                and not _overgeneralization_waived(staged, utterance):
            continue
        if _apply_gate(state, staged, None, "repair R1: " + note):
            return state
    # R2: suppletion blocking, when an irregular alternative already exists
    for record in state.paradigms:
        irregulars = [e for e in state.lexicon.entries
                      if e.stype.features == (Feature(BASE, record.result_base),)]
        if not irregulars:
            continue
        for stem, form in _unseen_cells(state, record):
            if form in utterance.split():
                staged = state.clone()
                note = _stage_block_cell(staged, stem, record)
                if _apply_gate(state, staged, None, "repair R2: " + note):
                    return state
    state.revisions.append(f"no repair found for {utterance!r}; logged")
    raise NoRepairFound(utterance)


def _overgeneralization_waived(state, utterance: str) -> bool:
    """Regular overgeneralization persists for cells with no
    counter-evidence; a still-producible punished string is tolerated iff
    every offending surface form is such an unseen regular cell."""
    toks = set(utterance.split())
    return any(form in toks for record in state.paradigms
               for _stem, form in _unseen_cells(state, record))
