"""Output checks computed apart from the program.

The expected answers come from the benchmark's own generators in
`workloads.py`; this module only compares.  Terms are compared through
`canon`, a rendering written here that renames binders by position, so a
check does not rest on the program's own alpha-equivalence.
"""

from __future__ import annotations

import re

from mgumt.terms import EMPTY, Abs, App, Var

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def canon(term) -> str:
    """Alpha-canonical text of a term: binders become _0, _1, ... in
    traversal order and every abstraction is parenthesised."""
    counter = 0

    def walk(t, env):
        nonlocal counter
        if t is EMPTY:
            return "eps"
        if isinstance(t, Var):
            return env.get(t.name.text, t.name.text)
        if isinstance(t, App):
            return f"{walk(t.fun, env)}({walk(t.arg, env)})"
        if isinstance(t, Abs):
            bound = f"_{counter}"
            counter += 1
            return f"(\\{bound}.{walk(t.body, {**env, t.binder.text: bound})})"
        raise TypeError(f"not a term: {t!r}")

    return walk(term, {})


def rename_constants(text: str, mapping: dict[str, str]) -> str:
    """Rewrite the names of a binder-free term text through `mapping`."""
    return _NAME.sub(lambda m: mapping.get(m.group(0), m.group(0)), text)


def check_understood(result, exc, meanings, rejected_type) -> bool:
    """`meanings` is the set of canonical texts a grammatical utterance may
    mean; None marks an ungrammatical one, which must be rejected."""
    if meanings is None:
        return isinstance(exc, rejected_type)
    return exc is None and canon(result.meaning) in meanings


def check_produced(result, exc, strings, unrealizable_type) -> bool:
    """`strings` is the set the generator built for the meaning; None marks
    an unrealisable meaning."""
    if strings is None:
        return isinstance(exc, unrealizable_type)
    return (exc is None and result.utterance in strings
            and all(alt in strings for alt in result.alternatives))


def check_session(outcome, exc, expectations, taught, derivations) -> bool:
    """`expectations` lists the script's expect words in order, `taught` its
    (utterance, meaning text) pairs.  `derivations(lexicon)` returns the
    (exponent, term) pairs a lexicon derives; it is called only when the
    verdicts already hold."""
    if exc is not None:
        return False
    log, learner = outcome
    verdicts = ["reject" if v.is_reject else "endorse" for v in log.verdicts()]
    if verdicts != expectations:
        return False
    merged = {k.text: v.text for k, v in learner.merged_constants.items()}
    derived = {(exp, canon(sem)) for exp, sem in derivations(learner.lexicon)}
    return all((utterance, rename_constants(meaning, merged)) in derived
               for utterance, meaning in taught)
