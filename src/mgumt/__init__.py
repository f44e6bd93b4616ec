"""Minimalist-grammar toolkit: derivation engine, MCFG compilation,
incremental utterance-meaning transduction and reinforcement acquisition of
the lexicon."""

from .grammar import (
    Expression, Feature, Lexicon, Sign, SyntacticType, complete_derivations,
    load_lexicon, merge, move, save_lexicon,
)
from .learner import LearnerState, align, express, ingest, repair
from .mcfg import CompiledGrammar, McfgCategory, McfgRule, NodeIndex, compile_grammar
from .teacher import GoldGrammar, Verdict, judge, reinforce, run_session
from .terms import (
    EMPTY, Abs, App, LambdaTerm, Var, alpha_equivalent, beta_reduce,
    parse_term, render_term,
)
from .transducer import UMP, produce, recognize, understand

__all__ = [name for name in dir() if not name.startswith("_")]
