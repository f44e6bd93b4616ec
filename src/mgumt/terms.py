"""Untyped lambda calculus used for compositional semantics.

Terms are variables, abstractions, applications, and a distinguished empty
term that acts as a two-sided identity under application (the semantics of
phonetically silent lexicon entries).  Binders must bind a variable that
actually occurs free in the body, so every term lives in the lambda-I
fragment; reduction therefore never discards free variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class NonTerminating(Exception):
    """Raised when reduction exhausts its step budget."""


class SubtermNotFound(Exception):
    pass


class VariableClash(Exception):
    pass


class TermSyntaxError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Variable kinds are presentation metadata only; equality and hashing use the
# name text alone so reduction is blind to them.
KINDS = ("predicate-constant", "individual-constant",
         "individual-variable", "term-variable")


@dataclass(frozen=True)
class VariableName:
    text: str
    kind: str = field(default="individual-constant", compare=False)

    def __post_init__(self):
        if not self.text or not self.text[0].isalpha():
            raise ValueError(f"bad variable name: {self.text!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown variable kind: {self.kind!r}")

    def __repr__(self):
        return self.text


def classify(text: str) -> str:
    """Guess a display kind for a bare name, mirroring the usual notation:
    single uppercase letters are term variables, late-alphabet single
    lowercase letters are individual variables, everything else a constant."""
    if len(text) <= 2 and text[0].isupper():
        return "term-variable"
    if len(text) <= 2 and text[0] in "stuvwxyz":
        return "individual-variable"
    return "individual-constant"


def var_name(text: str) -> VariableName:
    return VariableName(text, classify(text))


class LambdaTerm:
    """Base class; concrete terms are Var, Abs, App and the EMPTY singleton."""

    __slots__ = ()

    def __call__(self, other: "LambdaTerm") -> "LambdaTerm":
        return App(self, other)


@dataclass(frozen=True, repr=False)
class Var(LambdaTerm):
    name: VariableName

    def __repr__(self):
        return self.name.text


@dataclass(frozen=True, repr=False)
class Abs(LambdaTerm):
    binder: VariableName
    body: LambdaTerm

    def __post_init__(self):
        # Church's formation rule: the bound variable must be free in the body.
        if self.binder not in free_vars(self.body):
            raise ValueError(
                f"binder {self.binder.text} does not occur free in the body")

    def __repr__(self):
        return render_term(self)


@dataclass(frozen=True, repr=False)
class App(LambdaTerm):
    fun: LambdaTerm
    arg: LambdaTerm

    def __repr__(self):
        return render_term(self)


class _Empty(LambdaTerm):
    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "eps"


EMPTY = _Empty()


def v(text: str) -> Var:
    return Var(var_name(text))


def free_vars(t: LambdaTerm) -> frozenset[VariableName]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Abs):
        return free_vars(t.body) - {t.binder}
    if isinstance(t, App):
        return free_vars(t.fun) | free_vars(t.arg)
    return frozenset()


def all_names(t: LambdaTerm) -> frozenset[VariableName]:
    """Every name occurring in t, free or bound."""
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Abs):
        return all_names(t.body) | {t.binder}
    if isinstance(t, App):
        return all_names(t.fun) | all_names(t.arg)
    return frozenset()


def fresh_name(base: VariableName, avoid) -> VariableName:
    """First name of the form base1, base2, ... not in avoid."""
    avoid = set(avoid)
    stem = base.text.rstrip("0123456789")
    i = 1
    while True:
        cand = VariableName(f"{stem}{i}", base.kind)
        if cand not in avoid:
            return cand
        i += 1


def substitute(t: LambdaTerm, name: VariableName, u: LambdaTerm) -> LambdaTerm:
    """Replace every free occurrence of name in t by u, renaming binders of t
    that would capture a free variable of u."""
    if isinstance(t, Var):
        return u if t.name == name else t
    if isinstance(t, App):
        return App(substitute(t.fun, name, u), substitute(t.arg, name, u))
    if isinstance(t, Abs):
        if t.binder == name:
            return t
        if name not in free_vars(t.body):
            return t
        if t.binder in free_vars(u):
            renamed = fresh_name(t.binder,
                                 free_vars(u) | all_names(t.body) | {name})
            body = substitute(t.body, t.binder, Var(renamed))
            return Abs(renamed, substitute(body, name, u))
        return Abs(t.binder, substitute(t.body, name, u))
    return t


def apply(f: LambdaTerm, a: LambdaTerm) -> LambdaTerm:
    """Unreduced application, with the empty term as two-sided identity."""
    if f is EMPTY:
        return a
    if a is EMPTY:
        return f
    return App(f, a)


def beta_step(t: LambdaTerm) -> LambdaTerm | None:
    """Contract the leftmost-outermost redex; None if t is normal.

    Applications of EMPTY count as redexes so normal forms never contain the
    empty term as a proper subterm.
    """
    if isinstance(t, App):
        if isinstance(t.fun, Abs):
            return substitute(t.fun.body, t.fun.binder, t.arg)
        if t.fun is EMPTY:
            return t.arg
        if t.arg is EMPTY:
            return t.fun
        step = beta_step(t.fun)
        if step is not None:
            return App(step, t.arg)
        step = beta_step(t.arg)
        if step is not None:
            return App(t.fun, step)
        return None
    if isinstance(t, Abs):
        step = beta_step(t.body)
        if step is not None:
            return Abs(t.binder, step)
        return None
    return None


def is_normal(t: LambdaTerm) -> bool:
    return beta_step(t) is None


def beta_reduce(t: LambdaTerm, max_steps: int = 10_000) -> LambdaTerm:
    """Normalize by repeated leftmost-outermost steps.

    A term that grows deeper than the stack allows within the step budget
    (e.g. (\\x.x(x))(\\y.y(y)(y))) also counts as having no normal form.
    """
    try:
        for _ in range(max_steps):
            nxt = beta_step(t)
            if nxt is None:
                return t
            t = nxt
    except RecursionError:
        raise NonTerminating("term outgrew the recursion limit "
                             "before reaching a normal form") from None
    raise NonTerminating(f"no normal form within {max_steps} steps")


def alpha_canonical(t: LambdaTerm) -> LambdaTerm:
    """Rename binders to v0, v1, ... in traversal order; canonical for
    equality, hashing and golden comparisons."""
    counter = [0]

    def walk(t, env):
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name))
        if isinstance(t, App):
            return App(walk(t.fun, env), walk(t.arg, env))
        if isinstance(t, Abs):
            new = VariableName(f"v{counter[0]}", t.binder.kind)
            counter[0] += 1
            inner = dict(env)
            inner[t.binder] = new
            return Abs(new, walk(t.body, inner))
        return t

    return walk(t, {})


def alpha_equivalent(a: LambdaTerm, b: LambdaTerm) -> bool:
    return alpha_canonical(a) == alpha_canonical(b)


def subterms(t: LambdaTerm):
    """All subterm occurrences, outermost first."""
    yield t
    if isinstance(t, Abs):
        yield from subterms(t.body)
    elif isinstance(t, App):
        yield from subterms(t.fun)
        yield from subterms(t.arg)


def contains(t: LambdaTerm, s: LambdaTerm) -> bool:
    return any(sub == s for sub in subterms(t))


def replace(t: LambdaTerm, s: LambdaTerm, r: LambdaTerm) -> LambdaTerm:
    """Replace every occurrence of subterm s in t by r (syntactic, no
    capture handling; callers pick fresh r)."""
    if t == s:
        return r
    if isinstance(t, Abs):
        return Abs(t.binder, replace(t.body, s, r))
    if isinstance(t, App):
        return App(replace(t.fun, s, r), replace(t.arg, s, r))
    return t


def abstract(t: LambdaTerm, s: LambdaTerm, name: VariableName) -> LambdaTerm:
    """Build the template \\name.t[s := name]; the inverse of applying the
    result back to s."""
    if name in all_names(t):
        raise VariableClash(f"{name.text} already occurs in the term")
    if not contains(t, s):
        raise SubtermNotFound(f"{s!r} does not occur in {t!r}")
    try:
        return Abs(name, replace(t, s, Var(name)))
    except ValueError:
        # Occurrences of s sit under binders that s mentions; abstracting
        # there would orphan the binder.
        raise SubtermNotFound(
            f"{s!r} has no abstractable occurrence in {t!r}") from None


# --- concrete syntax ---------------------------------------------------------
#
# term := atom | "\" name "." term | term "(" term ")" | "(" term ")"
# atom := name | "eps"        names are [A-Za-z][A-Za-z0-9_]*
#
# A lambda body extends as far to the right as possible, so the function part
# of an application must be parenthesized when it is an abstraction.

def parse_term(text: str) -> LambdaTerm:
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def peek():
        skip_ws()
        return text[pos] if pos < n else ""

    def read_name():
        nonlocal pos
        skip_ws()
        start = pos
        if pos >= n or not text[pos].isalpha():
            raise TermSyntaxError("expected a name", pos)
        pos += 1
        while pos < n and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        return text[start:pos]

    def parse_primary():
        nonlocal pos
        c = peek()
        if c in ("\\", "λ"):
            pos += 1
            name = read_name()
            if peek() != ".":
                raise TermSyntaxError("expected '.' after binder", pos)
            pos += 1
            body = parse_expr()
            try:
                return Abs(var_name(name), body)
            except ValueError as exc:
                raise TermSyntaxError(str(exc), pos) from None
        if c == "(":
            pos += 1
            inner = parse_expr()
            if peek() != ")":
                raise TermSyntaxError("expected ')'", pos)
            pos += 1
            return inner
        name = read_name()
        if name == "eps":
            return EMPTY
        return v(name)

    def parse_expr():
        nonlocal pos
        term = parse_primary()
        while peek() == "(":
            pos += 1
            arg = parse_expr()
            if peek() != ")":
                raise TermSyntaxError("expected ')'", pos)
            pos += 1
            term = App(term, arg)
        return term

    result = parse_expr()
    skip_ws()
    if pos != n:
        raise TermSyntaxError("trailing input", pos)
    return result


def render_term(t: LambdaTerm, unicode_lambda: bool = False) -> str:
    lam = "λ" if unicode_lambda else "\\"

    def walk(t, fun_position):
        if t is EMPTY:
            return "ε" if unicode_lambda else "eps"
        if isinstance(t, Var):
            return t.name.text
        if isinstance(t, Abs):
            body = walk(t.body, False)
            s = f"{lam}{t.binder.text}.{body}"
            return f"({s})" if fun_position else s
        return f"{walk(t.fun, True)}({walk(t.arg, False)})"

    return walk(t, False)
