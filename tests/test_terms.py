import pytest
from hypothesis import given, settings, strategies as st

from mgumt.terms import (
    EMPTY, Abs, App, NonTerminating, SubtermNotFound, TermSyntaxError, Var,
    VariableClash, abstract, all_names, alpha_canonical, alpha_equivalent,
    apply, beta_reduce, beta_step, contains, free_vars, is_normal, parse_term,
    render_term, subterms, substitute, v, var_name,
)

p = parse_term


def test_free_vars_base_case():
    assert free_vars(v("x")) == {var_name("x")}


def test_free_vars_eat_template():
    # \x.\y.eat(x)(y): x and y bound, eat free
    assert free_vars(p("\\x.\\y.eat(x)(y)")) == {var_name("eat")}


def test_free_vars_all_bound():
    assert free_vars(p("\\P.\\Q.Q(P)")) == frozenset()


def test_free_vars_empty():
    assert free_vars(EMPTY) == frozenset()


def test_substitute_direct():
    assert substitute(p("P(Q)"), var_name("P"), v("eat")) == p("eat(Q)")


def test_substitute_under_binder():
    got = substitute(p("\\Q.P(Q)"), var_name("P"), v("eat"))
    assert got == p("\\Q.eat(Q)")


def test_substitute_capture_avoiding():
    # Oracle: rename the binder first (x -> x'), then replace.
    got = substitute(p("\\x.y(x)"), var_name("y"), v("x"))
    assert alpha_equivalent(got, p("\\w.x(w)"))
    # the free x stayed free
    assert free_vars(got) == {var_name("x")}


def test_substitute_bound_occurrences_untouched():
    t = p("\\x.eat(x)")
    assert substitute(t, var_name("x"), v("mouse")) == t


def test_alpha_equivalent_single_rename():
    assert alpha_equivalent(p("\\x.eat(x)"), p("\\w.eat(w)"))


def test_alpha_equivalent_swapped_binders():
    # Oracle: canonicalize both by binder-occurrence indexing and compare.
    a = p("\\x.\\y.eat(x)(y)")
    b = p("\\y.\\x.eat(y)(x)")
    assert alpha_canonical(a) == alpha_canonical(b)
    assert alpha_equivalent(a, b)


def test_alpha_inequivalent_argument_order():
    assert not alpha_equivalent(p("\\x.\\y.eat(x)(y)"), p("\\x.\\y.eat(y)(x)"))


def test_apply_empty_identity():
    mouse = v("mouse")
    assert apply(EMPTY, mouse) is mouse
    assert apply(mouse, EMPTY) is mouse
    assert apply(EMPTY, EMPTY) is EMPTY


def test_apply_unreduced():
    f = p("\\Q.Q(cheese)")
    a = p("\\x.\\y.eat(x)(y)")
    got = apply(f, a)
    assert isinstance(got, App)
    assert got.fun == f and got.arg == a


def test_beta_reduce_two_applications():
    assert beta_reduce(p("(\\P.\\Q.P(Q))(eat)(cheese)")) == p("eat(cheese)")


def test_beta_reduce_intertwiner():
    got = beta_reduce(p("(\\P.\\Q.Q(P))(mouse)(eat(cheese))"))
    assert got == p("eat(cheese)(mouse)")


def test_beta_reduce_final_sentence_step():
    got = beta_reduce(p("(\\y.eat(cheese)(y))(mouse)"))
    assert got == p("eat(cheese)(mouse)")


def test_beta_step_single():
    t = p("(\\Q.Q(cheese))(\\x.\\y.eat(x)(y))")
    one = beta_step(t)
    assert one == p("(\\x.\\y.eat(x)(y))(cheese)")
    two = beta_step(one)
    assert alpha_equivalent(two, p("\\y.eat(cheese)(y)"))


def test_beta_reduce_divergent_raises():
    omega = p("(\\x.x(x))(\\x.x(x))")
    with pytest.raises(NonTerminating):
        beta_reduce(omega, max_steps=50)


def test_beta_reduce_growing_term_raises():
    # each step lengthens the application spine by one, so the term gets
    # deeper than the stack long before the step budget runs out
    growing = p("eat((\\x.x(x))(\\y.y(y)(y)))")
    with pytest.raises(NonTerminating):
        beta_reduce(growing, max_steps=2_000)


def test_empty_never_inside_normal_forms():
    t = App(App(v("f"), EMPTY), v("a"))
    got = beta_reduce(t)
    assert got == p("f(a)")


def test_abstract_two_steps():
    t = p("eat(cheese)(mouse)")
    t1 = abstract(t, v("cheese"), var_name("x"))
    t2 = abstract(t1, v("mouse"), var_name("y"))
    # modulo binder order per the construction: \y.\x.eat(x)(y) vs \x.\y...
    assert alpha_equivalent(t2, p("\\y.\\x.eat(x)(y)"))


def test_abstract_whole_term_is_identity():
    got = abstract(v("mouse"), v("mouse"), var_name("Q"))
    assert alpha_equivalent(got, p("\\Q.Q"))


def test_abstract_inverse_of_apply():
    # Oracle: beta_reduce((\Q.Q(mouse))(eat(cheese))) must equal the original.
    t = p("eat(cheese)(mouse)")
    tpl = abstract(t, p("eat(cheese)"), var_name("Q"))
    assert alpha_equivalent(tpl, p("\\Q.Q(mouse)"))
    assert alpha_equivalent(beta_reduce(App(tpl, p("eat(cheese)"))), t)


def test_abstract_errors():
    t = p("eat(cheese)(mouse)")
    with pytest.raises(SubtermNotFound):
        abstract(t, v("rat"), var_name("Q"))
    with pytest.raises(VariableClash):
        abstract(t, v("cheese"), var_name("mouse"))


def test_formation_rule_rejects_vacuous_binder():
    with pytest.raises(ValueError):
        Abs(var_name("x"), v("mouse"))


def test_parse_basic_shape():
    t = p("\\x.\\y.eat(x)(y)")
    assert isinstance(t, Abs)
    assert t.binder.text == "x"
    inner = t.body
    assert isinstance(inner, Abs) and inner.binder.text == "y"
    assert inner.body == App(App(v("eat"), v("x")), v("y"))


def test_parse_eps():
    assert p("eps") is EMPTY


def test_render_round_trip_canonical():
    assert render_term(p("\\P.\\Q.Q(P)")) == "\\P.\\Q.Q(P)"


def test_render_parenthesizes_lambda_in_function_position():
    t = App(p("\\P.\\Q.Q(P)"), v("cheese"))
    s = render_term(t)
    assert s == "(\\P.\\Q.Q(P))(cheese)"
    assert p(s) == t


def test_parse_error_has_position():
    with pytest.raises(TermSyntaxError):
        p("\\x.")
    with pytest.raises(TermSyntaxError):
        p("f(a")
    with pytest.raises(TermSyntaxError):
        p("f(a))")


def test_kinds_do_not_affect_reduction():
    # Same term with permuted variable kinds reduces identically.
    a = App(Abs(var_name("x"), App(v("eat"), Var(var_name("x")))), v("mouse"))
    x_other = Var(VariableName := var_name("x"))
    b = App(
        Abs(
            type(VariableName)("x", "term-variable"),
            App(Var(type(VariableName)("eat", "predicate-constant")),
                Var(type(VariableName)("x", "term-variable"))),
        ),
        Var(type(VariableName)("mouse", "predicate-constant")),
    )
    assert beta_reduce(a) == beta_reduce(b)
    assert x_other == Var(type(VariableName)("x", "term-variable"))


# --- randomized properties ---------------------------------------------------

CONSTANTS = ["eat", "mouse", "cheese", "give", "rat", "carrot"]


@st.composite
def lambda_terms(draw, max_depth=5):
    """Closed-enough lambda-I terms built from constants; binders always
    bind an occurring variable (generated by abstracting a free variable)."""
    def go(depth, free):
        options = ["const"]
        if free:
            options.append("var")
        if depth > 0:
            options += ["app", "abs"]
        kind = draw(st.sampled_from(options))
        if kind == "const":
            return v(draw(st.sampled_from(CONSTANTS)))
        if kind == "var":
            return Var(draw(st.sampled_from(sorted(free, key=str))))
        if kind == "app":
            return App(go(depth - 1, free), go(depth - 1, free))
        binder = var_name(f"b{draw(st.integers(0, 3))}_{depth}")
        body = go(depth - 1, free | {binder})
        if binder not in free_vars(body):
            body = App(body, Var(binder))
        return Abs(binder, body)

    return go(draw(st.integers(0, max_depth)), frozenset())


def _reduce_or_skip(t):
    try:
        return beta_reduce(t, max_steps=2_000)
    except NonTerminating:
        return None


@settings(max_examples=250, deadline=None)
@given(lambda_terms())
def test_property_reduction_idempotent(t):
    nf = _reduce_or_skip(t)
    if nf is None:
        return
    assert alpha_equivalent(beta_reduce(nf), nf)


@settings(max_examples=250, deadline=None)
@given(lambda_terms(), st.data())
def test_property_abstract_apply_inverse(t, data):
    # pick an occurrence whose free variables are not bound above it
    candidates = [s for s in subterms(t)
                  if s is not EMPTY and free_vars(s) <= free_vars(t)]
    if not candidates:
        return
    s = data.draw(st.sampled_from(candidates))
    fresh = var_name("zz9")
    if fresh in all_names(t):
        return
    try:
        tpl = abstract(t, s, fresh)
    except SubtermNotFound:
        return
    back = _reduce_or_skip(App(tpl, s))
    direct = _reduce_or_skip(t)
    if back is None or direct is None:
        return
    assert alpha_equivalent(back, direct)


@settings(max_examples=250, deadline=None)
@given(lambda_terms(), lambda_terms())
def test_property_substitution_free_var_law(t, u):
    fv_t = free_vars(t)
    if not fv_t:
        return
    target = sorted(fv_t, key=str)[0]
    got = substitute(t, target, u)
    assert free_vars(got) <= (fv_t - {target}) | free_vars(u)
    assert free_vars(got) >= free_vars(u)


@settings(max_examples=250, deadline=None)
@given(lambda_terms())
def test_property_renaming_invariance(t):
    canon = alpha_canonical(t)
    a = _reduce_or_skip(t)
    b = _reduce_or_skip(canon)
    if a is None or b is None:
        return
    assert alpha_equivalent(a, b)


@settings(max_examples=100, deadline=None)
@given(lambda_terms())
def test_property_round_trip_parse_render(t):
    assert alpha_equivalent(parse_term(render_term(t)), t)
