"""Derived rules: propositional moves, rewriting, the conditional family."""

import random

import pytest
from hypothesis import given, settings

from hogc import kernel, rules
from hogc.kernel import (
    Abs, App, BOOL, FunType, IND, Var,
    dest_eq, false_c, is_false, is_true, mk_conj, mk_cond, mk_disj, mk_eq,
    mk_forall, mk_imp, mk_not, true_c,
)

import helpers
from test_kernel import FRAG


@pytest.fixture(scope='module')
def th():
    return kernel.core_theory()


# ---------------------------------------------------------------------------
# Propositional moves

def test_truth(th):
    t = rules.truth(th)
    assert t.hyps == () and is_true(t.concl)


def test_eqt_intro_elim(th):
    p = Var('p', BOOL)
    a = kernel.assume(th, p)
    e = rules.eqt_intro(a)
    assert e.concl == mk_eq(p, true_c()) and e.hyps == (p,)
    back = rules.eqt_elim(e)
    assert back.concl == p and back.hyps == (p,)


def test_conj_and_conjuncts(th):
    p, q = Var('p', BOOL), Var('q', BOOL)
    c = rules.conj(kernel.assume(th, p), kernel.assume(th, q))
    assert c.concl == mk_conj(p, q) and set(c.hyps) == {p, q}
    assert rules.conjunct1(c).concl == p
    assert rules.conjunct2(c).concl == q
    with pytest.raises(kernel.RuleError):
        rules.conjunct1(kernel.assume(th, p))


def test_disch_mp_undisch(th):
    p, q = Var('p', BOOL), Var('q', BOOL)
    a = kernel.assume(th, q)
    d = rules.disch(p, kernel.assume(th, q))
    assert d.concl == mk_imp(p, q) and d.hyps == (q,)
    # discharging an actual hypothesis removes it
    d2 = rules.disch(q, a)
    assert d2.concl == mk_imp(q, q) and d2.hyps == ()
    m = rules.mp(d2, kernel.assume(th, q))
    assert m.concl == q and m.hyps == (q,)
    u = rules.undisch(d2)
    assert u.concl == q and u.hyps == (q,)
    with pytest.raises(kernel.RuleError):
        rules.mp(d2, kernel.assume(th, p))


def test_gen_spec_roundtrip(th):
    x = Var('x', IND)
    f = Var('f', FunType(IND, BOOL))
    body = mk_eq(App(f, x), App(f, x))
    g = rules.gen(x, kernel.reflexivity(th, App(f, x)))
    assert g.concl == mk_forall(x, body)
    y = Var('y', IND)
    s = rules.spec(y, g)
    assert s.concl == mk_eq(App(f, y), App(f, y))
    with pytest.raises(kernel.RuleError):
        rules.spec(y, s)


def test_spec_all(th):
    bc = kernel.axiom(th, 'bool-cases')
    s = rules.spec_all(bc)
    z = Var('z', BOOL)
    assert s.concl == mk_disj(mk_eq(z, true_c()), mk_eq(z, false_c()))


def test_disj_intro_and_cases(th):
    p, q = Var('p', BOOL), Var('q', BOOL)
    l = rules.disj1(kernel.assume(th, p), q)
    assert l.concl == mk_disj(p, q) and l.hyps == (p,)
    r = rules.disj2(p, kernel.assume(th, q))
    assert r.concl == mk_disj(p, q) and r.hyps == (q,)
    # both branches of p \/ p give p
    d = kernel.assume(th, mk_disj(p, p))
    got = rules.disj_cases(d, kernel.assume(th, p), kernel.assume(th, p))
    assert got.concl == p and set(got.hyps) == {mk_disj(p, p)}
    with pytest.raises(kernel.RuleError):
        rules.disj_cases(kernel.assume(th, p), kernel.assume(th, p),
                         kernel.assume(th, p))


def test_not_intro_elim_contr(th):
    p, q = Var('p', BOOL), Var('q', BOOL)
    n = kernel.assume(th, mk_not(p))
    e = rules.not_elim(n)
    assert e.concl == mk_imp(p, false_c())
    back = rules.not_intro(e)
    assert back.concl == mk_not(p)
    f = rules.mp(e, kernel.assume(th, p))
    assert is_false(f.concl)
    c = rules.contr(q, f)
    assert c.concl == q and set(c.hyps) == {mk_not(p), p}


# ---------------------------------------------------------------------------
# Rewriting

def test_unfold_head(th):
    p, q = Var('p', BOOL), Var('q', BOOL)
    t = mk_conj(p, q)
    u = rules.unfold_head(th, t)
    l, _r = dest_eq(u.concl)
    assert l == t and u.hyps == ()


def test_subst_context(th):
    x, y = Var('x', IND), Var('y', IND)
    f = Var('f', FunType(IND, BOOL))
    hole = Var('h', IND)
    eq = kernel.assume(th, mk_eq(x, y))
    r = rules.subst_context(th, App(f, hole), hole, eq)
    assert r.concl == mk_eq(App(f, x), App(f, y))


def test_rewrite_rhs_unchanged_is_the_same_theorem(th):
    x = Var('x', BOOL)
    thm = kernel.assume(th, mk_eq(x, mk_conj(x, x)))
    assert rules.rewrite_rhs(thm, rules._bp_step) is thm
    redex = App(Abs(x, mk_not(x)), true_c())
    thm = kernel.assume(th, mk_eq(mk_not(true_c()), redex))
    e = rules.rewrite_rhs(thm, rules._bp_step)
    assert e.concl == mk_eq(mk_not(true_c()), mk_not(true_c()))
    assert e.rule == 'transitivity' and e.args[0] is thm


def test_depth_rewrite_normal_term_is_one_reflexivity_step(th):
    x = Var('x', BOOL)
    t = mk_conj(mk_cond(x, true_c(), x), mk_eq(Abs(x, mk_not(x)), Abs(x, x)))
    e = rules.depth_rewrite(th, t, rules._bp_step)
    assert e.rule == 'reflexivity' and e.args == (t,)


def test_depth_rewrite_proves_nothing_about_unchanged_subterms(th):
    # only the path from the root to the rewritten redex gets congruences
    x = Var('x', BOOL)
    big = mk_disj(mk_conj(x, x), mk_not(x))
    redex = App(Abs(x, x), true_c())
    e = rules.depth_rewrite(th, mk_conj(big, redex), rules._bp_step)
    assert rules.rhs(e) == mk_conj(big, true_c())
    rules_used = []
    todo = [e]
    while todo:
        s = todo.pop()
        rules_used.append(s.rule)
        todo.extend(a for a in s.args if isinstance(a, kernel.Theorem))
    # congruence(refl(/\ big), beta) with one reflexivity for the fixed side
    assert sorted(rules_used) == ['beta_conversion', 'congruence', 'reflexivity']


def test_bp_norm_matches_beta_normalize(th):
    x = Var('x', BOOL)
    t = App(Abs(x, mk_conj(x, x)), mk_not(App(Abs(x, x), true_c())))
    e = rules.bp_norm(th, t)
    assert rules.lhs(e) == t
    assert rules.rhs(e) == kernel.beta_normalize(t)


def test_depth_rewrite_custom_rule(th):
    # rewrite ~~p to p everywhere via a one-node rule
    p = Var('p', BOOL)
    eq = rules.taut(th, mk_eq(mk_not(mk_not(p)), p))

    def node(th_, t):
        d = kernel.dest_not(t)
        if d is not None and kernel.dest_not(d) is not None:
            return kernel.instantiate(eq, {p: kernel.dest_not(d)})
        return None

    t = mk_conj(mk_not(mk_not(mk_not(mk_not(p)))), p)
    e = rules.depth_rewrite(th, t, node)
    assert rules.rhs(e) == mk_conj(p, p)


# ---------------------------------------------------------------------------
# The conditional family

def test_cond_true_false_at_several_types(th):
    for ty in (BOOL, IND, FunType(IND, BOOL)):
        x, y = Var('a', ty), Var('b', ty)
        t = rules.cond_true(th, x, y)
        assert t.hyps == () and t.concl == mk_eq(mk_cond(x, y, true_c()), x)
        f = rules.cond_false(th, x, y)
        assert f.hyps == () and f.concl == mk_eq(mk_cond(x, y, false_c()), y)


def test_cond_idem(th):
    x, z = Var('x', IND), Var('z', BOOL)
    t = rules.cond_idem(th, x, z)
    assert t.hyps == () and t.concl == mk_eq(mk_cond(x, x, z), x)


def test_cond_distrib(th):
    x, y, z = Var('x', IND), Var('y', IND), Var('z', BOOL)
    f = Var('f', FunType(IND, BOOL))
    t = rules.cond_distrib(th, f, x, y, z)
    assert t.hyps == ()
    assert t.concl == mk_eq(App(f, mk_cond(x, y, z)),
                            mk_cond(App(f, x), App(f, y), z))


def test_or_as_cond(th):
    x, y = Var('x', BOOL), Var('y', BOOL)
    t = rules.or_as_cond(th, x, y)
    assert t.hyps == () and t.concl == mk_eq(mk_disj(x, y), mk_cond(x, y, x))


def test_bool_cases_split(th):
    p, z, h = Var('p', BOOL), Var('z', BOOL), Var('h', BOOL)
    tmpl = mk_disj(h, mk_not(h))
    tt = rules.taut(th, mk_disj(true_c(), mk_not(true_c())))
    tf = rules.taut(th, mk_disj(false_c(), mk_not(false_c())))
    s = rules.bool_cases_split(th, mk_conj(p, p), h, tmpl, tt, tf)
    assert s.concl == mk_disj(mk_conj(p, p), mk_not(mk_conj(p, p)))


def test_ground_eval_against_local_evaluator(th):
    rng = random.Random(11)
    for _ in range(40):
        t = helpers.random_ground_fragment(rng)
        e = rules.ground_eval(th, t)
        assert rules.lhs(e) == t
        want = helpers.eval_fragment(t, {})
        assert is_true(rules.rhs(e)) == want
        assert is_false(rules.rhs(e)) == (not want)


def test_ground_eval_rejects_variables(th):
    with pytest.raises(kernel.RuleError):
        rules.ground_eval(th, Var('p', BOOL))


def test_taut_known_cases(th):
    p, q = Var('p', BOOL), Var('q', BOOL)
    for t in (mk_disj(p, mk_not(p)),
              mk_eq(mk_conj(p, q), mk_conj(q, p)),
              mk_disj(mk_eq(p, q), mk_eq(p, mk_not(q))),
              mk_eq(mk_cond(p, q, true_c()), p)):
        thm = rules.taut(th, t)
        assert thm.hyps == () and thm.concl == t
    with pytest.raises(kernel.RuleError):
        rules.taut(th, mk_disj(p, q))
    with pytest.raises(kernel.RuleError):
        rules.taut(th, mk_imp(p, p))  # implication is outside the fragment
    with pytest.raises(kernel.RuleError):
        rules.taut(th, mk_eq(Var('x', IND), Var('x', IND)))


@given(FRAG)
@settings(max_examples=50, deadline=None)
def test_taut_agrees_with_truth_tables(t):
    from hogc.closure import bool_valid
    if bool_valid(t):
        assert rules.taut(_TH, t).concl == t
    else:
        with pytest.raises(kernel.RuleError):
            rules.taut(_TH, t)


_TH = kernel.core_theory()
