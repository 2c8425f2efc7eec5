"""Derived rules: propositional moves, rewriting, the conditional family."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hogc import kernel, rules, syntax, terms
from hogc.kernel import (
    Abs, App, BOOL, FunType, IND, PHON, ProdType, Var,
    dest_eq, false_c, mk_conj, mk_cond, mk_disj, mk_eq, mk_forall, mk_imp, mk_not, true_c,
)
from hogc.terms import is_false, is_true, mk_pair

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
    u = helpers.undisch(d2)
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


def _steps_beyond(thm, th, *prems):
    """Sorted rule names of the steps of thm's derivation outside the
    premises' derivations and every cached schema's."""
    known = {}
    for t in list(prems) + [v for v in th._derived_cache.values()
                            if isinstance(v, kernel.Theorem)]:
        known.update(_dag(t))
    d = _dag(thm)
    return sorted(d[i].rule for i in d.keys() - known.keys())


_DISCHARGE = ['deduct_antisym', 'modus_ponens_eq']
_DISCH = ['deduct_antisym', 'instantiate', 'instantiate', 'instantiate',
          'modus_ponens_eq', 'modus_ponens_eq', 'symmetry']


def _use_conj(th, a, b):
    return rules.conj(kernel.assume(th, a), kernel.assume(th, b))


def _use_mp(th, a, b):
    return rules.mp(kernel.assume(th, mk_imp(a, b)), kernel.assume(th, a))


def _use_disj_cases(th, a, b):
    s = mk_conj(a, b)
    return rules.disj_cases(kernel.assume(th, mk_disj(a, b)),
                            kernel.assume(th, s), kernel.assume(th, s))


# a use of a propositional rule is one instantiate of its schema plus, per
# premise, the deduct_antisym and modus_ponens_eq that discharge it; disch
# is three instances and the deduct_antisym that drops p
@pytest.mark.parametrize('use,keys,extra', [
    (_use_conj, ['conj'], _DISCHARGE * 2 + ['instantiate']),
    (lambda th, a, b: rules.conjunct1(kernel.assume(th, mk_conj(a, b))),
     ['conjunct1'], _DISCHARGE + ['instantiate']),
    (lambda th, a, b: rules.conjunct2(kernel.assume(th, mk_conj(a, b))),
     ['conjunct2'], _DISCHARGE + ['instantiate']),
    (_use_mp, ['mp'], _DISCHARGE * 2 + ['instantiate']),
    (lambda th, a, b: rules.disch(a, kernel.assume(th, b)),
     ['conj_eq', 'conjunct1', 'def.imp'], _DISCH),
    (lambda th, a, b: rules.disj1(kernel.assume(th, a), b), ['disj1'],
     _DISCHARGE + ['instantiate']),
    (lambda th, a, b: rules.disj2(a, kernel.assume(th, b)), ['disj2'],
     _DISCHARGE + ['instantiate']),
    (_use_disj_cases, ['disj_cases'], _DISCHARGE * 3 + ['instantiate'] + _DISCH * 2),
    (lambda th, a, b: rules.contr(a, kernel.assume(th, false_c())), ['contr'],
     _DISCHARGE + ['instantiate']),
], ids=['conj', 'conjunct1', 'conjunct2', 'mp', 'disch', 'disj1', 'disj2',
        'disj_cases', 'contr'])
def test_propositional_rules_are_one_schema_instance(use, keys, extra):
    th = kernel.core_theory()
    cache = th._derived_cache
    for n in range(2):
        a, b = Var('a%d' % n, BOOL), Var('b%d' % n, BOOL)
        before = len(cache)
        got = use(th, a, b)
        # derived on first use only
        assert all(('rule', k) in cache for k in keys)
        if n:
            assert len(cache) == before
        prems = [s for s in _dag(got).values() if s.rule == 'assume' and
                 s.concl in (a, b, mk_conj(a, b), mk_imp(a, b), mk_disj(a, b), false_c())]
        assert _steps_beyond(got, th, *prems) == sorted(extra)


def test_case_split_instantiates_the_cached_bool_cases_instance(th):
    z, h = Var('z', BOOL), Var('h', BOOL)
    for c in (Var('c', BOOL), mk_conj(z, h)):
        got = rules.bool_cases_split(th, c, h, mk_disj(h, mk_not(h)),
                                     rules.taut(th, mk_disj(true_c(), mk_not(true_c()))),
                                     rules.taut(th, mk_disj(false_c(), mk_not(false_c()))))
        assert got.concl == mk_disj(c, mk_not(c)) and got.hyps == ()
        assert 'axiom' not in _steps_beyond(got, th)
        assert th._derived_cache[('rule', 'bool_cases')] in _dag(got).values()


# premises written with the schema variables' own names, one of them under a
# binder of that name
_p, _q, _r, _u, _v = (Var(n, BOOL) for n in 'pqruv')
_SCHEMA_NAMED = [_q, _p, mk_conj(_r, _p), App(Var('f', FunType(BOOL, BOOL)), _u),
                 mk_forall(_r, mk_disj(_r, _v)), mk_imp(_p, _q)]


@pytest.mark.parametrize('i,j', [(i, j) for i in range(6) for j in range(6)])
def test_rules_on_premises_named_like_schema_variables(th, i, j):
    a, b = _SCHEMA_NAMED[i], _SCHEMA_NAMED[j]
    s = Var('z', BOOL)
    assume = lambda t: kernel.assume(th, t)

    def check(got, concl, *hyps):
        assert got.concl == concl and set(got.hyps) == set(hyps)
        if len(set(hyps)) == len(hyps):     # the premises' order
            assert got.hyps == hyps

    distinct = (a, b) if a != b else (a,)
    check(rules.conj(assume(a), assume(b)), mk_conj(a, b), *distinct)
    check(rules.conjunct1(assume(mk_conj(a, b))), a, mk_conj(a, b))
    check(rules.conjunct2(assume(mk_conj(a, b))), b, mk_conj(a, b))
    check(rules.mp(assume(mk_imp(a, b)), assume(a)), b, mk_imp(a, b), a)
    check(rules.disch(a, assume(b)), mk_imp(a, b), *(() if a == b else (b,)))
    check(rules.disj1(assume(a), b), mk_disj(a, b), a)
    check(rules.disj2(a, assume(b)), mk_disj(a, b), b)
    t1 = rules.mp(assume(mk_imp(a, s)), assume(a))
    t2 = rules.mp(assume(mk_imp(b, s)), assume(b))
    check(rules.disj_cases(assume(mk_disj(a, b)), t1, t2), s,
          *dict.fromkeys((mk_disj(a, b), mk_imp(a, s), mk_imp(b, s))))
    check(rules.contr(a, assume(false_c())), a, false_c())


def test_disch_removes_only_p(th):
    p, q, r = Var('p', BOOL), Var('q', BOOL), Var('r', BOOL)
    thm = rules.conj(rules.conj(kernel.assume(th, q), kernel.assume(th, p)),
                     kernel.assume(th, r))
    assert thm.hyps == (q, p, r)
    for drop, left in ((p, (q, r)), (q, (p, r)), (r, (q, p)),
                       (mk_conj(p, q), (q, p, r))):
        d = rules.disch(drop, thm)
        assert d.concl == mk_imp(drop, thm.concl) and d.hyps == left
    # a hypothesis p /\ q is kept when p is discharged
    pq = mk_conj(p, q)
    d = rules.disch(p, rules.conjunct2(kernel.assume(th, pq)))
    assert d.concl == mk_imp(p, q) and d.hyps == (pq,)
    assert rules.disch(p, kernel.assume(th, p)).hyps == ()


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
    e = helpers.bp_norm(th, t)
    assert rules.lhs(e) == t
    assert rules.rhs(e) == kernel.beta_normalize(t)


# products and functions of products: pairs are constants, so the in-logic
# beta pass and the kernel's own normaliser agree on them, and their
# canonical form reads back as the same term
_PRODUCT_TYPES = (ProdType(IND, BOOL), ProdType(FunType(IND, BOOL), PHON),
                  FunType(IND, ProdType(BOOL, IND)), FunType(ProdType(IND, IND), BOOL))


@given(st.sampled_from(_PRODUCT_TYPES), st.integers(0, 2 ** 32))
@settings(max_examples=200, deadline=None)
def test_beta_pass_at_product_types_matches_beta_normalize(ty, seed):
    th = kernel.core_theory()
    t = helpers.random_term(random.Random(seed), ty, 3)
    e = rules.rewrite_rhs(kernel.reflexivity(th, t), rules._bp_step)
    assert e.hyps == () and e.concl == mk_eq(t, kernel.beta_normalize(t))
    assert syntax.parse_term(syntax.canonical_term(t), syntax.TermEnv(theory=th)) is t


def test_depth_rewrite_custom_rule(th):
    # rewrite ~~p to p everywhere via a one-node rule
    p = Var('p', BOOL)
    eq = rules.taut(th, mk_eq(mk_not(mk_not(p)), p))

    def node(th_, t):
        d = terms.dest_not(t)
        if d is not None and terms.dest_not(d) is not None:
            return kernel.instantiate(eq, {p: terms.dest_not(d)})
        return None

    t = mk_conj(mk_not(mk_not(mk_not(mk_not(p)))), p)
    e = rules.depth_rewrite(th, t, node)
    assert rules.rhs(e) == mk_conj(p, p)


def _dag(thm):
    """Every theorem in a proof DAG, by id."""
    seen, todo = {}, [thm]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            todo.extend(a for a in t.args if isinstance(a, kernel.Theorem))
    return seen


_PR = ProdType(IND, BOOL)


def _redex(t):
    """(\\w. w) t, which one beta step rewrites to t."""
    w = Var('w', t.ty)
    return App(Abs(w, w), t)


def _proj(name, p):
    return App(kernel.logical_const(name, (p.ty.left, p.ty.right)), p)


# pairs and projections are constants, so rewriting inside one is plain App
# congruence: no schema, and a reflexivity for each unchanged operand
@pytest.mark.parametrize('make,steps', [
    (lambda a, b, c: mk_pair(_redex(a), b), ['beta_conversion', 'congruence',
                                             'congruence', 'reflexivity', 'reflexivity']),
    (lambda a, b, c: mk_pair(a, _redex(b)), ['beta_conversion', 'congruence', 'reflexivity']),
    (lambda a, b, c: mk_pair(_redex(a), _redex(b)), ['beta_conversion', 'beta_conversion',
                                                     'congruence', 'congruence',
                                                     'reflexivity']),
    (lambda a, b, c: _proj('fst', _redex(c)), ['beta_conversion', 'congruence', 'reflexivity']),
    (lambda a, b, c: _proj('snd', _redex(c)), ['beta_conversion', 'congruence', 'reflexivity']),
], ids=['left', 'right', 'both', 'fst', 'snd'])
def test_pair_and_projection_rewrite_by_app_congruence(make, steps):
    th = kernel.core_theory()
    t = make(Var('a', IND), Var('b', BOOL), Var('c', _PR))
    e = rules.depth_rewrite(th, t, rules._bp_step)
    assert e.hyps == () and e.concl == mk_eq(t, kernel.beta_normalize(t))
    assert th._derived_cache == {}
    assert sorted(s.rule for s in _dag(e).values()) == steps


def test_pair_congruence_schemas_at_one_type_keep_sides_apart(th):
    # left and right components of one type: each side is rewritten in place
    a, b = Var('a', IND), Var('b', IND)
    for t, want in ((mk_pair(_redex(a), b), mk_pair(a, b)),
                    (mk_pair(a, _redex(b)), mk_pair(a, b)),
                    (mk_pair(_redex(b), _redex(a)), mk_pair(b, a))):
        e = rules.depth_rewrite(th, t, rules._bp_step)
        assert e.hyps == () and e.concl == mk_eq(t, want)


def test_prove_hyp(th):
    p, q = Var('p', BOOL), Var('q', BOOL)
    pq = mk_conj(p, q)
    thm = rules.conj(kernel.assume(th, p), kernel.assume(th, q))
    got = rules.prove_hyp(rules.conjunct1(kernel.assume(th, pq)), thm)
    assert got.concl == pq and set(got.hyps) == {pq, q}
    got = rules.prove_hyp(rules.truth(th), kernel.assume(th, true_c()))
    assert got.hyps == () and is_true(got.concl)


def test_rewrite_rhs_takes_given_equations_as_they_stand(th):
    # a subterm alpha-equal to a left-hand side in the memo gets that
    # equation; the pass neither descends into it nor walks its right-hand
    # side, so the redexes hidden there stay
    x, y = Var('x', BOOL), Var('y', BOOL)
    f = Var('f', FunType(BOOL, BOOL))
    lhs_term = App(f, _redex(x))
    given_eq = kernel.assume(th, mk_eq(lhs_term, _redex(y)))
    t = mk_conj(App(f, _redex(x)), _redex(x))
    thm = kernel.reflexivity(th, t)
    e = rules.rewrite_rhs(thm, rules._bp_step, {lhs_term: given_eq})
    assert rules.rhs(e) == mk_conj(_redex(y), x)
    assert given_eq in _dag(e).values()
    # no given equation at a node that is not its left-hand side
    e = rules.rewrite_rhs(thm, rules._bp_step, {App(f, x): given_eq})
    assert rules.rhs(e) == mk_conj(App(f, x), x)


def test_rewrite_pass_calls_node_fn_once_per_distinct_subterm(th):
    x, y = Var('x', BOOL), Var('y', BOOL)
    a = mk_disj(x, mk_not(y))
    t = mk_conj(mk_conj(a, a), mk_eq(a, mk_conj(a, a)))
    calls = []

    def node(th_, u):
        calls.append(u)
        return None
    memo = {}
    thm = kernel.reflexivity(th, t)
    assert rules.rewrite_rhs(thm, node, memo) is thm
    assert len(calls) == len(set(calls)) == len(helpers.subterms(t)) == len(memo)
    assert set(memo.values()) == {None}
    # a later pass with the same memo enters only the nodes it has not seen
    calls.clear()
    rules.rewrite_rhs(kernel.reflexivity(th, mk_not(t)), node, memo)
    assert calls == [mk_not(t)]
    # a redex met three times is contracted once and its equation reused
    r = _redex(a)
    steps = []

    def beta(th_, u):
        e = rules._bp_step(th_, u)
        steps.extend([e] if e is not None else [])
        return e
    e = rules.rewrite_rhs(kernel.reflexivity(th, mk_conj(r, mk_conj(r, r))), beta)
    assert rules.rhs(e) == mk_conj(a, mk_conj(a, a)) and len(steps) == 1


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


def test_bool_cases_split_discharges_each_branch_case(th):
    # the result has the hypotheses (A - {z = true}) u (B - {z = false}):
    # each branch may assume its own case, and keeps any other hypothesis
    z, h, r = Var('z', BOOL), Var('h', BOOL), Var('r', BOOL)
    zt, zf = mk_eq(z, true_c()), mk_eq(z, false_c())

    def with_hyp(thm, p):
        return rules.conjunct1(rules.conj(thm, kernel.assume(th, p)))

    tt = with_hyp(kernel.symmetry(kernel.assume(th, zt)), r)
    tf = kernel.symmetry(kernel.assume(th, zf))
    assert set(tt.hyps) == {zt, r} and tf.hyps == (zf,)
    s = rules.bool_cases_split(th, z, h, mk_eq(h, z), tt, tf)
    assert s.concl == mk_eq(z, z) and s.hyps == (r,)
    # a branch's assumption of the other case is not discharged
    s = rules.bool_cases_split(th, z, h, mk_eq(h, z), tt, with_hyp(tf, zt))
    assert set(s.hyps) == {r, zt}


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
